"""Concurrency tests for the serving layer.

The serving stack's threading contract: any number of producer threads may
hit :class:`MicroBatcher.submit` / :class:`InferenceEngine.predict`
concurrently, and

* no response is lost, duplicated, or swapped between callers — every
  submit returns exactly its own row's probabilities;
* the LRU prediction cache stays consistent under contention and its
  entries are immutable (caller mutation raises instead of poisoning
  later hits);
* the ``stats`` counters account for every row exactly once.

The artifact under test is a small *untrained* instance artifact — latency
and correctness of the threading machinery do not depend on the weights,
and skipping training keeps the hammering tight.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import formulations
from repro.construction.rules import knn_graph
from repro.datasets import TabularPreprocessor, make_correlated_instances, make_fraud
from repro.gnn.networks import build_network
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, MicroBatcher, ModelArtifact


@pytest.fixture(scope="module")
def artifact():
    dataset = make_correlated_instances(n=80, seed=0)
    prep = TabularPreprocessor(mode="onehot").fit(dataset)
    x = prep.transform_dataset(dataset)
    graph = knn_graph(x, k=5, metric="euclidean", y=dataset.y)
    model = build_network(
        "gcn", graph, 16, dataset.num_classes, np.random.default_rng(0),
        num_layers=2,
    )
    return ModelArtifact(
        formulation="instance",
        network="gcn",
        config={
            "hidden_dim": 16, "out_dim": dataset.num_classes, "k": 5,
            "metric": "euclidean", "num_layers": 2, "embed_dim": 8,
            "task": dataset.task,
        },
        state_dict=model.state_dict(),
        preprocessor=prep,
        pool_x=np.asarray(graph.x, dtype=np.float64),
        pool_edge_index=graph.edge_index.astype(np.int64),
    )


@pytest.fixture(scope="module")
def rows(artifact):
    rng = np.random.default_rng(42)
    return rng.normal(0.0, 1.0, (64, artifact.preprocessor.num_numerical_features))


@pytest.fixture(scope="module")
def reference(artifact, rows):
    """Single-threaded ground truth for every row in the universe."""
    return InferenceEngine(artifact, cache_size=0).predict_batch(rows)


class TestMicroBatcherHammering:
    def test_no_lost_duplicated_or_swapped_responses(self, artifact, rows, reference):
        n_threads, per_thread = 16, 24
        engine = InferenceEngine(artifact, cache_size=0)
        picks = np.random.default_rng(7).integers(
            0, rows.shape[0], (n_threads, per_thread)
        )
        with MicroBatcher(engine, max_batch_size=32, max_delay_ms=2.0) as batcher:
            def worker(thread_idx):
                out = []
                for row_idx in picks[thread_idx]:
                    out.append((row_idx, batcher.submit(rows[row_idx])))
                return out

            with ThreadPoolExecutor(n_threads) as pool:
                results = list(pool.map(worker, range(n_threads)))
            stats = dict(batcher.stats)

        total = n_threads * per_thread
        # Accurate counters: every row accounted for exactly once.
        assert stats["rows"] == total
        assert engine.stats["rows"] == total
        assert 1 <= stats["batches"] <= total
        assert stats["largest_batch"] <= 32
        # Every caller got exactly its own row's probabilities back.
        for thread_results in results:
            assert len(thread_results) == per_thread
            for row_idx, probs in thread_results:
                np.testing.assert_allclose(probs, reference[row_idx], atol=1e-12)

    def test_error_rows_fail_their_caller_only(self, artifact, rows):
        engine = InferenceEngine(artifact, cache_size=0)
        with MicroBatcher(engine, max_batch_size=8, max_delay_ms=2.0) as batcher:
            with pytest.raises(ValueError, match="numerical columns"):
                batcher.submit(np.zeros(rows.shape[1] + 3))
            # The batcher (and its consumer thread) survive the bad row.
            good = batcher.submit(rows[0])
            assert np.isfinite(good).all()

    def test_flush_drains_all_in_flight_rows(self, artifact, rows):
        engine = InferenceEngine(artifact, cache_size=0)
        results = [None] * 48
        # Batch window larger than the submit burst: all 48 rows are
        # queued (in flight, unanswered) when flush() is called.
        with MicroBatcher(engine, max_batch_size=64, max_delay_ms=250.0) as batcher:
            def worker(i):
                results[i] = batcher.submit(rows[i % rows.shape[0]])

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(48)
            ]
            for t in threads:
                t.start()
            deadline = time.time() + 5.0
            while batcher._pending < 48 and time.time() < deadline:
                time.sleep(0.001)
            assert batcher._pending == 48
            # flush() blocks until every submitted row has been answered.
            assert batcher.flush(timeout=30.0)
            assert batcher._pending == 0
            assert batcher.snapshot()["rows"] == 48
            for t in threads:
                t.join(timeout=10.0)
            assert all(
                r is not None and np.isfinite(r).all() for r in results
            )
            # Gauges read live state: drained means empty queue, nothing
            # in flight.
            registry = engine.registry
            assert registry.get("repro_batcher_queue_depth").value == 0
            assert registry.get("repro_batcher_in_flight").value == 0
        # flush() on an idle (even closed) batcher returns immediately.
        assert batcher.flush(timeout=0.1)

    def test_in_flight_gauge_counts_submitted_unanswered_rows(self, artifact, rows):
        engine = InferenceEngine(artifact, cache_size=0)
        # A huge delay + batch size keeps rows queued until the window
        # closes, long enough to observe them in flight.
        with MicroBatcher(engine, max_batch_size=64, max_delay_ms=200.0) as batcher:
            registry = engine.registry
            in_flight = registry.get("repro_batcher_in_flight")
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(batcher.submit, rows[i]) for i in range(4)
                ]
                deadline = time.time() + 5.0
                while in_flight.value < 4 and time.time() < deadline:
                    time.sleep(0.001)
                assert in_flight.value == 4
                assert batcher.flush(timeout=30.0)
                assert in_flight.value == 0
                for f in futures:
                    assert np.isfinite(f.result()).all()
            # Queue-wait histogram saw every row, dominated by the delay
            # window the first row waited out.
            wait = registry.get("repro_batcher_queue_wait_seconds")
            assert wait.count == 4
            assert registry.get("repro_batcher_batch_size").count >= 1


class TestEngineCacheHammering:
    def test_lru_consistent_under_contention(self, artifact, rows, reference):
        engine = InferenceEngine(artifact, cache_size=8)
        n_threads, per_thread = 12, 60
        picks = np.random.default_rng(11).integers(
            0, 16, (n_threads, per_thread)  # 16 hot rows >> 8 cache slots
        )
        errors = []

        def worker(thread_idx):
            try:
                for row_idx in picks[thread_idx]:
                    probs = engine.predict(rows[row_idx])
                    np.testing.assert_allclose(
                        probs, reference[row_idx], atol=1e-12
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = n_threads * per_thread
        # Every row was either a cache hit or went through a forward pass.
        assert engine.stats["rows"] == total
        assert engine.stats["cache_hits"] + engine.stats["forward_rows"] == total
        assert engine.stats["cache_hits"] > 0
        assert len(engine._cache) <= 8

    def test_snapshot_consistent_while_predictions_run(self, artifact, rows):
        # engine.snapshot() takes the engine lock, under which every stat
        # mutation happens — so even mid-hammering, any snapshot satisfies
        # the accounting invariant: each row was a cache hit XOR a forward.
        engine = InferenceEngine(artifact, cache_size=8)
        picks = np.random.default_rng(17).integers(0, 16, (8, 40))
        stop = threading.Event()
        violations = []
        errors = []

        def worker(thread_idx):
            try:
                for row_idx in picks[thread_idx]:
                    engine.predict(rows[row_idx])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def observer():
            while not stop.is_set():
                snap = engine.snapshot()
                if snap["cache_hits"] + snap["forward_rows"] != snap["rows"]:
                    violations.append(snap)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        obs_thread = threading.Thread(target=observer)
        obs_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        obs_thread.join()
        assert not errors
        assert not violations
        final = engine.snapshot()
        assert final["rows"] == 8 * 40
        assert final["cache_hits"] + final["forward_rows"] == final["rows"]

    def test_cache_entries_are_immutable(self, artifact, rows, reference):
        engine = InferenceEngine(artifact, cache_size=4)
        probs = engine.predict(rows[0])
        with pytest.raises(ValueError):
            probs[0] = 123.0
        # A second hit returns the uncorrupted entry.
        again = engine.predict(rows[0])
        assert engine.stats["cache_hits"] == 1
        np.testing.assert_allclose(again, reference[0], atol=1e-12)

    def test_mixed_single_and_batch_traffic(self, artifact, rows, reference):
        engine = InferenceEngine(artifact, cache_size=16)
        picks = np.random.default_rng(13).integers(0, rows.shape[0], (8, 10))
        errors = []

        def single(thread_idx):
            try:
                for row_idx in picks[thread_idx]:
                    np.testing.assert_allclose(
                        engine.predict(rows[row_idx]),
                        reference[row_idx],
                        atol=1e-12,
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def batch(thread_idx):
            try:
                idx = picks[thread_idx]
                np.testing.assert_allclose(
                    engine.predict_batch(rows[idx]), reference[idx], atol=1e-12
                )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=single if i % 2 else batch, args=(i,))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert engine.stats["rows"] == 8 * 10


@pytest.fixture(scope="module", params=formulations.servable())
def plan_served(request):
    """``(artifact, numerical, categorical, reference)`` for one servable
    formulation: 32 distinct training rows and their served probabilities."""
    dataset = make_fraud(n=80, seed=0)
    artifact = run_pipeline(
        dataset, formulation=request.param, max_epochs=2, seed=0
    ).export_artifact()
    numerical, categorical = dataset.numerical[:32], dataset.categorical[:32]
    reference = InferenceEngine(artifact, cache_size=0).predict_batch(
        numerical, categorical
    )
    return artifact, numerical, categorical, reference


class TestCompiledPlanBuffers:
    """Allocation stability and isolation of the compiled serve path.

    The compiled plan owns its scratch/output buffers: after the first
    request at a given batch size, repeated requests reuse the very same
    arrays (no allocation on the hot path), and a batch-size change
    triggers exactly one reallocation.  Buffers are per-engine — two
    engines serving the same artifact never share mutable state, which is
    what makes the engine-lock-per-engine threading model sound.  Every
    servable formulation's plan is held to this.
    """

    def test_output_buffer_stable_across_requests(self, plan_served):
        artifact, numerical, categorical, _ = plan_served
        engine = InferenceEngine(artifact, cache_size=0)
        assert engine.compiled
        plan = engine._scorer.plan
        engine.predict(numerical[0], categorical[0])
        assert plan.reallocations == 1
        out_id = id(plan.buffers[plan.output])
        buffer_ids = {name: id(buf) for name, buf in plan.buffers.items()}
        for i in range(1, 12):
            engine.predict(numerical[i], categorical[i])
        assert plan.reallocations == 1  # warm path never reallocates
        assert id(plan.buffers[plan.output]) == out_id
        assert {name: id(buf) for name, buf in plan.buffers.items()} == buffer_ids

    def test_batch_size_change_reallocates_exactly_once(self, plan_served):
        artifact, numerical, categorical, _ = plan_served
        engine = InferenceEngine(artifact, cache_size=0)
        plan = engine._scorer.plan
        engine.predict_batch(numerical[:8], categorical[:8])
        assert plan.reallocations == 1
        engine.predict_batch(numerical[8:16], categorical[8:16])  # reuse
        assert plan.reallocations == 1
        engine.predict_batch(numerical[:16], categorical[:16])  # one realloc
        assert plan.reallocations == 2
        engine.predict_batch(numerical[16:32], categorical[16:32])
        assert plan.reallocations == 2

    def test_concurrent_engines_do_not_share_plan_buffers(self, plan_served):
        artifact, numerical, categorical, reference = plan_served
        engines = [InferenceEngine(artifact, cache_size=0) for _ in range(2)]
        for engine in engines:
            engine.predict_batch(numerical[:4], categorical[:4])
        plans = [e._scorer.plan for e in engines]
        assert plans[0] is not plans[1]
        ids = [
            {id(buf) for buf in plan.buffers.values()} for plan in plans
        ]
        assert not ids[0] & ids[1], "engines share mutable plan buffers"
        # And hammering both concurrently stays correct.
        errors = []

        def worker(engine):
            try:
                for i in range(40):
                    row = i % 16
                    np.testing.assert_allclose(
                        engine.predict(numerical[row], categorical[row]),
                        reference[row], atol=1e-12,
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(engine,))
            for engine in engines for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
