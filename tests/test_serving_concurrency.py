"""Concurrency tests for the serving layer.

The serving stack's threading contract: any number of producer threads may
hit :class:`MicroBatcher.submit` / :class:`InferenceEngine.predict`
concurrently, and

* no response is lost, duplicated, or swapped between callers — every
  submit returns exactly its own row's probabilities;
* the LRU prediction cache stays consistent under contention and its
  entries are immutable (caller mutation raises instead of poisoning
  later hits);
* the ``stats`` counters account for every row exactly once;
* the compiled plan holds no per-request state: requests leave it as
  compiled, answers do not depend on the block they are scored in, and
  runs of one plan outside the engine lock answer exactly as serial ones.

The engine hammering uses a small *untrained* instance artifact — latency
and correctness of the threading machinery do not depend on the weights,
and skipping training keeps the hammering tight.  The plan tests use one
briefly trained artifact per servable formulation.
"""

import sys
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
    formulation: its 80 training rows and their served probabilities."""
    dataset = make_fraud(n=80, seed=0)
    artifact = run_pipeline(
        dataset, formulation=request.param, max_epochs=2, seed=0
    ).export_artifact()
    numerical, categorical = dataset.numerical, dataset.categorical
    reference = InferenceEngine(artifact, cache_size=0).predict_batch(
        numerical, categorical
    )
    return artifact, numerical, categorical, reference


class TestCompiledPlanIsolation:
    """The compiled serve path holds no per-request state.

    A plan's kernels return new arrays and write none of their inputs, so
    requests leave the plan as it was compiled, an answer once returned is
    never written again, a row's answer does not depend on the block it is
    scored in, and engines over one artifact serve concurrent callers
    their own rows.  Every servable formulation's plan is held to this.
    """

    def test_requests_leave_the_plan_as_compiled(self, plan_served):
        artifact, numerical, categorical, _ = plan_served
        engine = InferenceEngine(artifact, cache_size=0)
        assert engine.compiled
        plan = engine._scorer.plan
        # read-only copies, so a kernel that wrote a constant raises
        for name in list(plan.consts):
            plan.consts[name] = plan.consts[name].copy()
            plan.consts[name].flags.writeable = False
        steps, feeds, output = list(plan.steps), list(plan.feeds), plan.output
        consts = {name: array.copy() for name, array in plan.consts.items()}
        held = [engine.predict(numerical[i], categorical[i]) for i in range(12)]
        held += [
            engine.predict_batch(numerical[rows], categorical[rows])
            for rows in (slice(0, 8), slice(8, 24), slice(24, 25))
        ]
        copies = [answer.copy() for answer in held]
        engine.predict_batch(numerical[:16], categorical[:16])
        assert (plan.steps, plan.feeds, plan.output) == (steps, feeds, output)
        assert plan.consts.keys() == consts.keys()
        for name, array in consts.items():
            assert np.array_equal(plan.consts[name], array), name
        for answer, copy in zip(held, copies):
            assert np.array_equal(answer, copy)

    def test_answers_do_not_depend_on_the_block_size(self, plan_served):
        artifact, numerical, categorical, reference = plan_served
        engine = InferenceEngine(artifact, cache_size=0)
        for rows in (slice(0, 8), slice(8, 16), slice(0, 16), slice(16, 32)):
            np.testing.assert_allclose(
                engine.predict_batch(numerical[rows], categorical[rows]),
                reference[rows], atol=1e-12,
            )
        for i in (0, 31, 79):
            np.testing.assert_allclose(
                engine.predict(numerical[i], categorical[i]), reference[i],
                atol=1e-12,
            )

    def test_concurrent_engines_serve_their_callers(self, plan_served):
        artifact, numerical, categorical, reference = plan_served
        engines = [InferenceEngine(artifact, cache_size=0) for _ in range(2)]
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


def test_one_plan_serves_concurrent_callers(plan_served):
    # A compiled plan holds no per-request state: eight threads scoring
    # 1-, 7- and 16-row blocks through one engine's scorer, with no engine
    # lock around them, each get exactly the serial answer for their block.
    # The plan's feeds are read-only, so a kernel that wrote one raises.
    artifact, numerical, categorical, _ = plan_served
    engine = InferenceEngine(artifact, cache_size=0)
    assert engine.compiled
    scorer, plan = engine._scorer, engine._scorer.plan
    run = plan.run

    def run_on_read_only_feeds(feeds):
        for array in feeds.values():
            array.flags.writeable = False
        return run(feeds)

    plan.run = run_on_read_only_feeds
    numerical, categorical = artifact.preprocessor.normalize_rows(
        numerical, categorical
    )
    rng = np.random.default_rng(5)
    blocks = [
        slice(start, start + size)
        for size in rng.permutation(np.repeat([1, 7, 16], 256))
        for start in [int(rng.integers(0, 80 - size))]
    ]

    def score(block):
        # copied at once: the check sees what this call computed, even if
        # a later call were to write into the array it returned
        return scorer.score(numerical[block], categorical[block]).copy()

    serial = [score(block) for block in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races show
    try:
        with ThreadPoolExecutor(8) as pool:
            answers = list(pool.map(score, blocks, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for block, got, want in zip(blocks, answers, serial):
        assert np.array_equal(got, want), block
