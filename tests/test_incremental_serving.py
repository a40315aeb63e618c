"""Tests for pool-cached query scoring through the serving stack.

The default path (cached per-step pool activations folded into a compiled
plan) must be numerically indistinguishable from the full-graph oracle
(``compiled=False``: rebuild the (pool + queries) graph, re-forward
everything) for **every** network in the zoo — operator, attention and
gated stacks alike — across retrieval metrics and batch sizes.  Also
covers the supporting machinery this path leans on: memoized graph
operators and edge views, the precomputed ``PoolIndex``, skip-init
artifact loading, and LRU cache eviction/read-only guarantees.
"""

import numpy as np
import pytest

from repro.construction.retrieval import PoolIndex
from repro.construction.rules import knn_graph, pairwise_similarity
from repro.datasets import TabularPreprocessor, make_correlated_instances, make_fraud
from repro.formulations import RowScorer
from repro.gnn.networks import build_network
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, ModelArtifact

POOL_ROWS = 90
K = 6
ALL_NETWORKS = ["gcn", "sage", "gin", "gat", "gated"]


def _instance_artifact(network, metric, seed=0, num_layers=2):
    """Random-weight instance artifact — parity doesn't need training."""
    dataset = make_correlated_instances(n=POOL_ROWS, seed=seed)
    prep = TabularPreprocessor(mode="onehot").fit(dataset)
    x = prep.transform_dataset(dataset)
    graph = knn_graph(x, k=5, metric="euclidean", y=dataset.y)
    model = build_network(
        "gated" if network == "gated" else network,
        graph,
        16,
        dataset.num_classes,
        np.random.default_rng(seed),
        num_layers=num_layers,
    )
    artifact = ModelArtifact(
        formulation="instance",
        network=network,
        config={
            "hidden_dim": 16,
            "out_dim": dataset.num_classes,
            "k": K,
            "metric": metric,
            "num_layers": num_layers,
            "embed_dim": 8,
            "task": dataset.task,
        },
        state_dict=model.state_dict(),
        preprocessor=prep,
        pool_x=np.asarray(graph.x, dtype=np.float64),
        pool_edge_index=graph.edge_index.astype(np.int64),
    )
    return dataset, artifact


# ----------------------------------------------------------------------
# pool-cached (compiled) vs full-graph parity
# ----------------------------------------------------------------------
class TestIncrementalParity:
    @pytest.mark.parametrize("network", ALL_NETWORKS)
    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "rbf"])
    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_predict_batch_matches_full_graph_oracle(
        self, network, metric, batch_size
    ):
        dataset, artifact = _instance_artifact(network, metric)
        incremental = InferenceEngine(artifact, cache_size=0)
        oracle = InferenceEngine(artifact, cache_size=0, compiled=False)
        assert incremental.compiled and not oracle.compiled
        rng = np.random.default_rng(7)
        rows = dataset.numerical[:batch_size] + rng.normal(
            0.0, 0.1, (batch_size, dataset.num_numerical)
        )
        got = incremental.predict_batch(rows)
        expected = oracle.predict_batch(rows)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    @pytest.mark.parametrize("network", ["gcn", "gat"])
    def test_three_layer_stack_parity(self, network):
        dataset, artifact = _instance_artifact(network, "euclidean", num_layers=3)
        incremental = InferenceEngine(artifact, cache_size=0)
        oracle = InferenceEngine(artifact, cache_size=0, compiled=False)
        rows = dataset.numerical[:4] + 0.05
        np.testing.assert_allclose(
            incremental.predict_batch(rows), oracle.predict_batch(rows), atol=1e-8
        )

    @pytest.mark.parametrize("network", ALL_NETWORKS)
    def test_auto_mode_picks_incremental_for_every_network(self, network):
        _, artifact = _instance_artifact(network, "euclidean")
        assert InferenceEngine(artifact, cache_size=0).compiled is True

    @pytest.mark.parametrize("network", ["gat", "gated"])
    def test_oracle_path_retained_for_explicit_opt_out(self, network):
        dataset, artifact = _instance_artifact(network, "euclidean")
        engine = InferenceEngine(artifact, cache_size=0, compiled=False)
        assert engine.compiled is False
        probs = engine.predict_batch(dataset.numerical[:2])
        assert probs.shape == (2, dataset.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    def test_model_built_once_and_reused_across_requests(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        builds = []
        original = artifact.build_model
        artifact.build_model = lambda graph=None: (
            builds.append(original(graph)) or builds[-1]
        )
        engine = InferenceEngine(artifact, cache_size=0)
        assert len(builds) == 1, "compile_plan builds the model once"
        for i in range(3):
            engine.predict(dataset.numerical[i] + 0.01)
        assert len(builds) == 1, "the compiled path must not rebuild per request"


# ----------------------------------------------------------------------
# supporting machinery
# ----------------------------------------------------------------------
class TestPoolIndex:
    @pytest.mark.parametrize(
        "measure", ["cosine", "euclidean", "rbf", "heat", "inner", "pearson"]
    )
    def test_top_k_matches_stacked_pairwise_similarity(self, measure):
        # Reference: rank the pool by the dense similarity of the stacked
        # (queries + pool) matrix, the math PoolIndex precomputes away.
        rng = np.random.default_rng(0)
        pool = rng.normal(size=(40, 6))
        queries = rng.normal(size=(5, 6))
        stacked = pairwise_similarity(np.concatenate([queries, pool]), measure)
        reference = np.argsort(-stacked[:5, 5:], axis=1, kind="stable")[:, :4]
        np.testing.assert_array_equal(
            PoolIndex(pool, measure).top_k(queries, 4), reference
        )

    def test_k_bounds_validated(self):
        index = PoolIndex(np.eye(3))
        with pytest.raises(ValueError):
            index.top_k(np.eye(3), 0)
        with pytest.raises(ValueError):
            index.top_k(np.eye(3), 4)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PoolIndex(np.zeros((0, 3)))


class TestMemoizedOperators:
    def test_adjacency_operators_are_cached(self):
        g = knn_graph(np.random.default_rng(0).normal(size=(30, 4)), k=3)
        assert g.adjacency() is g.adjacency()
        assert g.gcn_adjacency() is g.gcn_adjacency()
        assert g.mean_adjacency() is g.mean_adjacency()
        assert g.mean_adjacency(True) is g.mean_adjacency(True)
        assert g.mean_adjacency() is not g.mean_adjacency(True)

    def test_structure_transforms_get_fresh_caches(self):
        g = knn_graph(np.random.default_rng(0).normal(size=(30, 4)), k=3)
        adj = g.adjacency()
        looped = g.add_self_loops()
        assert looped.adjacency() is not adj
        assert looped.adjacency().diagonal().sum() == 30


class TestSkipInitArtifactLoading:
    def test_skip_init_and_random_init_load_identical_models(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        graph = artifact.pool_graph()
        fast = artifact.build_model(graph)
        slow = artifact.build_model(graph, skip_init=False)
        for (name_f, p_f), (name_s, p_s) in zip(
            fast.named_parameters(), slow.named_parameters()
        ):
            assert name_f == name_s
            np.testing.assert_array_equal(p_f.data, p_s.data)
        rows = dataset.numerical[:3]
        engine = InferenceEngine(artifact, cache_size=0)
        assert engine.predict_batch(rows).shape == (3, dataset.num_classes)


@pytest.fixture(scope="module")
def hypergraph_serving():
    dataset = make_fraud(n=120, seed=0)
    result = run_pipeline(dataset, formulation="hypergraph", max_epochs=2, seed=0)
    return dataset, result.export_artifact()


# ----------------------------------------------------------------------
# LRU cache: eviction, size accounting, read-only entries
# ----------------------------------------------------------------------
class TestCacheEvictionAndSafety:
    @pytest.mark.parametrize(
        "cache_size, second",
        [
            # rows 1 and 0 hit the cache; the repeated fresh row 2 is
            # scored once and counts in ``rows`` only
            (8, {"rows": 7, "cache_hits": 2, "forward_passes": 2,
                 "forward_rows": 3}),
            (0, {"rows": 7, "cache_hits": 0, "forward_passes": 2,
                 "forward_rows": 5}),
        ],
    )
    def test_batch_counters_with_repeated_rows(
        self, hypergraph_serving, cache_size, second
    ):
        dataset, artifact = hypergraph_serving
        engine = InferenceEngine(artifact, cache_size=cache_size)

        def batch(rows):
            return engine.predict_batch(
                dataset.numerical[rows], dataset.categorical[rows]
            )

        def counters():
            snapshot = engine.snapshot()
            return {key: snapshot[key] for key in second}

        first = batch([0, 0, 1])
        np.testing.assert_array_equal(first[0], first[1])
        assert counters() == {
            "rows": 3, "cache_hits": 0, "forward_passes": 1, "forward_rows": 2,
        }
        out = batch([1, 2, 2, 0])
        np.testing.assert_array_equal(out[0], first[2])
        np.testing.assert_array_equal(out[3], first[0])
        assert counters() == second

    def test_predict_on_two_rows_raises_before_counting(self, hypergraph_serving):
        dataset, artifact = hypergraph_serving
        engine = InferenceEngine(artifact, cache_size=8)
        engine.predict(dataset.numerical[0], dataset.categorical[0])
        before = engine.snapshot()
        with pytest.raises(ValueError, match="one row"):
            engine.predict(dataset.numerical[:2], dataset.categorical[:2])
        assert engine.snapshot() == before
        assert len(engine._cache) == 1

    def test_plugin_scorer_records_score_and_its_own_stages(
        self, hypergraph_serving, monkeypatch
    ):
        # A plug-in scorer with no compiled plan gets the engine's score
        # span around its score call, and its own stage() marks nest in it.
        dataset, artifact = hypergraph_serving

        class PluginScorer(RowScorer):
            def __init__(self, artifact, stats):
                self.classes = artifact.num_classes

            def score(self, numerical, categorical):
                with self.stage("encode"):
                    return np.zeros((numerical.shape[0], self.classes))

        monkeypatch.setattr(artifact.fitted, "make_scorer", PluginScorer)
        engine = InferenceEngine(artifact)
        assert not engine.compiled and engine._scorer.plan is None
        probs = engine.predict(dataset.numerical[0], dataset.categorical[0])
        np.testing.assert_allclose(probs, 1.0 / artifact.num_classes)
        text = engine.registry.render_prometheus()
        for stage in ("cache", "score", "encode", "head"):
            assert (
                'repro_stage_duration_seconds_count'
                f'{{formulation="hypergraph",stage="{stage}"}} 1'
            ) in text, stage

    def test_lru_eviction_order_and_size_accounting(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        engine = InferenceEngine(artifact, cache_size=3)
        rows = [dataset.numerical[i] + 0.01 for i in range(5)]
        for row in rows:
            engine.predict(row)
        assert len(engine._cache) == 3
        assert engine.stats["forward_passes"] == 5
        # rows 0 and 1 were evicted (LRU); 2..4 are resident.
        engine.predict(rows[4])
        engine.predict(rows[2])
        assert engine.stats["forward_passes"] == 5
        assert engine.stats["cache_hits"] == 2
        # Touching row 0 again recomputes and evicts the stalest (row 3).
        engine.predict(rows[0])
        assert engine.stats["forward_passes"] == 6
        assert len(engine._cache) == 3
        engine.predict(rows[3])
        assert engine.stats["forward_passes"] == 7

    def test_cached_probabilities_are_read_only(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        engine = InferenceEngine(artifact, cache_size=8)
        probs = engine.predict(dataset.numerical[0])
        assert probs.flags.writeable is False
        with pytest.raises(ValueError):
            probs[0] = 0.5
        # The cache entry is intact: the hit still sums to one.
        again = engine.predict(dataset.numerical[0])
        assert again is probs
        np.testing.assert_allclose(again.sum(), 1.0, atol=1e-12)

    def test_batch_output_rows_are_caller_owned_copies(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        engine = InferenceEngine(artifact, cache_size=8)
        out = engine.predict_batch(dataset.numerical[:2])
        out[0, 0] = 123.0  # must not raise nor poison the cache
        fresh = engine.predict_batch(dataset.numerical[:2])
        assert fresh[0, 0] != 123.0
        assert engine.stats["cache_hits"] >= 2
