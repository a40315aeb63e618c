"""Unit tests for graph construction: rules, intrinsic, learned, retrieval."""

import numpy as np
import pytest

from repro import nn
from repro.construction import (
    DirectGraphLearner,
    MetricGraphLearner,
    NeuralGraphLearner,
    bipartite_from_dataset,
    dense_gcn_norm,
    feature_graph_from_correlation,
    feature_graph_from_knowledge,
    fully_connected_graph,
    hetero_from_dataset,
    hypergraph_from_dataset,
    knn_edges,
    knn_graph,
    multiplex_from_dataset,
    pairwise_distances,
    pairwise_similarity,
    retrieval_augmented_graph,
    same_value_graph,
    threshold_graph,
    topk_sparsify,
)
from repro.datasets import TabularDataset, make_correlated_instances, make_fraud
from repro.graph import edge_homophily
from repro.tensor import Tensor, ops

RNG = np.random.default_rng(5)


class TestPairwiseMeasures:
    def test_euclidean_matches_manual(self):
        x = RNG.normal(size=(6, 3))
        d = pairwise_distances(x, "euclidean")
        manual = np.linalg.norm(x[2] - x[4])
        assert d[2, 4] == pytest.approx(manual, abs=1e-10)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-6)

    def test_manhattan(self):
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert pairwise_distances(x, "manhattan")[0, 1] == pytest.approx(3.0)

    def test_cosine_distance_range(self):
        x = RNG.normal(size=(5, 4))
        d = pairwise_distances(x, "cosine")
        assert np.all(d >= -1e-12) and np.all(d <= 2 + 1e-12)

    def test_cosine_similarity_self_is_one(self):
        x = RNG.normal(size=(5, 4))
        s = pairwise_similarity(x, "cosine")
        np.testing.assert_allclose(np.diag(s), 1.0)

    def test_rbf_in_unit_interval(self):
        s = pairwise_similarity(RNG.normal(size=(6, 3)), "rbf")
        assert np.all(s > 0) and np.all(s <= 1 + 1e-12)

    def test_pearson_invariant_to_row_shift(self):
        x = RNG.normal(size=(4, 5))
        s1 = pairwise_similarity(x, "pearson")
        s2 = pairwise_similarity(x + 10.0, "pearson")
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_unknown_measure_raises(self):
        with pytest.raises(ValueError):
            pairwise_similarity(np.ones((2, 2)), "minkowski7")
        with pytest.raises(ValueError):
            pairwise_distances(np.ones((2, 2)), "nope")


class TestKNN:
    def test_each_node_has_k_out_neighbors(self):
        x = RNG.normal(size=(20, 4))
        edges = knn_edges(x, k=3)
        assert edges.shape == (2, 60)
        counts = np.bincount(edges[1], minlength=20)
        np.testing.assert_array_equal(counts, 3)

    def test_no_self_edges(self):
        edges = knn_edges(RNG.normal(size=(10, 2)), k=4)
        assert np.all(edges[0] != edges[1])

    def test_nearest_neighbor_is_correct(self):
        x = np.array([[0.0], [0.1], [5.0]])
        edges, dist = knn_edges(x, k=1, include_distances=True)
        lookup = {dst: src for src, dst in edges.T}
        assert lookup[0] == 1 and lookup[1] == 0 and lookup[2] == 1
        assert dist[0] == pytest.approx(0.1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            knn_edges(np.ones((3, 1)), k=3)
        with pytest.raises(ValueError):
            knn_edges(np.ones((3, 1)), k=0)

    @pytest.mark.parametrize("metric", ["manhattan", "cosine", "rbf", "inner"])
    def test_distances_only_for_euclidean(self, metric):
        with pytest.raises(ValueError, match="euclidean"):
            knn_edges(RNG.normal(size=(10, 2)), k=3, metric=metric,
                      include_distances=True)

    def test_symmetric_graph(self):
        g = knn_graph(RNG.normal(size=(15, 3)), k=3)
        pairs = set(map(tuple, g.edge_index.T))
        assert all((b, a) in pairs for a, b in pairs)

    def test_homophily_grows_with_cluster_strength(self):
        weak = make_correlated_instances(n=200, cluster_strength=0.0, seed=1)
        strong = make_correlated_instances(n=200, cluster_strength=3.0, seed=1)
        h_weak = edge_homophily(knn_graph(weak.to_matrix(), 5).edge_index, weak.y)
        h_strong = edge_homophily(knn_graph(strong.to_matrix(), 5).edge_index, strong.y)
        assert h_strong > h_weak + 0.2


class TestOtherRules:
    def test_threshold_graph_edges(self):
        x = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0]])
        g = threshold_graph(x, threshold=0.9, measure="cosine")
        pairs = set(map(tuple, g.edge_index.T))
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (0, 2) not in pairs

    def test_threshold_weighted(self):
        g = threshold_graph(RNG.normal(size=(6, 3)), threshold=-2.0,
                            measure="cosine", weighted=True)
        assert g.edge_weight is not None
        assert g.edge_weight.shape == (g.num_edges,)

    def test_fully_connected_count(self):
        g = fully_connected_graph(5)
        assert g.num_edges == 20
        g_loops = fully_connected_graph(5, self_loops=True)
        assert g_loops.num_edges == 25

    def test_same_value_graph_connects_groups(self):
        codes = np.array([0, 0, 1, 1, 1, -1])
        g = same_value_graph(codes)
        pairs = set(map(tuple, g.edge_index.T))
        assert (0, 1) in pairs and (2, 3) in pairs
        assert not any(5 in p for p in pairs)  # missing code isolated
        assert (0, 2) not in pairs

    def test_same_value_graph_caps_edges(self):
        codes = np.zeros(50, dtype=int)
        g = same_value_graph(codes, max_group_degree=5)
        # Sampling bounds total edges at 2 * n * cap (symmetrized), far
        # below the full clique's 50 * 49.
        assert g.num_edges <= 2 * 50 * 5
        full = same_value_graph(codes, max_group_degree=None)
        assert full.num_edges == 50 * 49


class TestIntrinsicBuilders:
    def make_mixed(self):
        return make_fraud(n=80, seed=0)

    def test_bipartite_from_dataset(self):
        ds = self.make_mixed()
        g = bipartite_from_dataset(ds)
        assert g.num_instances == 80
        assert g.num_features == ds.num_numerical + ds.num_category_values
        # numerical part fully observed + one edge per categorical column
        assert g.num_edges == 80 * ds.num_numerical + 80 * ds.num_categorical

    def test_bipartite_requires_features(self):
        empty = TabularDataset(np.zeros((3, 0)), None, np.zeros(3), "binary")
        with pytest.raises(ValueError):
            bipartite_from_dataset(empty)

    def test_hetero_from_dataset(self):
        ds = self.make_mixed()
        g = hetero_from_dataset(ds)
        assert g.node_counts["instance"] == 80
        assert "device" in g.node_counts and "merchant" in g.node_counts
        assert any(et[1].startswith("rev_") for et in g.edge_types)
        assert g.y is not None and g.target_type == "instance"

    def test_hetero_requires_categoricals(self):
        numeric_only = make_correlated_instances(n=20, seed=0)
        with pytest.raises(ValueError):
            hetero_from_dataset(numeric_only)
        g = hetero_from_dataset(numeric_only, include_numerical_bins=True)
        assert len(g.node_counts) > 1

    def test_multiplex_from_dataset(self):
        ds = self.make_mixed()
        g = multiplex_from_dataset(ds)
        assert g.relations == ["device", "merchant"]
        assert g.num_nodes == 80
        assert list(g.value_layers) == g.relations
        assert np.array_equal(g.value_layers["merchant"], ds.categorical[:, 1])

    def test_hypergraph_from_dataset(self):
        ds = self.make_mixed()
        h = hypergraph_from_dataset(ds, n_bins=4)
        assert h.num_hyperedges == 80
        expected_nodes = ds.num_category_values + ds.num_numerical * 4
        assert h.num_nodes == expected_nodes

    def test_hypergraph_binary_columns_become_membership_nodes(self):
        x = np.array([[1.0, 0.3], [0.0, 0.7], [1.0, 0.5]])
        ds = TabularDataset(x, None, np.zeros(3), "binary")
        h = hypergraph_from_dataset(ds, n_bins=2)
        # one membership node for the binary column + 2 bins for the other
        assert h.num_nodes == 1 + 2
        assert h.incidence[0, 0] == 1.0 and h.incidence[0, 1] == 0.0

    def test_feature_graph_from_correlation(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=400)
        x = np.stack([a, a + 0.01 * rng.normal(size=400), rng.normal(size=400)], axis=1)
        g = feature_graph_from_correlation(x, threshold=0.5)
        pairs = set(map(tuple, g.edge_index.T))
        assert (0, 1) in pairs
        assert (0, 2) not in pairs

    def test_feature_graph_from_knowledge(self):
        g = feature_graph_from_knowledge(4, [(0, 1), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 4  # symmetrized
        with pytest.raises(ValueError):
            feature_graph_from_knowledge(4, [])


class TestLearnedConstruction:
    def test_topk_mask_counts(self):
        scores = RNG.normal(size=(8, 8))
        mask = topk_sparsify(scores, k=3)
        np.testing.assert_array_equal(mask.sum(axis=1), 3)
        assert np.all(np.diag(mask) == 0)

    def test_topk_invalid_k(self):
        with pytest.raises(ValueError):
            topk_sparsify(np.ones((4, 4)), k=4)

    def test_dense_gcn_norm_rows(self):
        adj = Tensor(np.abs(RNG.normal(size=(5, 5))))
        norm = dense_gcn_norm(adj)
        assert norm.shape == (5, 5)
        assert np.all(norm.data >= 0)

    def test_metric_learner_output(self):
        learner = MetricGraphLearner(4, np.random.default_rng(0), k=3)
        adj = learner(Tensor(RNG.normal(size=(10, 4))))
        assert adj.shape == (10, 10)
        assert np.all(adj.data >= 0)

    def test_metric_learner_gradient_reaches_weights(self):
        learner = MetricGraphLearner(4, np.random.default_rng(0))
        adj = learner(Tensor(RNG.normal(size=(6, 4))))
        ops.sum(adj).backward()
        assert learner.head_weights.grad is not None

    def test_neural_learner_blends_prior(self):
        prior = np.eye(8)
        learner = NeuralGraphLearner(4, 8, np.random.default_rng(0),
                                     k=3, init_adjacency=prior, blend=1.0)
        adj = learner(Tensor(RNG.normal(size=(8, 4))))
        assert adj.shape == (8, 8)

    def test_direct_learner_adjacency_symmetric(self):
        learner = DirectGraphLearner(6, np.random.default_rng(0))
        adj = learner.adjacency().data
        np.testing.assert_allclose(adj, adj.T, atol=1e-12)
        assert np.all((adj >= 0) & (adj <= 1))

    def test_direct_learner_prior_shape_checked(self):
        with pytest.raises(ValueError):
            DirectGraphLearner(4, np.random.default_rng(0), init_adjacency=np.ones((3, 3)))

    def test_direct_learner_sparsity_penalty_trainable(self):
        learner = DirectGraphLearner(5, np.random.default_rng(0))
        opt = nn.Adam(learner.parameters(), lr=0.5)
        before = learner.sparsity_penalty().item()
        for _ in range(30):
            loss = learner.sparsity_penalty()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert learner.sparsity_penalty().item() < before


class TestRetrieval:
    def test_queries_only_link_into_pool(self):
        x = RNG.normal(size=(20, 3))
        pool_mask = np.zeros(20, dtype=bool)
        pool_mask[:12] = True
        g = retrieval_augmented_graph(x, pool_mask, k=4)
        query_ids = set(np.nonzero(~pool_mask)[0])
        for src, dst in g.edge_index.T:
            assert not (src in query_ids and dst in query_ids)

    def test_pool_too_small_raises(self):
        with pytest.raises(ValueError):
            retrieval_augmented_graph(np.ones((5, 2)), np.array([True] * 3 + [False] * 2), k=3)

    def test_column_restricted_retrieval(self):
        x = RNG.normal(size=(15, 4))
        pool_mask = np.ones(15, dtype=bool)
        pool_mask[12:] = False
        g = retrieval_augmented_graph(x, pool_mask, k=3, columns=np.array([0, 1]))
        assert g.num_nodes == 15
        assert g.num_edges > 0
