"""Unit tests for all five graph data structures."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    BipartiteGraph,
    Graph,
    HeteroGraph,
    Hypergraph,
    MultiplexGraph,
    coalesce_edge_index,
    degree_statistics,
    edge_homophily,
    remove_self_loops,
    symmetrize_edge_index,
)

RNG = np.random.default_rng(11)


def small_graph():
    edge_index = np.array([[0, 1, 2], [1, 2, 0]])
    return Graph(3, edge_index, x=np.eye(3), y=np.array([0, 0, 1]))


class TestGraph:
    def test_validation_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([[0, 2], [1, 0]]))
        with pytest.raises(ValueError):
            Graph(2, np.array([0, 1]))
        with pytest.raises(ValueError):
            Graph(2, np.array([[0], [1]]), x=np.eye(3))
        with pytest.raises(ValueError):
            Graph(2, np.array([[0], [1]]), y=np.zeros(3))

    def test_counts(self):
        g = small_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.num_features == 3

    def test_symmetrize_adds_reverse_edges(self):
        g = small_graph().symmetrize()
        pairs = set(map(tuple, g.edge_index.T))
        assert (1, 0) in pairs and (0, 1) in pairs
        assert g.num_edges == 6

    def test_symmetrize_is_idempotent(self):
        g1 = small_graph().symmetrize()
        g2 = g1.symmetrize()
        assert g1.num_edges == g2.num_edges

    def test_add_self_loops(self):
        g = small_graph().add_self_loops()
        pairs = set(map(tuple, g.edge_index.T))
        for i in range(3):
            assert (i, i) in pairs
        # applying twice does not duplicate loops
        assert g.add_self_loops().num_edges == g.num_edges

    def test_adjacency_orientation_aggregates_incoming(self):
        g = small_graph()
        adj = g.adjacency().toarray()
        # edge 0->1 means A[1, 0] = 1
        assert adj[1, 0] == 1.0
        assert adj[0, 1] == 0.0

    def test_gcn_adjacency_symmetric_with_unit_rows_on_regular_graph(self):
        # A symmetric 4-cycle: every node degree 2 (+self loop) — rows sum to 1.
        cycle = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        g = Graph(4, cycle).symmetrize()
        norm = g.gcn_adjacency().toarray()
        np.testing.assert_allclose(norm, norm.T, atol=1e-12)
        np.testing.assert_allclose(norm.sum(axis=1), np.ones(4), atol=1e-12)

    def test_mean_adjacency_rows_sum_to_one(self):
        g = small_graph().symmetrize()
        rows = np.asarray(g.mean_adjacency().sum(axis=1)).reshape(-1)
        np.testing.assert_allclose(rows, np.ones(3))

    def test_isolated_node_handled(self):
        g = Graph(3, np.array([[0], [1]]))
        rows = np.asarray(g.mean_adjacency().sum(axis=1)).reshape(-1)
        assert rows[2] == 0.0

    def test_edge_weight_validation(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([[0], [1]]), edge_weight=np.ones(2))

    def test_masks(self):
        g = small_graph()
        g.set_mask("train", np.array([True, False, True]))
        assert g.masks["train"].sum() == 2
        with pytest.raises(ValueError):
            g.set_mask("bad", np.ones(4, dtype=bool))

    def test_networkx_roundtrip(self):
        g = small_graph()
        back = Graph.from_networkx(g.to_networkx())
        assert back.num_nodes == 3
        assert set(map(tuple, back.edge_index.T)) == set(map(tuple, g.edge_index.T))

    def test_from_undirected_networkx_symmetrizes(self):
        g = Graph.from_networkx(nx.path_graph(3))
        pairs = set(map(tuple, g.edge_index.T))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_degrees(self):
        g = small_graph()
        np.testing.assert_allclose(g.degrees("in"), [1, 1, 1])
        np.testing.assert_allclose(g.degrees("out"), [1, 1, 1])


class TestEdgeUtils:
    def test_coalesce_removes_duplicates_keeps_max_weight(self):
        edges = np.array([[0, 0, 1], [1, 1, 0]])
        weights = np.array([1.0, 5.0, 2.0])
        out, w = coalesce_edge_index(edges, weights)
        assert out.shape[1] == 2
        lookup = {tuple(e): wt for e, wt in zip(out.T, w)}
        assert lookup[(0, 1)] == 5.0

    def test_remove_self_loops(self):
        edges = np.array([[0, 1, 1], [0, 1, 2]])
        out, _ = remove_self_loops(edges)
        assert out.shape[1] == 1
        assert tuple(out[:, 0]) == (1, 2)

    def test_symmetrize_empty(self):
        out, w = symmetrize_edge_index(np.zeros((2, 0), dtype=np.int64))
        assert out.shape == (2, 0) and w is None

    def test_edge_homophily(self):
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        labels = np.array([0, 0, 1])
        assert edge_homophily(edges, labels) == pytest.approx(1 / 3)
        assert np.isnan(edge_homophily(np.zeros((2, 0), dtype=int), labels))

    def test_degree_statistics(self):
        stats = degree_statistics(np.array([[0, 1], [1, 1]]), 3)
        assert stats["max"] == 2.0
        assert stats["isolated"] == 2


class TestBipartiteGraph:
    def test_from_table_skips_nan(self):
        table = np.array([[1.0, np.nan], [3.0, 4.0]])
        g = BipartiteGraph.from_table(table)
        assert g.num_edges == 3
        np.testing.assert_allclose(
            g.observed_matrix(), table
        )

    def test_observed_mask(self):
        table = np.array([[1.0, np.nan], [3.0, 4.0]])
        mask = BipartiteGraph.from_table(table).observed_mask()
        np.testing.assert_array_equal(mask, ~np.isnan(table))

    def test_incidence_rows_sum_to_one(self):
        g = BipartiteGraph.from_table(RNG.normal(size=(5, 4)))
        inst_op, feat_op = g.incidence()
        np.testing.assert_allclose(np.asarray(inst_op.sum(axis=1)).reshape(-1), 1.0)
        np.testing.assert_allclose(np.asarray(feat_op.sum(axis=1)).reshape(-1), 1.0)

    def test_split_edges_partitions(self):
        g = BipartiteGraph.from_table(RNG.normal(size=(10, 4)))
        train, heldout = g.split_edges(0.25, np.random.default_rng(0))
        assert train.num_edges + len(heldout["value"]) == g.num_edges
        assert len(heldout["value"]) == 10

    def test_split_edges_invalid_fraction(self):
        g = BipartiteGraph.from_table(np.ones((2, 2)))
        with pytest.raises(ValueError):
            g.split_edges(0.0, np.random.default_rng(0))

    def test_out_of_range_edges_raise(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, np.array([2]), np.array([0]), np.array([1.0]))

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))


class TestHeteroGraph:
    def build(self):
        g = HeteroGraph({"instance": 4, "value": 3})
        g.add_edges(("instance", "has", "value"), np.array([[0, 1, 2, 3], [0, 0, 1, 2]]))
        return g

    def test_edge_registration_and_counts(self):
        g = self.build()
        assert g.num_edges() == 4
        assert g.num_edges(("instance", "has", "value")) == 4

    def test_add_edges_validates_range(self):
        g = self.build()
        with pytest.raises(ValueError):
            g.add_edges(("instance", "bad", "value"), np.array([[4], [0]]))
        with pytest.raises(KeyError):
            g.add_edges(("nope", "bad", "value"), np.array([[0], [0]]))

    def test_add_edges_appends(self):
        g = self.build()
        g.add_edges(("instance", "has", "value"), np.array([[0], [2]]))
        assert g.num_edges(("instance", "has", "value")) == 5

    def test_mean_operator_rows(self):
        g = self.build()
        op = g.mean_operator(("instance", "has", "value"))
        assert op.shape == (3, 4)
        rows = np.asarray(op.sum(axis=1)).reshape(-1)
        np.testing.assert_allclose(rows, np.ones(3))

    def test_reverse_edges(self):
        g = self.build()
        g.add_reverse_edges()
        assert ("value", "rev_has", "instance") in g.edge_indexes
        rev = g.edge_indexes[("value", "rev_has", "instance")]
        np.testing.assert_array_equal(rev, g.edge_indexes[("instance", "has", "value")][::-1])

    def test_features_and_labels_validated(self):
        g = self.build()
        with pytest.raises(ValueError):
            g.set_features("instance", np.ones((3, 2)))
        g.set_labels("instance", np.array([0, 1, 0, 1]))
        assert g.target_type == "instance"
        with pytest.raises(ValueError):
            g.set_labels("value", np.zeros(2))

    def test_with_queries_appends_receive_only_targets(self):
        g = self.build()
        g.add_reverse_edges()
        g.set_features("instance", np.eye(4))
        g.set_features("value", np.ones((3, 2)))
        g.set_labels("instance", np.array([0, 1, 0, 1]))
        x = np.full((2, 4), 7.0)
        q = g.with_queries(x, {"value": np.array([1, -1])})
        assert q.node_counts == {"instance": 6, "value": 3}
        assert q.target_type == "instance"
        # No edge leaves the new nodes: instance → value is the pool's.
        np.testing.assert_array_equal(
            q.edge_indexes[("instance", "has", "value")],
            g.edge_indexes[("instance", "has", "value")],
        )
        # Query 0 matched value 1; query 1 (-1) gets no edge at all.
        rev = ("value", "rev_has", "instance")
        np.testing.assert_array_equal(
            q.edge_indexes[rev],
            np.concatenate([g.edge_indexes[rev], [[1], [4]]], axis=1),
        )
        np.testing.assert_array_equal(q.node_features["instance"][4:], x)
        np.testing.assert_array_equal(q.node_features["value"], g.node_features["value"])
        assert g.node_counts["instance"] == 4, "the source graph is not touched"


class TestMultiplexGraph:
    def test_layers_share_nodes(self):
        g = MultiplexGraph(4, x=np.eye(4), y=np.arange(4))
        g.add_layer("a", np.array([[0, 1], [1, 0]]))
        g.add_layer("b", np.array([[2, 3], [3, 2]]))
        assert g.relations == ["a", "b"]
        assert g.layer("a").num_nodes == 4
        assert g.layer("b").x is g.x or np.array_equal(g.layer("b").x, g.x)

    def test_duplicate_relation_raises(self):
        g = MultiplexGraph(2)
        g.add_layer("a", np.array([[0], [1]]))
        with pytest.raises(KeyError):
            g.add_layer("a", np.array([[1], [0]]))

    def test_value_layers_validate_and_keep_order(self):
        g = MultiplexGraph(3)
        g.add_value_layer("b", [0, -1, 0])
        g.add_value_layer("a", np.array([1, 1, 2]))
        assert list(g.value_layers) == ["b", "a"] and g.relations == []
        assert g.value_layers["b"].dtype == np.int64
        with pytest.raises(KeyError):
            g.add_value_layer("a", [0, 0, 0])
        with pytest.raises(ValueError):
            g.add_value_layer("c", [0, 0])

    def test_flatten_merges_and_coalesces(self):
        g = MultiplexGraph(3, x=np.eye(3))
        g.add_layer("a", np.array([[0, 1], [1, 0]]))
        g.add_layer("b", np.array([[0, 1], [1, 0]]))  # duplicate edges
        flat = g.flatten()
        assert flat.num_edges == 2  # symmetrized + coalesced

    def test_flatten_empty(self):
        flat = MultiplexGraph(3).flatten()
        assert flat.num_edges == 0

    def test_with_queries_appends_receive_only_rows(self):
        g = MultiplexGraph(3, x=np.eye(3))
        g.add_value_layer("a", [0, -1, 0])
        g.add_value_layer("b", [2, 2, 1])
        x = np.full((2, 3), 5.0)
        q = g.with_queries(x, [np.array([0, 9]), np.array([-1, 1])])
        assert q.num_nodes == 5 and q.receive_only == 2
        np.testing.assert_array_equal(q.x, np.concatenate([np.eye(3), x]))
        np.testing.assert_array_equal(q.value_layers["a"], [0, -1, 0, 0, 9])
        np.testing.assert_array_equal(q.value_layers["b"], [2, 2, 1, -1, 1])
        assert list(q.value_layers) == ["a", "b"]
        assert g.num_nodes == 3 and g.receive_only == 0

    def test_with_queries_needs_one_code_array_per_layer(self):
        g = MultiplexGraph(2, x=np.eye(2))
        g.add_value_layer("a", [0, 1])
        g.add_value_layer("b", [1, 1])
        with pytest.raises(ValueError, match="expected 2 code arrays"):
            g.with_queries(np.zeros((1, 2)), [np.array([0])])


class TestHypergraph:
    def test_operator_shapes(self):
        inc = sp.csr_matrix(np.array([[1, 0], [1, 1], [0, 1]], dtype=float))
        h = Hypergraph(inc)
        assert h.num_nodes == 3 and h.num_hyperedges == 2
        assert h.hgnn_operator().shape == (3, 3)
        assert h.node_to_edge_operator().shape == (2, 3)
        assert h.edge_to_node_operator().shape == (3, 2)

    def test_node_to_edge_is_mean(self):
        inc = sp.csr_matrix(np.array([[1, 0], [1, 1], [0, 1]], dtype=float))
        h = Hypergraph(inc)
        x = np.array([[2.0], [4.0], [6.0]])
        out = h.node_to_edge_operator() @ x
        np.testing.assert_allclose(out, [[3.0], [5.0]])

    def test_from_value_table(self):
        values = np.array([[0, 2], [1, 2], [-1, 0]])
        h = Hypergraph.from_value_table(values, num_values=3)
        assert h.num_hyperedges == 3
        # row 2 has one missing cell -> hyperedge degree 1
        np.testing.assert_allclose(h.hyperedge_degrees(), [2, 2, 1])

    def test_duplicate_values_deduped(self):
        values = np.array([[1, 1]])
        h = Hypergraph.from_value_table(values, num_values=2)
        assert h.incidence[1, 0] == 1.0

    def test_negative_incidence_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(sp.csr_matrix(np.array([[-1.0]])))

    def test_label_length_checked(self):
        inc = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            Hypergraph(inc, y=np.zeros(2))
