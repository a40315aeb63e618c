"""Tests for the GNNExplainer module (Table 7, explanation preservation)."""

import numpy as np
import pytest

from repro import nn
from repro.construction.rules import knn_graph
from repro.datasets import make_correlated_instances, train_val_test_masks
from repro.explain import GNNExplainer, khop_edge_mask
from repro.gnn.networks import GAT, GCN
from repro.graph import Graph
from repro.tensor import Tensor


def trained_setup(seed=0):
    ds = make_correlated_instances(n=120, cluster_strength=2.0, seed=seed)
    x = ds.to_matrix()
    graph = knn_graph(x, k=5, y=ds.y)
    model = GCN(graph, (16,), ds.num_classes, np.random.default_rng(seed))
    opt = nn.Adam(model.parameters(), lr=0.01)
    train, _, _ = train_val_test_masks(120, 0.6, 0.2, np.random.default_rng(seed),
                                       stratify=ds.y)
    for _ in range(60):
        loss = nn.cross_entropy(model(), ds.y, mask=train)
        opt.zero_grad()
        loss.backward()
        opt.step()
    model.eval()
    return ds, graph, model


class TestKHopMask:
    def test_one_hop_contains_direct_edges(self):
        edges = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        graph = Graph(4, edges)
        mask = khop_edge_mask(graph, 0, hops=1)
        # edges touching node 0 are (0,1) and (3,0); after one hop nodes
        # {0,1,3} are reached so edge (1,2) and (2,3) may appear at hop 2 only
        assert mask[0] and mask[3]

    def test_hops_grow_coverage(self):
        ds, graph, _ = trained_setup()
        one = khop_edge_mask(graph, 0, 1).sum()
        two = khop_edge_mask(graph, 0, 2).sum()
        assert two >= one


class TestGNNExplainer:
    def test_explanation_fields(self):
        ds, graph, model = trained_setup()
        explainer = GNNExplainer(model, graph, epochs=30)
        explanation = explainer.explain(0, hops=2)
        assert explanation.node == 0
        assert explanation.edge_index.shape[0] == 2
        assert explanation.edge_importance.shape == (explanation.edge_index.shape[1],)
        assert np.all((explanation.edge_importance >= 0)
                      & (explanation.edge_importance <= 1))
        assert 0 <= explanation.predicted_class < ds.num_classes

    def test_mask_becomes_selective(self):
        ds, graph, model = trained_setup()
        explainer = GNNExplainer(model, graph, epochs=60, sparsity_weight=0.2)
        explanation = explainer.explain(3, hops=2)
        # sparsity pressure should push some edges clearly below others
        spread = explanation.edge_importance.max() - explanation.edge_importance.min()
        assert spread > 0.05

    def test_top_edges_sorted(self):
        ds, graph, model = trained_setup()
        explanation = GNNExplainer(model, graph, epochs=20).explain(5)
        top = explanation.top_edges(3)
        weights = [w for _, _, w in top]
        assert weights == sorted(weights, reverse=True)

    def test_requires_features(self):
        edges = np.array([[0, 1], [1, 0]])
        bare = Graph(2, edges)
        with pytest.raises(ValueError):
            GNNExplainer(object(), bare)

    def test_all_ones_mask_reproduces_the_model(self):
        ds, graph, model = trained_setup()
        explainer = GNNExplainer(model, graph)
        every_edge = np.arange(graph.num_edges)
        logits = explainer._masked_forward(Tensor(np.ones(graph.num_edges)), every_edge)
        np.testing.assert_allclose(logits.data, model().data, rtol=0, atol=1e-12)

    def test_rejects_a_network_other_than_gcn(self):
        ds, graph, _ = trained_setup()
        gat = GAT(graph, (8,), ds.num_classes, np.random.default_rng(0))
        with pytest.raises(TypeError, match="GAT"):
            GNNExplainer(gat, graph)

    def test_explain_leaves_no_gradient_on_the_model(self, monkeypatch):
        ds, graph, model = trained_setup()
        model.zero_grad()
        params = model.parameters()
        params[0].requires_grad = False
        frozen = GNNExplainer(model, graph, epochs=20).explain(4)
        assert all(param.grad is None for param in params)
        assert [param.requires_grad for param in params] == [False] + [True] * (len(params) - 1)
        # The same run with the flags left on: backpropagation reaches the
        # parameters, and the mask it learns is the same.
        params[0].requires_grad = True
        monkeypatch.setattr(model, "parameters", lambda: [])
        trainable = GNNExplainer(model, graph, epochs=20).explain(4)
        assert all(param.grad is not None for param in params)
        np.testing.assert_array_equal(frozen.edge_importance, trainable.edge_importance)

    def test_fidelity_check_runs(self):
        ds, graph, model = trained_setup()
        explainer = GNNExplainer(model, graph, epochs=40)
        explanation = explainer.explain(7, hops=2)
        # With a permissive threshold nothing is dropped -> prediction kept.
        assert explainer.fidelity(explanation, threshold=0.0) is True
