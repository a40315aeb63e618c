"""Unit tests for GNN convolutions, readouts and the autoencoder."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.gnn import (
    AttentionReadout,
    DenseGCNConv,
    DenseGNN,
    GATConv,
    GCNConv,
    GINConv,
    GatedGraphConv,
    GatedGNN,
    GraphAutoencoder,
    GraphSAGE,
    HeteroGNN,
    HypergraphConv,
    HypergraphGNN,
    RGCNConv,
    SAGEConv,
    max_readout,
    mean_readout,
    sum_readout,
)
from repro.construction.intrinsic import hetero_from_dataset, hypergraph_from_dataset
from repro.construction.rules import knn_graph
from repro.datasets import make_fraud
from repro.gnn.sampling import _AdjacencyList, sample_neighborhood
from repro.graph import Graph, Hypergraph
from repro.tensor import Tensor, ops

RNG = np.random.default_rng(13)


def rng():
    return np.random.default_rng(17)


def path_graph(n=4, d=3):
    edges = np.array([[i, i + 1] for i in range(n - 1)]).T
    g = Graph(n, edges, x=RNG.normal(size=(n, d))).symmetrize()
    return g


class TestGCNConv:
    def test_matches_manual_computation(self):
        g = path_graph()
        conv = GCNConv(3, 2, rng())
        out = conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))
        manual = g.gcn_adjacency() @ (g.x @ conv.linear.weight.data + conv.linear.bias.data)
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_gradient_reaches_weights(self):
        g = path_graph()
        conv = GCNConv(3, 2, rng())
        ops.sum(conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))).backward()
        assert conv.linear.weight.grad is not None


class TestSAGEConv:
    def test_concat_self_and_neighbors(self):
        g = path_graph()
        conv = SAGEConv(3, 2, rng())
        out = conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))
        neighbor = g.mean_adjacency() @ g.x
        manual = np.concatenate([g.x, neighbor], axis=1) @ conv.linear.weight.data
        manual += conv.linear.bias.data
        np.testing.assert_allclose(out.data, manual, atol=1e-12)


class TestGINConv:
    def test_sum_aggregation_with_eps(self):
        g = path_graph()
        conv = GINConv(3, 4, rng())
        conv.eps.data[:] = 0.5
        out = conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))
        inner = 1.5 * g.x + g.adjacency() @ g.x
        manual = conv.mlp(Tensor(inner)).data
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_eps_is_learnable(self):
        g = path_graph()
        conv = GINConv(3, 4, rng())
        ops.sum(conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))).backward()
        assert conv.eps.grad is not None


class TestGatedGraphConv:
    def test_shape_preserved(self):
        g = path_graph(d=6)
        conv = GatedGraphConv(6, rng())
        out = conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))
        assert out.shape == (4, 6)

    def test_one_gru_step_over_mean_with_loops(self):
        g = path_graph(d=6)
        conv = GatedGraphConv(6, rng())
        out = conv.propagate(Tensor(g.x), g.edge_view(conv.view_kind))
        messages = g.mean_adjacency(add_self_loops=True) @ conv.message(Tensor(g.x)).data
        manual = conv.gru(Tensor(messages), Tensor(g.x)).data
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    def test_invalid_steps(self):
        g = path_graph(d=6)
        with pytest.raises(ValueError, match="num_steps"):
            GatedGNN(g, 4, 2, rng(), num_steps=0)


def attention_view(n, edge_index):
    """The ``"attention"`` view of a bare graph: its edges, then self loops."""
    return Graph(n, edge_index).edge_view("attention")


class TestGATConv:
    def test_output_shapes(self):
        g = path_graph()
        view = g.edge_view("attention")
        conv = GATConv(3, 5, rng(), num_heads=2, concat_heads=True)
        assert conv.propagate(Tensor(g.x), view).shape == (4, 10)
        conv_avg = GATConv(3, 5, rng(), num_heads=2, concat_heads=False)
        assert conv_avg.propagate(Tensor(g.x), view).shape == (4, 5)

    def test_attention_weights_normalized(self):
        # With softmax over incoming edges, messages are convex combinations:
        # if all node features are equal, output equals the self-transformed value.
        n = 5
        x = np.ones((n, 3))
        edges = np.array([[i, (i + 1) % n] for i in range(n)]).T
        conv = GATConv(3, 4, rng(), num_heads=3)
        out = conv.propagate(Tensor(x), attention_view(n, edges))
        np.testing.assert_allclose(out.data - out.data[0], 0.0, atol=1e-10)

    def test_edge_features_modulate_attention(self):
        g = path_graph()
        view = g.edge_view("attention")
        conv = GATConv(3, 4, rng(), num_heads=2, edge_dim=1)
        edge_feat = Tensor(RNG.normal(size=(view.num_edges, 1)))
        out1 = conv.propagate(Tensor(g.x), view, edge_feat)
        out2 = conv.propagate(Tensor(g.x), view, Tensor(np.zeros((view.num_edges, 1))))
        assert not np.allclose(out1.data, out2.data)

    def test_edge_dim_requires_features(self):
        g = path_graph()
        conv = GATConv(3, 4, rng(), edge_dim=2)
        with pytest.raises(ValueError, match="no edge features"):
            conv.propagate(Tensor(g.x), g.edge_view("attention"))

    def test_features_rejected_without_edge_dim(self):
        g = path_graph()
        view = g.edge_view("attention")
        conv = GATConv(3, 4, rng())
        with pytest.raises(ValueError, match="without edge_dim"):
            conv.propagate(Tensor(g.x), view, Tensor(np.ones((view.num_edges, 5))))

    def test_edge_feature_rows_must_match_view_edges(self):
        g = path_graph()
        view = g.edge_view("attention")
        assert (g.num_edges, view.num_edges) == (6, 10)
        conv = GATConv(3, 4, rng(), num_heads=2, edge_dim=1)
        # One row per graph edge is short of the four self loops.
        with pytest.raises(ValueError, match="got 6 edge-feature rows .* 10 edges"):
            conv.propagate(Tensor(g.x), view, Tensor(np.ones((g.num_edges, 1))))

    def test_isolated_node_attends_to_self(self):
        x = RNG.normal(size=(3, 3))
        edges = np.array([[0], [1]])  # node 2 isolated
        conv = GATConv(3, 4, rng())
        out = conv.propagate(Tensor(x), attention_view(3, edges))
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("concat_heads", [True, False])
    def test_gradients_match_finite_differences(self, concat_heads):
        local = np.random.default_rng(3)
        g = Graph(5, np.array([[0, 1, 2, 3], [1, 2, 3, 4]])).symmetrize()
        conv = GATConv(3, 2, rng(), num_heads=2, concat_heads=concat_heads, edge_dim=1)
        conv.bias.data[:] = local.normal(size=conv.bias.shape)
        view = g.edge_view("attention")
        x = Tensor(local.normal(size=(5, 3)), requires_grad=True)
        edge_feat = Tensor(local.normal(size=(view.num_edges, 1)))
        probe = Tensor(local.normal(size=(5, conv.output_dim)))

        def loss():
            return ops.sum(ops.mul(conv.propagate(x, view, edge_feat), probe))

        loss().backward()
        targets = [("x", x), ("weight", conv.weight), ("att_src", conv.att_src),
                   ("att_dst", conv.att_dst), ("bias", conv.bias),
                   ("edge_proj.weight", conv.edge_proj.weight)]
        eps = 1e-6
        for name, tensor in targets:
            numeric = np.zeros_like(tensor.data)
            flat, numeric_flat = tensor.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss().item()
                flat[i] = orig - eps
                down = loss().item()
                flat[i] = orig
                numeric_flat[i] = (up - down) / (2 * eps)
            np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-5, atol=1e-6,
                                       err_msg=name)

    @pytest.mark.parametrize("concat_heads", [True, False])
    def test_forward_equals_per_edge_logits_bit_for_bit(self, concat_heads):
        local = np.random.default_rng(4)
        g = Graph(6, local.integers(0, 6, size=(2, 14)))
        heads, width = 3, 4
        conv = GATConv(3, width, rng(), num_heads=heads, concat_heads=concat_heads,
                       edge_dim=1)
        x = local.normal(size=(6, 3))
        edge_feat = local.normal(size=(g.num_edges, 1))
        loop_feat = np.concatenate([edge_feat, np.zeros((6, 1))])
        out = conv.propagate(Tensor(x), g.edge_view("attention"), Tensor(loop_feat)).data

        # Per-edge formula: gather h to both endpoints of every edge, score
        # each edge from the (E, heads, out) products, then normalize and
        # scatter with np.add.at.
        src = np.concatenate([g.edge_index[0], np.arange(6)])
        dst = np.concatenate([g.edge_index[1], np.arange(6)])
        h = (x @ conv.weight.data).reshape(6, heads, width)
        scores = ((h[src] * conv.att_src.data).sum(axis=-1)
                  + (h[dst] * conv.att_dst.data).sum(axis=-1))
        scores = scores + conv.edge_proj(Tensor(loop_feat)).data
        scores = np.where(scores > 0.0, scores, conv.negative_slope * scores)
        maxes = np.full((6, heads), -np.inf)
        np.maximum.at(maxes, dst, scores)
        exps = np.exp(scores - maxes[dst])
        denom = np.zeros((6, heads))
        np.add.at(denom, dst, exps)
        alpha = exps / denom[dst]
        aggregated = np.zeros((6, heads, width))
        np.add.at(aggregated, dst, h[src] * alpha[:, :, None])
        if concat_heads:
            expected = aggregated.reshape(6, heads * width) + conv.bias.data
        else:
            expected = aggregated.mean(axis=1) + conv.bias.data
        assert np.array_equal(out, expected)


class TestDenseConvs:
    def test_dense_matches_sparse_gcn(self):
        g = path_graph()
        dense_conv = DenseGCNConv(3, 2, rng())
        sparse_conv = GCNConv(3, 2, rng())
        sparse_conv.linear.weight.data = dense_conv.linear.weight.data.copy()
        sparse_conv.linear.bias.data = dense_conv.linear.bias.data.copy()
        adj = g.gcn_adjacency()
        out_dense = dense_conv(Tensor(g.x), Tensor(adj.toarray()))
        out_sparse = sparse_conv.propagate(Tensor(g.x), g.edge_view("gcn"))
        np.testing.assert_allclose(out_dense.data, out_sparse.data, atol=1e-12)

    def test_dense_gnn_gradients_reach_adjacency(self):
        adj = Tensor(np.abs(RNG.normal(size=(4, 4))), requires_grad=True)
        net = DenseGNN(3, (8,), 2, rng())
        out = ops.sum(net(Tensor(RNG.normal(size=(4, 3))), adj))
        out.backward()
        assert adj.grad is not None

    def test_batched_dense_conv(self):
        conv = DenseGCNConv(3, 2, rng())
        x = Tensor(RNG.normal(size=(5, 4, 3)))  # batch of 5 graphs, 4 nodes
        adj = Tensor(np.tile(np.eye(4), (5, 1, 1)))
        assert conv(x, adj).shape == (5, 4, 2)


class TestRGCN:
    def test_per_relation_weights(self):
        conv = RGCNConv(3, 2, num_relations=2, rng=rng())
        x = Tensor(RNG.normal(size=(4, 3)))
        ops_list = [sp.eye(4, format="csr"), sp.csr_matrix((4, 4))]
        out = conv(x, ops_list)
        assert out.shape == (4, 2)

    def test_wrong_operator_count_raises(self):
        conv = RGCNConv(3, 2, num_relations=2, rng=rng())
        with pytest.raises(ValueError):
            conv(Tensor(np.ones((4, 3))), [sp.eye(4, format="csr")])

    def test_zero_relations_rejected(self):
        with pytest.raises(ValueError):
            RGCNConv(3, 2, num_relations=0, rng=rng())


class TestHeteroGNN:
    def test_forward_shapes(self):
        ds = make_fraud(n=60, seed=0)
        graph = hetero_from_dataset(ds)
        net = HeteroGNN(graph, hidden_dim=8, out_dim=2, rng=rng())
        out = net()
        assert out.shape == (60, 2)
        assert net.embed().shape[0] == 60

    def test_trains(self):
        ds = make_fraud(n=60, seed=0)
        graph = hetero_from_dataset(ds)
        net = HeteroGNN(graph, hidden_dim=8, out_dim=2, rng=rng())
        opt = nn.Adam(net.parameters(), lr=0.05)
        first = None
        for _ in range(20):
            loss = nn.cross_entropy(net(), ds.y)
            first = first if first is not None else loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < first


class TestHypergraphGNN:
    def test_forward_shapes(self):
        ds = make_fraud(n=50, seed=0)
        hg = hypergraph_from_dataset(ds, n_bins=3)
        net = HypergraphGNN(hg, hidden_dim=8, out_dim=2, rng=rng())
        assert net().shape == (50, 2)
        assert net.embed().shape == (50, 8)

    def test_hypergraph_conv_shape(self):
        inc = sp.csr_matrix(np.array([[1, 0], [1, 1], [0, 1]], dtype=float))
        hg = Hypergraph(inc)
        conv = HypergraphConv(4, 6, rng())
        out = conv(Tensor(RNG.normal(size=(3, 4))), hg.hgnn_operator())
        assert out.shape == (3, 6)


class TestGraphAutoencoder:
    def test_loss_decreases(self):
        g = knn_graph(RNG.normal(size=(40, 5)), k=5)
        model = GraphAutoencoder(5, (8,), 4, rng())
        opt = nn.Adam(model.parameters(), lr=0.02)
        features = Tensor(g.x)
        loss_rng = np.random.default_rng(0)
        losses = []
        for _ in range(30):
            loss = model.reconstruction_loss(features, g, loss_rng)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]

    def test_anomaly_scores_shape_and_sign(self):
        g = knn_graph(RNG.normal(size=(20, 4)), k=3)
        model = GraphAutoencoder(4, (8,), 4, rng())
        scores = model.anomaly_scores(Tensor(g.x), g)
        assert scores.shape == (20,)
        assert np.all(scores >= 0)

    def test_decode_edges_is_inner_product(self):
        model = GraphAutoencoder(4, (), 3, rng())
        z = Tensor(RNG.normal(size=(5, 3)))
        pairs = np.array([[0, 1], [2, 3]])
        out = model.decode_edges(z, pairs)
        np.testing.assert_allclose(out.data[0], z.data[0] @ z.data[2], atol=1e-12)


class TestFullGraphNormalization:
    """Models that take a ``Graph`` pick their normalization through their
    layers' views; each is pinned against its operator formula."""

    def test_autoencoder_encodes_with_gcn_normalization(self):
        g = knn_graph(RNG.normal(size=(15, 4)), k=3)
        gae = GraphAutoencoder(4, (8,), 3, rng())
        first, second = gae.encoder_layers
        a_hat = g.gcn_adjacency()
        hidden = np.maximum(
            a_hat @ (g.x @ first.linear.weight.data + first.linear.bias.data), 0.0
        )
        latent = a_hat @ (hidden @ second.linear.weight.data + second.linear.bias.data)
        np.testing.assert_allclose(gae.encode(Tensor(g.x), g).data, latent, atol=1e-12)

    def test_graphsage_full_graph_is_mean_aggregation(self):
        g = knn_graph(RNG.normal(size=(15, 4)), k=3)
        sage = GraphSAGE(g, (8,), 3, rng())
        first, second = sage.convs
        mean = g.mean_adjacency()
        hidden = np.maximum(
            np.concatenate([g.x, mean @ g.x], axis=1) @ first.linear.weight.data
            + first.linear.bias.data, 0.0
        )
        logits = (np.concatenate([hidden, mean @ hidden], axis=1) @ second.linear.weight.data
                  + second.linear.bias.data)
        np.testing.assert_allclose(sage().data, logits, atol=1e-12)

    def test_blocks_covering_every_neighbor_equal_the_full_forward(self):
        g = knn_graph(RNG.normal(size=(30, 4)), k=3)
        sage = GraphSAGE(g, (8,), 3, rng())
        fanout = int(g.degrees().max())
        perm = np.random.default_rng(5).permutation(30)
        # All 30 nodes, then 7 of them: there the destinations are a
        # prefix of each block's source rows.
        for seeds in (perm, perm[:7]):
            blocks, input_nodes = sample_neighborhood(
                _AdjacencyList(g), seeds, (fanout, fanout), np.random.default_rng(0)
            )
            np.testing.assert_allclose(
                sage(Tensor(g.x[input_nodes]), views=blocks).data,
                sage().data[seeds], rtol=0, atol=1e-12,
            )


class TestReadouts:
    def test_shapes(self):
        h = Tensor(RNG.normal(size=(6, 4, 8)))
        assert sum_readout(h).shape == (6, 8)
        assert mean_readout(h).shape == (6, 8)
        assert max_readout(h).shape == (6, 8)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            sum_readout(Tensor(np.ones((4, 8))))

    def test_permutation_invariance(self):
        h = RNG.normal(size=(3, 5, 8))
        perm = RNG.permutation(5)
        readout = AttentionReadout(8, rng())
        out1 = readout(Tensor(h)).data
        out2 = readout(Tensor(h[:, perm, :])).data
        np.testing.assert_allclose(out1, out2, atol=1e-10)
        np.testing.assert_allclose(
            sum_readout(Tensor(h)).data, sum_readout(Tensor(h[:, perm])).data, atol=1e-12
        )

    def test_attention_readout_is_convex_combination(self):
        h = np.ones((2, 4, 3)) * np.arange(1, 5).reshape(1, 4, 1)
        readout = AttentionReadout(3, rng())
        out = readout(Tensor(h)).data
        assert np.all(out >= 1.0 - 1e-9) and np.all(out <= 4.0 + 1e-9)
