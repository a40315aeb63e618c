"""Tests for the Sec. 6 extension modules: sampling, SSL tasks, robustness,
and the CARE-GNN neighbor-filtering model."""

import numpy as np
import pytest

from repro import nn, robustness
from repro.construction.intrinsic import multiplex_from_dataset
from repro.construction.rules import knn_graph
from repro.datasets import make_correlated_instances, make_fraud, train_val_test_masks
from repro.gnn.networks import GCN, GraphSAGE
from repro.gnn.sampling import _AdjacencyList, sample_neighborhood, train_sampled
from repro.metrics import accuracy, roc_auc
from repro.models import CAREGNN
from repro.tensor import Tensor
from repro.training.ssl import (
    GraphClusteringTask,
    GraphCompletionTask,
    NeighborhoodPredictionTask,
)

RNG = np.random.default_rng(61)


def rng():
    return np.random.default_rng(71)


def small_setup(n=200, seed=0):
    ds = make_correlated_instances(n=n, cluster_strength=1.5, seed=seed)
    x = ds.to_matrix()
    g = knn_graph(x, k=6, y=ds.y)
    return ds, x, g


class TestNeighborSampling:
    def test_adjacency_list_matches_edges(self):
        _, _, g = small_setup(50)
        adjacency = _AdjacencyList(g)
        for node in (0, 10, 49):
            expected = set(g.edge_index[0][g.edge_index[1] == node])
            assert set(adjacency.neighbors(node)) == expected

    def test_sampled_block_shapes(self):
        _, _, g = small_setup(60)
        adjacency = _AdjacencyList(g)
        seeds = np.array([7, 1, 30, 3])
        blocks, input_nodes = sample_neighborhood(
            adjacency, seeds, fanouts=(3, 3), rng=np.random.default_rng(0)
        )
        assert len(blocks) == 2
        # The outermost block's destinations are the seeds, which the
        # input rows list first.
        assert blocks[-1].num_nodes == len(seeds)
        np.testing.assert_array_equal(input_nodes[: len(seeds)], seeds)
        # The innermost block reads every input row: each is a destination
        # (a prefix row) or a sampled source.
        rows = np.union1d(blocks[0].src, np.arange(blocks[0].num_nodes))
        np.testing.assert_array_equal(rows, np.arange(len(input_nodes)))

    def test_fanout_bounds_sampled_edges(self):
        _, _, g = small_setup(80)
        adjacency = _AdjacencyList(g)
        (block,), _ = sample_neighborhood(
            adjacency, np.arange(10), fanouts=(2,), rng=np.random.default_rng(0)
        )
        # Each destination aggregates at most fanout=2 neighbors.
        assert np.bincount(block.dst).max() <= 2

    def test_training_reduces_loss_and_generalizes(self):
        ds, x, g = small_setup(300)
        train, _, test = train_val_test_masks(300, 0.5, 0.2,
                                              np.random.default_rng(0), stratify=ds.y)
        model = GraphSAGE(g, (16,), ds.num_classes, rng())
        history = train_sampled(model, ds.y, train, fanouts=(4, 4),
                                batch_size=64, epochs=6)
        assert history[-1] < history[0]
        logits = model().data
        assert accuracy(ds.y[test], logits.argmax(1)[test]) > 0.6

    def test_fanout_arity_checked(self):
        ds, x, g = small_setup(60)
        model = GraphSAGE(g, (8,), 2, rng())
        with pytest.raises(ValueError):
            train_sampled(model, ds.y, np.ones(60, dtype=bool), fanouts=(3,))

    def test_rejects_a_network_other_than_graphsage(self):
        ds, x, g = small_setup(60)
        model = GCN(g, (8,), 2, rng())
        with pytest.raises(TypeError, match="GCN"):
            train_sampled(model, ds.y, np.ones(60, dtype=bool), fanouts=(3, 3))


class TestSSLTasks:
    def test_graph_completion_trains_link_structure(self):
        ds, x, g = small_setup(100)
        net = GCN(g, (16,), ds.num_classes, rng())
        task = GraphCompletionTask(16, g.edge_index, np.random.default_rng(0))
        params = net.parameters() + task.parameters()
        opt = nn.Adam(params, lr=0.01)
        losses = []
        for _ in range(25):
            loss = task.loss(net.embed())
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_graph_completion_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            GraphCompletionTask(8, np.zeros((2, 0), dtype=np.int64),
                                np.random.default_rng(0))

    def test_neighborhood_prediction_loss_finite(self):
        ds, x, g = small_setup(80)
        net = GCN(g, (16,), ds.num_classes, rng())
        task = NeighborhoodPredictionTask(16, g.edge_index, np.random.default_rng(0))
        loss = task.loss(net.embed())
        assert np.isfinite(loss.item())
        loss.backward()
        assert any(p.grad is not None for p in task.parameters())

    def test_clustering_task_soft_assignments_are_distributions(self):
        task = GraphClusteringTask(8, 3, np.random.default_rng(0))
        q = task.soft_assignments(Tensor(RNG.normal(size=(20, 8))))
        np.testing.assert_allclose(q.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q.data >= 0)

    def test_clustering_task_sharpens(self):
        task = GraphClusteringTask(4, 2, np.random.default_rng(0))
        z = Tensor(RNG.normal(size=(30, 4)), requires_grad=True)
        loss = task.loss(z)
        loss.backward()
        assert z.grad is not None
        with pytest.raises(ValueError):
            GraphClusteringTask(4, 1, np.random.default_rng(0))


class TestRobustness:
    def test_perturb_edges_keeps_counts_close(self):
        _, _, g = small_setup(100)
        noisy = robustness.perturb_edges(g, 0.3, np.random.default_rng(0))
        assert abs(noisy.num_edges - g.num_edges) < 0.1 * g.num_edges
        overlap = len(
            set(map(tuple, noisy.edge_index.T)) & set(map(tuple, g.edge_index.T))
        )
        assert overlap < g.num_edges  # some edges replaced

    def test_perturb_edges_zero_rate_identity(self):
        _, _, g = small_setup(50)
        same = robustness.perturb_edges(g, 0.0)
        assert same.num_edges == g.num_edges

    def test_perturb_edges_validates_rate(self):
        _, _, g = small_setup(30)
        with pytest.raises(ValueError):
            robustness.perturb_edges(g, 1.5)

    def test_structural_noise_degrades_accuracy(self):
        ds, x, g = small_setup(250)
        train, val, test = train_val_test_masks(250, 0.3, 0.2,
                                                np.random.default_rng(0),
                                                stratify=ds.y)

        def evaluate(graph):
            graph.x = x
            model = GCN(graph, (16,), ds.num_classes, rng())
            opt = nn.Adam(model.parameters(), lr=0.01)
            for _ in range(60):
                loss = nn.cross_entropy(model(), ds.y, mask=train)
                opt.zero_grad()
                loss.backward()
                opt.step()
            model.eval()
            return accuracy(ds.y[test], model().data.argmax(1)[test])

        clean = evaluate(g)
        noisy = evaluate(robustness.perturb_edges(g, 0.8, np.random.default_rng(0)))
        assert clean > noisy

    def test_feature_shift(self):
        x = RNG.normal(size=(20, 6))
        shifted = robustness.feature_shift(x, magnitude=2.0, column_fraction=0.5)
        moved = np.abs(shifted - x).max(axis=0) > 1.0
        assert 2 <= moved.sum() <= 4

    def test_oversmoothing_score_range(self):
        identical = np.tile(RNG.normal(size=(1, 8)), (10, 1))
        assert robustness.oversmoothing_score(identical) == pytest.approx(1.0)
        orthogonal = np.eye(8)
        assert robustness.oversmoothing_score(orthogonal) == pytest.approx(0.0)

    def test_feature_attack_reduces_confidence(self):
        ds, x, g = small_setup(150)
        from repro.baselines import LogisticRegressionClassifier

        clf = LogisticRegressionClassifier(epochs=200).fit(x, ds.y)
        attacked = robustness.worst_case_feature_attack(
            x, clf.predict_proba, ds.y, epsilon=2.0, num_probe=6
        )
        base_conf = clf.predict_proba(x)[np.arange(len(ds.y)), ds.y].mean()
        attacked_conf = clf.predict_proba(attacked)[np.arange(len(ds.y)), ds.y].mean()
        assert attacked_conf < base_conf


class TestCAREGNN:
    def build(self, camouflage=0.7, filter_neighbors=True):
        ds = make_fraud(n=250, camouflage=camouflage, feature_signal=0.4, seed=0)
        graph = multiplex_from_dataset(ds)
        model = CAREGNN(graph, 16, 2, rng(), rho=0.4,
                        filter_neighbors=filter_neighbors)
        return ds, model

    def test_forward_shape(self):
        ds, model = self.build()
        assert model().shape == (250, 2)
        assert model.embed().shape == (250, 16)

    def test_rho_validated(self):
        ds = make_fraud(n=100, seed=0)
        graph = multiplex_from_dataset(ds)
        with pytest.raises(ValueError):
            CAREGNN(graph, 8, 2, rng(), rho=0.0)

    def test_similarity_loss_uses_labeled_pairs(self):
        ds, model = self.build()
        train = np.ones(250, dtype=bool)
        loss = model.similarity_loss(ds.y, train, rng=np.random.default_rng(0))
        assert np.isfinite(loss.item())
        loss.backward()
        assert any(p.grad is not None for p in model.similarity_encoder.parameters())

    def test_joint_loss_trains(self):
        ds, model = self.build()
        train = np.zeros(250, dtype=bool)
        train[:150] = True
        opt = nn.Adam(model.parameters(), lr=0.01)
        loss_rng = np.random.default_rng(1)
        losses = []
        for _ in range(20):
            loss = model.loss(ds.y, train, rng=loss_rng)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]

    def test_filtering_keeps_subset_of_edges(self):
        ds, model = self.build(filter_neighbors=True)
        edge_index = model._edge_indexes[0]
        sims = RNG.normal(size=edge_index.shape[1])
        filtered = model._filtered_operator(edge_index, sims)
        unfiltered_model = CAREGNN(
            multiplex_from_dataset(ds), 16, 2, rng(), filter_neighbors=False
        )
        unfiltered = unfiltered_model._filtered_operator(edge_index, sims)
        assert filtered.nnz <= unfiltered.nnz
