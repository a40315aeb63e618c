"""Unit tests for the specialized GNN4TDL models."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.construction.intrinsic import multiplex_from_dataset
from repro.datasets import (
    make_anomaly,
    make_correlated_instances,
    make_ctr,
    make_fraud,
)
from repro.graph.bipartite import BipartiteGraph
from repro.graph.multiplex import MultiplexGraph
from repro.metrics import accuracy, roc_auc
from repro.models import (
    FATE,
    GRAPE,
    IDGL,
    LUNAR,
    SLAPS,
    FeatureGraphClassifier,
    FiGNN,
    HeteroTabClassifier,
    HypergraphClassifier,
    KNNGraphClassifier,
    TabGNN,
)
from repro.tensor import Tensor, ops

RNG = np.random.default_rng(23)


def rng():
    return np.random.default_rng(31)


class TestTabGNN:
    def build(self, fusion="attention"):
        ds = make_fraud(n=60, seed=0)
        graph = multiplex_from_dataset(ds)
        return ds, TabGNN(graph, 16, 2, rng(), fusion=fusion)

    def test_forward_shape(self):
        _, model = self.build()
        assert model().shape == (60, 2)

    def test_relation_attention_rows_sum_to_one(self):
        _, model = self.build()
        alpha = model.relation_attention(model.relation_embeddings())
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-10)

    def test_mean_fusion_variant(self):
        _, model = self.build(fusion="mean")
        assert model().shape == (60, 2)

    def test_invalid_fusion(self):
        ds = make_fraud(n=30, seed=0)
        graph = multiplex_from_dataset(ds)
        with pytest.raises(ValueError):
            TabGNN(graph, 8, 2, rng(), fusion="concat")

    def test_requires_value_layers(self):
        graph = MultiplexGraph(4, x=np.eye(4))
        graph.add_layer("a", np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="value layers"):
            TabGNN(graph, 8, 2, rng())

    @pytest.mark.parametrize("fusion", ["attention", "mean"])
    def test_csr_input_matches_dense_reference(self, fusion):
        _, model = self.build(fusion)
        _, reference = self.build(fusion)
        assert sp.issparse(model.x)
        reference.x = Tensor(model.x.toarray())
        probe = Tensor(RNG.normal(size=(60, 2)))
        logits = []
        for m in (model, reference):
            out = m()
            ops.sum(ops.mul(out, probe)).backward()
            logits.append(out.data)

        def assert_close(actual, expected, name):
            scale = np.abs(expected).max()
            assert np.abs(actual - expected).max() <= 1e-12 * scale, name

        assert_close(logits[0], logits[1], "logits")
        for (name, param), (_, ref_param) in zip(
            model.named_parameters(), reference.named_parameters()
        ):
            if ref_param.grad is None:  # attention_vector under mean fusion
                assert param.grad is None, name
            else:
                assert_close(param.grad, ref_param.grad, name)

    def test_trains(self):
        ds, model = self.build()
        opt = nn.Adam(model.parameters(), lr=0.02)
        losses = []
        for _ in range(15):
            loss = nn.cross_entropy(model(), ds.y)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]


class TestGRAPE:
    def build(self, instance_init="ones"):
        table = RNG.normal(size=(20, 5))
        table[RNG.random((20, 5)) < 0.2] = np.nan
        graph = BipartiteGraph.from_table(table, y=RNG.integers(0, 2, 20))
        return graph, GRAPE(graph, 16, 2, rng(), instance_init=instance_init)

    def test_forward_and_embed_shapes(self):
        _, model = self.build()
        assert model().shape == (20, 2)
        assert model.embed().shape == (20, 16)

    def test_feature_init_variant(self):
        _, model = self.build(instance_init="features")
        assert model().shape == (20, 2)

    def test_invalid_init_rejected(self):
        graph, _ = self.build()
        with pytest.raises(ValueError):
            GRAPE(graph, 8, 2, rng(), instance_init="zeros")

    def test_edge_prediction_shape(self):
        graph, model = self.build()
        pred = model.predict_edges(np.array([0, 1]), np.array([2, 3]))
        assert pred.shape == (2,)

    def test_impute_table_fills_all_nans(self):
        graph, model = self.build()
        table = model.impute_table()
        assert not np.isnan(table).any()
        observed = graph.observed_mask()
        np.testing.assert_allclose(table[observed], graph.observed_matrix()[observed])

    def test_imputation_loss_uses_hidden_edges_only(self):
        graph, model = self.build()
        loss = model.imputation_loss(drop_rate=0.3, rng=np.random.default_rng(0))
        assert loss.item() >= 0
        with pytest.raises(ValueError):
            model.imputation_loss(drop_rate=0.0)

    def test_imputation_trains(self):
        graph, model = self.build(instance_init="features")
        opt = nn.Adam(model.parameters(), lr=0.01)
        loss_rng = np.random.default_rng(0)
        losses = []
        for _ in range(40):
            loss = model.imputation_loss(rng=loss_rng)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


class TestFiGNN:
    def test_forward_shape_binary(self):
        ds = make_ctr(n=50, num_users=5, num_items=4, seed=0)
        model = FiGNN(ds.cardinalities, 8, rng())
        assert model(ds).shape == (50,)

    def test_predict_proba_in_unit_interval(self):
        ds = make_ctr(n=30, num_users=5, num_items=4, seed=0)
        model = FiGNN(ds.cardinalities, 8, rng())
        probs = model.predict_proba(ds)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_interaction_matrix_rows_sum_to_one(self):
        model = FiGNN([5, 4, 3], 8, rng())
        adj = model.interaction_matrix().data
        np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.diag(adj), 0.0, atol=1e-10)

    def test_numerical_fields_supported(self):
        ds = make_fraud(n=40, seed=0)
        model = FiGNN(ds.cardinalities, 8, rng(), num_numerical=ds.num_numerical)
        assert model(ds).shape == (40,)

    def test_needs_at_least_one_field(self):
        with pytest.raises(ValueError):
            FiGNN([], 8, rng())

    def test_learns_interaction_signal(self):
        ds = make_ctr(n=800, num_users=8, num_items=6, seed=1)
        model = FiGNN(ds.cardinalities, 16, rng())
        opt = nn.Adam(model.parameters(), lr=0.02)
        for _ in range(60):
            loss = nn.binary_cross_entropy_with_logits(model(ds), ds.y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert roc_auc(ds.y, model.predict_proba(ds)) > 0.75


class TestLUNAR:
    def test_scores_rank_planted_outliers(self):
        ds = make_anomaly(n_inliers=150, n_outliers=15, seed=0)
        x = ds.to_matrix()
        model = LUNAR(k=8, seed=0, epochs=60).fit(x)
        assert roc_auc(ds.y, model.score()) > 0.8

    def test_score_new_points(self):
        ds = make_anomaly(n_inliers=100, n_outliers=10, seed=0)
        x = ds.to_matrix()
        model = LUNAR(k=5, seed=0, epochs=30).fit(x)
        new_scores = model.score(RNG.normal(size=(7, x.shape[1])))
        assert new_scores.shape == (7,)
        assert np.all((new_scores >= 0) & (new_scores <= 1))

    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LUNAR(k=3).score()

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            LUNAR(k=10).fit(np.ones((5, 2)))

    def test_baseline_score_is_mean_distance(self):
        x = RNG.normal(size=(30, 3))
        model = LUNAR(k=4, seed=0, epochs=1).fit(x)
        baseline = model.baseline_knn_score()
        assert baseline.shape == (30,)
        assert np.all(baseline > 0)


class TestSLAPS:
    def build(self):
        ds = make_correlated_instances(n=60, cluster_strength=2.0, seed=0)
        return ds, SLAPS(ds.to_matrix(), ds.num_classes, rng(), hidden_dim=16, k=8)

    def test_forward_shape(self):
        ds, model = self.build()
        assert model().shape == (60, ds.num_classes)

    def test_dae_loss_positive_and_differentiable(self):
        _, model = self.build()
        loss = model.dae_loss()
        assert loss.item() > 0
        loss.backward()
        assert any(p.grad is not None for p in model.learner.parameters())

    def test_joint_loss_includes_dae(self):
        ds, model = self.build()
        supervised_only = SLAPS(ds.to_matrix(), ds.num_classes, rng(),
                                hidden_dim=16, k=8, dae_weight=0.0)
        assert model.loss(ds.y).item() > supervised_only.loss(ds.y).item() * 0.5

    def test_invalid_k(self):
        ds = make_correlated_instances(n=20, seed=0)
        with pytest.raises(ValueError):
            SLAPS(ds.to_matrix(), 2, rng(), k=30)


class TestIDGL:
    def test_forward_and_loss(self):
        ds = make_correlated_instances(n=50, cluster_strength=2.0, seed=0)
        model = IDGL(ds.to_matrix(), ds.num_classes, rng(), hidden_dim=12, k=10)
        logits = model()
        assert logits.shape == (50, ds.num_classes)
        loss = model.loss(ds.y)
        loss.backward()
        assert model.feature_learner.head_weights.grad is not None

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            IDGL(np.ones((10, 3)), 2, rng(), num_iterations=0)


class TestFATE:
    def test_permutation_invariance_over_features(self):
        model = FATE(6, 2, rng())
        x = RNG.normal(size=(9, 6))
        perm = RNG.permutation(6)
        out1 = model(x, feature_index=np.arange(6)).data
        out2 = model(x[:, perm], feature_index=perm).data
        np.testing.assert_allclose(out1, out2, atol=1e-10)

    def test_unseen_features_use_mean_embedding(self):
        model = FATE(4, 2, rng())
        x = RNG.normal(size=(5, 6))
        out = model(x, feature_index=np.array([0, 1, 2, 3, 4, 5]))
        assert out.shape == (5, 2)
        assert np.all(np.isfinite(out.data))

    def test_column_count_checked(self):
        model = FATE(4, 2, rng())
        with pytest.raises(ValueError):
            model(RNG.normal(size=(3, 5)))
        with pytest.raises(ValueError):
            model(RNG.normal(size=(3, 5)), feature_index=np.arange(4))


class TestFeatureGraphClassifier:
    def test_forward_shape(self):
        model = FeatureGraphClassifier(6, 3, rng(), embed_dim=8)
        assert model(RNG.normal(size=(10, 6))).shape == (10, 3)

    def test_interaction_graph_normalized(self):
        model = FeatureGraphClassifier(5, 2, rng())
        adj = model.interaction_graph().data
        np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.diag(adj), 0.0, atol=1e-10)

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            FeatureGraphClassifier(1, 2, rng())

    def test_wrong_width_raises(self):
        model = FeatureGraphClassifier(4, 2, rng())
        with pytest.raises(ValueError):
            model(RNG.normal(size=(3, 5)))


class TestWrapperModels:
    def test_hypergraph_classifier(self):
        ds = make_fraud(n=40, seed=0)
        model = HypergraphClassifier(ds, rng(), hidden_dim=8)
        assert model().shape == (40, 2)
        assert model.loss(ds.y).item() > 0

    def test_hetero_classifier(self):
        ds = make_fraud(n=40, seed=0)
        model = HeteroTabClassifier(ds, rng(), hidden_dim=8)
        assert model().shape == (40, 2)

    def test_knn_graph_classifier_fit_predict(self):
        ds = make_correlated_instances(n=120, cluster_strength=2.5, seed=0)
        clf = KNNGraphClassifier(k=6, max_epochs=60, seed=0)
        clf.fit(ds.to_matrix(), ds.y)
        preds = clf.predict()
        assert preds.shape == (120,)
        assert accuracy(ds.y, preds) > 0.6

    def test_knn_classifier_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            KNNGraphClassifier().predict()


class TestPET:
    def setup_problem(self, use_label_channel=True, seed=1):
        from repro.models import PET

        ds = make_correlated_instances(n=150, cluster_strength=1.0, seed=seed)
        x = ds.to_matrix()
        rng_split = np.random.default_rng(0)
        from repro.datasets import train_val_test_masks

        train, val, test = train_val_test_masks(150, 0.3, 0.15, rng_split,
                                                stratify=ds.y)
        model = PET(x, ds.y, train, ds.num_classes, np.random.default_rng(0),
                    k=8, use_label_channel=use_label_channel)
        return ds, model, train, val, test

    def test_forward_shape(self):
        ds, model, *_ = self.setup_problem()
        assert model().shape == (150, ds.num_classes)

    def test_label_channel_extends_features(self):
        ds, with_labels, *_ = self.setup_problem(True)
        _, without, *_ = self.setup_problem(False)
        assert (with_labels.graph.x.shape[1]
                == without.graph.x.shape[1] + ds.num_classes)

    def test_test_rows_have_zero_label_channel(self):
        ds, model, train, *_ = self.setup_problem()
        channel = model.graph.x[:, -ds.num_classes:]
        assert np.all(channel[~train] == 0.0)
        assert np.all(channel[train].sum(axis=1) == 1.0)

    def test_label_dropout_changes_loss_stochastically(self):
        ds, model, train, *_ = self.setup_problem()
        rng = np.random.default_rng(5)
        l1 = model.loss(ds.y, train, label_dropout=0.8, rng=rng).item()
        l2 = model.loss(ds.y, train, label_dropout=0.8, rng=rng).item()
        assert l1 != l2

    def test_trains(self):
        ds, model, train, val, test = self.setup_problem()
        opt = nn.Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(1)
        losses = []
        for _ in range(25):
            loss = model.loss(ds.y, train, rng=rng)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
