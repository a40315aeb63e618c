"""Integration tests: networks, pipeline, registry and applications together.

These are the end-to-end checks that the survey's qualitative claims hold in
miniature; the full-size versions live in benchmarks/.
"""

import numpy as np
import pytest

from repro import nn, registry
from repro.construction.rules import knn_graph
from repro.datasets import (
    inject_missing,
    make_anomaly,
    make_correlated_instances,
    make_ctr,
    make_ehr,
    make_fraud,
    train_val_test_masks,
)
from repro.gnn.networks import build_network
from repro.metrics import accuracy
from repro.pipeline import FORMULATIONS, run_pipeline
from repro.tensor import Tensor


class TestNetworks:
    @pytest.mark.parametrize("name", ["gcn", "sage", "gat", "gin", "gated"])
    def test_every_architecture_trains_above_chance(self, name):
        # A small sparse graph, then Table 5's setting: 400 rows, k=8, 30%
        # labels, width 32 and weight decay, where a degree-scaled sum
        # kills every ReLU of an unnormalized GIN.
        settings = [
            # (rows, cluster strength, seed, k, train share, width, decay)
            (150, 2.0, 2, 6, 0.5, 16, 0.0),
            (400, 1.5, 0, 8, 0.3, 32, 5e-4),
        ]
        for n, strength, seed, k, share, width, decay in settings:
            ds = make_correlated_instances(n=n, cluster_strength=strength, seed=seed)
            g = knn_graph(ds.to_matrix(), k=k, y=ds.y)
            rng = np.random.default_rng(0)
            train, val, test = train_val_test_masks(n, share, 0.2, rng, stratify=ds.y)
            model = build_network(name, g, width, ds.num_classes, rng)
            opt = nn.Adam(model.parameters(), lr=0.01, weight_decay=decay)
            for _ in range(60):
                model.train()
                loss = nn.cross_entropy(model(), ds.y, mask=train)
                opt.zero_grad()
                loss.backward()
                opt.step()
            model.eval()
            acc = accuracy(ds.y[test], model().data.argmax(1)[test])
            chance = 1.0 / ds.num_classes
            assert acc > chance + 0.15, f"{name} failed to beat chance at n={n}: {acc}"

    def test_unknown_architecture_raises(self):
        ds = make_correlated_instances(n=30, seed=0)
        g = knn_graph(ds.to_matrix(), k=3)
        with pytest.raises(ValueError):
            build_network("transformer", g, 8, 2, np.random.default_rng(0))

    def test_feature_view_override(self):
        ds = make_correlated_instances(n=40, seed=0)
        x = ds.to_matrix()
        g = knn_graph(x, k=4, y=ds.y)
        model = build_network("gcn", g, 8, 2, np.random.default_rng(0))
        default_out = model().data
        corrupted_out = model(Tensor(np.zeros_like(x))).data
        assert not np.allclose(default_out, corrupted_out)

    def test_embed_dims(self):
        ds = make_correlated_instances(n=40, seed=0)
        g = knn_graph(ds.to_matrix(), k=4)
        for name in ("gcn", "sage", "gat", "gin", "gated"):
            model = build_network(name, g, 8, 2, np.random.default_rng(0))
            assert model.embed().shape[0] == 40
            assert model.embed().shape[1] == model.embed_dim


class TestPipeline:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_each_formulation_runs(self, formulation):
        ds = make_fraud(n=120, seed=0)
        result = run_pipeline(ds, formulation=formulation, max_epochs=25)
        assert 0.0 <= result.test_accuracy <= 1.0
        assert set(result.phase_seconds) == {"construction", "training", "inference"}
        assert result.num_parameters > 0

    def test_invalid_formulation(self):
        ds = make_fraud(n=50, seed=0)
        with pytest.raises(ValueError):
            run_pipeline(ds, formulation="quantum")

    def test_regression_rejected(self):
        from repro.datasets import make_regression

        with pytest.raises(ValueError):
            run_pipeline(make_regression(n=50), formulation="instance")

    def test_auxiliary_task_variant(self):
        ds = make_fraud(n=100, seed=0)
        result = run_pipeline(ds, formulation="instance", with_auxiliary=True,
                              max_epochs=25)
        assert result.test_accuracy > 0.0


class TestRegistry:
    def test_all_taxonomy_leaves_resolve(self):
        resolved = registry.verify_all_leaves()
        assert all(resolved.values())

    def test_four_phases_present(self):
        assert registry.phases() == [
            "formulation", "construction", "representation", "training",
        ]

    def test_tree_rendering_contains_all_leaves(self):
        tree = registry.taxonomy_tree()
        for leaf in registry.TAXONOMY:
            assert leaf.name in tree

    def test_scope_axes_match_table1(self):
        assert set(registry.SCOPE_AXES) == {"TDP", "GRL", "GSL", "SSL", "TS", "AT", "App"}


class TestApplicationsSmall:
    def test_anomaly_detection_keys_and_ranges(self):
        from repro.applications import run_anomaly_detection

        ds = make_anomaly(n_inliers=120, n_outliers=12, seed=0)
        results = run_anomaly_detection(ds, epochs=40)
        assert set(results) == {"lunar", "knn_distance", "gae", "zscore"}
        for stats in results.values():
            assert 0.0 <= stats["auc"] <= 1.0

    def test_anomaly_requires_binary(self):
        from repro.applications import run_anomaly_detection

        ds = make_correlated_instances(n=50, num_classes=3, seed=0)
        with pytest.raises(ValueError):
            run_anomaly_detection(ds)

    def test_ctr_benchmark_keys(self):
        from repro.applications import run_ctr_benchmark

        ds = make_ctr(n=400, num_users=8, num_items=6, seed=0)
        results = run_ctr_benchmark(ds, epochs=30)
        assert set(results) == {"logistic", "mlp", "fignn"}

    def test_imputation_benchmark_mechanisms(self):
        from repro.applications import run_imputation_benchmark

        ds = make_correlated_instances(n=80, cluster_strength=2.0, seed=0)
        results = run_imputation_benchmark(ds, rate=0.25, mechanism="mcar", epochs=40)
        assert set(results) == {"mean", "median", "knn", "iterative", "grape"}
        assert all(v > 0 for v in results.values())

    def test_imputation_rejects_incomplete_input(self):
        from repro.applications import run_imputation_benchmark

        ds = inject_missing(make_correlated_instances(n=50, seed=0), 0.2)
        with pytest.raises(ValueError):
            run_imputation_benchmark(ds)

    def test_ehr_benchmark_keys(self):
        from repro.applications import run_ehr_benchmark

        ds = make_ehr(n=120, num_codes=20, seed=0)
        results = run_ehr_benchmark(ds, epochs=30)
        assert set(results) == {"mlp", "hetero_gnn", "hypergraph_gnn", "knn_gcn"}

    def test_fraud_benchmark_keys(self):
        from repro.applications import run_fraud_benchmark

        ds = make_fraud(n=250, seed=0)
        results = run_fraud_benchmark(ds, epochs=30)
        assert set(results) == {"mlp", "tabgnn_attention", "tabgnn_mean", "flattened_gcn"}


class TestSurveyClaimsInMiniature:
    """Sec. 2.5's 'why GNNs' arguments, each as a fast falsifiable check."""

    def test_instance_correlation_gnn_beats_mlp_when_clusters_exist(self):
        from repro.baselines import MLPClassifier
        from repro.models import KNNGraphClassifier

        ds = make_correlated_instances(n=240, cluster_strength=2.0, flip_y=0.05, seed=3)
        x = ds.to_matrix()
        rng = np.random.default_rng(0)
        train, val, test = train_val_test_masks(240, 0.15, 0.15, rng, stratify=ds.y)
        mlp = MLPClassifier(hidden_dims=(32,), epochs=150, seed=0).fit(x[train], ds.y[train])
        mlp_acc = accuracy(ds.y[test], mlp.predict(x[test]))
        gnn = KNNGraphClassifier(k=8, max_epochs=150, seed=0)
        gnn.fit(x, ds.y, train_mask=train, val_mask=val)
        gnn_acc = accuracy(ds.y[test], gnn.predict(test))
        assert gnn_acc >= mlp_acc - 0.02  # GNN at least matches; usually wins

    def test_semi_supervision_gap_grows_with_label_scarcity(self):
        from repro.models import KNNGraphClassifier

        ds = make_correlated_instances(n=300, cluster_strength=2.0, seed=1)
        x = ds.to_matrix()
        rng = np.random.default_rng(0)
        accs = {}
        for frac in (0.05, 0.5):
            train, val, test = train_val_test_masks(300, frac, 0.1, rng, stratify=ds.y)
            gnn = KNNGraphClassifier(k=8, max_epochs=120, seed=0)
            gnn.fit(x, ds.y, train_mask=train, val_mask=val)
            accs[frac] = accuracy(ds.y[test], gnn.predict(test))
        # Even with 5% labels, the graph propagates supervision: stays well
        # above chance (1/3).
        assert accs[0.05] > 0.55
