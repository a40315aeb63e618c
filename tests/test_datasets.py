"""Unit tests for the dataset container, generators, preprocessing, missingness."""

import numpy as np
import pytest

from repro.datasets import (
    KBinsDiscretizer,
    MinMaxScaler,
    OrdinalEncoder,
    StandardScaler,
    TabularDataset,
    inject_missing,
    make_anomaly,
    make_classification,
    make_correlated_instances,
    make_ctr,
    make_ehr,
    make_feature_interaction,
    make_fraud,
    make_regression,
    train_val_test_masks,
)
from repro.datasets.missing import missing_rate

RNG = np.random.default_rng(9)


class TestTabularDataset:
    def make(self):
        return TabularDataset(
            RNG.normal(size=(10, 3)),
            RNG.integers(0, 4, size=(10, 2)),
            RNG.integers(0, 2, size=10),
            "binary",
        )

    def test_counts(self):
        ds = self.make()
        assert ds.num_instances == 10
        assert ds.num_numerical == 3
        assert ds.num_categorical == 2
        assert ds.num_features == 5
        assert ds.num_classes == 2

    def test_invalid_task_rejected(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((2, 1)), None, np.zeros(2), "clustering")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((2, 1)), None, np.zeros(3), "binary")
        with pytest.raises(ValueError):
            TabularDataset(np.zeros(3), None, np.zeros(3), "binary")

    def test_cardinality_validation(self):
        with pytest.raises(ValueError):
            TabularDataset(
                np.zeros((2, 0)), np.array([[3], [0]]), np.zeros(2), "binary",
                cardinalities=[2],
            )

    def test_to_matrix_onehot_width(self):
        ds = self.make()
        mat = ds.to_matrix()
        assert mat.shape == (10, 3 + sum(ds.cardinalities))

    def test_to_matrix_handles_missing(self):
        num = np.array([[1.0, np.nan], [3.0, 4.0]])
        cat = np.array([[0], [-1]])
        ds = TabularDataset(num, cat, np.zeros(2), "binary", cardinalities=[2])
        mat = ds.to_matrix()
        assert np.isfinite(mat).all()
        assert mat[1, 2:].sum() == 0  # missing categorical -> zero one-hot row

    def test_global_value_ids_offsets(self):
        cat = np.array([[0, 0], [1, 1]])
        ds = TabularDataset(np.zeros((2, 0)), cat, np.zeros(2), "binary",
                            cardinalities=[2, 3])
        ids = ds.global_value_ids()
        np.testing.assert_array_equal(ids, [[0, 2], [1, 3]])
        assert ds.num_category_values == 5

    def test_subset(self):
        ds = self.make()
        sub = ds.subset(np.array([0, 2, 4]))
        assert sub.num_instances == 3
        assert sub.cardinalities == ds.cardinalities

    def test_regression_has_no_classes(self):
        ds = TabularDataset(np.zeros((3, 1)), None, np.arange(3.0), "regression")
        with pytest.raises(ValueError):
            _ = ds.num_classes

    def test_summary(self):
        info = self.make().summary()
        assert info["task"] == "binary"
        assert "class_balance" in info


class TestGenerators:
    def test_determinism(self):
        a = make_correlated_instances(n=50, seed=3)
        b = make_correlated_instances(n=50, seed=3)
        np.testing.assert_array_equal(a.numerical, b.numerical)
        np.testing.assert_array_equal(a.y, b.y)

    def test_make_classification_shapes(self):
        ds = make_classification(n=100, num_features=8, num_classes=3, seed=0)
        assert ds.task == "multiclass"
        assert ds.numerical.shape == (100, 8)
        assert set(np.unique(ds.y)) <= {0, 1, 2}

    def test_make_classification_informative_bound(self):
        with pytest.raises(ValueError):
            make_classification(num_features=4, num_informative=6)

    def test_make_regression(self):
        ds = make_regression(n=60, seed=0)
        assert ds.task == "regression"
        assert ds.y.dtype == np.float64

    def test_correlated_strength_zero_is_noise(self):
        ds = make_correlated_instances(n=100, cluster_strength=0.0, seed=0)
        # Features should be uninformative: class means near zero everywhere.
        for c in np.unique(ds.y):
            assert np.abs(ds.numerical[ds.y == c].mean(axis=0)).max() < 0.5

    def test_feature_interaction_marginally_uninformative(self):
        ds = make_feature_interaction(n=3000, num_pairs=1, noise_features=0, seed=0)
        x, y = ds.numerical, ds.y
        # single-feature correlation with label is ~0, product is informative
        marginal = abs(np.corrcoef(x[:, 0], y)[0, 1])
        product = abs(np.corrcoef(x[:, 0] * x[:, 1], y)[0, 1])
        assert marginal < 0.08
        assert product > 0.5

    def test_make_ctr_fields(self):
        ds = make_ctr(n=100, num_users=5, num_items=4, seed=0)
        assert ds.cardinalities == [5, 4, 8]
        assert ds.num_numerical == 0
        assert ds.task == "binary"

    def test_make_ehr_multihot(self):
        ds = make_ehr(n=50, num_codes=20, seed=0)
        assert ds.numerical.shape == (50, 20)
        assert set(np.unique(ds.numerical)) <= {0.0, 1.0}
        # primary code is among the patient's codes
        for i in range(50):
            assert ds.numerical[i, ds.categorical[i, 0]] == 1.0

    def test_make_anomaly_labels(self):
        ds = make_anomaly(n_inliers=90, n_outliers=10, seed=0)
        assert int(ds.y.sum()) == 10
        assert ds.num_instances == 100

    def test_make_anomaly_local_fraction_validated(self):
        with pytest.raises(ValueError):
            make_anomaly(local_fraction=1.5)

    def test_make_fraud_rate(self):
        ds = make_fraud(n=400, fraud_rate=0.1, seed=0)
        assert 0.05 < ds.y.mean() < 0.16
        assert ds.categorical_names == ["device", "merchant"]


class TestMissingInjection:
    def complete(self):
        return make_correlated_instances(n=200, seed=0)

    def test_mcar_rate(self):
        ds = inject_missing(self.complete(), 0.3, "mcar", np.random.default_rng(0))
        assert 0.25 < missing_rate(ds) < 0.35

    def test_mar_depends_on_pilot_column(self):
        ds = self.complete()
        missing = inject_missing(ds, 0.3, "mar", np.random.default_rng(0))
        j = 0
        pilot = ds.numerical[:, 1]  # pilot of column 0 is column 1
        miss = np.isnan(missing.numerical[:, j])
        assert pilot[miss].mean() > pilot[~miss].mean()

    def test_mnar_hides_large_values(self):
        ds = self.complete()
        missing = inject_missing(ds, 0.3, "mnar", np.random.default_rng(0))
        for j in range(3):
            col = ds.numerical[:, j]
            miss = np.isnan(missing.numerical[:, j])
            assert col[miss].mean() > col[~miss].mean()

    def test_no_row_fully_missing(self):
        ds = inject_missing(self.complete(), 0.85, "mcar", np.random.default_rng(0))
        assert not np.isnan(ds.numerical).all(axis=1).any()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            inject_missing(self.complete(), 1.5)
        with pytest.raises(ValueError):
            inject_missing(self.complete(), 0.2, "typo")

    def test_zero_rate_is_identity(self):
        ds = self.complete()
        out = inject_missing(ds, 0.0)
        np.testing.assert_array_equal(out.numerical, ds.numerical)


class TestPreprocessing:
    def test_standard_scaler_roundtrip(self):
        x = RNG.normal(3.0, 2.0, size=(50, 4))
        scaler = StandardScaler()
        z = scaler.fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaler.inverse_transform(z), x, atol=1e-10)

    def test_standard_scaler_ignores_nan(self):
        x = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 6.0]])
        z = StandardScaler().fit_transform(x)
        assert np.isfinite(z[:, 0]).all()
        assert np.isnan(z[0, 1])

    def test_standard_scaler_constant_column(self):
        z = StandardScaler().fit_transform(np.ones((5, 1)))
        np.testing.assert_allclose(z, 0.0)

    def test_minmax_scaler_range(self):
        z = MinMaxScaler().fit_transform(RNG.normal(size=(30, 3)))
        assert z.min() >= 0.0 and z.max() <= 1.0

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))

    def test_onehot_encoder(self):
        codes = np.array([[0, 2], [1, -1]])
        out = TabularDataset(np.zeros((2, 0)), codes, np.zeros(2), "binary").to_matrix()
        assert out.shape == (2, 2 + 3)
        np.testing.assert_array_equal(out[0], [1, 0, 0, 0, 1])
        np.testing.assert_array_equal(out[1, 2:], [0, 0, 0])  # missing row

    def test_ordinal_encoder_roundtrip(self):
        cols = np.array([["a", "x"], ["b", "y"], ["a", "x"]], dtype=object)
        enc = OrdinalEncoder()
        codes = enc.fit_transform(cols)
        assert codes[0, 0] == codes[2, 0]
        assert codes[0, 1] == codes[2, 1]
        unseen = enc.transform(np.array([["c", "x"]], dtype=object))
        assert unseen[0, 0] == -1

    def test_discretizer_bins(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        bins = KBinsDiscretizer(4).fit_transform(x)
        assert set(np.unique(bins)) == {0, 1, 2, 3}
        counts = np.bincount(bins[:, 0])
        assert counts.max() - counts.min() <= 2  # roughly equal-frequency

    def test_discretizer_nan_to_missing(self):
        x = np.array([[0.1], [np.nan], [0.9]])
        bins = KBinsDiscretizer(2).fit_transform(x)
        assert bins[1, 0] == -1

    def test_discretizer_min_bins(self):
        with pytest.raises(ValueError):
            KBinsDiscretizer(1)


class TestSplits:
    def test_partition_covers_everything(self):
        train, val, test = train_val_test_masks(100, 0.6, 0.2, np.random.default_rng(0))
        total = train.astype(int) + val.astype(int) + test.astype(int)
        np.testing.assert_array_equal(total, 1)
        assert 55 <= train.sum() <= 65

    def test_stratified_preserves_ratios(self):
        y = np.array([0] * 80 + [1] * 20)
        train, _, test = train_val_test_masks(
            100, 0.5, 0.25, np.random.default_rng(0), stratify=y
        )
        assert y[train].mean() == pytest.approx(0.2, abs=0.05)
        assert y[test].mean() == pytest.approx(0.2, abs=0.08)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            train_val_test_masks(10, 0.8, 0.3)
        with pytest.raises(ValueError):
            train_val_test_masks(10, 0.0, 0.2)
