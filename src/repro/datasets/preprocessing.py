"""Preprocessing: scalers, encoders, discretizer, split utilities.

Fit/transform objects mirror the sklearn API surface we need, implemented
on numpy so the library stays dependency-light.  All handle NaN (missing)
inputs gracefully: statistics are computed over observed entries only.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Tuple

import numpy as np


class StandardScaler:
    """Z-score columns using statistics over observed (non-NaN) entries."""

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        self.mean_ = np.nanmean(x, axis=0)
        std = np.nanstd(x, axis=0)
        self.std_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler must be fit before transform")
        return (np.asarray(x, dtype=np.float64) - self.mean_) / self.std_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler must be fit before inverse_transform")
        return np.asarray(x, dtype=np.float64) * self.std_ + self.mean_


class MinMaxScaler:
    """Scale columns into [0, 1] using observed minima/maxima."""

    def __init__(self) -> None:
        self.min_: Optional[np.ndarray] = None
        self.range_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        x = np.asarray(x, dtype=np.float64)
        self.min_ = np.nanmin(x, axis=0)
        rng = np.nanmax(x, axis=0) - self.min_
        self.range_ = np.where(rng > 0, rng, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None:
            raise RuntimeError("scaler must be fit before transform")
        return (np.asarray(x, dtype=np.float64) - self.min_) / self.range_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None:
            raise RuntimeError("scaler must be fit before inverse_transform")
        return np.asarray(x, dtype=np.float64) * self.range_ + self.min_


class OrdinalEncoder:
    """Map arbitrary hashable column values to dense integer codes."""

    def __init__(self) -> None:
        self.mappings_: Optional[list[Dict[object, int]]] = None

    def fit(self, columns: np.ndarray) -> "OrdinalEncoder":
        columns = np.asarray(columns, dtype=object)
        self.mappings_ = []
        for j in range(columns.shape[1]):
            values = sorted(set(columns[:, j]), key=repr)
            self.mappings_.append({v: i for i, v in enumerate(values)})
        return self

    def transform(self, columns: np.ndarray) -> np.ndarray:
        if self.mappings_ is None:
            raise RuntimeError("encoder must be fit before transform")
        columns = np.asarray(columns, dtype=object)
        out = np.full(columns.shape, -1, dtype=np.int64)
        for j, mapping in enumerate(self.mappings_):
            for i in range(columns.shape[0]):
                out[i, j] = mapping.get(columns[i, j], -1)
        return out

    def fit_transform(self, columns: np.ndarray) -> np.ndarray:
        return self.fit(columns).transform(columns)


class KBinsDiscretizer:
    """Quantile-bin continuous columns into integer codes.

    Needed to apply the Same-Feature-Value construction rule (Sec. 4.2.2) to
    continuous features — the survey notes the rule "is not always effective
    for continuous features without discretization".
    """

    def __init__(self, n_bins: int = 5) -> None:
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.n_bins = n_bins
        self.edges_: Optional[list[np.ndarray]] = None

    def fit(self, x: np.ndarray) -> "KBinsDiscretizer":
        x = np.asarray(x, dtype=np.float64)
        quantiles = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        self.edges_ = [
            np.nanquantile(x[:, j], quantiles) for j in range(x.shape[1])
        ]
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("discretizer must be fit before transform")
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape, dtype=np.int64)
        for j, edges in enumerate(self.edges_):
            out[:, j] = bin_codes(x[:, j], edges)
        return out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


def bin_codes(column: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Quantile-bin one column against frozen edges; NaN → ``-1`` (missing).

    The single definition of the binning semantics (``searchsorted`` with
    right-closed intervals): :class:`KBinsDiscretizer` applies it per
    fitted column, and serving artifacts apply it to query rows with the
    persisted training-time edges so train and serve always agree.
    """
    column = np.asarray(column, dtype=np.float64)
    codes = np.searchsorted(edges, column, side="right").astype(np.int64)
    codes[np.isnan(column)] = -1
    return codes


class TabularPreprocessor:
    """Fit-once / transform-many featurization with train/serve parity.

    Standardizing with statistics of whatever matrix is at hand, refitting
    on every call, is fine in-process but creates train/serve skew the
    moment rows arrive that the training run never saw.  This class
    separates the two concerns:

    * :meth:`fit` computes NaN-aware statistics once (optionally restricted
      to the training rows via ``row_mask``) and freezes the categorical
      cardinalities;
    * :meth:`transform` maps *raw* ``(numerical, categorical)`` row arrays —
      from the training table or from a serving request — into the exact
      feature space the model was trained in.

    Two output modes cover the two row-wise formulations:

    * ``"onehot"`` — z-scored numericals + one-hot categoricals, the
      instance-graph feature space (``TabularDataset.to_matrix`` is this
      mode fit on every row of the table);
    * ``"fields"`` — one standardized column per original field (numerical
      + ordinal codes), the feature-graph tokenizer input
      (``pipeline._field_matrix``).

    The fitted state round-trips through :meth:`state` /
    :meth:`from_state` so a :class:`repro.serving.ModelArtifact` can persist
    it next to the model weights.
    """

    MODES = ("onehot", "fields")

    def __init__(self, mode: str = "onehot") -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.num_mean_: Optional[np.ndarray] = None
        self.num_std_: Optional[np.ndarray] = None
        self.cat_mean_: Optional[np.ndarray] = None
        self.cat_std_: Optional[np.ndarray] = None
        self.cardinalities_: Optional[list[int]] = None

    # -- fitting ---------------------------------------------------------
    def fit(self, dataset, row_mask: Optional[np.ndarray] = None) -> "TabularPreprocessor":
        """Fit on a :class:`~repro.datasets.TabularDataset` (or its rows)."""
        numerical = dataset.numerical
        categorical = dataset.categorical
        if row_mask is not None:
            row_mask = np.asarray(row_mask, dtype=bool)
            numerical = numerical[row_mask]
            categorical = categorical[row_mask]
        self.cardinalities_ = list(dataset.cardinalities)
        self.num_mean_, self.num_std_ = self._nan_stats(numerical)
        codes = categorical.astype(np.float64)
        codes[codes < 0] = np.nan
        self.cat_mean_, self.cat_std_ = self._nan_stats(codes)
        return self

    @staticmethod
    def _nan_stats(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:class:`StandardScaler` statistics plus empty/all-NaN guards."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] == 0 or x.shape[0] == 0:
            return np.zeros(x.shape[1]), np.ones(x.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            scaler = StandardScaler().fit(x)
        mean = np.nan_to_num(scaler.mean_, nan=0.0)
        std = np.where(np.isfinite(scaler.std_) & (scaler.std_ > 0), scaler.std_, 1.0)
        return mean, std

    def _check_fitted(self) -> None:
        if self.cardinalities_ is None:
            raise RuntimeError("preprocessor must be fit before transform")

    # -- transforming ----------------------------------------------------
    @property
    def num_numerical_features(self) -> int:
        self._check_fitted()
        return int(self.num_mean_.shape[0])

    @property
    def num_categorical_features(self) -> int:
        self._check_fitted()
        return len(self.cardinalities_)

    def normalize_rows(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Coerce raw rows to validated 2-D ``(numerical, categorical)``.

        The single place the serving stack's row conventions live: widths
        are checked against the fitted schema, and omitted categoricals
        become the library-wide ``-1`` "missing" code (all-zero one-hot
        block in onehot mode / mean-imputed after scaling in fields mode)
        rather than silently asserting category 0.
        """
        self._check_fitted()
        numerical = np.asarray(numerical, dtype=np.float64)
        if numerical.ndim == 1:
            numerical = numerical.reshape(1, -1)
        n = numerical.shape[0]
        if numerical.shape[1] != self.num_numerical_features:
            raise ValueError(
                f"expected {self.num_numerical_features} numerical columns, "
                f"got {numerical.shape[1]}"
            )
        if categorical is None:
            categorical = np.full(
                (n, self.num_categorical_features), -1, dtype=np.int64
            )
        categorical = np.asarray(categorical, dtype=np.int64)
        if categorical.ndim == 1:
            categorical = categorical.reshape(1, -1)
        if categorical.shape != (n, self.num_categorical_features):
            raise ValueError(
                f"expected categorical shape ({n}, {self.num_categorical_features}), "
                f"got {categorical.shape}"
            )
        return numerical, categorical

    def transform(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Featurize raw rows using the *frozen* training statistics."""
        numerical, categorical = self.normalize_rows(numerical, categorical)
        n = numerical.shape[0]
        blocks: list[np.ndarray] = []
        if numerical.shape[1]:
            scaled = (numerical - self.num_mean_) / self.num_std_
            blocks.append(np.nan_to_num(scaled, nan=0.0))
        if categorical.shape[1]:
            if self.mode == "onehot":
                for j, card in enumerate(self.cardinalities_):
                    block = np.zeros((n, card))
                    col = categorical[:, j]
                    observed = (col >= 0) & (col < card)
                    block[np.nonzero(observed)[0], col[observed]] = 1.0
                    blocks.append(block)
            else:
                codes = categorical.astype(np.float64)
                codes[codes < 0] = np.nan
                scaled = (codes - self.cat_mean_) / self.cat_std_
                blocks.append(np.nan_to_num(scaled, nan=0.0))
        if not blocks:
            return np.zeros((n, 0))
        return np.concatenate(blocks, axis=1)

    def transform_dataset(self, dataset) -> np.ndarray:
        return self.transform(dataset.numerical, dataset.categorical)

    def fit_transform(self, dataset, row_mask: Optional[np.ndarray] = None) -> np.ndarray:
        return self.fit(dataset, row_mask).transform_dataset(dataset)

    @property
    def num_output_features(self) -> int:
        self._check_fitted()
        num = self.num_mean_.shape[0]
        if self.mode == "onehot":
            return int(num + sum(self.cardinalities_))
        return int(num + len(self.cardinalities_))

    # -- persistence -----------------------------------------------------
    def state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, json-safe meta) pair for artifact serialization."""
        self._check_fitted()
        arrays = {
            "num_mean": self.num_mean_,
            "num_std": self.num_std_,
            "cat_mean": self.cat_mean_,
            "cat_std": self.cat_std_,
        }
        meta = {"mode": self.mode, "cardinalities": [int(c) for c in self.cardinalities_]}
        return arrays, meta

    @classmethod
    def from_state(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "TabularPreprocessor":
        prep = cls(mode=str(meta["mode"]))
        prep.cardinalities_ = [int(c) for c in meta["cardinalities"]]
        prep.num_mean_ = np.asarray(arrays["num_mean"], dtype=np.float64)
        prep.num_std_ = np.asarray(arrays["num_std"], dtype=np.float64)
        prep.cat_mean_ = np.asarray(arrays["cat_mean"], dtype=np.float64)
        prep.cat_std_ = np.asarray(arrays["cat_std"], dtype=np.float64)
        return prep


def train_val_test_masks(
    n: int,
    train_fraction: float = 0.6,
    val_fraction: float = 0.2,
    rng: Optional[np.random.Generator] = None,
    stratify: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random (optionally stratified) boolean train/val/test masks.

    Stratified splitting keeps per-class proportions, important for the
    imbalanced fraud/anomaly applications.
    """
    if train_fraction <= 0 or val_fraction < 0 or train_fraction + val_fraction >= 1:
        raise ValueError("fractions must satisfy 0 < train, 0 <= val, train+val < 1")
    rng = rng or np.random.default_rng(0)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)

    def assign(indices: np.ndarray) -> None:
        perm = rng.permutation(indices)
        n_train = int(round(len(perm) * train_fraction))
        n_val = int(round(len(perm) * val_fraction))
        train[perm[:n_train]] = True
        val[perm[n_train : n_train + n_val]] = True
        test[perm[n_train + n_val :]] = True

    if stratify is None:
        assign(np.arange(n))
    else:
        stratify = np.asarray(stratify)
        for label in np.unique(stratify):
            assign(np.nonzero(stratify == label)[0])
    return train, val, test
