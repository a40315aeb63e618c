"""k-nearest-neighbor classifier (brute force, small-data regime)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.construction.retrieval import PoolIndex


class KNNClassifier:
    """Majority vote over the k nearest (euclidean) training rows.

    The non-parametric cousin of the kNN *graph*: comparing it against a
    kNN-graph GNN isolates what message passing adds beyond local voting.
    """

    def __init__(self, k: int = 5, weighted: bool = False) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.weighted = weighted
        self._index: Optional[PoolIndex] = None
        self._y: Optional[np.ndarray] = None
        self.classes_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNClassifier":
        x = np.asarray(x, dtype=np.float64)
        if len(x) < self.k:
            raise ValueError("training set smaller than k")
        self._index = PoolIndex(x, "euclidean")
        self._y = np.asarray(y, dtype=np.int64)
        self.classes_ = np.unique(self._y)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self._index is None:
            raise RuntimeError("fit must be called before predict")
        x = np.asarray(x, dtype=np.float64)
        nearest = self._index.exact_top_k(x, self.k)
        if self.weighted:
            dist = np.linalg.norm(x[:, None, :] - self._index.pool[nearest], axis=2)
            weights = 1.0 / (dist + 1e-12)
        else:
            weights = np.ones(nearest.shape)
        votes = np.searchsorted(self.classes_, self._y[nearest])
        probs = np.zeros((len(x), len(self.classes_)))
        np.add.at(probs, (np.arange(len(x))[:, None], votes), weights)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes_[self.predict_proba(x).argmax(axis=1)]
