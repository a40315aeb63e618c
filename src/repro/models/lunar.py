"""LUNAR [44]: learnable unified neighborhood-based anomaly ranking.

Formulation (survey Tables 2 & 6): homogeneous kNN instance graph where
*messages are the neighbor distances themselves* — the "Distance
Preservation" specialized design.  A shared network maps each node's vector
of k nearest-neighbor distances to an anomaly score; training uses negative
sampling (synthetic anomalies labelled 1, data labelled 0), which
generalizes LOF/kNN detectors into a learnable GNN.

Every row's k nearest training rows come from one euclidean
:class:`~repro.construction.retrieval.PoolIndex` over the training rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.construction.retrieval import PoolIndex
from repro.tensor import Tensor


class LUNAR(nn.Module):
    """kNN-distance message network with negative-sampling training."""

    def __init__(
        self,
        k: int = 10,
        hidden_dim: int = 32,
        seed: int = 0,
        negative_rate: float = 1.0,
        noise_scale: float = 0.2,
        epochs: int = 150,
        lr: float = 0.01,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.negative_rate = negative_rate
        self.noise_scale = noise_scale
        self.epochs = epochs
        self.lr = lr
        self._rng = np.random.default_rng(seed)
        self.scorer = nn.MLP(k, (hidden_dim, hidden_dim), 1, np.random.default_rng(seed))
        self._index: Optional[PoolIndex] = None

    # ------------------------------------------------------------------
    def _negative_samples(self, x: np.ndarray) -> np.ndarray:
        """Synthetic anomalies: uniform box noise + jittered data points."""
        n = max(1, int(len(x) * self.negative_rate))
        lo, hi = x.min(axis=0), x.max(axis=0)
        span = np.maximum(hi - lo, 1e-6)
        uniform = self._rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(n // 2 + 1, x.shape[1]))
        jitter_idx = self._rng.integers(0, len(x), size=n - len(uniform) + 1)
        jitter = x[jitter_idx] + self._rng.normal(
            0.0, self.noise_scale * span, size=(len(jitter_idx), x.shape[1])
        )
        return np.concatenate([uniform, jitter], axis=0)[:n]

    def _features(self, x: Optional[np.ndarray]) -> np.ndarray:
        """Sorted distances from each row of ``x`` to its k nearest training
        rows; ``x=None`` takes the training rows, each without itself."""
        if self._index is None:
            raise RuntimeError("fit must be called before score")
        train_x = self._index.pool
        exclude = np.arange(len(train_x)) if x is None else None
        x = train_x if x is None else np.asarray(x, dtype=np.float64)
        nearest = self._index.exact_top_k(x, self.k, exclude=exclude)
        dist = np.linalg.norm(x[:, None, :] - train_x[nearest], axis=2)
        return np.sort(dist, axis=1)

    def fit(self, x: np.ndarray) -> "LUNAR":
        """Train the scorer on normal data versus synthetic anomalies."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) <= self.k:
            raise ValueError("need more rows than k")
        self._index = PoolIndex(x, "euclidean")
        positives = self._features(None)
        optimizer = nn.Adam(self.scorer.parameters(), lr=self.lr)
        for _ in range(self.epochs):
            negatives = self._features(self._negative_samples(x))
            feats = np.concatenate([positives, negatives], axis=0)
            labels = np.concatenate([np.zeros(len(positives)), np.ones(len(negatives))])
            logits = self.scorer(Tensor(feats)).reshape(-1)
            loss = nn.binary_cross_entropy_with_logits(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        self.scorer.eval()
        return self

    def score(self, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Anomaly scores (higher = more anomalous)."""
        logits = self.scorer(Tensor(self._features(x))).data.reshape(-1)
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))

    def baseline_knn_score(self, x: Optional[np.ndarray] = None) -> np.ndarray:
        """The classical (non-learned) mean-kNN-distance detector, for ablation."""
        return self._features(x).mean(axis=1)
