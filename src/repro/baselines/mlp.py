"""MLP baselines: the structure-blind deep-learning reference point.

These wrap :class:`repro.nn.MLP` in a fit/predict interface.  They see each
row independently — no instance correlation, no explicit feature graph —
which is precisely the "conventional deep TDL" the survey argues GNNs
improve on (Sec. 2.5).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.tensor import Tensor


class _MLPBase:
    def __init__(
        self,
        hidden_dims: Sequence[int] = (64, 32),
        lr: float = 0.01,
        epochs: int = 200,
        weight_decay: float = 1e-4,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.hidden_dims = tuple(hidden_dims)
        self.lr = lr
        self.epochs = epochs
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.seed = seed
        self.model: Optional[nn.MLP] = None

    def _build(self, in_features: int, out_features: int) -> nn.MLP:
        rng = np.random.default_rng(self.seed)
        return nn.MLP(
            in_features, self.hidden_dims, out_features, rng, dropout=self.dropout
        )

    def _train(self, loss_fn) -> None:
        optimizer = nn.Adam(
            self.model.parameters(), lr=self.lr, weight_decay=self.weight_decay
        )
        for _ in range(self.epochs):
            self.model.train()
            loss = loss_fn()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        self.model.eval()


class MLPClassifier(_MLPBase):
    """Feed-forward classifier over flattened tabular features."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.classes_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.classes_ = np.unique(y)
        labels = np.searchsorted(self.classes_, y)
        self.model = self._build(x.shape[1], len(self.classes_))
        features = Tensor(x)
        self._train(lambda: nn.cross_entropy(self.model(features), labels))
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit must be called before predict")
        logits = self.model(Tensor(np.asarray(x, dtype=np.float64))).data
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        return probs / probs.sum(axis=1, keepdims=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes_[self.predict_proba(x).argmax(axis=1)]


class MLPRegressor(_MLPBase):
    """Feed-forward regressor over flattened tabular features."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.model = self._build(x.shape[1], 1)
        features = Tensor(x)
        target = y.reshape(-1, 1)
        self._train(lambda: nn.mse_loss(self.model(features), target))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit must be called before predict")
        return self.model(Tensor(np.asarray(x, dtype=np.float64))).data.reshape(-1)
