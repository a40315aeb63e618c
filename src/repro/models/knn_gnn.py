"""The workhorse combination most applied GNN4TDL papers use: a rule-based
kNN instance graph plus a standard GNN (survey Sec. 4.1.1 instance graphs).

Wraps construction + network + head behind a fit/predict interface so
benches and examples can use it like any baseline classifier, while still
exposing the underlying graph and network for inspection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.construction.rules import knn_graph
from repro.datasets.preprocessing import train_val_test_masks
from repro.gnn.networks import build_network
from repro.metrics import accuracy
from repro.training.trainer import Trainer


class KNNGraphClassifier:
    """kNN-graph node classification with a configurable Table 5 backbone."""

    def __init__(
        self,
        k: int = 10,
        network: str = "gcn",
        hidden_dim: int = 32,
        num_layers: int = 2,
        metric: str = "euclidean",
        lr: float = 0.01,
        max_epochs: int = 200,
        patience: int = 30,
        dropout: float = 0.0,
        weight_decay: float = 5e-4,
        seed: int = 0,
    ) -> None:
        self.k = k
        self.network_name = network
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.metric = metric
        self.lr = lr
        self.max_epochs = max_epochs
        self.patience = patience
        self.dropout = dropout
        self.weight_decay = weight_decay
        self.seed = seed
        self.graph = None
        self.model: Optional[nn.Module] = None
        self.classes_: Optional[np.ndarray] = None

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        train_mask: Optional[np.ndarray] = None,
        val_mask: Optional[np.ndarray] = None,
    ) -> "KNNGraphClassifier":
        """Transductive fit: the graph spans *all* rows; the loss uses only
        ``train_mask`` rows (semi-supervised, survey Sec. 2.5d)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.classes_ = np.unique(y)
        labels = np.searchsorted(self.classes_, y)
        rng = np.random.default_rng(self.seed)
        if train_mask is None:
            train_mask, val_mask, _ = train_val_test_masks(
                len(y), 0.7, 0.15, rng, stratify=labels
            )
        self.graph = knn_graph(x, k=self.k, metric=self.metric, y=labels)
        self.model = build_network(
            self.network_name,
            self.graph,
            self.hidden_dim,
            len(self.classes_),
            rng,
            num_layers=self.num_layers,
            dropout=self.dropout,
        )
        optimizer = nn.Adam(
            self.model.parameters(), lr=self.lr, weight_decay=self.weight_decay
        )
        trainer = Trainer(
            self.model, optimizer, max_epochs=self.max_epochs, patience=self.patience
        )

        # The pair form lets the trainer score an epoch on the next training
        # forward's logits (see ``Trainer.fit``).
        def loss_fn():
            logits = self.model()
            return nn.cross_entropy(logits, labels, mask=train_mask), logits

        val_fn = None
        if val_mask is not None and val_mask.any():
            def val_fn(logits):
                if logits is None:
                    logits = self.model()
                pred = logits.data.argmax(axis=1)
                return accuracy(labels[val_mask], pred[val_mask])

        trainer.fit(loss_fn, val_fn)
        return self

    def predict_proba(self, index: Optional[np.ndarray] = None) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("fit must be called before predict")
        logits = self.model().data
        logits = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs if index is None else probs[index]

    def predict(self, index: Optional[np.ndarray] = None) -> np.ndarray:
        return self.classes_[self.predict_proba(index).argmax(axis=1)]
