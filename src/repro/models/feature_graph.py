"""Feature-graph row classifier (T2G-Former [152] / Table2Graph [173] lite).

Formulation (survey Table 2): homogeneous *feature graph* with a *learned*
structure.  Each row tokenizes its features (value × learned field vector +
field bias — the feature-tokenizer of [46]), a shared learnable field-pair
graph (direct parametrization, softmax-normalized) propagates between the
field tokens, and an attention readout produces the row representation.

The learned adjacency is retrievable for inspection
(:meth:`interaction_graph`), mirroring T2G-Former's interpretable
"Graph Estimator".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.gnn.readout import AttentionReadout
from repro.tensor import Tensor, ops
from repro.tensor import init as tinit


class FeatureGraphClassifier(nn.Module):
    """Tokenized features + learned field graph + attention readout."""

    def __init__(
        self,
        num_features: int,
        out_dim: int,
        rng: np.random.Generator,
        embed_dim: int = 16,
        num_layers: int = 2,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if num_features < 2:
            raise ValueError("a feature graph needs at least two features")
        self.num_features = num_features
        self.embed_dim = embed_dim
        # Feature tokenizer: token_j = value_j * w_j + b_j.
        self.token_weight = nn.Parameter(tinit.normal((num_features, embed_dim), 0.3, rng))
        self.token_bias = nn.Parameter(tinit.normal((num_features, embed_dim), 0.1, rng))
        self.edge_logits = nn.Parameter(rng.normal(0.0, 0.1, size=(num_features, num_features)))
        self.propagations = nn.ModuleList(
            [nn.Linear(embed_dim, embed_dim, rng) for _ in range(num_layers)]
        )
        self.readout = AttentionReadout(embed_dim, rng)
        self.head = nn.MLP(embed_dim, (embed_dim,), out_dim, rng, dropout=dropout)

    def tokens(self, x: np.ndarray) -> Tensor:
        """Per-row field tokens, shape (rows, features, embed_dim)."""
        x = np.nan_to_num(np.asarray(x, dtype=np.float64), nan=0.0)
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} columns, got {x.shape[1]}")
        values = Tensor(x.reshape(x.shape[0], self.num_features, 1))
        scaled = ops.mul(values, self.token_weight)  # broadcast (F, D)
        return ops.add(scaled, self.token_bias)

    def interaction_graph(self) -> Tensor:
        """Row-normalized learned field-pair adjacency (self excluded)."""
        mask = Tensor(np.eye(self.num_features) * -1e9)
        return ops.softmax(ops.add(self.edge_logits, mask), axis=1)

    def forward(self, x: np.ndarray) -> Tensor:
        return self.head(self.embed(x))

    def embed(self, x: np.ndarray) -> Tensor:
        h = self.tokens(x)
        rows = h.shape[0]
        adjacency = self.interaction_graph()
        for linear in self.propagations:
            flat = linear(h.reshape(rows * self.num_features, self.embed_dim))
            transformed = flat.reshape(rows, self.num_features, self.embed_dim)
            h = ops.relu(ops.add(h, ops.matmul(adjacency, transformed)))
        return self.readout(h)
