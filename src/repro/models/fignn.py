"""Fi-GNN [83]: feature-interaction GNN for CTR prediction.

Formulation (survey Table 2): homogeneous *feature graph*, one node per
field, fully-connected rule, one-hot/embedded initial features, graph-level
task.  Each table row owns the same fully-connected graph over its embedded
fields; messages pass between fields, node states update through a GRU, and
an attentional scorer reads out the click logit.

Edge importance is a learnable field-pair matrix (softmax-normalized per
destination), the simplification of Fi-GNN's bilinear edge attention that
keeps the model's defining property: pairwise field interactions are
modelled *explicitly and structurally*, unlike the MLP baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.datasets.tabular import TabularDataset
from repro.tensor import Tensor, ops


class FiGNN(nn.Module):
    """Gated feature-graph network over embedded categorical fields."""

    def __init__(
        self,
        cardinalities: Sequence[int],
        embed_dim: int,
        rng: np.random.Generator,
        num_steps: int = 2,
        num_numerical: int = 0,
        out_dim: int = 1,
    ) -> None:
        super().__init__()
        if not cardinalities and num_numerical == 0:
            raise ValueError("Fi-GNN needs at least one field")
        self.cardinalities = list(cardinalities)
        self.num_numerical = num_numerical
        self.num_fields = len(self.cardinalities) + num_numerical
        self.embed_dim = embed_dim
        self.num_steps = num_steps
        self.out_dim = out_dim

        self.field_embeddings = nn.ModuleList(
            [nn.Embedding(card, embed_dim, rng) for card in self.cardinalities]
        )
        if num_numerical:
            # Each numerical field: value scales a learned field vector.
            self.numerical_embedding = nn.Parameter(
                rng.normal(0.0, 0.1, size=(num_numerical, embed_dim))
            )
        self.edge_logits = nn.Parameter(
            rng.normal(0.0, 0.1, size=(self.num_fields, self.num_fields))
        )
        self.message = nn.Linear(embed_dim, embed_dim, rng)
        self.gru = nn.GRUCell(embed_dim, embed_dim, rng)
        self.score = nn.Linear(embed_dim, out_dim, rng)
        self.gate = nn.Linear(embed_dim, 1, rng)

    # ------------------------------------------------------------------
    def field_states(self, dataset: TabularDataset) -> Tensor:
        """Initial field-node states, shape (rows, fields, embed_dim)."""
        states = []
        for j, embedding in enumerate(self.field_embeddings):
            codes = np.maximum(dataset.categorical[:, j], 0)
            states.append(embedding(codes))
        if self.num_numerical:
            values = np.nan_to_num(dataset.numerical, nan=0.0)
            for j in range(self.num_numerical):
                vec = self.numerical_embedding[j].reshape(1, self.embed_dim)
                states.append(ops.mul(Tensor(values[:, j : j + 1]), vec))
        return ops.stack(states, axis=1)

    def interaction_matrix(self) -> Tensor:
        """Softmax-normalized field-pair weights with the diagonal masked."""
        mask = Tensor(np.eye(self.num_fields) * -1e9)
        return ops.softmax(ops.add(self.edge_logits, mask), axis=1)

    def forward(self, dataset: TabularDataset) -> Tensor:
        h = self.field_states(dataset)  # (rows, F, D)
        rows = h.shape[0]
        adjacency = self.interaction_matrix()  # (F, F)
        for _ in range(self.num_steps):
            transformed = self.message(h.reshape(rows * self.num_fields, self.embed_dim))
            transformed = transformed.reshape(rows, self.num_fields, self.embed_dim)
            messages = ops.matmul(adjacency, transformed)  # broadcast over rows
            h_flat = h.reshape(rows * self.num_fields, self.embed_dim)
            m_flat = messages.reshape(rows * self.num_fields, self.embed_dim)
            h = self.gru(m_flat, h_flat).reshape(rows, self.num_fields, self.embed_dim)
        # Attentional scoring readout: sigmoid-gated per-field scores summed.
        h_flat = h.reshape(rows * self.num_fields, self.embed_dim)
        field_scores = self.score(h_flat).reshape(rows, self.num_fields, self.out_dim)
        gates = ops.sigmoid(self.gate(h_flat)).reshape(rows, self.num_fields, 1)
        logits = ops.sum(ops.mul(field_scores, gates), axis=1)
        if self.out_dim == 1:
            return logits.reshape(rows)
        return logits

    def predict_proba(self, dataset: TabularDataset) -> np.ndarray:
        return self.probabilities(self.forward(dataset).data)

    def probabilities(self, logits: np.ndarray) -> np.ndarray:
        """Click (``out_dim == 1``) or class probabilities of
        :meth:`forward`'s logits."""
        if self.out_dim == 1:
            return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=1, keepdims=True)
