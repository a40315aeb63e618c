"""TabGNN [51]: multiplex graph neural network for tabular prediction.

Formulation (survey Table 2): heterogeneous-multiplex instance graph, one
layer per categorical column via the same-feature-value rule, raw features
as initial node vectors, end-to-end training.

Per relation, a GCN encodes the instances; relation embeddings are fused by
a learned attention over relations (``fusion="attention"``) or a plain mean
(``fusion="mean"`` — the ablation arm of benchmark Table 6), concatenated
with the raw-feature projection, and classified by an MLP head.

The raw features are held as a CSR matrix (the one-hot categorical block
makes them mostly zeros), so every first-layer projection — one per
relation plus the raw-feature projection — is a sparse product
(:func:`~repro.tensor.ops.spmm`), in training and in the pool forward the
compiled serving plan folds in (``compile_multiplex``) alike.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.gnn.conv import GCNConv
from repro.graph.multiplex import MultiplexGraph, group_mean_operators
from repro.tensor import Tensor, ops

FUSIONS = ("attention", "mean")


class TabGNN(nn.Module):
    """Multiplex-graph classifier with per-relation encoders and fusion.

    One GCN encoder per value layer of ``graph``.  GCN over a value clique
    with self loops is exactly the group mean, so each layer aggregates
    through the **group-mean operator** ``members @ (means @ z)`` of
    :func:`~repro.graph.multiplex.group_mean_operators`, never the clique.
    """

    def __init__(
        self,
        graph: MultiplexGraph,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
        fusion: str = "attention",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}")
        if graph.x is None:
            raise ValueError("multiplex graph must carry node features")
        if not graph.value_layers:
            raise ValueError("multiplex graph has no value layers")
        self.graph = graph
        self.fusion = fusion
        self.x = sp.csr_matrix(graph.x)
        in_dim = graph.x.shape[1]

        self._groups = [
            group_mean_operators(codes, graph.receive_only)
            for codes in graph.value_layers.values()
        ]
        self.relation_encoders = nn.ModuleList()
        for _ in self._groups:
            convs = nn.ModuleList()
            prev = in_dim
            for _ in range(num_layers):
                convs.append(GCNConv(prev, hidden_dim, rng))
                prev = hidden_dim
            self.relation_encoders.append(convs)
        self.attention_vector = nn.Parameter(rng.normal(0.0, 0.1, size=hidden_dim))
        self.self_proj = nn.Linear(in_dim, hidden_dim, rng)
        self.head = nn.MLP(2 * hidden_dim, (hidden_dim,), out_dim, rng, dropout=dropout)
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None

    def relation_embeddings(self) -> list[Tensor]:
        """One (n, hidden) embedding per relation layer."""
        outputs = []
        for convs, (members, means) in zip(self.relation_encoders, self._groups):
            h = self.x
            for i, conv in enumerate(convs):
                h = ops.spmm(members, ops.spmm(means, conv.linear(h)))
                if i < len(convs) - 1:
                    h = ops.relu(h)
            outputs.append(h)
        return outputs

    def relation_attention(self, embeddings: list[Tensor]) -> Tensor:
        """Per-instance softmax weights over relations, shape (n, R)."""
        scores = [
            ops.sum(ops.mul(ops.tanh(h), self.attention_vector), axis=1, keepdims=True)
            for h in embeddings
        ]
        return ops.softmax(ops.concat(scores, axis=1), axis=1)

    def embed(self) -> Tensor:
        """Fused relation embeddings (attention or mean) concatenated with
        the projected raw features."""
        embeddings = self.relation_embeddings()
        if self.fusion == "attention":
            alpha = self.relation_attention(embeddings)  # (n, R)
            fused = None
            for r, h in enumerate(embeddings):
                weighted = ops.mul(h, alpha[:, r : r + 1])
                fused = weighted if fused is None else ops.add(fused, weighted)
        else:
            fused = embeddings[0]
            for h in embeddings[1:]:
                fused = ops.add(fused, h)
            fused = ops.mul(Tensor(1.0 / len(embeddings)), fused)
        self_h = ops.relu(self.self_proj(self.x))
        combined = ops.concat([fused, self_h], axis=1)
        if self.dropout is not None:
            combined = self.dropout(combined)
        return combined

    def forward(self) -> Tensor:
        return self.head(self.embed())
