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
(:func:`~repro.tensor.ops.spmm`), in training and in the serving pool cache
(:meth:`TabGNN.pool_message_states`) alike.
"""

from __future__ import annotations

from typing import Optional, Union

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

        self._groups = [group_mean_operators(c) for c in graph.value_layers.values()]
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

    def _fuse(self, embeddings: list[Tensor], x: Union[Tensor, sp.spmatrix]) -> Tensor:
        """Fusion + raw-feature projection shared by ``embed`` and the
        serving-time query path: attention (or mean) over relation
        embeddings, concatenated with the projected raw features."""
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
        self_h = ops.relu(self.self_proj(x))
        return ops.concat([fused, self_h], axis=1)

    def embed(self) -> Tensor:
        combined = self._fuse(self.relation_embeddings(), self.x)
        if self.dropout is not None:
            combined = self.dropout(combined)
        return combined

    def forward(self) -> Tensor:
        return self.head(self.embed())

    # -- incremental query scoring (serving) ---------------------------
    def pool_message_states(self) -> list[list[np.ndarray]]:
        """Per relation, per conv layer: the pool's *transformed* states.

        ``states[r][i]`` is ``linear_i(h_i)`` over the frozen pool — the
        per-node messages entering relation ``r``'s i-th GCN aggregation.
        A query row attached to a same-value group aggregates exactly these
        rows, so the whole pool side of serving is computed once here.
        """
        states: list[list[np.ndarray]] = []
        for convs, (members, means) in zip(self.relation_encoders, self._groups):
            h = self.x
            entries: list[np.ndarray] = []
            for i, conv in enumerate(convs):
                z = conv.linear(h)
                entries.append(z.data)
                h = ops.spmm(members, ops.spmm(means, z))
                if i < len(convs) - 1:
                    h = ops.relu(h)
            states.append(entries)
        return states

    def propagate_queries(
        self,
        features: np.ndarray,
        member_ops: list,
        pool_messages: list[list[np.ndarray]],
    ) -> np.ndarray:
        """Logits ``(B, out_dim)`` for query rows attached by value lookup.

        ``member_ops[r]`` is a ``(B, n_pool)`` sparse row-mean operator:
        row ``q`` holds ``1/|g|`` over the pool members sharing query
        ``q``'s value in relation ``r`` (an all-zero row when the value is
        unseen or missing).  Queries with a group aggregate the cached pool
        messages of that group; queries without one fall back to their own
        transformed state — exactly the one-row group a missing value forms
        in training.  A training row's query therefore reproduces its
        transductive logits to round-off: training aggregates the same
        group means.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.x.shape[1]:
            raise ValueError(
                f"features must be (B, {self.x.shape[1]}), got {features.shape}"
            )
        if len(member_ops) != len(self.relation_encoders):
            raise ValueError(
                f"expected {len(self.relation_encoders)} relation operators, "
                f"got {len(member_ops)}"
            )
        embeddings: list[Tensor] = []
        for convs, op, messages in zip(
            self.relation_encoders, member_ops, pool_messages
        ):
            has_group = np.asarray(op.sum(axis=1)).reshape(-1) > 0.5
            h = features
            for i, conv in enumerate(convs):
                own = conv.linear(Tensor(h)).data
                combined = np.where(has_group[:, None], op @ messages[i], own)
                h = np.maximum(combined, 0.0) if i < len(convs) - 1 else combined
            embeddings.append(Tensor(h))
        return self.head(self._fuse(embeddings, Tensor(features))).data
