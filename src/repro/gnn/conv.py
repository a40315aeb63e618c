"""Sparse homogeneous graph convolutions: GCN, GraphSAGE, GIN, GatedGraph.

Every layer speaks the edge-wise message-passing substrate: ``propagate``
takes the node-state tensor plus an :class:`~repro.graph.homogeneous.EdgeView`
of the appropriate flavor (declared by the layer's ``view_kind`` class
attribute and memoized on the :class:`~repro.graph.Graph`).  The model-zoo
stacks train through ``propagate``, and the compiled serving plan
(:mod:`repro.serving.compiled`) lowers each layer by its weights and
family, so serving needs no per-request view.

The ``forward(x, adjacency)`` entry points (precomputed sparse operator)
are kept for their direct users (the graph autoencoder and sampled
GraphSAGE training); on a full graph both paths compute identical
numbers.  TabGNN holds :class:`GCNConv` layers for their weights but
aggregates through its group-mean operator instead of either entry point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.graph.homogeneous import EdgeView
from repro.tensor import Tensor, ops


class GCNConv(nn.Module):
    """Kipf-Welling graph convolution: ``A_hat @ X @ W + b``.

    Consumes the symmetric-normalized view/operator
    (:meth:`repro.graph.Graph.edge_view` with ``"gcn"`` /
    :meth:`repro.graph.Graph.gcn_adjacency`).
    """

    view_kind = "gcn"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        super().__init__()
        self.linear = nn.Linear(in_features, out_features, rng, bias=bias)

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        return view.aggregate(self.linear(x))

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        return ops.spmm(adjacency, self.linear(x))


class SAGEConv(nn.Module):
    """GraphSAGE with mean aggregator: ``[X || mean_N(X)] @ W + b``.

    Consumes the row-normalized view/operator (``"mean"`` — without self
    loops; the self representation enters through the concatenation).
    """

    view_kind = "mean"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.linear = nn.Linear(2 * in_features, out_features, rng)

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        return self.linear(ops.concat([x, view.aggregate(x)], axis=1))

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        neighbor = ops.spmm(adjacency, x)
        return self.linear(ops.concat([x, neighbor], axis=1))


class GINConv(nn.Module):
    """Graph Isomorphism Network layer: ``MLP((1 + eps) * X + sum_N(X))``.

    Consumes the *unnormalized* view/operator (``"sum"``) — GIN's
    injectivity argument requires sums, not means.  ``eps`` is learnable
    as in the original paper.
    """

    view_kind = "sum"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 hidden_dim: Optional[int] = None) -> None:
        super().__init__()
        hidden = hidden_dim or out_features
        self.mlp = nn.MLP(in_features, (hidden,), out_features, rng)
        self.eps = nn.Parameter(np.zeros(1))

    def _combine(self, x: Tensor, neighbor_sum: Tensor) -> Tensor:
        scaled_self = ops.mul(x, ops.add(Tensor(1.0), self.eps))
        return self.mlp(ops.add(scaled_self, neighbor_sum))

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        return self._combine(x, view.aggregate(x))

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        return self._combine(x, ops.spmm(adjacency, x))


class GatedGraphConv(nn.Module):
    """Gated graph sequence layer (GGNN [82], used by Fi-GNN / Causal-GNN).

    ``propagate`` is **one** message step — the node state updated by a GRU
    cell, ``h <- GRU(agg(h W), h)`` over the mean-with-self-loops view —
    so network plans can interleave per-step state caching; ``forward``
    runs all ``num_steps`` rounds on a precomputed operator.  Input width
    must equal the state width.
    """

    view_kind = "mean_loops"

    def __init__(self, state_dim: int, rng: np.random.Generator, num_steps: int = 2) -> None:
        super().__init__()
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        self.num_steps = num_steps
        self.message = nn.Linear(state_dim, state_dim, rng)
        self.gru = nn.GRUCell(state_dim, state_dim, rng)

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        return self.gru(view.aggregate(self.message(x)), x)

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        h = x
        for _ in range(self.num_steps):
            messages = ops.spmm(adjacency, self.message(h))
            h = self.gru(messages, h)
        return h
