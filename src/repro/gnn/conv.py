"""Sparse homogeneous graph convolutions: GCN, GraphSAGE, GIN, GatedGraph.

Every layer has one entry point, ``propagate(h, view)``: the node-state
tensor plus an :class:`~repro.graph.homogeneous.EdgeView` of the flavor
its ``view_kind`` class attribute names, so a layer over a whole
:class:`~repro.graph.Graph` is always called as
``conv.propagate(h, graph.edge_view(conv.view_kind))`` and the layer, not
its caller, picks the normalization.  There is no second path over a
precomputed sparse operator and a conv layer is not callable.  The
model-zoo stacks and the graph autoencoder train and infer through
``propagate``, and so do sampled GraphSAGE (over each mini-batch's
sampled blocks, :mod:`repro.gnn.sampling`) and the GNNExplainer (over a
masked GCN view, :mod:`repro.explain`), which run the zoo network's own
forward over views they build; the compiled serving plan
(:mod:`repro.serving.compiled`) lowers each layer by its weights and
family, so serving needs no per-request view.  TabGNN holds
:class:`GCNConv` layers for their weights but aggregates through its
group-mean operator instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.graph.homogeneous import EdgeView
from repro.tensor import Tensor, ops


class GCNConv(nn.Module):
    """Kipf-Welling graph convolution: ``A_hat @ X @ W + b``.

    Consumes the symmetric-normalized view (``"gcn"``, the operator
    :meth:`repro.graph.Graph.gcn_adjacency`).
    """

    view_kind = "gcn"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        super().__init__()
        self.linear = nn.Linear(in_features, out_features, rng, bias=bias)

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        return view.aggregate(self.linear(x))


class SAGEConv(nn.Module):
    """GraphSAGE with mean aggregator: ``[X || mean_N(X)] @ W + b``.

    Consumes the row-normalized view (``"mean"`` — without self loops;
    the self representation enters through the concatenation).  A view
    may have fewer destinations than ``x`` has rows, as a sampled block
    (:func:`repro.gnn.sampling.sample_neighborhood`) does: its
    destinations are then the first ``view.num_nodes`` rows of ``x``,
    and those rows are each destination's own state.
    """

    view_kind = "mean"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.linear = nn.Linear(2 * in_features, out_features, rng)

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        own = x if view.num_nodes == x.shape[0] else x[: view.num_nodes]
        return self.linear(ops.concat([own, view.aggregate(x)], axis=1))


class GINConv(nn.Module):
    """Graph Isomorphism Network layer: ``MLP((1 + eps) * X + sum_N(X))``.

    Consumes the *unnormalized* view (``"sum"``) — GIN's injectivity
    argument requires sums, not means.  ``eps`` is learnable as in the
    original paper.  The MLP normalizes its hidden layer, as Xu et al.'s
    reference does: a sum over a dense neighborhood scales the input by
    the degree, and without it every ReLU dies within a few steps.  It is
    a LayerNorm (no running statistics), so training and serving compute
    the same function.
    """

    view_kind = "sum"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 hidden_dim: Optional[int] = None) -> None:
        super().__init__()
        hidden = hidden_dim or out_features
        self.mlp = nn.MLP(in_features, (hidden,), out_features, rng, norm="layer")
        self.eps = nn.Parameter(np.zeros(1))

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        neighbor_sum = view.aggregate(x)
        scaled_self = ops.mul(x, ops.add(Tensor(1.0), self.eps))
        return self.mlp(ops.add(scaled_self, neighbor_sum))


class GatedGraphConv(nn.Module):
    """Gated graph sequence layer (GGNN [82], used by Fi-GNN / Causal-GNN).

    ``propagate`` is **one** message step — the node state updated by a GRU
    cell, ``h <- GRU(agg(h W), h)`` over the mean-with-self-loops view.
    The step count belongs to the network that runs the layer
    (:class:`~repro.gnn.networks.GatedGNN` puts one propagate step per
    round in its plan, so serving can cache the state between rounds).
    Input width must equal the state width.
    """

    view_kind = "mean_loops"

    def __init__(self, state_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.message = nn.Linear(state_dim, state_dim, rng)
        self.gru = nn.GRUCell(state_dim, state_dim, rng)

    def propagate(self, x: Tensor, view: EdgeView) -> Tensor:
        return self.gru(view.aggregate(self.message(x)), x)
