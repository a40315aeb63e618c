"""Neighbor-sampled mini-batch training (survey Sec. 6, "Scaling GNNs").

Full-batch message passing touches every node each step; GraphSAGE-style
neighbor sampling caps the per-step cost at ``batch_size * fanout**depth``
nodes, which is the survey's first scalability lever.  This module provides:

* :func:`sample_neighborhood` — uniform fanout-bounded neighbor sampling
  around a seed batch, returning the sampled block operators;
* :class:`SampledSAGE` — a SAGE stack whose forward consumes sampled blocks
  (training) or the full :class:`~repro.graph.Graph` (inference, each
  layer over ``graph.edge_view("mean")`` like
  :class:`~repro.gnn.networks.GraphSAGE`);
* :func:`train_sampled` — the mini-batch training loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.gnn.conv import SAGEConv
from repro.graph.homogeneous import Graph
from repro.tensor import Tensor, ops


class _AdjacencyList:
    """CSR-style neighbor lookup built once per graph."""

    def __init__(self, graph: Graph) -> None:
        order = np.argsort(graph.edge_index[1], kind="mergesort")
        self._sources = graph.edge_index[0][order]
        destinations = graph.edge_index[1][order]
        self._offsets = np.searchsorted(
            destinations, np.arange(graph.num_nodes + 1)
        )

    def neighbors(self, node: int) -> np.ndarray:
        return self._sources[self._offsets[node]:self._offsets[node + 1]]


def sample_neighborhood(
    adjacency: _AdjacencyList,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> Tuple[List[sp.csr_matrix], np.ndarray]:
    """Sample a fanout-bounded computation block around ``seeds``.

    Returns one mean-aggregation operator per layer (deepest first) and the
    final input-node id array.  Layer ``l``'s operator maps layer-``l+1``
    node states (rows = nodes needed at depth l) from the states of their
    sampled neighbors (columns = nodes needed at depth l+1).
    """
    layers_nodes = [np.asarray(seeds, dtype=np.int64)]
    sampled_edges: List[Tuple[np.ndarray, np.ndarray]] = []
    for fanout in fanouts:
        current = layers_nodes[-1]
        sources: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for node in current:
            neighbors = adjacency.neighbors(int(node))
            if neighbors.size == 0:
                continue
            if neighbors.size > fanout:
                neighbors = rng.choice(neighbors, size=fanout, replace=False)
            sources.append(neighbors)
            targets.append(np.full(neighbors.size, node, dtype=np.int64))
        if sources:
            src = np.concatenate(sources)
            dst = np.concatenate(targets)
        else:
            src = np.zeros(0, dtype=np.int64)
            dst = np.zeros(0, dtype=np.int64)
        sampled_edges.append((src, dst))
        next_nodes = np.unique(np.concatenate([current, src]))
        layers_nodes.append(next_nodes)

    operators: List[sp.csr_matrix] = []
    # Build operators deepest-first so forward() can fold inward.
    for depth in reversed(range(len(fanouts))):
        rows_nodes = layers_nodes[depth]
        cols_nodes = layers_nodes[depth + 1]
        col_index = {int(n): i for i, n in enumerate(cols_nodes)}
        row_index = {int(n): i for i, n in enumerate(rows_nodes)}
        src, dst = sampled_edges[depth]
        if src.size:
            r = np.array([row_index[int(d)] for d in dst])
            c = np.array([col_index[int(s)] for s in src])
            data = np.ones(len(r))
            matrix = sp.csr_matrix(
                (data, (r, c)), shape=(len(rows_nodes), len(cols_nodes))
            )
            degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
            inv = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
            matrix = (sp.diags(inv) @ matrix).tocsr()
        else:
            matrix = sp.csr_matrix((len(rows_nodes), len(cols_nodes)))
        # Self-inclusion: each row node also appears among columns.
        self_cols = np.array([col_index[int(n)] for n in rows_nodes])
        selector = sp.csr_matrix(
            (np.ones(len(rows_nodes)), (np.arange(len(rows_nodes)), self_cols)),
            shape=(len(rows_nodes), len(cols_nodes)),
        )
        operators.append((matrix, selector))
    return operators, layers_nodes[-1]


class SampledSAGE(nn.Module):
    """GraphSAGE whose training forward runs on sampled blocks.

    ``forward_blocks`` consumes the output of :func:`sample_neighborhood`;
    ``forward_full`` runs classic full-batch inference on the whole graph,
    each layer's ``propagate`` over the graph's mean-aggregation view.
    """

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        widths = [in_features] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.convs = nn.ModuleList(
            [SAGEConv(widths[i], widths[i + 1], rng) for i in range(num_layers)]
        )
        self.num_layers = num_layers

    def forward_blocks(self, x_input: Tensor, operators) -> Tensor:
        h = x_input
        for conv, (matrix, selector) in zip(self.convs, operators):
            neighbor = ops.spmm(matrix, h)
            self_h = ops.spmm(selector, h)
            h = conv.linear(ops.concat([self_h, neighbor], axis=1))
            if conv is not self.convs[len(self.convs) - 1]:
                h = ops.relu(h)
        return h

    def forward_full(self, x: Tensor, graph: Graph) -> Tensor:
        h = x
        for i, conv in enumerate(self.convs):
            h = conv.propagate(h, graph.edge_view(conv.view_kind))
            if i < self.num_layers - 1:
                h = ops.relu(h)
        return h


def train_sampled(
    graph: Graph,
    labels: np.ndarray,
    train_mask: np.ndarray,
    model: SampledSAGE,
    fanouts: Sequence[int],
    batch_size: int = 64,
    epochs: int = 10,
    lr: float = 0.01,
    rng: Optional[np.random.Generator] = None,
) -> List[float]:
    """Mini-batch neighbor-sampled training; returns per-epoch mean losses."""
    if graph.x is None:
        raise ValueError("graph must carry node features")
    if len(fanouts) != model.num_layers:
        raise ValueError("need one fanout per model layer")
    rng = rng or np.random.default_rng(0)
    adjacency = _AdjacencyList(graph)
    train_nodes = np.nonzero(train_mask)[0]
    optimizer = nn.Adam(model.parameters(), lr=lr)
    history: List[float] = []
    for _ in range(epochs):
        perm = rng.permutation(train_nodes)
        epoch_losses = []
        for start in range(0, len(perm), batch_size):
            seeds = perm[start:start + batch_size]
            operators, input_nodes = sample_neighborhood(
                adjacency, seeds, fanouts, rng
            )
            x_input = Tensor(graph.x[input_nodes])
            logits = model.forward_blocks(x_input, operators)
            loss = nn.cross_entropy(logits, labels[seeds])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    model.eval()
    return history
