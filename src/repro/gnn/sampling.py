"""Neighbor-sampled mini-batch training (survey Sec. 6, "Scaling GNNs").

Full-batch message passing touches every node each step; GraphSAGE-style
neighbor sampling caps the per-step cost at ``batch_size * fanout**depth``
nodes, which is the survey's first scalability lever.  This module provides:

* :func:`sample_neighborhood` — uniform fanout-bounded neighbor sampling
  around a seed batch, returning one mean-weighted
  :class:`~repro.graph.EdgeView` block per layer;
* :func:`train_sampled` — the mini-batch training loop of a model-zoo
  :class:`~repro.gnn.networks.GraphSAGE`, which runs its own forward over
  the blocks (``model(x[input_nodes], views=blocks)``); full-graph
  inference afterwards is ``model()``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.gnn.networks import GraphSAGE
from repro.graph.homogeneous import EdgeView, Graph
from repro.tensor import Tensor


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
) -> Tuple[List[EdgeView], np.ndarray]:
    """Sample a fanout-bounded computation block around ``seeds``.

    Returns one block per layer, deepest first (the order a network's
    propagate steps consume them), and the input-node ids: the seeds, then
    each hop's new nodes in id order.  Each hop draws up to its fanout of
    in-neighbors for every node reached so far (the seeds in the given
    order, later nodes in id order).  Its block is a mean-weighted
    :class:`EdgeView` whose destinations, the nodes reached before the
    hop, are the first ``num_nodes`` of its source rows (the prefix rule
    of :class:`~repro.gnn.conv.SAGEConv`).
    """
    nodes = np.asarray(seeds, dtype=np.int64)
    order = nodes
    blocks: List[EdgeView] = []
    for fanout in fanouts:
        drawn = []
        for node in order:
            neighbors = adjacency.neighbors(int(node))
            if neighbors.size > fanout:
                neighbors = rng.choice(neighbors, size=fanout, replace=False)
            drawn.append(neighbors)
        src = np.concatenate(drawn)
        dst = np.repeat(order, [len(d) for d in drawn])
        num_dst = len(nodes)
        nodes = np.concatenate([nodes, np.setdiff1d(src, nodes)])
        by_id = np.argsort(nodes)
        order = nodes[by_id]
        src_rows = by_id[np.searchsorted(order, src)]
        dst_rows = by_id[np.searchsorted(order, dst)]
        degree = np.bincount(dst_rows, minlength=num_dst)
        blocks.append(EdgeView(src_rows, dst_rows, num_dst, weight=1.0 / degree[dst_rows]))
    return blocks[::-1], nodes


def train_sampled(
    model: GraphSAGE,
    labels: np.ndarray,
    train_mask: np.ndarray,
    fanouts: Sequence[int],
    batch_size: int = 64,
    epochs: int = 10,
    lr: float = 0.01,
    rng: Optional[np.random.Generator] = None,
) -> List[float]:
    """Mini-batch neighbor-sampled training of ``model`` over its own graph;
    returns per-epoch mean losses."""
    if not isinstance(model, GraphSAGE):
        raise TypeError(f"train_sampled trains a GraphSAGE, not {type(model).__name__}")
    if len(fanouts) != len(model.convs):
        raise ValueError("need one fanout per model layer")
    rng = rng or np.random.default_rng(0)
    adjacency = _AdjacencyList(model.graph)
    train_nodes = np.nonzero(train_mask)[0]
    optimizer = nn.Adam(model.parameters(), lr=lr)
    history: List[float] = []
    model.train()
    for _ in range(epochs):
        perm = rng.permutation(train_nodes)
        epoch_losses = []
        for start in range(0, len(perm), batch_size):
            seeds = perm[start:start + batch_size]
            blocks, input_nodes = sample_neighborhood(adjacency, seeds, fanouts, rng)
            logits = model(Tensor(model.graph.x[input_nodes]), views=blocks)
            loss = nn.cross_entropy(logits, labels[seeds])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    model.eval()
    return history
