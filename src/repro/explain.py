"""Post-hoc GNN explanation (survey Table 7, "Explanation Preservation").

xFraud [110] preserves domain-expert explanations through GNNExplainer-style
subgraph explanations.  This module implements the GNNExplainer [155]
mechanism for the model zoo's :class:`~repro.gnn.networks.GCN`: learn a
soft mask over the edges near a target node such that the masked graph
still yields the model's prediction, while L1 + entropy penalties drive the
mask sparse and binary.  The surviving high-weight edges are the
explanation.  The explainer runs the model's own forward over a masked GCN
view (``model(x, views=...)``), so an all-ones mask reproduces ``model()``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro import nn
from repro.gnn.networks import GCN
from repro.graph.homogeneous import EdgeView, Graph
from repro.tensor import Tensor, no_grad, ops


@dataclasses.dataclass
class Explanation:
    """Result of explaining one node's prediction."""

    node: int
    edge_index: np.ndarray       # (2, E_local) edges in the explained subgraph
    edge_importance: np.ndarray  # (E_local,) mask values in [0, 1]
    predicted_class: int

    def top_edges(self, k: int = 5) -> List[Tuple[int, int, float]]:
        """The ``k`` most important (src, dst, weight) edges."""
        order = np.argsort(-self.edge_importance)[:k]
        return [
            (int(self.edge_index[0, i]), int(self.edge_index[1, i]),
             float(self.edge_importance[i]))
            for i in order
        ]


def khop_edge_mask(graph: Graph, node: int, hops: int) -> np.ndarray:
    """Boolean mask selecting edges whose endpoints lie within ``hops`` of ``node``."""
    src, dst = graph.edge_index
    reached = {int(node)}
    frontier = {int(node)}
    for _ in range(hops):
        hits = np.isin(dst, list(frontier)) | np.isin(src, list(frontier))
        new_nodes = set(src[hits].tolist()) | set(dst[hits].tolist())
        frontier = new_nodes - reached
        reached |= new_nodes
        if not frontier:
            break
    return np.isin(src, list(reached)) & np.isin(dst, list(reached))


def _gcn_view(graph: Graph, weight: Tensor) -> EdgeView:
    """``graph``'s GCN view with edge ``e`` weighted by ``weight[e]`` (times
    the graph's own edge weight): ``D^-1/2 (A + I) D^-1/2`` of the
    re-weighted adjacency, differentiable in ``weight``."""
    if graph.edge_weight is not None:
        weight = ops.mul(weight, Tensor(graph.edge_weight))
    src, dst = graph.edge_index
    n = graph.num_nodes
    degree = ops.add(ops.segment_sum(weight, dst, n), Tensor(1.0))
    inv_sqrt = ops.power(degree, -0.5)
    edge_coef = ops.mul(
        ops.mul(weight, ops.gather_rows(inv_sqrt, src)), ops.gather_rows(inv_sqrt, dst)
    )
    loops = np.arange(n)
    return EdgeView(
        np.concatenate([src, loops]),
        np.concatenate([dst, loops]),
        n,
        weight=ops.concat([edge_coef, ops.power(degree, -1.0)]),
    )


class GNNExplainer:
    """Learn an edge mask explaining a trained GCN's prediction at one node.

    The explainer runs the model over a *differentiably re-weighted*
    graph: edges inside the k-hop neighborhood carry ``sigmoid(mask)``
    weights, all other edges weight 1, and every layer aggregates with
    GCN's normalization of those weights.  Only the mask is optimized; the
    model stays frozen and receives no gradient.
    """

    def __init__(
        self,
        model,
        graph: Graph,
        epochs: int = 100,
        lr: float = 0.1,
        sparsity_weight: float = 0.05,
        entropy_weight: float = 0.1,
        seed: int = 0,
    ) -> None:
        if graph.x is None:
            raise ValueError("graph must carry node features")
        if not isinstance(model, GCN):
            raise TypeError(f"GNNExplainer explains a GCN, not {type(model).__name__}")
        self.model = model
        self.graph = graph
        self.epochs = epochs
        self.lr = lr
        self.sparsity_weight = sparsity_weight
        self.entropy_weight = entropy_weight
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _masked_forward(self, mask: Tensor, local_idx: np.ndarray) -> Tensor:
        """The model's forward with edge ``local_idx[i]`` weighted by
        ``mask[i]`` and every other edge by 1 (``mask`` receives grads)."""
        outside = np.ones(self.graph.num_edges)
        outside[local_idx] = 0.0
        weight = ops.add(
            ops.segment_sum(mask, local_idx, self.graph.num_edges), Tensor(outside)
        )
        view = _gcn_view(self.graph, weight)
        return self.model(Tensor(self.graph.x), views=[view] * len(self.model.convs))

    def explain(self, node: int, hops: int = 2) -> Explanation:
        """Optimize the edge mask for ``node`` and return the explanation."""
        local = khop_edge_mask(self.graph, node, hops)
        if not local.any():
            raise ValueError(f"node {node} has no edges within {hops} hops")
        local_idx = np.nonzero(local)[0]
        with no_grad():
            target_class = int(self.model().data[node].argmax())

        mask_logits = nn.Parameter(self._rng.normal(1.0, 0.1, size=int(local.sum())))
        optimizer = nn.Adam([mask_logits], lr=self.lr)
        one = Tensor(1.0)
        # Freeze the model, so backpropagation reaches only the mask.
        params = [param for param in self.model.parameters() if param.requires_grad]
        for param in params:
            param.requires_grad = False
        try:
            for _ in range(self.epochs):
                mask = ops.sigmoid(mask_logits)
                logits = self._masked_forward(mask, local_idx)
                ce = nn.cross_entropy(
                    logits[node].reshape(1, -1), np.array([target_class])
                )
                sparsity = ops.mean(mask)
                entropy = ops.neg(ops.mean(ops.add(
                    ops.mul(mask, ops.log(ops.add(mask, Tensor(1e-9)))),
                    ops.mul(ops.sub(one, mask),
                            ops.log(ops.add(ops.sub(one, mask), Tensor(1e-9)))),
                )))
                loss = ops.add(ce, ops.add(
                    ops.mul(Tensor(self.sparsity_weight), sparsity),
                    ops.mul(Tensor(self.entropy_weight), entropy),
                ))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        finally:
            for param in params:
                param.requires_grad = True

        importance = 1.0 / (1.0 + np.exp(-mask_logits.data))
        return Explanation(
            node=int(node),
            edge_index=self.graph.edge_index[:, local_idx],
            edge_importance=importance,
            predicted_class=target_class,
        )

    def fidelity(self, explanation: Explanation, threshold: float = 0.5) -> bool:
        """Does the model keep its prediction when only surviving edges remain?

        Drops every edge the explanation weighs below ``threshold`` (weight
        0, as if removed from the graph) and checks the argmax at the
        explained node is unchanged.
        """
        n = self.graph.num_nodes
        src, dst = self.graph.edge_index
        weak = explanation.edge_index[:, explanation.edge_importance < threshold]
        dropped = np.nonzero(np.isin(src * n + dst, weak[0] * n + weak[1]))[0]
        with no_grad():
            logits = self._masked_forward(Tensor(np.zeros(dropped.size)), dropped)
        return int(logits.data[explanation.node].argmax()) == explanation.predicted_class
