"""Graph attention convolution (GAT [126]) with optional edge features.

The edge-feature pathway implements the survey's "Distance Preservation"
design (Table 6, LUNAR [44]): per-edge scalars (e.g. neighbor distances)
enter the attention logits through a learned projection, so the learned
representation preserves distance information.

Like the operator convs, GAT has one entry point, ``propagate(h, view)``
over an :class:`~repro.graph.homogeneous.EdgeView` of flavor
``"attention"``: a graph's raw edges followed by one self loop per node,
baked in when :meth:`~repro.graph.Graph.edge_view` builds the view, so
frozen-graph training loops never rebuild the self-loop block.  There is
no path over a raw edge index.  Edge features follow the view's edge
order, self loops last: a caller with one feature row per graph edge
appends the loop rows itself (zeros, say), and ``propagate`` rejects a
row count other than the view's edge count.

Aggregation is one per-head sparse product
(:func:`~repro.tensor.ops.edge_weighted_sum`): the attention weights fill a
CSR matrix whose sorted structure is memoized on the view
(:meth:`~repro.graph.homogeneous.EdgeView.head_edges`), so no
``(E, heads, out)`` message tensor is built in the forward or the backward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.graph.homogeneous import EdgeView
from repro.tensor import Tensor, ops
from repro.tensor import init as tinit


class GATConv(nn.Module):
    """Multi-head graph attention.

    Parameters
    ----------
    in_features, out_features:
        Per-head output width is ``out_features``; heads are averaged when
        ``concat_heads=False`` (final layers) else concatenated.
    edge_dim:
        If given, per-edge feature vectors of this width modulate attention.
    """

    view_kind = "attention"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        num_heads: int = 4,
        concat_heads: bool = False,
        edge_dim: Optional[int] = None,
        negative_slope: float = 0.2,
    ) -> None:
        super().__init__()
        self.num_heads = num_heads
        self.out_features = out_features
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        self.weight = nn.Parameter(
            tinit.glorot_uniform((in_features, num_heads * out_features), rng)
        )
        self.att_src = nn.Parameter(tinit.glorot_uniform((num_heads, out_features), rng))
        self.att_dst = nn.Parameter(tinit.glorot_uniform((num_heads, out_features), rng))
        self.bias = nn.Parameter(
            np.zeros(num_heads * out_features if concat_heads else out_features)
        )
        if edge_dim is not None:
            self.edge_proj = nn.Linear(edge_dim, num_heads, rng)
        else:
            self.edge_proj = None

    @property
    def output_dim(self) -> int:
        return self.out_features * (self.num_heads if self.concat_heads else 1)

    def propagate(
        self,
        x: Tensor,
        view: EdgeView,
        edge_features: Optional[Tensor] = None,
    ) -> Tensor:
        """Attention message passing over ``view`` (loops pre-baked).

        Scores are normalized per destination with ``segment_softmax``, so
        on a bipartite attach view each query's attention is a softmax over
        exactly its k retrieved neighbors plus its self loop — the same
        computation the full graph would produce for that node.

        ``edge_features`` holds one row per view edge, in view order (on a
        graph's ``"attention"`` view: one row per graph edge, then one per
        self loop).  It is required when the layer was built with
        ``edge_dim`` and rejected otherwise.
        """
        if self.edge_proj is None:
            if edge_features is not None:
                raise ValueError("edge features given to a layer built without edge_dim")
        elif edge_features is None:
            raise ValueError("layer was built with edge_dim but no edge features given")
        elif edge_features.shape[0] != view.num_edges:
            raise ValueError(
                f"got {edge_features.shape[0]} edge-feature rows for a view of "
                f"{view.num_edges} edges (self loops included)"
            )
        num_nodes = x.shape[0]
        src, dst = view.src, view.dst

        h = ops.matmul(x, self.weight).reshape(num_nodes, self.num_heads, self.out_features)

        # Attention logits per edge and head, from per-node source and
        # destination scores gathered to the edges.
        node_src = ops.sum(ops.mul(h, self.att_src), axis=-1)  # (n, heads)
        node_dst = ops.sum(ops.mul(h, self.att_dst), axis=-1)
        scores = ops.add(ops.gather_rows(node_src, src), ops.gather_rows(node_dst, dst))
        if self.edge_proj is not None:
            scores = ops.add(scores, self.edge_proj(edge_features))
        scores = ops.leaky_relu(scores, self.negative_slope)

        alpha = ops.segment_softmax(scores, dst, view.num_nodes)  # (E, heads)
        aggregated = ops.edge_weighted_sum(  # (n, heads, out)
            h, alpha, view.head_edges(num_nodes, self.num_heads)
        )

        if self.concat_heads:
            out = aggregated.reshape(view.num_nodes, self.num_heads * self.out_features)
        else:
            out = ops.mean(aggregated, axis=1)
        return ops.add(out, self.bias)
