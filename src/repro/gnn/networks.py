"""Ready-made node-classification GNN stacks (the Table 5 "model zoo").

Each network takes a :class:`repro.graph.Graph` and produces node
logits/embeddings.  The uniform interface lets benchmarks sweep
architectures (Table 5) with one loop: ``build_network(name, graph, ...)``.

``forward(x=None)`` accepts an optional replacement feature tensor so the
training plans in :mod:`repro.training.tasks` can push *corrupted or
augmented views* of the features through the same network (denoising
autoencoder and contrastive auxiliary tasks).  ``forward(x, views=...)``
also replaces the graph: sampled mini-batch training
(:mod:`repro.gnn.sampling`) and the GNNExplainer (:mod:`repro.explain`)
run the network over edge views they build.

Every stack is one :class:`_NodeNetwork` over the edge-wise
message-passing substrate: a network is a *plan* — a flat sequence of
row-local steps (projections, activations, dropout) and propagate steps
(a conv layer plus the :class:`~repro.graph.EdgeView` flavor it consumes).
``forward``/``embed``/``serve_plan`` are implemented here once,
generically, so the serving plan compiler is network-agnostic — attention
and gated stacks included.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.gnn.attention import GATConv
from repro.gnn.conv import GCNConv, GINConv, GatedGraphConv, SAGEConv
from repro.graph.homogeneous import EdgeView, Graph
from repro.tensor import Tensor, ops


class _Local(object):
    """Plan step applying row-wise (no graph): activation, dropout, linear.

    ``train_only`` marks steps (dropout) that exist only for regularized
    training forwards — ``embed`` and ``serve_plan`` skip them.
    """

    __slots__ = ("fn", "train_only")

    def __init__(self, fn: Callable[[Tensor], Tensor], train_only: bool = False) -> None:
        self.fn = fn
        self.train_only = train_only


class _Propagate(object):
    """Plan step running one conv layer over an edge view of its flavor."""

    __slots__ = ("module",)

    def __init__(self, module: nn.Module) -> None:
        self.module = module

    @property
    def view_kind(self) -> str:
        return self.module.view_kind


_Step = Union[_Local, _Propagate]


class _NodeNetwork(nn.Module):
    """Single substrate for every Table 5 stack.

    Subclasses build their layer modules, then register a plan with
    :meth:`_set_plan`; everything else — full-graph forward, embeddings,
    and the step sequence the serving plan compiler lowers — is generic.

    Serving over a frozen pool
    --------------------------
    The serving engine attaches B query rows to the *frozen* construction
    graph ("the pool") with directed pool→query edges only.  Under that
    topology no message ever flows query→pool, so the pool-side node state
    entering every propagate step is exactly what a pool-only forward
    produces — request-invariant.  The compiled plan
    (:mod:`repro.serving.compiled`) runs that forward once along
    :meth:`serve_plan`, folds each state into constants and computes only
    the B query rows per request, O(B·k·d) independent of pool size; the
    autograd oracle runs :meth:`forward` on the induced (pool + queries)
    graph.
    """

    activation = staticmethod(ops.relu)

    def __init__(self, graph: Graph, rng: np.random.Generator, dropout: float) -> None:
        super().__init__()
        if graph.x is None:
            raise ValueError("graph must carry node features")
        self.graph = graph
        self.x = Tensor(graph.x)
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None

    # -- plan assembly --------------------------------------------------
    def _set_plan(self, steps: Sequence[_Step], embed_end: int) -> None:
        """Register the step sequence; ``steps[:embed_end]`` computes ``embed``."""
        self._steps = list(steps)
        self._embed_end = int(embed_end)

    def _conv_plan(self) -> None:
        """Standard conv-stack plan: conv / activation / dropout interleave,
        embeddings being everything up to the final conv."""
        steps: list[_Step] = []
        for i, conv in enumerate(self.convs):
            steps.append(_Propagate(conv))
            if i < len(self.convs) - 1:
                steps.append(_Local(self.activation))
                if self.dropout is not None:
                    steps.append(_Local(self.dropout, train_only=True))
        self._set_plan(steps, len(steps) - 1)

    # -- generic forward/embed ------------------------------------------
    def _input(self, x: Optional[Tensor]) -> Tensor:
        return self.x if x is None else x

    def _run(
        self,
        h: Tensor,
        steps: Sequence[_Step],
        training: bool,
        views: Optional[Sequence[EdgeView]] = None,
    ) -> Tensor:
        views = None if views is None else iter(views)
        for step in steps:
            if isinstance(step, _Propagate):
                view = self.graph.edge_view(step.view_kind) if views is None else next(views)
                h = step.module.propagate(h, view)
            elif training or not step.train_only:
                h = step.fn(h)
        return h

    def forward(
        self, x: Optional[Tensor] = None, views: Optional[Sequence[EdgeView]] = None
    ) -> Tensor:
        """Logits of every row of ``x`` (the graph's features by default).

        ``views`` runs the network over other edges than its graph's: one
        :class:`~repro.graph.EdgeView` per propagate step, in plan order,
        each used in place of ``graph.edge_view(step.view_kind)`` and so
        normalized as that step's layer expects.  Sampled training passes
        one block per layer (``x`` then holds the block's input rows and
        the output the seeds'); the explainer passes one masked GCN view
        per layer.
        """
        if views is not None:
            expected = sum(isinstance(step, _Propagate) for step in self._steps)
            if len(views) != expected:
                raise ValueError(
                    f"{type(self).__name__} runs {expected} propagate steps, "
                    f"got {len(views)} views"
                )
        return self._run(self._input(x), self._steps, self.training, views)

    def embed(self, x: Optional[Tensor] = None) -> Tensor:
        return self._run(self._input(x), self._steps[: self._embed_end], False)

    @property
    def in_features(self) -> int:
        return int(self.x.shape[1])

    @property
    def embed_dim(self) -> int:
        return int(self._embed_dim)

    # -- serving ---------------------------------------------------------
    def serve_plan(self) -> list:
        """The eval-time step sequence, training-only steps stripped.

        The serve-path plan compiler
        (:mod:`repro.serving.compiled`) walks this sequence to lower the
        query path into a flat kernel plan; the entries are the same
        :class:`_Local` / :class:`_Propagate` records :meth:`forward`
        runs, in the same order.
        """
        return [
            step
            for step in self._steps
            if isinstance(step, _Propagate) or not step.train_only
        ]


class _ConvStack(_NodeNetwork):
    """A stack of one conv family: ``len(hidden_dims) + 1`` layers of
    :attr:`conv_cls`, embeddings being everything up to the final conv."""

    conv_cls: type

    def __init__(
        self,
        graph: Graph,
        hidden_dims: Sequence[int],
        out_dim: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__(graph, rng, dropout)
        widths = [graph.num_features, *hidden_dims, out_dim]
        self.convs = nn.ModuleList(
            [self.conv_cls(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]
        )
        self._embed_dim = widths[-2]
        self._conv_plan()


class GCN(_ConvStack):
    """Multi-layer GCN [77] on the symmetric-normalized adjacency."""

    conv_cls = GCNConv


class GraphSAGE(_ConvStack):
    """Multi-layer GraphSAGE [52] with mean aggregation."""

    conv_cls = SAGEConv


class GIN(_ConvStack):
    """Multi-layer GIN [151] with sum aggregation."""

    conv_cls = GINConv


class GAT(_NodeNetwork):
    """Multi-layer GAT [126]; hidden layers concatenate heads, output averages."""

    activation = staticmethod(ops.elu)

    def __init__(
        self,
        graph: Graph,
        hidden_dims: Sequence[int],
        out_dim: int,
        rng: np.random.Generator,
        num_heads: int = 4,
        dropout: float = 0.0,
    ) -> None:
        super().__init__(graph, rng, dropout)
        convs = []
        prev = graph.num_features
        for width in hidden_dims:
            conv = GATConv(prev, width, rng, num_heads=num_heads, concat_heads=True)
            convs.append(conv)
            prev = conv.output_dim
        convs.append(GATConv(prev, out_dim, rng, num_heads=num_heads, concat_heads=False))
        self.convs = nn.ModuleList(convs)
        self._embed_dim = prev
        self._conv_plan()


class GatedGNN(_NodeNetwork):
    """Projection + GatedGraphConv (GGNN [82]) + linear head.

    The network owns the step count: its plan expands the gated conv into
    ``num_steps`` (at least 1) propagate steps over the same module, so the
    compiled serving plan folds in the pool's GRU state at every step
    boundary.
    """

    def __init__(
        self,
        graph: Graph,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        num_steps: int = 3,
        dropout: float = 0.0,
    ) -> None:
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        super().__init__(graph, rng, dropout)
        self.proj = nn.Linear(graph.num_features, hidden_dim, rng)
        self.gated = GatedGraphConv(hidden_dim, rng)
        self.head = nn.Linear(hidden_dim, out_dim, rng)
        self._embed_dim = hidden_dim
        steps: list[_Step] = [_Local(self.proj), _Local(ops.relu)]
        steps.extend(_Propagate(self.gated) for _ in range(num_steps))
        embed_end = len(steps)
        if self.dropout is not None:
            steps.append(_Local(self.dropout, train_only=True))
        steps.append(_Local(self.head))
        self._set_plan(steps, embed_end)


NETWORKS = {
    "gcn": GCN,
    "sage": GraphSAGE,
    "gat": GAT,
    "gin": GIN,
    "gated": GatedGNN,
}


def build_network(
    name: str,
    graph: Graph,
    hidden_dim: int,
    out_dim: int,
    rng: np.random.Generator,
    num_layers: int = 2,
    dropout: float = 0.0,
) -> nn.Module:
    """Instantiate a Table 5 architecture by name with uniform arguments."""
    if name not in NETWORKS:
        raise ValueError(f"unknown network {name!r}; choose from {sorted(NETWORKS)}")
    if name == "gated":
        return GatedGNN(graph, hidden_dim, out_dim, rng, dropout=dropout)
    hidden_dims = [hidden_dim] * max(0, num_layers - 1)
    return NETWORKS[name](graph, hidden_dims, out_dim, rng, dropout=dropout)
