"""Compiled inference plans: the serve hot path without autograd.

Training uses the tape-based :class:`~repro.tensor.Tensor` autograd; that
generality costs the serve path dearly — every op wraps arrays, registers
backward closures, and allocates. Each servable formulation's scorer
lowers its query path **once**, in ``RowScorer.compile_plan``, to a flat
:class:`~repro.serving.compiled.plan.InferencePlan`: an ordered list of
pure-numpy kernel steps over the request's feeds, compile-time constants
and earlier steps' results, which the scorer runs per request as
``plan.run(feeds)``.  A plan owns no buffers (every kernel returns a new
array), so one plan may serve concurrent callers.  The
``compile_*`` functions (:mod:`.lowering`) build that plan directly and
advance the pool's own state through the layers they lower, so pool-side
work (neighbor projections, per-value group means, typed edge
transforms, the hypergraph head) is folded into compile-time constants
and a request executes only the query-dependent kernels.

Each step calls one function of :mod:`.kernels`, which documents every
kernel (dense algebra, activations, gathers, the fused GAT attach, the
GRU step, the feature-graph and TabGNN-fusion kernels); ``plan.ops``
names a plan's kernels in execution order.

Each ``compile_*`` raises :class:`UnsupportedPlanError` for a
configuration its lowering does not cover; there is no interpreted
fallback.  Plug-in formulations that define no compiled path serve
through their own scorer.
"""

from .lowering import (
    compile_feature,
    compile_hetero,
    compile_hypergraph,
    compile_instance,
    compile_multiplex,
)
from .plan import InferencePlan, UnsupportedPlanError

__all__ = [
    "InferencePlan",
    "UnsupportedPlanError",
    "compile_instance",
    "compile_feature",
    "compile_multiplex",
    "compile_hetero",
    "compile_hypergraph",
]
