"""Compiled inference plans: the serve hot path without autograd.

Training uses the tape-based :class:`~repro.tensor.Tensor` autograd; that
generality costs the serve path dearly — every op wraps arrays, registers
backward closures, and allocates. Each servable formulation's scorer
lowers its query path **once**, in ``RowScorer.compile_plan``, to a flat
:class:`~repro.serving.compiled.plan.InferencePlan`: an ordered list of
pure-numpy kernel steps over preallocated, reused buffers, which the
scorer runs per request as ``plan.run(batch, feeds)``. The
``compile_*`` functions (:mod:`.lowering`) advance the pool's own state
through the layers they lower, so pool-side work (neighbor projections,
per-value group means, typed edge transforms, the hypergraph head) is
folded into compile-time constants and a request executes only the
query-dependent kernels.

Plan-step vocabulary (the backend contract)
-------------------------------------------
Every step is ``KERNELS[op](out, *inputs, **params)`` with ``out``
preallocated by the plan. A swap-in backend (e.g. a GPU runtime) replaces
:data:`KERNELS` with same-named implementations of:

================== =====================================================
``linear``          ``out = x @ w (+ b)``
``add``             elementwise sum
``add_scaled``      ``out = a + alpha * b``
``relu``/``elu``/``leaky_relu``/``tanh``/``sigmoid``  activations
``gather_rows``     row gather ``out = table[idx]``
``gather_sum``      sum of ``k`` gathered rows per query
``gather_sum_add``  ``gather_sum`` plus a per-query base term
``gather_weighted_sum``  weighted gather-sum (GCN attach, hypergraph readout)
``gather_where``    gathered row where masked, fallback row otherwise
``masked_gather_add``    accumulate gathered rows where masked
``gat_attach``      fused multi-head attention attach (one GAT layer)
``gru_step``        one GRU cell update (gated networks)
``feature_tokens``  per-field scalar → embedding tokens
``feature_layer``   one feature-graph propagation (residual + relu)
``attention_readout``    attention-pooled readout over field tokens
``tabgnn_fuse``     per-instance attention fusion over relation embeddings
================== =====================================================

Each ``compile_*`` raises :class:`UnsupportedPlanError` for a
configuration its lowering does not cover; there is no interpreted
fallback.  Plug-in formulations that define no compiled path serve
through their own scorer.
"""

from .kernels import KERNELS
from .lowering import (
    compile_feature,
    compile_hetero,
    compile_hypergraph,
    compile_instance,
    compile_multiplex,
)
from .plan import InferencePlan, PlanBuilder, PlanStep, UnsupportedPlanError

__all__ = [
    "KERNELS",
    "InferencePlan",
    "PlanBuilder",
    "PlanStep",
    "UnsupportedPlanError",
    "compile_instance",
    "compile_feature",
    "compile_multiplex",
    "compile_hetero",
    "compile_hypergraph",
]
