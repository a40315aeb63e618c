"""Compiled inference plans: the serve hot path without autograd.

Training uses the tape-based :class:`~repro.tensor.Tensor` autograd; that
generality costs the serve path dearly — every op wraps arrays, registers
backward closures, and allocates. This package traces a fitted scorer's
query-scoring path **once** and lowers it to a flat
:class:`~repro.serving.compiled.plan.InferencePlan`: an ordered list of
pure-numpy kernel steps over preallocated, reused buffers. Pool-side work
(neighbor projections, per-value group means, typed edge transforms, the
hypergraph head) is folded into compile-time constants, so a request
executes only the query-dependent kernels.

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
``gather_weighted_sum``  weighted neighbor sum (GCN attach weights)
``gather_where``    gathered row where masked, fallback row otherwise
``masked_gather_add``    accumulate gathered rows where masked
``segment_weighted_rows``  weighted segment-sum over an edge list
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
from .lowering import InstanceExecutor, compile_instance
from .executors import (
    FeatureExecutor,
    HeteroExecutor,
    HypergraphExecutor,
    MultiplexExecutor,
    compile_feature,
    compile_hetero,
    compile_hypergraph,
    compile_multiplex,
)
from .plan import InferencePlan, PlanBuilder, PlanStep, UnsupportedPlanError

__all__ = [
    "KERNELS",
    "InferencePlan",
    "PlanBuilder",
    "PlanStep",
    "UnsupportedPlanError",
    "InstanceExecutor",
    "FeatureExecutor",
    "MultiplexExecutor",
    "HeteroExecutor",
    "HypergraphExecutor",
    "compile_instance",
    "compile_feature",
    "compile_multiplex",
    "compile_hetero",
    "compile_hypergraph",
]
