"""Lower the instance-network query path to a flat kernel plan.

``compile_instance`` walks a model-zoo network's
:meth:`~repro.gnn.networks._NodeNetwork.serve_plan` — the eval-time
local/propagate step sequence its ``forward`` runs — and emits one
:class:`~repro.serving.compiled.plan.InferencePlan` per scorer.  Query
rows attach to the pool by directed pool→query edges (each query's k
retrieved neighbors plus a self loop), so a query's in-degree is ``k``
(``k + 1`` with its loop) and every pool degree is untouched.
The heavy lifting happens at compile time: every request-invariant
pool-side quantity is pushed through the layer weights once —

* GCN: ``pool_hiddens @ W + b`` plus the pre-scaled attach coefficients
  ``deg^-1/2 / sqrt(k+1)`` (the affine map distributes over the weighted
  aggregate exactly);
* SAGE: the concat weight splits into a self half and a neighbor half
  with the ``1/k`` mean folded in;
* GAT: per-head pool projections and their source attention scores, so
  the per-request fused ``gat_attach`` kernel only scores/softmaxes
  ``(B, k+1, heads)``;
* gated: pool messages with the ``1/(k+1)`` mean-with-loops coefficient
  folded into both the pool table and the query's message weights;
* GIN aggregates raw states (the nonlinear MLP follows aggregation), so
  only the gather fuses.

Anything the walker does not recognize — an unknown conv family, a GAT
layer with edge features, a custom local step — raises
:class:`~repro.serving.compiled.plan.UnsupportedPlanError`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.gnn.attention import GATConv
from repro.gnn.conv import GCNConv, GINConv, GatedGraphConv, SAGEConv
from repro.tensor import ops

from .plan import InferencePlan, PlanBuilder, UnsupportedPlanError

#: plain-function activations a ``_Local`` step may carry → kernel op
_ACTIVATION_OPS = {
    ops.relu: "relu",
    ops.elu: "elu",
    ops.leaky_relu: "leaky_relu",
    ops.tanh: "tanh",
    ops.sigmoid: "sigmoid",
}


def lower_linear(
    builder: PlanBuilder, linear: nn.Linear, h: str, out: Optional[str] = None
) -> Tuple[str, int]:
    """Emit ``out = h @ W (+ b)``; returns (buffer name, width)."""
    width = int(linear.out_features)
    w = builder.const(builder.fresh("w"), linear.weight.data)
    inputs = (h, w)
    if linear.bias is not None:
        inputs = (h, w, builder.const(builder.fresh("b"), linear.bias.data))
    if out is None:
        out = builder.buffer(builder.fresh("lin"), lambda batch, d=width: (batch, d))
    builder.step("linear", inputs, out)
    return out, width


def lower_activation_fn(builder: PlanBuilder, fn, h: str, width: int) -> str:
    """Emit a named activation on ``h`` (in place unless ``h`` is a feed)."""
    op = _ACTIVATION_OPS.get(fn)
    if op is None:
        raise UnsupportedPlanError(f"unsupported local step: {fn!r}")
    if h == "x":  # never mutate the caller-owned feature feed
        out = builder.buffer(builder.fresh("act"), lambda batch, d=width: (batch, d))
        builder.step(op, (h,), out)
        return out
    builder.step(op, (h,), h)
    return h


def lower_mlp(builder: PlanBuilder, mlp: nn.MLP, h: str, width: int) -> Tuple[str, int]:
    """Lower an :class:`repro.nn.MLP` layer by layer (eval mode)."""
    for layer in mlp.net:
        if isinstance(layer, nn.Linear):
            h, width = lower_linear(builder, layer, h)
        elif isinstance(layer, nn.Activation):
            if layer.name == "identity":
                continue
            if layer.name not in ("relu", "elu", "leaky_relu", "tanh", "sigmoid"):
                raise UnsupportedPlanError(
                    f"unsupported MLP activation: {layer.name!r}"
                )
            builder.step(layer.name, (h,), h)
        elif isinstance(layer, nn.Dropout):
            continue  # eval mode: identity
        else:
            raise UnsupportedPlanError(f"unsupported MLP layer: {type(layer).__name__}")
    return h, width


def _lower_gcn(builder, conv, pool_hidden, k, h):
    width = int(conv.linear.out_features)
    proj = pool_hidden @ conv.linear.weight.data
    if conv.linear.bias is not None:
        proj = proj + conv.linear.bias.data
    pool_proj = builder.const(builder.fresh("gcn_pool"), proj)
    selfp, _ = lower_linear(builder, conv.linear, h)
    attw = builder.buffer(builder.fresh("gcn_w"), lambda batch, kk=k: (batch, kk))
    builder.step("gather_rows", ("gcn_attach_w", "nbr"), attw)
    agg = builder.buffer(builder.fresh("gcn_agg"), lambda batch, d=width: (batch, d))
    builder.step("gather_weighted_sum", (pool_proj, "nbr", attw), agg)
    out = builder.buffer(builder.fresh("h"), lambda batch, d=width: (batch, d))
    builder.step("add_scaled", (agg, selfp), out, alpha=1.0 / (k + 1.0))
    return out, width


def _lower_sage(builder, conv, pool_hidden, k, h, width):
    out_width = int(conv.linear.out_features)
    weight = conv.linear.weight.data
    if weight.shape[0] != 2 * width:
        raise UnsupportedPlanError("SAGE weight width does not match input")
    w_self = builder.const(builder.fresh("sage_self_w"), weight[:width])
    b = builder.const(builder.fresh("b"), conv.linear.bias.data)
    pool_proj = builder.const(
        builder.fresh("sage_pool"), (pool_hidden @ weight[width:]) / float(k)
    )
    selfp = builder.buffer(
        builder.fresh("sage_own"), lambda batch, d=out_width: (batch, d)
    )
    builder.step("linear", (h, w_self, b), selfp)
    out = builder.buffer(builder.fresh("h"), lambda batch, d=out_width: (batch, d))
    builder.step("gather_sum_add", (selfp, pool_proj, "nbr"), out)
    return out, out_width


def _lower_gin(builder, conv, pool_hidden, h, width):
    pool_state = builder.const(builder.fresh("gin_pool"), pool_hidden)
    agg = builder.buffer(builder.fresh("gin_agg"), lambda batch, d=width: (batch, d))
    builder.step("gather_sum", (pool_state, "nbr"), agg)
    pre = builder.buffer(builder.fresh("gin_pre"), lambda batch, d=width: (batch, d))
    builder.step("add_scaled", (agg, h), pre, alpha=1.0 + float(conv.eps.data[0]))
    return lower_mlp(builder, conv.mlp, pre, width)


def _lower_gat(builder, conv, pool_hidden, k, h):
    if conv.edge_proj is not None:
        raise UnsupportedPlanError("GAT layers with edge features are not lowered")
    heads, out_features = int(conv.num_heads), int(conv.out_features)
    weight = builder.const(builder.fresh("gat_w"), conv.weight.data)
    att_src = builder.const(builder.fresh("gat_as"), conv.att_src.data)
    att_dst = builder.const(builder.fresh("gat_ad"), conv.att_dst.data)
    bias = builder.const(builder.fresh("gat_b"), conv.bias.data)
    pool_h = (pool_hidden @ conv.weight.data).reshape(-1, heads, out_features)
    pool_hc = builder.const(builder.fresh("gat_pool_h"), pool_h)
    pool_score = builder.const(
        builder.fresh("gat_pool_s"), (pool_h * conv.att_src.data).sum(axis=-1)
    )
    hq = builder.buffer(
        builder.fresh("gat_hq"), lambda batch, a=heads, b=out_features: (batch, a, b)
    )
    vals = builder.buffer(
        builder.fresh("gat_vals"),
        lambda batch, kk=k, a=heads, b=out_features: (batch, kk + 1, a, b),
    )
    scores = builder.buffer(
        builder.fresh("gat_scores"), lambda batch, kk=k, a=heads: (batch, kk + 1, a)
    )
    width = int(conv.output_dim)
    out = builder.buffer(builder.fresh("h"), lambda batch, d=width: (batch, d))
    builder.step(
        "gat_attach",
        (h, weight, att_src, att_dst, bias, pool_hc, pool_score, "nbr",
         hq, vals, scores),
        out,
        slope=float(conv.negative_slope),
        concat=bool(conv.concat_heads),
    )
    return out, width


def _lower_gated(builder, conv, pool_hidden, k, h, width):
    scale = 1.0 / (k + 1.0)
    w_msg = builder.const(builder.fresh("ggnn_wm"), conv.message.weight.data * scale)
    msg_inputs = (h, w_msg)
    if conv.message.bias is not None:
        msg_inputs = (
            h, w_msg,
            builder.const(builder.fresh("ggnn_bm"), conv.message.bias.data * scale),
        )
    proj = pool_hidden @ conv.message.weight.data
    if conv.message.bias is not None:
        proj = proj + conv.message.bias.data
    pool_msg = builder.const(builder.fresh("ggnn_pool"), proj * scale)
    own = builder.buffer(builder.fresh("ggnn_own"), lambda batch, d=width: (batch, d))
    builder.step("linear", msg_inputs, own)
    aggm = builder.buffer(builder.fresh("ggnn_agg"), lambda batch, d=width: (batch, d))
    builder.step("gather_sum_add", (own, pool_msg, "nbr"), aggm)
    gru = conv.gru
    weights = tuple(
        builder.const(builder.fresh(f"gru_{name}"), getattr(gru, name).data)
        for name in ("w_ir", "w_hr", "b_r", "w_iz", "w_hz", "b_z", "w_in", "w_hn", "b_n")
    )
    scratch = tuple(
        builder.buffer(f"gru_scratch_{name}", lambda batch, d=width: (batch, d))
        for name in ("r", "z", "n", "tmp")
    )
    out = builder.buffer(builder.fresh("h"), lambda batch, d=width: (batch, d))
    builder.step("gru_step", (aggm, h) + weights + scratch, out)
    return out, width


class InstanceExecutor:
    """Executes the compiled plan for an instance-graph scorer.

    ``run`` takes the encoded query features and the ``(B, k)`` retrieved
    neighbor indices.  The returned array is the plan-owned output buffer
    — stable identity across same-size requests.
    """

    def __init__(self, plan: InferencePlan, k: int, in_dim: int) -> None:
        self.plan = plan
        self._k = int(k)
        self._in_dim = int(in_dim)

    def run(self, features: np.ndarray, neighbor_idx: np.ndarray) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float64)
        neighbor_idx = np.ascontiguousarray(neighbor_idx, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != self._in_dim:
            raise ValueError(
                f"features must be (B, {self._in_dim}), got {features.shape}"
            )
        if neighbor_idx.shape != (features.shape[0], self._k):
            raise ValueError(
                f"neighbor_idx must be ({features.shape[0]}, {self._k})"
            )
        feeds = {"x": features, "nbr": neighbor_idx}
        return self.plan.run(features.shape[0], feeds)


def compile_instance(model, graph, pool_hiddens: Sequence[np.ndarray], k: int):
    """Lower a model-zoo network to an :class:`InstanceExecutor`.

    Raises :class:`UnsupportedPlanError` when the network has no
    ``serve_plan`` or contains a step the lowerings do not cover.
    """
    serve_plan = getattr(model, "serve_plan", None)
    if serve_plan is None:
        raise UnsupportedPlanError(
            f"{type(model).__name__} exposes no serve_plan to lower"
        )
    builder = PlanBuilder()
    builder.feed("x")
    builder.feed("nbr")
    builder.const(
        "gcn_attach_w",
        graph._gcn_inv_sqrt_degrees() / math.sqrt(k + 1.0),
    )
    h = "x"
    width = int(model.x.shape[1])
    prop_idx = 0
    for step in serve_plan():
        module = getattr(step, "module", None)
        if module is not None:
            pool_hidden = np.asarray(pool_hiddens[prop_idx], dtype=np.float64)
            prop_idx += 1
            if isinstance(module, GCNConv):
                h, width = _lower_gcn(builder, module, pool_hidden, k, h)
            elif isinstance(module, SAGEConv):
                h, width = _lower_sage(builder, module, pool_hidden, k, h, width)
            elif isinstance(module, GINConv):
                h, width = _lower_gin(builder, module, pool_hidden, h, width)
            elif isinstance(module, GATConv):
                h, width = _lower_gat(builder, module, pool_hidden, k, h)
            elif isinstance(module, GatedGraphConv):
                h, width = _lower_gated(builder, module, pool_hidden, k, h, width)
            else:
                raise UnsupportedPlanError(
                    f"unsupported conv family: {type(module).__name__}"
                )
            continue
        fn = getattr(step, "fn", None)
        if fn is None:
            raise UnsupportedPlanError(f"unrecognized plan step: {step!r}")
        if isinstance(fn, nn.Linear):
            h, width = lower_linear(builder, fn, h)
        elif isinstance(fn, nn.MLP):
            h, width = lower_mlp(builder, fn, h, width)
        else:
            h = lower_activation_fn(builder, fn, h, width)
    if h == "x":
        raise UnsupportedPlanError("plan produced no output buffer")
    return InstanceExecutor(builder.build(h), k, int(model.x.shape[1]))
