"""Lower each servable formulation's query path to a flat kernel plan.

Every ``compile_*`` function takes the formulation's model, freshly built
by its scorer, and builds the
:class:`~repro.serving.compiled.plan.InferencePlan` the scorer runs: its
feeds and constants, one step per :mod:`.kernels` call, then its output.
While it walks the layers it lowers, it also advances the pool's own
state through them (eval mode, no autograd tape), so every
request-invariant pool-side quantity is pushed through the layer weights
once and folded into the plan's constants.

**instance** — ``compile_instance`` walks a model-zoo network's
:meth:`~repro.gnn.networks._NodeNetwork.serve_plan`, the eval-time
local/propagate step sequence its ``forward`` runs.  Query rows attach to
the pool by directed pool→query edges (each query's k retrieved neighbors
plus a self loop), so a query's in-degree is ``k`` (``k + 1`` with its
loop) and every pool degree is untouched.  The pool state entering each
propagate step folds in as:

* GCN: ``pool_hidden @ W + b`` plus the pre-scaled attach coefficients
  ``deg^-1/2 / sqrt(k+1)`` (the affine map distributes over the weighted
  aggregate exactly);
* SAGE: the concat weight splits into a self half and a neighbor half
  with the ``1/k`` mean folded in;
* GAT: per-head pool projections and their source attention scores, so
  the per-request fused ``gat_attach`` kernel only scores/softmaxes
  ``(B, k+1, heads)``;
* gated: pool messages with the ``1/(k+1)`` mean-with-loops coefficient
  folded into both the pool table and the query's message weights;
* GIN aggregates raw states (the nonlinear MLP, LayerNorm included,
  follows aggregation), so only the gather fuses.

**feature** — row-wise: the learned field adjacency is softmax-normalized
once; tokenize → propagate → readout → head run as five fused kernels.

**multiplex** — per relation and conv layer, the pool group mean of each
vocabulary value's messages is read off TabGNN's own group-mean operator,
so a request is a masked gather by the scorer's vocabulary lookup.

**hetero** — per layer and incoming edge type, the typed pool states are
pre-multiplied by the bias-free edge transform, so each query's single
value edge is one masked gather-add.

**hypergraph** — the head distributes over the node→hyperedge mean, so
the value-node states are pre-projected through the head and a request is
one weighted gather over the query's member ids plus the head bias.

Anything a walker does not recognize — an unknown conv family, a GAT
layer with edge features, a custom local step, a TabGNN with mean fusion
— raises :class:`~repro.serving.compiled.plan.UnsupportedPlanError`; the
engine then refuses to start rather than serve slower.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro import nn
from repro.gnn.attention import GATConv
from repro.gnn.conv import GCNConv, GINConv, GatedGraphConv, SAGEConv
from repro.graph.multiplex import group_mean_operators
from repro.tensor import Tensor, no_grad, ops

from . import kernels
from .plan import InferencePlan, UnsupportedPlanError

#: plain-function activations a ``_Local`` step may carry → their kernel
_ACTIVATIONS = {
    ops.relu: kernels.relu,
    ops.elu: kernels.elu,
    ops.leaky_relu: kernels.leaky_relu,
    ops.tanh: kernels.tanh,
    ops.sigmoid: kernels.sigmoid,
}


def lower_linear(plan: InferencePlan, linear: nn.Linear, h: str) -> Tuple[str, int]:
    """Emit ``h @ W (+ b)``; returns (result name, width)."""
    w = plan.const(plan.fresh("w"), linear.weight.data)
    inputs = (h, w)
    if linear.bias is not None:
        inputs = (h, w, plan.const(plan.fresh("b"), linear.bias.data))
    return plan.step(kernels.linear, inputs, plan.fresh("lin")), int(linear.out_features)


def lower_activation_fn(plan: InferencePlan, fn, h: str) -> str:
    """Emit a named activation on ``h``."""
    kernel = _ACTIVATIONS.get(fn)
    if kernel is None:
        raise UnsupportedPlanError(f"unsupported local step: {fn!r}")
    return plan.step(kernel, (h,), plan.fresh("act"))


def lower_mlp(plan: InferencePlan, mlp: nn.MLP, h: str, width: int) -> Tuple[str, int]:
    """Lower an :class:`repro.nn.MLP` layer by layer (eval mode)."""
    for layer in mlp.net:
        if isinstance(layer, nn.Linear):
            h, width = lower_linear(plan, layer, h)
        elif isinstance(layer, nn.Activation):
            if layer.name == "identity":
                continue
            kernel = getattr(kernels, layer.name, None)
            if kernel not in _ACTIVATIONS.values():
                raise UnsupportedPlanError(
                    f"unsupported MLP activation: {layer.name!r}"
                )
            h = plan.step(kernel, (h,), plan.fresh("act"))
        elif isinstance(layer, nn.LayerNorm):
            gamma = plan.const(plan.fresh("ln_g"), layer.gamma.data)
            beta = plan.const(plan.fresh("ln_b"), layer.beta.data)
            h = plan.step(
                kernels.layer_norm, (h, gamma, beta), plan.fresh("ln"),
                eps=float(layer.eps),
            )
        elif isinstance(layer, nn.Dropout):
            continue  # eval mode: identity
        else:
            raise UnsupportedPlanError(f"unsupported MLP layer: {type(layer).__name__}")
    return h, width


def _lower_gcn(plan, conv, pool_hidden, k, h):
    proj = pool_hidden @ conv.linear.weight.data
    if conv.linear.bias is not None:
        proj = proj + conv.linear.bias.data
    pool_proj = plan.const(plan.fresh("gcn_pool"), proj)
    selfp, width = lower_linear(plan, conv.linear, h)
    attw = plan.step(kernels.gather_rows, ("gcn_attach_w", "nbr"), plan.fresh("gcn_w"))
    agg = plan.step(kernels.gather_weighted_sum, (pool_proj, "nbr", attw), plan.fresh("agg"))
    out = plan.step(kernels.add_scaled, (agg, selfp), plan.fresh("h"), alpha=1.0 / (k + 1.0))
    return out, width


def _lower_sage(plan, conv, pool_hidden, k, h, width):
    weight = conv.linear.weight.data
    if weight.shape[0] != 2 * width:
        raise UnsupportedPlanError("SAGE weight width does not match input")
    w_self = plan.const(plan.fresh("sage_self_w"), weight[:width])
    b = plan.const(plan.fresh("b"), conv.linear.bias.data)
    pool_proj = plan.const(
        plan.fresh("sage_pool"), (pool_hidden @ weight[width:]) / float(k)
    )
    selfp = plan.step(kernels.linear, (h, w_self, b), plan.fresh("sage_own"))
    out = plan.step(kernels.gather_sum_add, (selfp, pool_proj, "nbr"), plan.fresh("h"))
    return out, int(conv.linear.out_features)


def _lower_gin(plan, conv, pool_hidden, h, width):
    pool_state = plan.const(plan.fresh("gin_pool"), pool_hidden)
    agg = plan.step(kernels.gather_sum, (pool_state, "nbr"), plan.fresh("gin_agg"))
    pre = plan.step(
        kernels.add_scaled, (agg, h), plan.fresh("gin_pre"),
        alpha=1.0 + float(conv.eps.data[0]),
    )
    return lower_mlp(plan, conv.mlp, pre, width)


def _lower_gat(plan, conv, pool_hidden, k, h):
    if conv.edge_proj is not None:
        raise UnsupportedPlanError("GAT layers with edge features are not lowered")
    heads, out_features = int(conv.num_heads), int(conv.out_features)
    weight = plan.const(plan.fresh("gat_w"), conv.weight.data)
    att_src = plan.const(plan.fresh("gat_as"), conv.att_src.data)
    att_dst = plan.const(plan.fresh("gat_ad"), conv.att_dst.data)
    bias = plan.const(plan.fresh("gat_b"), conv.bias.data)
    pool_h = (pool_hidden @ conv.weight.data).reshape(-1, heads, out_features)
    pool_hc = plan.const(plan.fresh("gat_pool_h"), pool_h)
    pool_score = plan.const(
        plan.fresh("gat_pool_s"), (pool_h * conv.att_src.data).sum(axis=-1)
    )
    out = plan.step(
        kernels.gat_attach,
        (h, weight, att_src, att_dst, bias, pool_hc, pool_score, "nbr"),
        plan.fresh("h"),
        slope=float(conv.negative_slope),
        concat=bool(conv.concat_heads),
    )
    return out, int(conv.output_dim)


def _lower_gated(plan, conv, pool_hidden, k, h, width):
    scale = 1.0 / (k + 1.0)
    w_msg = plan.const(plan.fresh("ggnn_wm"), conv.message.weight.data * scale)
    msg_inputs = (h, w_msg)
    if conv.message.bias is not None:
        msg_inputs = (
            h, w_msg,
            plan.const(plan.fresh("ggnn_bm"), conv.message.bias.data * scale),
        )
    proj = pool_hidden @ conv.message.weight.data
    if conv.message.bias is not None:
        proj = proj + conv.message.bias.data
    pool_msg = plan.const(plan.fresh("ggnn_pool"), proj * scale)
    own = plan.step(kernels.linear, msg_inputs, plan.fresh("ggnn_own"))
    aggm = plan.step(kernels.gather_sum_add, (own, pool_msg, "nbr"), plan.fresh("ggnn_agg"))
    gru = conv.gru
    weights = tuple(
        plan.const(plan.fresh(f"gru_{name}"), getattr(gru, name).data)
        for name in ("w_ir", "w_hr", "b_r", "w_iz", "w_hz", "b_z", "w_in", "w_hn", "b_n")
    )
    return plan.step(kernels.gru_step, (aggm, h) + weights, plan.fresh("h")), width


# ---------------------------------------------------------------------------
# instance graph (retrieval attach into the frozen pool)
# ---------------------------------------------------------------------------
def compile_instance(model, k: int) -> InferencePlan:
    """Lower a model-zoo network's query path; feeds ``x`` and ``nbr``.

    ``x`` is the ``(B, in_dim)`` encoded queries, ``nbr`` their ``(B, k)``
    retrieved pool rows.  Raises :class:`UnsupportedPlanError` when the
    network has no ``serve_plan`` or contains a step the lowerings do not
    cover.
    """
    serve_plan = getattr(model, "serve_plan", None)
    if serve_plan is None:
        raise UnsupportedPlanError(
            f"{type(model).__name__} exposes no serve_plan to lower"
        )
    model.eval()
    graph = model.graph
    plan = InferencePlan()
    plan.feed("x")
    plan.feed("nbr")
    plan.const(
        "gcn_attach_w",
        graph._gcn_inv_sqrt_degrees() / math.sqrt(k + 1.0),
    )
    h = "x"
    width = int(model.x.shape[1])
    pool = model.x
    steps = serve_plan()
    # Only propagate steps read the pool state: it stops at the last one.
    last = max(
        (
            i for i, step in enumerate(steps)
            if getattr(step, "module", None) is not None
        ),
        default=-1,
    )
    with no_grad():
        for i, step in enumerate(steps):
            module = getattr(step, "module", None)
            if module is not None:
                pool_hidden = pool.data
                if isinstance(module, GCNConv):
                    h, width = _lower_gcn(plan, module, pool_hidden, k, h)
                elif isinstance(module, SAGEConv):
                    h, width = _lower_sage(plan, module, pool_hidden, k, h, width)
                elif isinstance(module, GINConv):
                    h, width = _lower_gin(plan, module, pool_hidden, h, width)
                elif isinstance(module, GATConv):
                    h, width = _lower_gat(plan, module, pool_hidden, k, h)
                elif isinstance(module, GatedGraphConv):
                    h, width = _lower_gated(plan, module, pool_hidden, k, h, width)
                else:
                    raise UnsupportedPlanError(
                        f"unsupported conv family: {type(module).__name__}"
                    )
                if i < last:
                    pool = module.propagate(pool, graph.edge_view(step.view_kind))
                continue
            fn = getattr(step, "fn", None)
            if fn is None:
                raise UnsupportedPlanError(f"unrecognized plan step: {step!r}")
            if isinstance(fn, nn.Linear):
                h, width = lower_linear(plan, fn, h)
            elif isinstance(fn, nn.MLP):
                h, width = lower_mlp(plan, fn, h, width)
            else:
                h = lower_activation_fn(plan, fn, h)
            if i < last:
                pool = fn(pool)
    if h == "x":
        raise UnsupportedPlanError("plan produced no output")
    plan.output = h
    return plan


# ---------------------------------------------------------------------------
# feature graph (columns as nodes, row-wise)
# ---------------------------------------------------------------------------
def compile_feature(model) -> InferencePlan:
    """Lower a :class:`~repro.models.FeatureGraphClassifier`; feeds ``x``."""
    fields = int(model.num_features)
    embed = int(model.embed_dim)
    plan = InferencePlan()
    plan.feed("x")
    token_w = plan.const("token_w", model.token_weight.data)
    token_b = plan.const("token_b", model.token_bias.data)
    logits = np.asarray(model.edge_logits.data, dtype=np.float64)
    adj_raw = logits + np.eye(fields) * -1e9
    adj_raw = adj_raw - adj_raw.max(axis=1, keepdims=True)
    adj_raw = np.exp(adj_raw)
    adj = plan.const("adjacency", adj_raw / adj_raw.sum(axis=1, keepdims=True))
    tok = plan.step(kernels.feature_tokens, ("x", token_w, token_b), "tokens")
    for linear in model.propagations:
        w = plan.const(plan.fresh("w"), linear.weight.data)
        b = plan.const(plan.fresh("b"), linear.bias.data)
        tok = plan.step(kernels.feature_layer, (tok, adj, w, b), plan.fresh("tokens"))
    score_w = plan.const("readout_w", model.readout.score.weight.data)
    score_b = plan.const("readout_b", model.readout.score.bias.data)
    pooled = plan.step(kernels.attention_readout, (tok, score_w, score_b), "pooled")
    out, _ = lower_mlp(plan, model.head, pooled, embed)
    plan.output = out
    return plan


# ---------------------------------------------------------------------------
# multiplex (TabGNN value-group lookup)
# ---------------------------------------------------------------------------
def compile_multiplex(model) -> InferencePlan:
    """Lower a :class:`~repro.models.TabGNN` with attention fusion.

    Feeds ``x`` plus, per relation ``r``, ``idx{r}`` (each query's index
    into the sorted vocabulary) and ``mask{r}`` (whether it matched);
    unmatched queries keep their own transformed state.  Row ``j`` of a
    mean table is the group mean that the first pool row holding the
    ``j``-th smallest value code reads.
    """
    if getattr(model, "fusion", None) != "attention":
        raise UnsupportedPlanError("only attention fusion is lowered")
    model.eval()
    hidden = int(model.attention_vector.data.shape[0])
    plan = InferencePlan()
    plan.feed("x")
    emb_names: List[str] = []
    with no_grad():
        for rel, (convs, codes) in enumerate(zip(
            model.relation_encoders, model.graph.value_layers.values()
        )):
            members, means = group_mean_operators(codes)
            values, first = np.unique(codes, return_index=True)
            readers = members[first[values >= 0]]
            plan.feed(f"idx{rel}")
            plan.feed(f"mask{rel}")
            h = "x"
            pool = model.x
            for i, conv in enumerate(convs):
                width = int(conv.linear.out_features)
                group_means = means @ conv.linear(pool).data
                table = readers @ group_means
                if not table.shape[0]:  # no vocabulary: every query misses
                    table = np.zeros((1, width))
                table = plan.const(f"means_{rel}_{i}", table)
                own, _ = lower_linear(plan, conv.linear, h)
                h = plan.step(
                    kernels.gather_where, (table, f"idx{rel}", f"mask{rel}", own),
                    plan.fresh(f"rel{rel}_h"),
                )
                if i < len(convs) - 1:
                    h = plan.step(kernels.relu, (h,), plan.fresh(f"rel{rel}_h"))
                    pool = ops.relu(Tensor(members @ group_means))
            emb_names.append(h)
    att = plan.const("att_vec", model.attention_vector.data)
    fused = plan.step(kernels.tabgnn_fuse, (att,) + tuple(emb_names), "fused")
    selfp, _ = lower_linear(plan, model.self_proj, "x")
    selfv = plan.step(kernels.relu, (selfp,), "self_h")
    combined = plan.step(kernels.concat, (fused, selfv), "combined")
    out, _ = lower_mlp(plan, model.head, combined, 2 * hidden)
    plan.output = out
    return plan


# ---------------------------------------------------------------------------
# hetero (typed value-node lookup)
# ---------------------------------------------------------------------------
def compile_hetero(network) -> InferencePlan:
    """Lower a :class:`~repro.gnn.HeteroGNN`'s query update.

    Feeds ``x`` plus, per value-node type ``t`` with edges into the target
    type, ``idx::t`` (each query's value node, clipped to ≥ 0) and
    ``mask::t`` (whether it has one).  A query has at most one edge per
    incoming edge type, so each layer's mean over it is a masked lookup of
    the pre-transformed value-node state entering that layer.
    """
    network.eval()
    target = network.target_type
    plan = InferencePlan()
    plan.feed("x")
    src_types: List[str] = []
    h = "x"
    layers = list(network.layers)
    with no_grad():
        feats = network.node_features()
        for li, layer in enumerate(layers):
            self_linear = layer._self_linears[layer._node_types.index(target)]
            out, _ = lower_linear(plan, self_linear, h)
            for edge_type, linear in zip(layer._edge_key_order, layer._edge_linears):
                src_type, _, dst_type = edge_type
                if dst_type != target:
                    continue
                if src_type == target:
                    raise UnsupportedPlanError(
                        f"edge type {edge_type} flows {target}→{target}"
                    )
                if src_type not in src_types:
                    src_types.append(src_type)
                    plan.feed(f"idx::{src_type}")
                    plan.feed(f"mask::{src_type}")
                proj = plan.const(
                    plan.fresh(f"hetero_{src_type}"),
                    feats[src_type].data @ linear.weight.data,
                )
                out = plan.step(
                    kernels.masked_gather_add,
                    (out, proj, f"idx::{src_type}", f"mask::{src_type}"),
                    plan.fresh("h"),
                )
            if li < len(layers) - 1:
                out = plan.step(kernels.relu, (out,), plan.fresh("h"))
                feats = {t: ops.relu(s) for t, s in layer(feats).items()}
            h = out
    plan.output = h
    return plan


# ---------------------------------------------------------------------------
# hypergraph (query as a new hyperedge)
# ---------------------------------------------------------------------------
def compile_hypergraph(model) -> InferencePlan:
    """Lower a :class:`~repro.models.HypergraphClassifier` attach readout.

    Feeds ``ids``, the ``(B, M)`` value-node ids of each query row's
    memberships (absent ones clipped to 0), and ``w``, their readout
    weights (``1/degree`` on present members, 0 elsewhere).  The head
    linear distributes over that weighted mean, so the entire pool side
    collapses to one pre-projected ``(N, C)`` table.
    """
    network = model.network
    network.eval()
    with no_grad():
        states = network.node_states().data
    head = network.head
    out_dim = int(head.out_features)
    bias = head.bias.data if head.bias is not None else np.zeros(out_dim)
    plan = InferencePlan()
    plan.feed("ids")
    plan.feed("w")
    table = plan.const("node_proj", states @ head.weight.data)
    bias_c = plan.const("head_bias", bias)
    agg = plan.step(kernels.gather_weighted_sum, (table, "ids", "w"), "agg")
    plan.output = plan.step(kernels.add, (agg, bias_c), "logits")
    return plan
