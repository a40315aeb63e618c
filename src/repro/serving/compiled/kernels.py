"""The compiled-plan kernel vocabulary: pure-numpy, no autograd.

Every kernel is a plain function ``kernel(*arrays, **params)`` that
returns its result as a new array and writes none of its inputs — no
:class:`repro.tensor.Tensor` wrappers, no backward-closure registration.
A step of an :class:`~repro.serving.compiled.InferencePlan` holds the
kernel it calls, so the functions defined here are the whole vocabulary
a lowering emits; ``plan.ops`` lists a plan's kernels by name.  A kernel
allocates only O(B·k·d) arrays: per-request garbage stays bounded by the
query-block size, never the pool size.

Numerical contract: each kernel reproduces the corresponding
``repro.tensor.ops`` formula exactly (same clipping, same max-shift
softmax), so compiled plans match the autograd path to floating-point
round-off — the 1e-8 parity the formulation matrix enforces.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# dense algebra
# ---------------------------------------------------------------------------
def linear(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """``x @ w (+ b)`` — the affine map of :class:`repro.nn.Linear`."""
    out = x @ w
    if b is not None:
        out += b
    return out


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def add_scaled(a: np.ndarray, b: np.ndarray, *, alpha: float) -> np.ndarray:
    """``a + alpha * b``."""
    return a + alpha * b


def layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, *, eps: float
) -> np.ndarray:
    """Matches :class:`repro.nn.LayerNorm`: over the last axis,
    ``(x - mean) / (var + eps) ** 0.5 * gamma + beta``."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.power(var + eps, 0.5) * gamma + beta


def concat(*parts: np.ndarray) -> np.ndarray:
    """The parts side by side along the feature axis."""
    return np.concatenate(parts, axis=1)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def elu(x: np.ndarray, *, alpha: float = 1.0) -> np.ndarray:
    """Matches ``ops.elu``: ``where(x > 0, x, alpha * (exp(min(x, 0)) - 1))``."""
    return np.where(x > 0.0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def leaky_relu(x: np.ndarray, *, slope: float = 0.2) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Matches ``ops.sigmoid``: input clipped to ±60 before the exponential."""
    out = np.clip(x, -60.0, 60.0)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _softmax_inplace(scores: np.ndarray, axis: int) -> None:
    """Max-shifted softmax in place — the ``softmax_rows`` formula."""
    scores -= scores.max(axis=axis, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# gather / attach aggregation
# ---------------------------------------------------------------------------
def gather_rows(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``table[idx]`` along axis 0 (idx of any shape)."""
    return np.take(table, idx, axis=0)


def gather_sum(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``out[b] = Σ_j table[idx[b, j]]`` — unweighted attach aggregation."""
    batch, k = idx.shape
    return table[idx.ravel()].reshape(batch, k, -1).sum(axis=1)


def gather_sum_add(a: np.ndarray, table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a + Σ_j table[idx[b, j]]`` — fused gather→sum→add."""
    return a + gather_sum(table, idx)


def gather_weighted_sum(table: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``out[b] = Σ_j w[b, j] · table[idx[b, j]]`` — weighted attach edges."""
    batch, k = idx.shape
    return np.einsum("bkd,bk->bd", table[idx.ravel()].reshape(batch, k, -1), w)


def gather_where(
    table: np.ndarray, idx: np.ndarray, mask: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """``out[b] = table[idx[b]] if mask[b] else fallback[b]`` (1-D idx)."""
    out = np.take(table, idx, axis=0)
    miss = ~mask
    if miss.any():
        out[miss] = fallback[miss]
    return out


def masked_gather_add(
    a: np.ndarray, table: np.ndarray, idx: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``out[b] = a[b] + (table[idx[b]] if mask[b] else 0)`` (idx pre-clipped ≥ 0)."""
    gathered = table[idx]
    gathered[~mask] = 0.0
    return a + gathered


# ---------------------------------------------------------------------------
# fused attach-attention (GAT over the fixed k + 1 attach topology)
# ---------------------------------------------------------------------------
def gat_attach(
    x: np.ndarray,
    weight: np.ndarray,
    att_src: np.ndarray,
    att_dst: np.ndarray,
    bias: np.ndarray,
    pool_h: np.ndarray,
    pool_score: np.ndarray,
    idx: np.ndarray,
    *,
    slope: float,
    concat: bool,
) -> np.ndarray:
    """One GAT layer over the attach view, fused gather→score→softmax→sum.

    Each query attends over exactly its ``k`` retrieved neighbors plus its
    self loop, per head — a dense ``(B, k+1, heads)`` softmax equal to
    ``GATConv``'s ``segment_softmax`` over the same edges (same
    per-destination max-shift, same edge order: neighbors then loop).
    ``pool_h`` / ``pool_score`` are the pool states pre-projected through
    the layer weights at compile time.
    """
    batch, k = idx.shape
    heads, out_features = att_src.shape
    flat = idx.ravel()
    hq = (x @ weight).reshape(batch, heads, out_features)
    vals = np.concatenate(
        [pool_h[flat].reshape(batch, k, heads, out_features), hq[:, None]], axis=1
    )
    scores = np.concatenate(
        [
            pool_score[flat].reshape(batch, k, heads),
            np.einsum("bho,ho->bh", hq, att_src)[:, None],
        ],
        axis=1,
    )
    scores += np.einsum("bho,ho->bh", hq, att_dst)[:, None, :]
    scores = np.where(scores > 0.0, scores, slope * scores)
    _softmax_inplace(scores, axis=1)
    agg = np.einsum("bjh,bjho->bho", scores, vals)
    out = agg.reshape(batch, heads * out_features) if concat else agg.mean(axis=1)
    out += bias
    return out


# ---------------------------------------------------------------------------
# gated GRU step
# ---------------------------------------------------------------------------
def gru_step(
    x: np.ndarray,
    h: np.ndarray,
    w_ir: np.ndarray, w_hr: np.ndarray, b_r: np.ndarray,
    w_iz: np.ndarray, w_hz: np.ndarray, b_z: np.ndarray,
    w_in: np.ndarray, w_hn: np.ndarray, b_n: np.ndarray,
) -> np.ndarray:
    """One :class:`repro.nn.GRUCell` update."""
    r = sigmoid(x @ w_ir + h @ w_hr + b_r)
    z = sigmoid(x @ w_iz + h @ w_hz + b_z)
    n = np.tanh(x @ w_in + (r * h) @ w_hn + b_n)
    return (1.0 - z) * n + z * h


# ---------------------------------------------------------------------------
# feature-graph (columns-as-nodes) kernels
# ---------------------------------------------------------------------------
def feature_tokens(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Feature tokenizer: ``out[b, f] = x[b, f] * w[f] + b[f]`` (B, F, E)."""
    out = x[:, :, None] * w
    out += b
    return out


def feature_layer(h: np.ndarray, adj: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One learned-field-graph propagation over the (B, F, E) tokens:
    ``relu(h + adj @ (h @ w + b))``."""
    batch, nodes, dim = h.shape
    flat = (h.reshape(batch * nodes, dim) @ w).reshape(batch, nodes, -1)
    flat += b
    return np.maximum(h + adj @ flat, 0.0)


def attention_readout(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gated attention pooling over the node axis (B, F, E) → (B, E)."""
    batch, nodes, dim = h.shape
    scores = (h.reshape(batch * nodes, dim) @ w).reshape(batch, nodes)
    scores += b
    _softmax_inplace(scores, axis=1)
    return np.einsum("bf,bfe->be", scores, h)


# ---------------------------------------------------------------------------
# multiplex (TabGNN) relation fusion
# ---------------------------------------------------------------------------
def tabgnn_fuse(att_vec: np.ndarray, *embs: np.ndarray) -> np.ndarray:
    """Attention fusion over relation embeddings: softmax-weighted sum."""
    scores = np.stack(
        [np.einsum("bh,h->b", np.tanh(h), att_vec) for h in embs], axis=1
    )
    _softmax_inplace(scores, axis=1)
    out = np.zeros_like(embs[0])
    for rel, h in enumerate(embs):
        out += scores[:, rel : rel + 1] * h
    return out
