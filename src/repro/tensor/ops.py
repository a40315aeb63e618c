"""Differentiable operations on :class:`~repro.tensor.autograd.Tensor`.

Every function builds a new tensor, computes the forward value with plain
numpy, and registers a closure that maps the output gradient to input
gradients.  Broadcasting is handled uniformly through
:func:`~repro.tensor.autograd.unbroadcast`.

The segment operations (``segment_sum``/``segment_mean``/``segment_softmax``)
are the message-passing primitives: a graph with ``E`` edges is processed by
gathering node states to edges (:func:`gather_rows`) and scattering edge
messages back to nodes (:func:`segment_sum`).

Both scatters — the :func:`segment_sum` forward and the :func:`gather_rows`
backward — go through one primitive, :func:`_scatter_rows`.  It multiplies
a one-nonzero-per-column ``scipy.sparse`` incidence matrix, built per call,
by the values viewed as ``(E, width)``.  The product adds each output row's
contributions in edge order, as ``np.add.at`` does, so the result is
bit-identical to ``np.add.at`` at a fraction of its cost.  Ids follow
numpy's indexing contract: an id in ``-n … -1`` wraps to ``n + id``, and an
id ``>= n`` or ``< -n`` raises ``IndexError``.  They are checked before the
product, because the sparse kernel does no bounds checking of its own.
:func:`segment_max` keeps the same contract through one 1-D
``np.maximum.at`` over flattened ``id * width + column`` indices.

Attention aggregates through :func:`edge_weighted_sum`, the per-head edge
sum ``out[d, k] = Σ_{e: dst_e = d} w[e, k] · h[src_e, k]``.  It is one
``scipy.sparse`` CSR product over ``node·heads + head`` rows whose
nonzeros are the edge weights; each row lists its edges in edge order (a
stable sort), so the sum adds in edge order as :func:`_scatter_rows` does.
The ``h`` gradient is the same product with the edges grouped by source,
and the weight gradient reduces each ``(edge, head)`` row on its own over
fixed blocks of edges.  Forward and both gradients are therefore
bit-identical to ``segment_sum(mul(gather_rows(h, src), w[..., None]),
dst)``, without its ``(E, heads, width)`` messages.  The sorted structure
(:class:`HeadEdges`) depends only on the edges and the head count, so
callers with a frozen edge set build it once; its ids follow the same
contract, checked when it is built.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.autograd import Tensor, unbroadcast

Axis = Union[None, int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad, b.shape))

    out._set_history((a, b), backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(-grad, b.shape))

    out._set_history((a, b), backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * a.data, b.shape))

    out._set_history((a, b), backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(-grad * a.data / (b.data**2), b.shape))

    out._set_history((a, b), backward)
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(-grad)

    out._set_history((a,), backward)
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out_data = np.power(a.data, exponent)
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            with np.errstate(invalid="ignore", divide="ignore"):
                local = exponent * np.power(a.data, exponent - 1.0)
            local = np.where(np.isfinite(local), local, 0.0)
            a._accumulate(grad * local)

    out._set_history((a,), backward)
    return out


def absolute(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.sign(a.data))

    out._set_history((a,), backward)
    return out


def clip(a: Tensor, low: float, high: float) -> Tensor:
    out = Tensor(np.clip(a.data, low, high))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            mask = ((a.data > low) & (a.data < high)).astype(np.float64)
            a._accumulate(grad * mask)

    out._set_history((a,), backward)
    return out


def maximum(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, b.data))

    def backward(grad: np.ndarray) -> None:
        a_ge = (a.data >= b.data).astype(np.float64)
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * a_ge, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * (1.0 - a_ge), b.shape))

    out._set_history((a, b), backward)
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a constant boolean array."""
    cond = np.asarray(condition, dtype=bool)
    out = Tensor(np.where(cond, a.data, b.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * (~cond), b.shape))

    out._set_history((a, b), backward)
    return out


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a._accumulate(unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b._accumulate(unbroadcast(gb, b.shape))

    out._set_history((a, b), backward)
    return out


def spmm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Sparse @ dense product where the sparse matrix is a constant.

    Used for fixed-structure graph aggregation: ``matrix`` is typically a
    (normalized) adjacency and ``x`` the node-feature tensor.  It also
    projects a constant sparse input (``nn.Linear`` on a one-hot block),
    with ``x`` the weight.  The gradient is ``matrix.T @ grad``.
    """
    matrix = matrix.tocsr()
    out = Tensor(matrix @ x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(matrix.T @ grad)

    out._set_history((x,), backward)
    return out


# ----------------------------------------------------------------------
# elementwise nonlinearities
# ----------------------------------------------------------------------
def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data)

    out._set_history((a,), backward)
    return out


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(np.log(a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / a.data)

    out._set_history((a,), backward)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (a.data > 0.0))

    out._set_history((a,), backward)
    return out


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    out = Tensor(np.where(a.data > 0.0, a.data, negative_slope * a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            local = np.where(a.data > 0.0, 1.0, negative_slope)
            a._accumulate(grad * local)

    out._set_history((a,), backward)
    return out


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    exp_part = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    out = Tensor(np.where(a.data > 0.0, a.data, exp_part))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            local = np.where(a.data > 0.0, 1.0, exp_part + alpha)
            a._accumulate(grad * local)

    out._set_history((a,), backward)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    out._set_history((a,), backward)
    return out


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data**2))

    out._set_history((a,), backward)
    return out


def softmax_rows(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax on a plain numpy array.

    The single softmax implementation in the library: :func:`softmax` wraps
    it with gradient bookkeeping and the serving engine calls it directly
    on logits that never need gradients.
    """
    data = np.asarray(data, dtype=np.float64)
    shifted = data - data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out_data = softmax_rows(a.data, axis=axis)
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (grad - dot))

    out._set_history((a,), backward)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            softmax_data = np.exp(out_data)
            a._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    out._set_history((a,), backward)
    return out


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def _expand_reduced(grad: np.ndarray, shape: tuple, axis: Axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape)


def sum(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_expand_reduced(grad, a.shape, axis, keepdims))

    out._set_history((a,), backward)
    return out


def mean(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            expanded = _expand_reduced(grad, a.shape, axis, keepdims)
            a._accumulate(expanded / count)

    out._set_history((a,), backward)
    return out


def max(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            expanded_out = _expand_reduced(out_data, a.shape, axis, keepdims)
            mask = (a.data == expanded_out).astype(np.float64)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            expanded_grad = _expand_reduced(grad, a.shape, axis, keepdims)
            a._accumulate(expanded_grad * mask / counts)

    out._set_history((a,), backward)
    return out


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    out._set_history((a,), backward)
    return out


def transpose(a: Tensor, axes: Optional[tuple] = None) -> Tensor:
    out = Tensor(a.data.transpose(axes))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            if axes is None:
                a._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes)
                a._accumulate(grad.transpose(inverse))

    out._set_history((a,), backward)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    out._set_history(tensors, backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))

    def backward(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    out._set_history(tensors, backward)
    return out


def getitem(a: Tensor, key) -> Tensor:
    out = Tensor(a.data[key])

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data, dtype=np.float64)
            np.add.at(full, key, grad)
            a._accumulate(full)

    out._set_history((a,), backward)
    return out


# ----------------------------------------------------------------------
# gather / scatter (message passing primitives)
# ----------------------------------------------------------------------
def _checked_ids(index: np.ndarray, size: int) -> np.ndarray:
    """``index`` under numpy's contract for an axis of length ``size``: ids
    in ``-size … -1`` wrap, ids ``>= size`` or ``< -size`` raise."""
    if index.size:
        low, high = index.min(), index.max()
        if high >= size or low < -size:
            bad = high if high >= size else low
            raise IndexError(
                f"index {bad} is out of bounds for axis 0 with size {size}"
            )
        if low < 0:
            index = index % size
    return index


def _scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` into ``num_rows`` zero rows.

    Equal bit for bit to ``np.add.at`` on a zero array: the incidence
    product accumulates every output row in edge order.
    """
    row_shape = values.shape[index.ndim:]
    index = _checked_ids(index.reshape(-1), num_rows)
    num_edges = index.shape[0]
    incidence = sp.csc_matrix(
        (np.ones(num_edges), index, np.arange(num_edges + 1)),
        shape=(num_rows, num_edges),
    )
    width = int(np.prod(row_shape))
    out = incidence @ values.reshape(num_edges, width)
    return out.reshape((num_rows,) + row_shape)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``a[index]``; gradient scatter-adds back into the rows."""
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[index])

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_scatter_rows(index, grad, a.shape[0]))

    out._set_history((a,), backward)
    return out


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segment_ids``.

    ``out[s] = sum_{i : segment_ids[i] == s} a[i]``.  The gradient of row
    ``i`` is the gradient of its bucket — i.e. a gather.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = Tensor(_scatter_rows(segment_ids, a.data, num_segments))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad[segment_ids])

    out._set_history((a,), backward)
    return out


#: Edges per block of the :func:`edge_weighted_sum` weight gradient, which
#: bounds its ``(block, heads, width)`` temporary.
_WEIGHT_GRAD_BLOCK = 256


def _head_skeleton(rows, cols, num_rows: int, num_cols: int, heads: int):
    """CSR structure over ``row·heads + head`` rows: row ``r·heads + k``
    lists the edges with ``rows[e] == r`` in edge order, at columns
    ``cols[e]·heads + k``.

    Returns ``(order, template)``: per-edge, per-head weights ``w`` fill it
    as data ``w.reshape(-1)[order]`` over ``template``'s indices.
    """
    key = (rows[:, None] * heads + np.arange(heads)).reshape(-1)
    order = np.argsort(key, kind="stable")
    edge, head = np.divmod(order, heads)
    indptr = np.zeros(num_rows * heads + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=num_rows * heads), out=indptr[1:])
    template = sp.csr_matrix(
        (np.zeros(order.size), cols[edge] * heads + head, indptr),
        shape=(num_rows * heads, num_cols * heads),
    )
    return order, template


def _weighted(skeleton, weight: np.ndarray) -> sp.csr_matrix:
    order, template = skeleton
    return sp.csr_matrix(
        (weight.reshape(-1)[order], template.indices, template.indptr),
        shape=template.shape,
    )


class HeadEdges:
    """Fixed edges ``src → dst`` laid out for :func:`edge_weighted_sum`.

    Holds the CSR structure twice: edges grouped by destination (the
    forward) and by source (the ``h`` gradient).  Building it sorts the
    edges, so a caller with a frozen edge set builds it once
    (:meth:`repro.graph.homogeneous.EdgeView.head_edges`); each call then
    only permutes its weights into the data.
    """

    __slots__ = ("src", "dst", "by_dst", "by_src")

    def __init__(
        self, src: np.ndarray, dst: np.ndarray, num_src: int, num_dst: int, heads: int
    ) -> None:
        self.src = _checked_ids(np.asarray(src, dtype=np.int64), num_src)
        self.dst = _checked_ids(np.asarray(dst, dtype=np.int64), num_dst)
        self.by_dst = _head_skeleton(self.dst, self.src, num_dst, num_src, heads)
        self.by_src = _head_skeleton(self.src, self.dst, num_src, num_dst, heads)


def edge_weighted_sum(h: Tensor, weight: Tensor, edges: HeadEdges) -> Tensor:
    """Per-head weighted edge sum ``out[d, k] = Σ_{e: dst_e = d} weight[e, k] · h[src_e, k]``.

    ``h`` is ``(n_src, heads, width)``, ``weight`` is ``(E, heads)`` and the
    output is ``(num_dst, heads, width)``.  Forward and both gradients are
    bit-identical to ``segment_sum(mul(gather_rows(h, src), weight[..., None]),
    dst)`` without materializing its ``(E, heads, width)`` messages.
    """
    _, heads, width = h.shape
    out_data = _weighted(edges.by_dst, weight.data) @ h.data.reshape(-1, width)
    out = Tensor(out_data.reshape(-1, heads, width))

    def backward(grad: np.ndarray) -> None:
        if h.requires_grad:
            by_src = _weighted(edges.by_src, weight.data)
            h._accumulate((by_src @ grad.reshape(-1, width)).reshape(h.shape))
        if weight.requires_grad:
            # Each (edge, head) row reduces on its own, so blocking the
            # edges leaves every sum unchanged.
            grad_w = np.empty(weight.shape)
            for start in range(0, edges.src.shape[0], _WEIGHT_GRAD_BLOCK):
                block = slice(start, start + _WEIGHT_GRAD_BLOCK)
                grad_w[block] = (
                    grad[edges.dst[block]] * h.data[edges.src[block]]
                ).sum(axis=-1)
            weight._accumulate(grad_w)

    out._set_history((h, weight), backward)
    return out


def segment_mean(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows per segment; empty segments produce zeros."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (a.ndim - 1))
    total = segment_sum(a, segment_ids, num_segments)
    return mul(total, Tensor(1.0 / safe))


def segment_max(data: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Non-differentiable per-segment max (used to stabilize segment softmax)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    row_shape = data.shape[1:]
    width = int(np.prod(row_shape))
    flat_ids = (segment_ids[:, None] * width + np.arange(width)).reshape(-1)
    out = np.full(num_segments * width, -np.inf, dtype=np.float64)
    np.maximum.at(out, flat_ids, data.reshape(-1))
    return out.reshape((num_segments,) + row_shape)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of entries sharing a segment id.

    This is the attention normalization of GAT: edge scores are normalized
    over all edges incident to the same destination node.  Composed from
    differentiable primitives so gradients flow through both numerator and
    denominator.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Stabilize with the (constant) per-segment max.
    maxes = segment_max(scores.data, segment_ids, num_segments)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0)
    shifted = sub(scores, Tensor(maxes[segment_ids]))
    exps = exp(shifted)
    denom = segment_sum(exps, segment_ids, num_segments)
    denom_per_row = gather_rows(denom, segment_ids)
    return div(exps, denom_per_row)


def dropout_mask(shape: tuple, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``p``, else ``1/(1-p)``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(shape) >= p
    return keep.astype(np.float64) / (1.0 - p)
