"""Core reverse-mode autodiff: the :class:`Tensor` class.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
produced it.  Calling :meth:`Tensor.backward` on a scalar-valued tensor
walks the recorded graph in reverse topological order and accumulates
gradients into every tensor with ``requires_grad=True``.

Design notes
------------
* All data is stored as ``float64`` unless the caller explicitly passes an
  integer array (used only for index tensors, which never require grad).
* Broadcasting is fully supported: gradients flowing into a broadcast
  operand are summed over the broadcast axes (see :func:`unbroadcast`).
* The graph is dynamic (define-by-run), and ``backward`` frees it while
  it walks it: once a non-leaf's closure has run, its gradient, closure
  and parent links are dropped, so intermediates that nothing else
  references are released during the pass, not at the next forward.
  Leaf gradients (parameters, inputs made with ``requires_grad=True``)
  survive for the optimizer.  A later ``backward`` that reaches a freed
  node raises ``RuntimeError``; reuse a value across passes through
  :meth:`Tensor.detach`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Per-thread recording flag: one thread's ``no_grad`` never turns
    recording off (or back on) in another."""

    enabled = True


_GRAD_MODE = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded for autodiff
    in the calling thread."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording in the calling
    thread (like torch.no_grad)."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    The inverse of numpy broadcasting: if a tensor of shape ``shape`` was
    broadcast to ``grad.shape`` during the forward pass, the gradient of the
    original tensor is the sum of ``grad`` over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _freed_graph(grad: np.ndarray) -> None:
    """Closure slot of a non-leaf whose graph ``backward`` has freed."""
    raise RuntimeError(
        "backward() reached a tensor whose graph an earlier backward() freed; "
        "to use its value in a new graph, take tensor.detach()"
    )


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype.kind in "iub":
            return data
        return data.astype(np.float64, copy=False)
    arr = np.asarray(data)
    if arr.dtype.kind in "iub":
        return arr.astype(np.float64)
    return arr.astype(np.float64)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; coerced to ``float64`` (integer arrays passed as
        ``np.ndarray`` are kept as-is for use as indices).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Coerce ``value`` to a (non-differentiable) Tensor if it is not one."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_tag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    def _set_history(
        self,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> None:
        """Record provenance if grad mode is on and any parent needs grad."""
        if not is_grad_enabled():
            return
        parents = tuple(parents)
        if any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._prev = parents
            self._backward = backward

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient.

        A leaf (no closure) owns a private, writable copy and sums later
        gradients into it in place: the optimizers and ``clip_grad_norm``
        write leaf gradients in place.  A non-leaf keeps the array its
        consumer passed, by reference (a sibling may hold the same array,
        or it may be a read-only broadcast view), and a second gradient
        allocates a new array, so no array is written that another node
        holds.  :meth:`backward` drops a non-leaf's gradient once its
        closure has run.
        """
        if self._backward is None:
            if self.grad is None:
                self.grad = np.array(grad, dtype=np.float64, copy=True)
            else:
                self.grad += grad
        elif self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor, freeing the graph as it goes.

        ``grad`` defaults to ``1.0`` and is only optional for scalar outputs.
        Nodes run in reverse topological order, so a node's closure runs
        once every consumer has passed it its gradient.  Right before the
        closure runs, the node's gradient, closure and parent links are
        dropped: its gradient is released when the closure returns, and a
        node that only the graph referenced is released with it.  This
        tensor's ``data`` stays readable (``loss.item()``) and leaf
        gradients stay for the optimizer.  A freed node keeps
        ``requires_grad`` and holds a closure that raises, so a second
        ``backward`` through it fails with ``RuntimeError`` rather than
        propagating a stale or missing gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep training graphs).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while order:
            node = order.pop()
            if node._backward is None or node.grad is None:
                continue
            node_grad, node.grad = node.grad, None
            closure, node._backward = node._backward, _freed_graph
            node._prev = ()
            closure(node_grad)

    # ------------------------------------------------------------------
    # operators (implemented in ops.py, bound lazily to avoid circularity)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.tensor import ops

        return ops.add(self, Tensor.ensure(other))

    def __radd__(self, other):
        from repro.tensor import ops

        return ops.add(Tensor.ensure(other), self)

    def __sub__(self, other):
        from repro.tensor import ops

        return ops.sub(self, Tensor.ensure(other))

    def __rsub__(self, other):
        from repro.tensor import ops

        return ops.sub(Tensor.ensure(other), self)

    def __mul__(self, other):
        from repro.tensor import ops

        return ops.mul(self, Tensor.ensure(other))

    def __rmul__(self, other):
        from repro.tensor import ops

        return ops.mul(Tensor.ensure(other), self)

    def __truediv__(self, other):
        from repro.tensor import ops

        return ops.div(self, Tensor.ensure(other))

    def __rtruediv__(self, other):
        from repro.tensor import ops

        return ops.div(Tensor.ensure(other), self)

    def __neg__(self):
        from repro.tensor import ops

        return ops.neg(self)

    def __pow__(self, exponent: float):
        from repro.tensor import ops

        return ops.power(self, float(exponent))

    def __matmul__(self, other):
        from repro.tensor import ops

        return ops.matmul(self, Tensor.ensure(other))

    def __getitem__(self, key):
        from repro.tensor import ops

        return ops.getitem(self, key)

    # Convenience methods mirroring the functional API.
    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes=None):
        from repro.tensor import ops

        return ops.transpose(self, axes=axes)

    @property
    def T(self):
        return self.transpose()

    def exp(self):
        from repro.tensor import ops

        return ops.exp(self)

    def log(self):
        from repro.tensor import ops

        return ops.log(self)

    def sqrt(self):
        from repro.tensor import ops

        return ops.power(self, 0.5)

    def abs(self):
        from repro.tensor import ops

        return ops.absolute(self)

    def clip(self, low: float, high: float):
        from repro.tensor import ops

        return ops.clip(self, low, high)

    def relu(self):
        from repro.tensor import ops

        return ops.relu(self)

    def sigmoid(self):
        from repro.tensor import ops

        return ops.sigmoid(self)

    def tanh(self):
        from repro.tensor import ops

        return ops.tanh(self)
