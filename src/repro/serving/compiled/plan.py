"""Flat inference plans: kernel steps over preallocated buffers.

An :class:`InferencePlan` is the lowered form of one scorer's query path.
A ``compile_*`` lowering (:mod:`.lowering`) builds it in place: it names
the plan's feeds, constants, buffers and views, appends one step per
kernel call, and finally sets :attr:`InferencePlan.output`.  A step holds
the kernel function it calls (a function of :mod:`.kernels`), its input
buffer names, its output buffer name and its scalar params; the plan
keeps three name → value tables:

* ``consts`` — compile-time arrays (weights, pre-projected pool states);
* buffer shape functions — batch-dependent scratch/output buffers,
  allocated for the current batch size;
* views — named column windows into a parent buffer (concat-free
  multi-writer outputs, e.g. the multiplex fuse/self-proj halves).

Execution is a straight loop: resolve each step's names against
``feeds ∪ consts ∪ buffers`` and call the kernel with the preallocated
output first.  No Tensors, no graph.  Buffers are reused across
consecutive calls of one batch size; each change of batch size
reallocates every buffer and rebinds the step program (counted in
``reallocations``, so tests can assert allocation stability).  Traffic
whose batch size varies from call to call therefore reallocates on most
calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class UnsupportedPlanError(RuntimeError):
    """A scorer's query path contains a step the lowerings cannot emit.

    Raised during compilation only; the engine refuses to start with a
    message pointing at ``compiled=False`` (the autograd oracle).
    """


ShapeFn = Callable[[int], Tuple[int, ...]]
ViewFn = Callable[[int], Tuple[Any, ...]]


class InferencePlan:
    """An executable flat plan with plan-owned, reused buffers.

    ``run`` returns the plan-owned :attr:`output` buffer (stable identity
    across same-batch requests); callers must copy before mutating or
    holding it across a subsequent call.
    """

    def __init__(self) -> None:
        #: ``(kernel, input names, output name, params)`` per step
        self.steps: List[Tuple[Callable[..., None], Tuple[str, ...], str, Dict]] = []
        self.consts: Dict[str, np.ndarray] = {}
        self.buffer_shapes: Dict[str, ShapeFn] = {}
        self.views: Dict[str, Tuple[str, ViewFn]] = {}
        self.feeds: List[str] = []
        self.output: Optional[str] = None
        self.batch: Optional[int] = None
        self.reallocations = 0
        self.buffers: Dict[str, np.ndarray] = {}
        #: bound program: per step, (kernel, out array, args list,
        #: feed slots to patch per request, params) — rebuilt by ensure()
        self._program: list = []
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def feed(self, name: str) -> str:
        self.feeds.append(name)
        return name

    def const(self, name: str, array: np.ndarray) -> str:
        self.consts[name] = np.ascontiguousarray(array, dtype=np.float64)
        return name

    def buffer(self, name: str, shape_fn: ShapeFn) -> str:
        self.buffer_shapes[name] = shape_fn
        return name

    def view(self, name: str, parent: str, view_fn: ViewFn) -> str:
        self.views[name] = (parent, view_fn)
        return name

    def step(
        self,
        kernel: Callable[..., None],
        inputs: Tuple[str, ...],
        output: str,
        **params: Any,
    ) -> str:
        """Append ``kernel(output, *inputs, **params)``; returns ``output``."""
        self.steps.append((kernel, tuple(inputs), output, params))
        return output

    @property
    def ops(self) -> Tuple[str, ...]:
        """The kernels this plan calls, by name, in execution order."""
        return tuple(kernel.__name__ for kernel, _, _, _ in self.steps)

    def ensure(self, batch: int) -> None:
        """(Re)allocate batch-dependent buffers; no-op for a repeated size.

        Besides the buffers themselves, this rebinds the step program:
        every non-feed argument (const or buffer) is resolved to its array
        once here, so the per-request loop only patches feed slots —
        name-resolution cost does not scale with plan size at serve time.
        """
        if batch == self.batch:
            return
        for name, shape_fn in self.buffer_shapes.items():
            self.buffers[name] = np.empty(shape_fn(batch), dtype=np.float64)
        for name, (parent, view_fn) in self.views.items():
            self.buffers[name] = self.buffers[parent][view_fn(batch)]
        self.batch = batch
        self.reallocations += 1
        static = {**self.consts, **self.buffers}
        feed_names = set(self.feeds)
        self._program = []
        for kernel, inputs, output, params in self.steps:
            args = [None if name in feed_names else static[name] for name in inputs]
            slots = tuple(
                (pos, name)
                for pos, name in enumerate(inputs)
                if name in feed_names
            )
            self._program.append((kernel, static[output], args, slots, params))

    def run(self, batch: int, feeds: Dict[str, np.ndarray]) -> np.ndarray:
        """Execute all steps for one request block; returns the output buffer."""
        self.ensure(batch)
        for kernel, out, args, slots, params in self._program:
            for pos, name in slots:
                args[pos] = feeds[name]
            if params:
                kernel(out, *args, **params)
            else:
                kernel(out, *args)
        return self.buffers[self.output]
