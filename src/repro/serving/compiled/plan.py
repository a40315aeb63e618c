"""Flat inference plans: declarative steps over preallocated buffers.

An :class:`InferencePlan` is the lowered form of one scorer's query path:
an ordered tuple of :class:`PlanStep` records (op name from the
:data:`~repro.serving.compiled.kernels.KERNELS` vocabulary, input buffer
names, output buffer name, scalar params) plus three name → value tables:

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

from .kernels import KERNELS


class UnsupportedPlanError(RuntimeError):
    """A scorer's query path contains a step the lowerings cannot emit.

    Raised during compilation only; the engine refuses to start with a
    message pointing at ``compiled=False`` (the autograd oracle).
    """


ShapeFn = Callable[[int], Tuple[int, ...]]
ViewFn = Callable[[int], Tuple[Any, ...]]


class PlanStep:
    """One kernel invocation: ``KERNELS[op](ns[output], *ns[inputs], **params)``."""

    __slots__ = ("op", "inputs", "output", "params")

    def __init__(self, op: str, inputs: Tuple[str, ...], output: str,
                 params: Dict[str, Any]):
        if op not in KERNELS:
            raise UnsupportedPlanError(f"unknown kernel op: {op!r}")
        self.op = op
        self.inputs = inputs
        self.output = output
        self.params = params

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(self.inputs)
        extra = f", **{self.params}" if self.params else ""
        return f"{self.output} = {self.op}({args}{extra})"


class InferencePlan:
    """An executable flat plan with plan-owned, reused buffers.

    ``run`` returns the plan-owned output buffer (stable identity across
    same-batch requests); callers must copy before mutating or holding it
    across a subsequent call.
    """

    def __init__(
        self,
        steps: List[PlanStep],
        consts: Dict[str, np.ndarray],
        buffer_shapes: Dict[str, ShapeFn],
        output: str,
        feeds: Tuple[str, ...] = (),
        views: Optional[Dict[str, Tuple[str, ViewFn]]] = None,
    ):
        self.steps = tuple(steps)
        self.consts = dict(consts)
        self.buffer_shapes = dict(buffer_shapes)
        self.views = dict(views or {})
        self.output = output
        self.feeds = tuple(feeds)
        self.batch: Optional[int] = None
        self.reallocations = 0
        self.buffers: Dict[str, np.ndarray] = {}
        self._static: Dict[str, np.ndarray] = {}
        #: bound program: per step, (kernel, out array, args list,
        #: feed slots to patch per request, params) — rebuilt by ensure()
        self._program: list = []

    @property
    def ops(self) -> Tuple[str, ...]:
        """The step vocabulary this plan uses, in execution order."""
        return tuple(step.op for step in self.steps)

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
        self._static = {**self.consts, **self.buffers}
        feed_names = set(self.feeds)
        self._program = []
        for step in self.steps:
            args = [
                None if name in feed_names else self._static[name]
                for name in step.inputs
            ]
            slots = tuple(
                (pos, name)
                for pos, name in enumerate(step.inputs)
                if name in feed_names
            )
            self._program.append(
                (KERNELS[step.op], self._static[step.output], args, slots,
                 step.params)
            )

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


class PlanBuilder:
    """Accumulates consts / buffers / steps while a lowering walks a model."""

    def __init__(self) -> None:
        self._steps: List[PlanStep] = []
        self._consts: Dict[str, np.ndarray] = {}
        self._shapes: Dict[str, ShapeFn] = {}
        self._views: Dict[str, Tuple[str, ViewFn]] = {}
        self._feeds: List[str] = []
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def const(self, name: str, array: np.ndarray) -> str:
        self._consts[name] = np.ascontiguousarray(array, dtype=np.float64)
        return name

    def buffer(self, name: str, shape_fn: ShapeFn) -> str:
        self._shapes[name] = shape_fn
        return name

    def view(self, name: str, parent: str, view_fn: ViewFn) -> str:
        self._views[name] = (parent, view_fn)
        return name

    def feed(self, name: str) -> str:
        self._feeds.append(name)
        return name

    def step(self, op: str, inputs: Tuple[str, ...], output: str, **params: Any) -> str:
        self._steps.append(PlanStep(op, tuple(inputs), output, params))
        return output

    def build(self, output: str) -> InferencePlan:
        return InferencePlan(
            self._steps,
            self._consts,
            self._shapes,
            output,
            feeds=tuple(self._feeds),
            views=self._views,
        )
