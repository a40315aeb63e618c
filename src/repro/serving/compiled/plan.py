"""Flat inference plans: kernel steps over feeds, constants and results.

An :class:`InferencePlan` is the lowered form of one scorer's query path.
A ``compile_*`` lowering (:mod:`.lowering`) builds it in place: it names
the plan's feeds and constants, appends one step per kernel call, and
finally sets :attr:`InferencePlan.output`.  A step holds the kernel
function it calls (a function of :mod:`.kernels`), its input names, its
output name and its scalar params.

Execution is a straight loop: each step's inputs resolve against the
request's feeds, the compile-time constants (weights, pre-projected pool
states) and the results of earlier steps, and the kernel's return value
is bound to the step's output name.  No Tensors, no graph.  Kernels
return new arrays and write none of their inputs, so a plan holds no
per-request state: :meth:`InferencePlan.run` returns a fresh array, and
concurrent runs of one plan cannot disturb each other.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class UnsupportedPlanError(RuntimeError):
    """A scorer's query path contains a step the lowerings cannot emit.

    Raised during compilation only; the engine refuses to start with a
    message pointing at ``compiled=False`` (the autograd oracle).
    """


class InferencePlan:
    """An executable flat plan: steps over feeds, constants and results."""

    def __init__(self) -> None:
        #: ``(kernel, input names, output name, params)`` per step
        self.steps: List[Tuple[Callable[..., np.ndarray], Tuple[str, ...], str, Dict]] = []
        self.consts: Dict[str, np.ndarray] = {}
        self.feeds: List[str] = []
        self.output: Optional[str] = None
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

    def step(
        self,
        kernel: Callable[..., np.ndarray],
        inputs: Tuple[str, ...],
        output: str,
        **params: Any,
    ) -> str:
        """Append ``output = kernel(*inputs, **params)``; returns ``output``."""
        self.steps.append((kernel, tuple(inputs), output, params))
        return output

    @property
    def ops(self) -> Tuple[str, ...]:
        """The kernels this plan calls, by name, in execution order."""
        return tuple(kernel.__name__ for kernel, _, _, _ in self.steps)

    def ensure(self, batch: int) -> None:
        """No-op: a plan owns no buffers.  Kept because perfbench's tracer
        wraps this attribute when it installs."""

    def run(self, feeds: Dict[str, np.ndarray]) -> np.ndarray:
        """Execute all steps for one request block; returns a new array."""
        values = {**self.consts, **feeds}
        for kernel, inputs, output, params in self.steps:
            values[output] = kernel(*[values[name] for name in inputs], **params)
        return values[self.output]
