"""Lightweight per-stage span tracing for hot paths.

A :class:`Tracer` times named stages (``with tracer.span("retrieval"):``)
and records every duration into one labeled histogram family in the
shared :class:`~repro.obs.MetricsRegistry`
(``<name>{stage="retrieval", ...}``), so ``/metrics`` exposes a latency
distribution **per pipeline stage** — cache lookup, row encode,
attach/retrieval, propagate, head — not just end to end.

Spans nest: entering a span while another is open on the same thread
parents it, and the completed tree of the most recent top-level span is
kept per thread (:meth:`Tracer.last_root`) for tests and debugging.
Span state is thread-local, so concurrent request threads trace
independently while sharing the histogram family.

The overhead budget is a few microseconds per span (two clock reads, a
list push/pop, one histogram observe): cheap enough to leave on in
production serving.  Code that must support tracing-off call sites can
use :data:`NULL_CONTEXT`, a reusable no-op context manager;
:meth:`Tracer.stage` returns it when no span is open on the thread, so
stages record only inside a sampled request.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class _NullContext:
    """Reusable no-op context manager for tracing-disabled call sites."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_CONTEXT = _NullContext()


class Span:
    """One timed stage; a node in the per-thread span tree."""

    __slots__ = ("tracer", "name", "parent", "children", "start", "duration")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "Span":
        local = self.tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if stack:
            self.parent = stack[-1]
            self.parent.children.append(self)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.duration = time.perf_counter() - self.start
        local = self.tracer._local
        local.stack.pop()
        if self.parent is None:
            local.last_root = self
        self.tracer._observe(self.name, self.duration)
        return False

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search of this subtree by stage name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Span({self.name!r}, {self.duration * 1000:.3f}ms, children={len(self.children)})"


class Tracer:
    """Record named spans into a per-stage histogram family.

    Parameters
    ----------
    registry:
        The shared metrics registry the stage histogram lives in.
    histogram:
        Family name; each stage becomes one labeled child
        (``{stage="..."}`` plus ``const_labels``).
    const_labels:
        Extra labels stamped on every stage series (e.g. the serving
        formulation), so one registry can host several tracers.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        histogram: str = "repro_stage_duration_seconds",
        const_labels: Optional[Dict[str, str]] = None,
        buckets=DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.registry = registry
        self._const_labels = dict(const_labels or {})
        self._family = registry.histogram(
            histogram,
            "Per-stage latency of the instrumented pipeline.",
            labelnames=tuple(self._const_labels) + ("stage",),
            buckets=buckets,
        )
        self._stage_children: Dict[str, Histogram] = {}
        self._local = threading.local()

    def span(self, name: str) -> Span:
        return Span(self, name)

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def stage(self, name: str):
        """A span nested in the one open on this thread, else
        :data:`NULL_CONTEXT`.

        Request-level code opens a sampled root span; the stages inside
        it call this, so an unsampled request records nothing and pays
        one attribute lookup per stage.
        """
        if getattr(self._local, "stack", None):
            return Span(self, name)
        return NULL_CONTEXT

    def last_root(self) -> Optional[Span]:
        """The most recent *completed* top-level span on this thread."""
        return getattr(self._local, "last_root", None)

    def stage_histogram(self, name: str) -> Histogram:
        """The histogram child a stage records into (creates it if new)."""
        child = self._stage_children.get(name)
        if child is None:
            child = self._family.labels(stage=name, **self._const_labels)
            self._stage_children[name] = child
        return child

    def _observe(self, name: str, duration: float) -> None:
        self.stage_histogram(name).observe(duration)
