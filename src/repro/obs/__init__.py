"""``repro.obs`` — metrics and tracing for the serving & training stack.

A dependency-free observability toolkit (stdlib + numpy only):

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families — thread-safe, labeled, with
  snapshot-consistent reads and Prometheus text exposition
  (:meth:`MetricsRegistry.render_prometheus`);
* :class:`Tracer` / :class:`Span` — per-stage span timing that lands in a
  labeled stage-latency histogram, with per-thread span trees;
* :class:`CounterBank` — a dict-compatible facade that migrates legacy
  ``stats`` dicts onto the registry without breaking their call sites;
* :func:`merge_snapshots` / :func:`render_snapshot_prometheus` —
  cross-process aggregation: merge per-worker registry snapshots
  (counters/histograms summed, gauges tagged per worker) and render the
  result back to exposition text with the same renderer the registry
  uses, so a multi-worker front door serves one fleet-wide ``/metrics``
  scrape.

Wired through the hot path by :mod:`repro.serving` (``GET /metrics``,
engine instrumentation, drift gauges) and available to training
via ``Trainer(..., registry=...)`` / ``run_pipeline(..., registry=...)``.
"""

from repro.obs.merge import merge_snapshots
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    CounterBank,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot_prometheus,
)
from repro.obs.tracing import NULL_CONTEXT, Span, Tracer

__all__ = [
    "Counter",
    "CounterBank",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_CONTEXT",
    "SIZE_BUCKETS",
    "Span",
    "Tracer",
    "merge_snapshots",
    "render_snapshot_prometheus",
]
