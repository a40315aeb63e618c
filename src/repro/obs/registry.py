"""A dependency-free metrics registry: counters, gauges, histograms.

Production serving needs numbers, not ad-hoc dicts: how many rows were
scored, how long each stage took, what fraction of lookups hit the UNK
bucket.  This module is the one place those numbers live:

* :class:`MetricsRegistry` — owns every metric family and one lock.  All
  mutations and reads go through that single lock, so :meth:`snapshot`
  (and :meth:`render_prometheus`, which renders one) observes a
  *consistent* point-in-time state across every metric (no torn reads
  between related counters).
* :func:`render_snapshot_prometheus` — the one Prometheus text renderer,
  for this process's snapshot and for worker snapshots merged across
  processes alike.
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  Prometheus core types.  Histograms use **fixed upper-bound buckets**
  (cumulative in the exposition, per-bucket internally) plus a bounded
  reservoir of recent raw observations so internal quantiles
  (:meth:`Histogram.quantile`) stay accurate enough to cross-check an
  external timer — the serving bench asserts agreement within 10%.
* label support mirrors ``prometheus_client``: a family declares
  ``labelnames`` and :meth:`labels` returns (and caches) one child per
  label-value combination.
* :class:`CounterBank` — a ``MutableMapping`` facade that lets legacy
  ``stats``-dict call sites (``stats["rows"] += 1``) write straight into
  registry-backed metrics, keeping the ``/healthz`` contract while
  ``/metrics`` gains the same numbers in exposition format.

Everything is stdlib + numpy; nothing here imports the rest of
:mod:`repro`, so any layer (serving, training, benchmarks) can depend on
it without cycles.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import MutableMapping
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Default histogram buckets, tuned for request/stage latencies in seconds:
#: 50 microseconds up to 10 seconds, roughly geometric.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    5e-05, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for batch-size style distributions (counts, not seconds).
SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _render_labels(labels: Dict[str, object], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_snapshot_prometheus(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Prometheus text exposition (v0.0.4) of a registry snapshot.

    The one renderer: :meth:`MetricsRegistry.render_prometheus` renders
    its own :meth:`~MetricsRegistry.snapshot` through it, and the
    multi-worker front door renders the worker snapshots it merged
    (:func:`repro.obs.merge.merge_snapshots`), which crossed a process
    boundary and have no registry left.
    """
    lines: List[str] = []
    for name, family in snapshot.items():
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for series in family.get("values", ()):
            labels = dict(series.get("labels", {}))
            if "buckets" in series:
                for bound, cumulative in series["buckets"]:
                    bound_text = (
                        bound if isinstance(bound, str)
                        else _format_value(float(bound))
                    )
                    le = _render_labels(labels, f'le="{bound_text}"')
                    lines.append(
                        f"{name}_bucket{le} {_format_value(float(cumulative))}"
                    )
                suffix = _render_labels(labels)
                lines.append(
                    f"{name}_sum{suffix} {_format_value(float(series['sum']))}"
                )
                lines.append(
                    f"{name}_count{suffix} "
                    f"{_format_value(float(series['count']))}"
                )
            else:
                suffix = _render_labels(labels)
                lines.append(
                    f"{name}{suffix} {_format_value(float(series['value']))}"
                )
    return "\n".join(lines) + "\n"


class _Child:
    """One (family, label-values) time series."""

    __slots__ = ("_family", "_labels")

    def __init__(self, family: "MetricFamily", labels: Dict[str, str]) -> None:
        self._family = family
        self._labels = labels

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self._labels)


class Counter(_Child):
    """Monotonically increasing count (resettable only via ``set_``)."""

    __slots__ = ("_value", "_fn")

    def __init__(self, family, labels) -> None:
        super().__init__(family, labels)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase; use a Gauge")
        with self._family.registry._lock:
            self._value += amount

    def set_(self, value: float) -> None:
        """Raw assignment — for dict-compat facades, not user code."""
        with self._family.registry._lock:
            self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> "Counter":
        """Collect from existing monotone state (a locked stats dict)
        instead of ``inc`` calls — the zero-hot-path-cost exposition route
        the engine uses for its per-row counters."""
        with self._family.registry._lock:
            self._fn = fn
        return self

    def _read(self) -> float:
        # Caller holds the registry lock.
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:  # collection must never take the server down
                return float("nan")
        return self._value

    @property
    def value(self) -> float:
        with self._family.registry._lock:
            v = self._read()
        return int(v) if float(v).is_integer() else v


class Gauge(_Child):
    """A value that can go up and down, or track a live callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self, family, labels) -> None:
        super().__init__(family, labels)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._family.registry._lock:
            self._value = float(value)

    set_ = set  # dict-compat facade alias

    def inc(self, amount: float = 1.0) -> None:
        with self._family.registry._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> "Gauge":
        """Evaluate ``fn`` at collection time (queue depths, ratios, …)."""
        with self._family.registry._lock:
            self._fn = fn
        return self

    def _read(self) -> float:
        # Caller holds the registry lock (RLock: callbacks may read other
        # metrics from the same registry without deadlocking).
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:  # collection must never take the server down
                return float("nan")
        return self._value

    @property
    def value(self) -> float:
        with self._family.registry._lock:
            v = self._read()
        return int(v) if float(v).is_integer() else v


class Histogram(_Child):
    """Fixed-bucket distribution with an exact-quantile reservoir.

    ``buckets`` are inclusive upper bounds; a final ``+Inf`` bucket is
    implicit.  ``observe`` is O(log n_buckets).  The reservoir keeps the
    most recent ``reservoir_size`` raw observations (ring buffer) so
    :meth:`quantile` answers with real data rather than bucket
    interpolation — that is what lets the serving bench cross-check its
    external timer against the engine's own histogram within 10%.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_reservoir", "_rpos")

    def __init__(self, family, labels) -> None:
        super().__init__(family, labels)
        self._bounds = family.buckets
        self._counts = [0] * (len(self._bounds) + 1)
        self._sum = 0.0
        self._count = 0
        size = family.reservoir_size
        self._reservoir = np.empty(size, dtype=np.float64) if size else None
        self._rpos = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._family.registry._lock:
            self._counts[bisect_left(self._bounds, value)] += 1
            self._sum += value
            self._count += 1
            if self._reservoir is not None:
                self._reservoir[self._rpos % self._reservoir.shape[0]] = value
                self._rpos += 1

    @property
    def count(self) -> int:
        with self._family.registry._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._family.registry._lock:
            return self._sum

    def bucket_counts(self) -> "OrderedDict[float, int]":
        """Cumulative counts keyed by upper bound (``inf`` = total)."""
        with self._family.registry._lock:
            out: "OrderedDict[float, int]" = OrderedDict()
            running = 0
            for bound, n in zip(self._bounds, self._counts):
                running += n
                out[bound] = running
            out[float("inf")] = running + self._counts[-1]
        return out

    def quantile(self, q: float) -> float:
        """Quantile over the reservoir of recent raw observations (NaN if
        empty or the histogram was created with ``reservoir_size=0``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._family.registry._lock:
            if self._reservoir is None or self._rpos == 0:
                return float("nan")
            filled = self._reservoir[: min(self._rpos, self._reservoir.shape[0])]
            values = filled.copy()
        return float(np.percentile(values, 100.0 * q))


class MetricFamily:
    """Name + help + type + labelnames; owns one child per label combo."""

    kind = ""
    child_cls: type = _Child

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        **options,
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.options = options
        self._children: "OrderedDict[Tuple[str, ...], _Child]" = OrderedDict()
        if not labelnames:
            self._children[()] = self.child_cls(self, {})

    def labels(self, **labelvalues: object) -> _Child:
        if tuple(sorted(labelvalues)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self.registry._lock:
            child = self._children.get(key)
            if child is None:
                child = self.child_cls(self, dict(zip(self.labelnames, key)))
                self._children[key] = child
        return child

    def _default(self) -> _Child:
        if self.labelnames:
            raise ValueError(
                f"{self.name} declares labels {self.labelnames}; "
                f"call .labels(...) first"
            )
        return self._children[()]

    # Convenience pass-throughs for label-less families --------------------
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set_function(self, fn: Callable[[], float]):
        return self._default().set_function(fn)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self):
        return self._default().value


class CounterForFamily(MetricFamily):
    kind = "counter"
    child_cls = Counter


class GaugeFamily(MetricFamily):
    kind = "gauge"
    child_cls = Gauge


class HistogramFamily(MetricFamily):
    kind = "histogram"
    child_cls = Histogram

    def __init__(self, registry, name, help, labelnames, **options) -> None:
        buckets = tuple(float(b) for b in options.pop(
            "buckets", DEFAULT_LATENCY_BUCKETS
        ))
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be a sorted sequence of distinct bounds")
        if math.isinf(buckets[-1]):
            buckets = buckets[:-1]  # +Inf is implicit
        self.buckets = buckets
        self.reservoir_size = int(options.pop("reservoir_size", 1024))
        super().__init__(registry, name, help, labelnames, **options)

    def quantile(self, q: float) -> float:
        return self._default().quantile(q)

    def bucket_counts(self) -> "OrderedDict[float, int]":
        return self._default().bucket_counts()

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum


class MetricsRegistry:
    """Thread-safe home for every metric a process exposes.

    One registry per deployment unit: :class:`repro.serving.PredictionServer`
    creates one and shares it with its engine so ``/metrics`` is a single
    consistent scrape.  Families are get-or-create — asking
    for an existing name with a matching type returns the same family, a
    mismatched type raises.
    """

    def __init__(self) -> None:
        # RLock: gauge callbacks evaluated during collection may read
        # other metrics from this same registry.
        self._lock = threading.RLock()
        self._families: "OrderedDict[str, MetricFamily]" = OrderedDict()

    # -- family constructors -------------------------------------------
    def _get_or_create(
        self, cls: type, name: str, help: str,
        labelnames: Sequence[str], **options,
    ) -> MetricFamily:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls) or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames}"
                    )
                return family
            family = cls(self, name, help, labelnames, **options)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
    ) -> CounterForFamily:
        return self._get_or_create(CounterForFamily, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
    ) -> GaugeFamily:
        return self._get_or_create(GaugeFamily, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        reservoir_size: int = 1024,
    ) -> HistogramFamily:
        return self._get_or_create(
            HistogramFamily, name, help, labelnames,
            buckets=buckets, reservoir_size=reservoir_size,
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    # -- collection ------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Point-in-time, JSON-safe view of every metric.

        Taken under the registry lock, so no mutation interleaves between
        two metrics' reads — related counters are always consistent with
        each other in one snapshot.
        """
        out: Dict[str, object] = {}
        with self._lock:
            for name, family in self._families.items():
                series: List[Dict[str, object]] = []
                for child in family._children.values():
                    if isinstance(child, Histogram):
                        running = 0
                        buckets = []
                        for bound, n in zip(child._bounds, child._counts):
                            running += n
                            buckets.append([bound, running])
                        buckets.append(["+Inf", running + child._counts[-1]])
                        series.append({
                            "labels": child.labels_dict,
                            "count": child._count,
                            "sum": child._sum,
                            "buckets": buckets,
                        })
                    else:
                        series.append({
                            "labels": child.labels_dict,
                            "value": child._read(),
                        })
                out[name] = {
                    "type": family.kind, "help": family.help, "values": series,
                }
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        return render_snapshot_prometheus(self.snapshot())


class CounterBank(MutableMapping):
    """Dict-compatible facade over per-key registry metrics.

    The serving stack grew up around plain ``stats`` dicts
    (``stats["unk_values"] += 1``); scorers and tests still speak that
    dialect.  A bank keeps the mapping interface but stores every key in
    the shared :class:`MetricsRegistry` as ``<prefix>_<key>_total`` (or a
    gauge for keys named in ``gauges`` — e.g. high-water marks), so the
    same numbers appear on ``/metrics`` without a second bookkeeping path.

    ``snapshot()`` reads all keys under one registry lock — the locked,
    consistent view ``/healthz`` serves.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        prefix: str,
        labels: Optional[Dict[str, str]] = None,
        gauges: Iterable[str] = (),
        help_map: Optional[Dict[str, str]] = None,
    ) -> None:
        self.registry = registry
        self._prefix = prefix
        self._labels = dict(labels or {})
        self._gauge_keys = frozenset(gauges)
        self._help_map = dict(help_map or {})
        self._children: "OrderedDict[str, _Child]" = OrderedDict()

    def _materialize(self, key: str) -> _Child:
        child = self._children.get(key)
        if child is None:
            labelnames = tuple(self._labels)
            if key in self._gauge_keys:
                family = self.registry.gauge(
                    f"{self._prefix}_{key}", self._help_map.get(key, ""),
                    labelnames,
                )
            else:
                family = self.registry.counter(
                    f"{self._prefix}_{key}_total", self._help_map.get(key, ""),
                    labelnames,
                )
            child = family.labels(**self._labels) if labelnames else family._default()
            self._children[key] = child
        return child

    def __getitem__(self, key: str):
        child = self._children.get(key)
        if child is None:
            raise KeyError(key)
        return child.value

    def __setitem__(self, key: str, value) -> None:
        self._materialize(key).set_(float(value))

    def __delitem__(self, key: str) -> None:
        del self._children[key]

    def __iter__(self):
        return iter(list(self._children))

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"CounterBank({dict(self)!r})"

    def snapshot(self) -> Dict[str, float]:
        """All keys read atomically under the registry lock."""
        with self.registry._lock:
            return {key: self._children[key].value for key in self._children}
