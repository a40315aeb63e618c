"""Cross-process metrics aggregation for scale-out serving.

A multi-worker deployment has one :class:`~repro.obs.MetricsRegistry` *per
worker process* — registries are in-memory objects and do not span
processes.  The front door therefore collects each worker's JSON-safe
:meth:`~repro.obs.MetricsRegistry.snapshot` over the worker protocol and
merges them into a single exposition so ``GET /metrics`` stays one scrape
for the whole fleet:

* **counters** and **histograms** are *summed* across workers per
  (name, labels) series — the Prometheus-correct aggregation for both
  (histogram bucket counts, ``_sum`` and ``_count`` are all counters);
* **gauges** are *not* summed (a per-worker cache-hit *rate* summed
  across four workers is meaningless): each worker's gauge series is
  tagged with that worker's identity labels (``worker="2"``), keeping the
  per-process values visible and the series honest.

Each family keeps the ``help`` text its snapshot carries, and
:func:`~repro.obs.registry.render_snapshot_prometheus` — the renderer
:meth:`~repro.obs.MetricsRegistry.render_prometheus` uses too — turns the
merged snapshot back into exposition text, so the front door can splice
worker metrics next to its own registry's rendering.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

#: snapshot schema:
#: {name: {"type": kind, "help": text, "values": [series, ...]}}
Snapshot = Dict[str, Dict[str, object]]


def _series_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _merge_buckets(
    into: "OrderedDict[object, float]", buckets: Sequence[Sequence[object]]
) -> None:
    for bound, cumulative in buckets:
        into[bound] = into.get(bound, 0.0) + float(cumulative)


def merge_snapshots(
    snapshots: Sequence[Snapshot], gauge_labels: Sequence[Dict[str, str]],
) -> Snapshot:
    """Merge per-process registry snapshots into one fleet-wide snapshot.

    ``gauge_labels`` supplies one extra-label dict per snapshot (e.g.
    ``[{"worker": "0"}, {"worker": "1"}]``); gauge series are tagged with
    it rather than summed.
    """
    if len(gauge_labels) != len(snapshots):
        raise ValueError("gauge_labels must align 1:1 with snapshots")
    merged: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    for i, snapshot in enumerate(snapshots):
        for name, family in snapshot.items():
            kind = str(family.get("type", "gauge"))
            out = merged.setdefault(name, {
                "type": kind,
                "help": str(family.get("help", "")),
                "series": OrderedDict(),
            })
            if out["type"] != kind:
                continue  # name collision across kinds: first writer wins
            for series in family.get("values", ()):
                labels = dict(series.get("labels", {}))
                if kind == "gauge":
                    labels.update(gauge_labels[i])
                key = _series_key(labels)
                slot = out["series"].get(key)
                if "buckets" in series:  # histogram
                    if slot is None:
                        slot = {
                            "labels": labels,
                            "count": 0.0,
                            "sum": 0.0,
                            "buckets": OrderedDict(),
                        }
                        out["series"][key] = slot
                    slot["count"] += float(series.get("count", 0))
                    slot["sum"] += float(series.get("sum", 0.0))
                    _merge_buckets(slot["buckets"], series["buckets"])
                else:
                    value = float(series.get("value", 0.0))
                    if slot is None:
                        out["series"][key] = {"labels": labels, "value": value}
                    else:
                        slot["value"] += value
    # Re-shape to the registry snapshot schema (values as a list).
    result: Snapshot = OrderedDict()
    for name, family in merged.items():
        values: List[Dict[str, object]] = []
        for slot in family["series"].values():
            if "buckets" in slot:
                values.append({
                    "labels": slot["labels"],
                    "count": slot["count"],
                    "sum": slot["sum"],
                    "buckets": [
                        [bound, cumulative]
                        for bound, cumulative in slot["buckets"].items()
                    ],
                })
            else:
                values.append({"labels": slot["labels"], "value": slot["value"]})
        result[name] = {
            "type": family["type"], "help": family["help"], "values": values,
        }
    return result

