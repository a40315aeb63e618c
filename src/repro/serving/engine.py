"""Formulation-agnostic inductive inference over frozen training state.

The transductive pipelines score exactly the rows they were trained on.
:class:`InferenceEngine` closes the train/serve gap for every servable
formulation by delegating to the scorer the artifact's fitted formulation
provides (:meth:`~repro.formulations.FittedFormulation.make_scorer`):

* **instance** — unseen rows are preprocessed with the artifact's frozen
  statistics, linked into the frozen training pool via retrieval
  (PET-style, survey Sec. 4.2.4), and scored by the compiled plan: the
  pool's per-layer activations are folded in once, each request computes
  only the B query rows — O(B·k·d), independent of pool size, for every
  network in the zoo.  The full-graph rebuild is kept purely as a
  correctness oracle (``compiled=False``); the two paths agree to
  floating-point round-off.
* **feature** — the feature-graph model is row-wise by construction; rows
  are tokenized with the frozen field statistics and scored directly.
* **multiplex / hetero** — unseen rows attach to *frozen value nodes* by
  vocabulary lookup: the artifact carries, per column, the mapping from
  value codes to pool value-node state (with binned numerical columns
  re-binned through the frozen quantile edges).  Never-seen values land in
  the UNK bucket (counted in ``stats["unk_values"]``) and still produce
  valid predictions; the vocabulary never grows at serve time.
* **hypergraph** — each unseen row attaches as a *new hyperedge* over the
  frozen value nodes: the artifact carries the incidence structure and the
  frozen row→value-node encoder, the compiled plan folds the value-node
  states in once, and a query is the degree-normalized mean of its member
  nodes' states — O(B·n_features·d), independent of the training-table
  size, with the attached full-graph forward kept as the parity oracle
  (``compiled=False``).

Every formulation has exactly one fast path, the compiled plan, and one
oracle: the training model's autograd forward over the frozen pool with
the query rows appended as receive-only nodes (``compiled=False``).

The engine itself is formulation-blind: it validates rows, handles the
LRU prediction cache and stats, and softmaxes whatever logits the scorer
returns.  Registering a new formulation therefore requires no engine
edits.

Repeated rows are memoized in a bounded LRU cache keyed on the raw row
bytes, so hot rows (the head of a production traffic distribution) skip
the forward pass entirely.  Cached probability arrays are marked
read-only before they are stored, so a caller mutating a returned array
cannot silently corrupt the cache.  Batch scoring deduplicates rows
*within* the batch as well, so a skewed batch pays one forward row per
distinct row.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import NULL_CONTEXT
from repro.serving.artifact import ModelArtifact
from repro.tensor.ops import softmax_rows

#: Engine counter keys, pre-seeded so ``stats`` always carries them in a
#: stable order (scorers add their own, e.g. ``unk_values``).
_STAT_KEYS = ("rows", "cache_hits", "forward_passes", "forward_rows")

#: Stage-span sampling rate: the first request and every 32nd after it are
#: traced through the per-stage spans.
_TRACE_EVERY = 32

_STAT_HELP = {
    "rows": "Rows submitted for scoring.",
    "cache_hits": "Rows served from the LRU prediction cache.",
    "forward_passes": "Vectorized scorer forward passes.",
    "forward_rows": "Distinct rows scored by forward passes.",
    "unk_values": "Lookups that landed in the UNK bucket.",
    "attach_edges": "Pool attach edges created for query rows.",
    "retrieval_probed_cells": "IVF cells probed by approximate retrieval.",
    "retrieval_candidates": "Candidate rows re-ranked by approximate retrieval.",
}


class InferenceEngine:
    """Score unseen rows against a :class:`~repro.serving.ModelArtifact`.

    Parameters
    ----------
    artifact:
        The frozen pipeline to serve.
    cache_size:
        Maximum number of distinct rows memoized in the LRU prediction
        cache; ``0`` disables caching.
    registry:
        A shared :class:`~repro.obs.MetricsRegistry` to report into (the
        prediction server passes its own so one ``/metrics`` scrape covers
        server and engine); ``None`` creates a private one.
    observability:
        ``False`` strips every metric/span and no registry exists.  The
        serving bench uses this to measure instrumentation overhead (kept
        < 5% of single-row p50).  Stage spans are sampled: the first
        request and every 32nd (``_TRACE_EVERY``) after it are
        traced through the per-stage spans; the others pay only the
        (always-on) end-to-end histogram.  Sampling is what keeps
        instrumentation inside the < 5% overhead budget — the
        request-latency histogram stays exact because it never samples.
    compiled:
        ``True`` (default) serves the compiled plan
        (:mod:`repro.serving.compiled`), lowered once at construction:
        pure-numpy kernels that each return a new array, no autograd on
        the hot path, pool-side work folded into compile-time
        constants, so a request costs O(B·k·d) / O(B·columns·d).  A
        built-in formulation whose model does not lower raises
        :class:`~repro.serving.compiled.UnsupportedPlanError` here rather
        than serve slower; plug-in formulations without a compiled path
        serve through their own scorer.  ``False`` builds the
        formulation's autograd oracle instead: the training model's
        forward over the frozen pool with the query rows appended as
        receive-only nodes, O(pool) per request — the reference the
        compiled plan is tested against.  ``self.compiled`` reports
        whether the plan serves and ``self.compile_ms`` its one-time build
        cost: the model build, the pool forward folded into the plan's
        constants and the lowering.
    index / nprobe:
        Retrieval-index selection for formulations that attach queries by
        pool retrieval (the instance formulation): ``index="exact"`` keeps
        the exhaustive scan, ``index="ivf"`` serves the sub-linear
        inverted-file index with ``nprobe`` probed cells per query (see
        :mod:`repro.construction.retrieval`).  ``None`` (default) defers
        to the artifact config (``config["index"]``/``config["nprobe"]``),
        falling back to exact — so existing artifacts serve bit-identically.
        Explicit values are refused with ``ValueError`` when the
        formulation's scorer takes no ``index`` argument (nothing to
        retrieve from), and an artifact whose ``config["metric"]`` the
        index cannot rank raises ``ValueError`` naming it.
        ``self.index`` reports the backend, ``self.nprobe`` the cells the
        IVF probes (8 unless set; ``None`` for exact),
        ``self.index_build_ms`` the one-time build cost; the
        ``repro_engine_retrieval_*`` counters and the sampled
        ``repro_engine_retrieval_recall`` gauge land in the registry when
        the IVF serves.

    Notes
    -----
    Cache hits return the stored array itself (no copy, no forward pass);
    cached arrays are marked read-only so accidental mutation raises
    instead of corrupting the cache.  The engine is thread-safe: a lock
    serializes scoring.  All ``stats`` mutations happen while that lock is
    held, so :meth:`snapshot` (which takes it) returns a view in which
    related counters are consistent — e.g. ``cache_hits + forward_rows``
    always accounts for every single-row predict.  :meth:`predict` and
    :meth:`predict_batch` share one scoring core; within one batch the
    cache is read before it is filled, so a fresh row repeated in the
    batch counts in ``rows`` only.

    Observability (when enabled): end-to-end latency lands in the
    ``repro_request_duration_seconds{formulation,endpoint}`` histogram
    (every request); sampled requests are traced through the
    ``cache → score(encode → attach → plan_execute) → head`` stages
    (``repro_stage_duration_seconds{formulation,stage}``): the engine
    opens ``score`` around the scorer's ``score`` call, and the scorer
    marks its own stages inside it with
    :meth:`~repro.formulations.RowScorer.stage`; an oracle engine's
    forward runs inside ``score`` with no stage of its own.
    ``stats`` stays a plain dict — mutated only under the engine lock, so
    increments cost the same as before instrumentation — and is exported
    to the registry through collection-time callbacks
    (``repro_engine_<key>_total``); drift gauges — UNK-hit rate, cache
    hit rate, pool-attach fan-out — are derived the same way.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        cache_size: int = 256,
        registry: Optional[MetricsRegistry] = None,
        observability: bool = True,
        compiled: bool = True,
        index: Optional[str] = None,
        nprobe: Optional[int] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.artifact = artifact
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[bytes, bytes], np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        if observability:
            self.registry = registry if registry is not None else MetricsRegistry()
            self._init_observability()
        else:
            self.registry = None
            self._tracer = None
            self._request_hists = {}
        make_scorer = artifact.fitted.make_scorer
        scorer_kwargs = {}
        if index is not None or nprobe is not None:
            # Plug-in formulations keep the 2-argument make_scorer
            # signature; only pass index kwargs where they are understood,
            # and refuse explicit requests a formulation cannot honor.
            params = inspect.signature(make_scorer).parameters
            accepts_index = "index" in params or any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
            )
            if not accepts_index:
                raise ValueError(
                    f"formulation {artifact.formulation!r} does not retrieve "
                    "from a pool; index/nprobe selection does not apply"
                )
            scorer_kwargs = {"index": index, "nprobe": nprobe}
        self._scorer = make_scorer(artifact, self.stats, **scorer_kwargs)
        #: live retrieval-index backend ("exact"/"ivf"), or None for
        #: formulations that do not retrieve from a pool.
        self.index: Optional[str] = getattr(self._scorer, "index", None)
        self.nprobe: Optional[int] = getattr(self._scorer, "nprobe", None)
        self.index_build_ms = float(getattr(self._scorer, "index_build_ms", 0.0))
        self.compiled = False
        self.compile_ms = 0.0
        if compiled:
            # Imported here: the front door of a forked fleet imports this
            # module but never lowers a plan.
            from repro.serving.compiled import UnsupportedPlanError

            started = time.perf_counter()
            try:
                self._scorer.plan = self._scorer.compile_plan()
            except UnsupportedPlanError as exc:
                raise UnsupportedPlanError(
                    f"the {artifact.formulation!r} query path does not lower "
                    f"to a compiled plan ({exc}); InferenceEngine(..., "
                    "compiled=False) serves its autograd oracle"
                ) from exc
            self.compile_ms = (time.perf_counter() - started) * 1000.0
            self.compiled = self._scorer.plan is not None
        if self._tracer is not None:
            self._scorer.bind_tracer(self._tracer)
            # The scorer's __init__ has now setdefault'ed its own keys
            # (unk_values, attach_edges, …); export the complete set.
            self._export_stats()

    def _init_observability(self) -> None:
        labels = {"formulation": str(self.artifact.formulation)}
        self._labels = labels
        self._trace_tick = itertools.count()
        self._tracer = Tracer(self.registry, const_labels=labels)
        family = self.registry.histogram(
            "repro_request_duration_seconds",
            "End-to-end engine request latency.",
            labelnames=("formulation", "endpoint"),
        )
        self._request_hists = {
            endpoint: family.labels(endpoint=endpoint, **labels)
            for endpoint in ("predict", "predict_batch")
        }

    def _export_stats(self) -> None:
        """Expose the ``stats`` dict on the registry via callbacks.

        The hot path keeps mutating a plain dict under the engine lock
        (one dict ``+=`` per counter — the cheapest thing Python offers);
        the registry reads the live values only at collection time, the
        same custom-collector idiom real Prometheus clients use for
        counters owned by existing code.
        """
        labels = self._labels
        stats = self.stats
        for key in stats:
            self.registry.counter(
                f"repro_engine_{key}_total", _STAT_HELP.get(key, ""),
                labelnames=("formulation",),
            ).labels(**labels).set_function(lambda k=key: stats[k])

        def _rate(num: str, den: str):
            def compute() -> float:
                total = stats.get(den, 0)
                return stats.get(num, 0) / total if total else 0.0
            return compute

        # Drift gauges, derived at collection time from the live counters:
        # UNK-hit rate rising means the frozen vocabulary is aging out of
        # the traffic; cache-hit rate falling means the hot-row set moved;
        # attach fan-out is the pool linkage the average query still finds.
        self.registry.gauge(
            "repro_engine_unk_rate",
            "UNK-bucket lookups per scored row (drift signal).",
            labelnames=("formulation",),
        ).labels(**labels).set_function(_rate("unk_values", "rows"))
        self.registry.gauge(
            "repro_engine_cache_hit_rate",
            "LRU cache hits per scored row.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(_rate("cache_hits", "rows"))
        self.registry.gauge(
            "repro_engine_attach_fanout",
            "Pool attach edges per forward-scored row.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(_rate("attach_edges", "forward_rows"))
        self.registry.gauge(
            "repro_engine_cache_entries",
            "Rows currently memoized in the LRU cache.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(lambda: len(self._cache))
        self.registry.gauge(
            "repro_engine_compiled",
            "1 when the compiled plan serves the hot path, 0 otherwise.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(
            lambda: 1.0 if self.compiled else 0.0
        )
        scorer = self._scorer
        if getattr(scorer, "retrieval_recall", None) is not None:
            self.registry.gauge(
                "repro_engine_retrieval_recall",
                "Sampled recall@k of the approximate retrieval index "
                "against the exact scan.",
                labelnames=("formulation",),
            ).labels(**labels).set_function(
                lambda: float(scorer.retrieval_recall)
            )

    # ------------------------------------------------------------------
    def _root_span(self, name: str):
        """A sampled request-level span (the first request always traces,
        then one in every ``_TRACE_EVERY``)."""
        if self._tracer is not None and not (
            next(self._trace_tick) % _TRACE_EVERY
        ):
            return self._tracer.span(name)
        return NULL_CONTEXT

    def _span(self, name: str):
        """A stage span — records only inside a sampled request
        (:meth:`Tracer.stage`)."""
        tracer = self._tracer
        if tracer is None:
            return NULL_CONTEXT
        return tracer.stage(name)

    def _observe_request(self, endpoint: str, started: float) -> None:
        hist = self._request_hists.get(endpoint)
        if hist is not None:
            hist.observe(time.perf_counter() - started)

    def snapshot(self) -> Dict[str, float]:
        """Locked, consistent copy of the engine counters.

        Taken under the engine lock — the same lock every predict mutates
        ``stats`` under — so no in-flight request can tear the view
        (``/healthz`` reads this, never the live dict).
        """
        with self._lock:
            return dict(self.stats)

    @staticmethod
    def merge_snapshots(snapshots) -> Dict[str, float]:
        """Sum per-process engine counter snapshots into fleet totals.

        Engine stats are all monotonic counters, so summation is the
        correct cross-worker aggregation — the scale-out front door uses
        this to report one fleet-wide ``engine`` block on ``/healthz``.
        """
        merged: Dict[str, float] = {}
        for snap in snapshots:
            for key, value in snap.items():
                merged[key] = merged.get(key, 0.0) + float(value)
        return merged

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return self.artifact.num_classes

    # ------------------------------------------------------------------
    def _score_rows(
        self,
        endpoint: str,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray],
    ) -> List[np.ndarray]:
        """Read-only (C,) class probabilities per raw row, for both
        endpoints: cached rows come from the LRU, the *distinct* misses
        share one forward pass and enter it."""
        started = time.perf_counter()
        # Validated before the sampling decision, so a malformed request
        # cannot use up a trace sample.
        numerical, categorical = self.artifact.preprocessor.normalize_rows(
            numerical, categorical
        )
        n = numerical.shape[0]
        if n != 1 and endpoint == "predict":
            raise ValueError("predict scores one row; use predict_batch")
        cache = self._cache
        keys = []
        out = []  # per row: its cached probabilities, None on a miss
        # the misses, in first-seen order: each distinct key's first row,
        # then its probabilities
        fresh: Dict[Tuple[bytes, bytes], object] = {}
        with self._root_span(endpoint), self._lock:
            self.stats["rows"] += n
            with self._span("cache"):
                hits = 0
                for i in range(n):
                    key = (numerical[i].tobytes(), categorical[i].tobytes())
                    cached = cache.get(key)
                    if cached is None:
                        fresh.setdefault(key, i)
                    else:
                        cache.move_to_end(key)
                        hits += 1
                    keys.append(key)
                    out.append(cached)
                self.stats["cache_hits"] += hits
            if fresh:
                if len(fresh) < n:
                    rows = list(fresh.values())
                    numerical, categorical = numerical[rows], categorical[rows]
                with self._span("score"):
                    logits = self._scorer.score(numerical, categorical)
                self.stats["forward_passes"] += 1
                self.stats["forward_rows"] += len(fresh)
                with self._span("head"):
                    probs = softmax_rows(logits, axis=1)
                # Rows of this array end up in the LRU cache and are
                # returned by reference; freeze them so caller mutation
                # raises instead of corrupting cached entries.
                probs.flags.writeable = False
                for key, row in zip(fresh, probs):
                    fresh[key] = row
                for i in range(n):
                    if out[i] is None:
                        out[i] = fresh[keys[i]]
                if self.cache_size:
                    cache.update(fresh)
                    while len(cache) > self.cache_size:
                        cache.popitem(last=False)
        self._observe_request(endpoint, started)
        return out

    def predict_batch(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(B, C) class probabilities for a batch of raw rows.

        A new, writable array: rows served from the cache are copied in.
        """
        rows = self._score_rows("predict_batch", numerical, categorical)
        return np.stack(rows) if rows else np.empty((0, self.num_classes))

    def predict(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(C,) class probabilities for one raw row.

        A cache hit returns the stored (read-only) array itself — no
        forward pass.  More than one row raises ``ValueError`` before
        anything is counted.
        """
        return self._score_rows("predict", numerical, categorical)[0]
