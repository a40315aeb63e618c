"""Micro-batching: coalesce single-row requests into vectorized batches.

Per-row inference pays the full fixed cost of a forward pass — for the
instance formulation that includes retrieval against the pool and building
the induced (pool + queries) graph — for every single row.  Numpy
vectorization makes the *marginal* row nearly free, so throughput under
concurrent single-row traffic is won by coalescing: the
:class:`MicroBatcher` queues incoming rows and flushes one engine call per
batch, bounded by ``max_batch_size`` rows or ``max_delay_ms`` of waiting,
whichever comes first.

The batcher owns one consumer thread; producers (caller threads,
benchmark workers) block in :meth:`submit` until their row's probabilities
arrive.  ``bench_serving_throughput.py`` measures the resulting speedup.
The HTTP server does not batch: it scores each request as it arrives.

Observability: when the engine carries a metrics registry (or one is
passed explicitly) the batcher reports queue-wait and batch-size
histograms plus live queue-depth / in-flight gauges — the numbers that
tell an operator whether latency is spent *waiting to batch* or
*scoring*.  :meth:`flush` drains all in-flight rows.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Dict, Optional

import numpy as np

from repro.obs import SIZE_BUCKETS, CounterBank, MetricsRegistry
from repro.serving.engine import InferenceEngine


@dataclasses.dataclass
class _Request:
    numerical: np.ndarray
    categorical: np.ndarray
    submitted: float = 0.0
    done: threading.Event = dataclasses.field(default_factory=threading.Event)
    result: Optional[np.ndarray] = None
    error: Optional[BaseException] = None


class MicroBatcher:
    """Coalesce concurrent single-row requests into engine batch calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.InferenceEngine` that scores batches.
    max_batch_size:
        Flush as soon as this many rows are queued.
    max_delay_ms:
        Flush a partial batch after the *first* queued row has waited this
        long — bounds the latency cost a row pays for batching.
    registry:
        Metrics registry to report into; defaults to the engine's own
        (pass ``None`` on an observability-disabled engine for the legacy
        plain-dict behavior).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_size: int = 32,
        max_delay_ms: float = 2.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay_ms / 1000.0
        self.registry = registry if registry is not None else engine.registry
        if self.registry is not None:
            self.stats = CounterBank(
                self.registry, "repro_batcher",
                gauges=("largest_batch",),
                help_map={
                    "batches": "Coalesced batches flushed to the engine.",
                    "rows": "Rows scored through the batcher.",
                    "largest_batch": "Largest batch coalesced so far.",
                },
            )
            self._queue_wait = self.registry.histogram(
                "repro_batcher_queue_wait_seconds",
                "Time a row waits between submit and its batch flushing.",
            )
            self._batch_sizes = self.registry.histogram(
                "repro_batcher_batch_size",
                "Rows per coalesced engine call.",
                buckets=SIZE_BUCKETS,
            )
            self.registry.gauge(
                "repro_batcher_queue_depth",
                "Rows currently queued awaiting a batch.",
            ).set_function(self._qsize)
            self.registry.gauge(
                "repro_batcher_in_flight",
                "Rows submitted but not yet answered.",
            ).set_function(lambda: self._pending)
        else:
            self.stats = {}
            self._queue_wait = None
            self._batch_sizes = None
        for key in ("batches", "rows", "largest_batch"):
            self.stats.setdefault(key, 0)
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue()
        self._closed = False
        self._submit_lock = threading.Lock()
        #: rows submitted whose response has not been delivered yet;
        #: guarded by ``_drained`` so :meth:`flush` can wait on it.
        self._pending = 0
        self._drained = threading.Condition()
        self._worker = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._worker.start()

    def _qsize(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    def submit(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Block until this row's ``(C,)`` probabilities are available.

        Rows are validated *here*, in the caller's thread, so a malformed
        row fails its own caller instead of poisoning the coalesced batch
        it would have joined.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        num, cat = self.engine.artifact.preprocessor.normalize_rows(
            numerical, categorical
        )
        request = _Request(
            numerical=num[0], categorical=cat[0], submitted=time.perf_counter()
        )
        # The lock orders this put against close()'s sentinel: once close
        # has marked the batcher closed, no request can slip in behind the
        # sentinel and block its producer forever.
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            with self._drained:
                self._pending += 1
            self._queue.put(request)
        request.done.wait()
        if request.error is not None:
            raise request.error
        return request.result

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every row submitted so far has been answered.

        The drain hook a graceful engine/artifact hot-swap needs: stop
        admitting traffic upstream, ``flush()``, then switch.  Returns
        ``True`` once in-flight count reaches zero, ``False`` on timeout.
        """
        with self._drained:
            return self._drained.wait_for(
                lambda: self._pending == 0, timeout=timeout
            )

    def snapshot(self) -> Dict[str, float]:
        """Consistent copy of the batcher counters (all keys read under
        one registry lock when registry-backed)."""
        if isinstance(self.stats, CounterBank):
            return self.stats.snapshot()
        return dict(self.stats)

    def close(self) -> None:
        """Drain outstanding requests and stop the consumer thread."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is None:
                return
            batch = [first]
            deadline = time.monotonic() + self.max_delay
            while len(batch) < self.max_batch_size:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    break
                try:
                    item = self._queue.get(timeout=timeout)
                except queue.Empty:
                    break
                if item is None:
                    self._flush(batch)
                    return
                batch.append(item)
            self._flush(batch)

    def _finish(self, batch) -> None:
        with self._drained:
            self._pending -= len(batch)
            if self._pending == 0:
                self._drained.notify_all()

    def _flush(self, batch) -> None:
        if self._queue_wait is not None:
            now = time.perf_counter()
            for request in batch:
                self._queue_wait.observe(now - request.submitted)
        try:
            # submit() already validated and normalized every row (missing
            # categoricals became -1 "missing" codes), so mixed requests
            # coalesce into one well-formed rectangular batch.
            numerical = np.stack([r.numerical for r in batch])
            categorical = np.stack([r.categorical for r in batch])
            probs = self.engine.predict_batch(numerical, categorical)
        except BaseException as exc:  # propagate to every waiting producer
            for request in batch:
                request.error = exc
                request.done.set()
            self._finish(batch)
            return
        self.stats["batches"] += 1
        self.stats["rows"] += len(batch)
        self.stats["largest_batch"] = max(self.stats["largest_batch"], len(batch))
        if self._batch_sizes is not None:
            self._batch_sizes.observe(len(batch))
        for i, request in enumerate(batch):
            request.result = probs[i]
            request.done.set()
        self._finish(batch)
