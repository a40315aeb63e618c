"""Stdlib-only JSON-over-HTTP prediction server.

``python -m repro.serving --artifact model.npz`` (or the ``gnn4tdl-serve``
console script) serves a :class:`~repro.serving.ModelArtifact`:

* ``POST /predict`` — score rows.  The body is either one row::

      {"numerical": [0.1, 2.3], "categorical": [4, 0]}

  or a batch::

      {"rows": [{"numerical": [...], "categorical": [...]}, ...]}

  The response carries per-row class probabilities and argmax
  predictions.  NaN (or ``null``) marks a missing numerical value; a
  value that is not a JSON number, ``±Infinity`` and a categorical code
  with a fractional part are refused with a 400 naming the column.
* ``GET /healthz`` (or ``/health``) — liveness, which artifact serves
  (``artifact_generation``, ``artifact_sha``, formulation, compiled
  plan, retrieval index) and summed engine counters; ``workers`` and
  per-worker detail for forked deployments.
* ``GET /metrics`` — Prometheus text exposition for the whole deployment.
* ``POST /admin/reload`` — zero-downtime artifact hot swap (also SIGHUP).

One :mod:`selectors` event loop owns every socket and parses just enough
HTTP to route.  ``workers`` decides only where rows are scored:

* ``workers=0`` (the default): the loop calls an in-process engine
  directly through :func:`~repro.serving.scaleout.worker.handle_frame` —
  no fork, socketpair or extra thread on the request path.  The engine
  reports into the server's own registry, so ``/metrics`` is one
  registry.  Portable.
* ``workers=N``: N forked worker processes, each running the same
  ``handle_frame`` against a **memory-mapped, read-only** load of the
  artifact (N workers, one physical copy of the pool state).  The loop
  forwards the raw body over the frame protocol
  (:mod:`repro.serving.scaleout.protocol`), round-robin;
  ``/healthz`` sums the workers' engine counters and ``/metrics`` merges
  their registries (gauges tagged ``worker="i"``).  Worker death
  mid-request fails only the requests pinned to that worker (503).
  Linux/POSIX only.

Boot and hot swap are one state machine.  Generation 1 is booted exactly
like every reload: a new engine (built off the loop thread) or worker set
comes up *while the current generation keeps serving*, routing switches
only when all of it is ready, and the old generation drains — the FIFO
frame protocol answers every dispatched predict before the worker honors
its ``drain``.  A failed boot answers 500 and the old generation keeps
serving; a reload during a reload answers 409.

``/predict`` answers **503** with a structured JSON body while nothing is
ready to score (``lazy_init`` binds the port before generation 1 is up),
while every worker is dead, and while a shutdown drains.  Shutdown
(SIGTERM / Ctrl-C / :meth:`PredictionServer.shutdown`) stops accepting,
answers new requests with 503, and keeps the loop running until every
dispatched request is answered (or the drain deadline passes) before the
workers stop.

Every request can be access-logged as one structured JSON line (method,
path, status, latency_ms, rows) on the ``repro.serving.access`` logger —
enabled by ``access_log=True`` / the CLI's ``--log-level info``, and off
by default so embedded/test servers stay quiet.
"""

from __future__ import annotations

import argparse
import collections
import json
import logging
import os
import selectors
import signal
import socket
import threading
import time
from http import HTTPStatus
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import MetricsRegistry, merge_snapshots, render_snapshot_prometheus
from repro.serving.artifact import ModelArtifact, _paths
from repro.serving.engine import InferenceEngine
from repro.serving.scaleout.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.serving.scaleout.worker import (
    boot,
    execute_predict,
    handle_frame,
    worker_main,
)

__all__ = ["PredictionServer", "execute_predict", "main"]

#: structured JSON access-log lines go here; the CLI attaches a stderr
#: handler, embedded users attach their own (or leave it unhandled).
access_logger = logging.getLogger("repro.serving.access")

_MAX_HEADER_BYTES = 1 << 14
#: How much of an oversized (already-rejected) body is drained before the
#: socket closes — enough for any realistic over-limit client to have its
#: 413 delivered cleanly, bounded so a hostile stream cannot hold the
#: connection indefinitely.
_DRAIN_LIMIT = 1 << 25  # 32 MiB
#: a dispatched predict unanswered this long gets a 504
_REQUEST_TIMEOUT_S = 60.0
#: a health/metrics fan-out answers with what it has after this long
_FANOUT_TIMEOUT_S = 10.0
#: how long a shutdown waits for dispatched requests to be answered
_SHUTDOWN_DRAIN_S = 10.0

_UNAVAILABLE = {"status": "unavailable", "retriable": True}


def _content_length(values: set) -> Optional[int]:
    """The body length the request's ``Content-Length`` headers give, or
    ``None`` when they are invalid.

    A length is one run of ASCII digits: ``int()`` alone would take
    ``"-5"``, ``"+5"`` and ``"1_0"``, and a second, different header would
    silently win.  ``int()`` still refuses a run longer than the
    interpreter's digit limit, which the 16 KiB head admits.
    """
    if not values:
        return 0
    if len(values) > 1:
        return None
    (value,) = values
    if not (value.isascii() and value.isdigit()):
        return None
    try:
        return int(value)
    except ValueError:
        return None


def _resolve_artifact(path) -> Optional[str]:
    """Resolve a user-supplied artifact path the way ``ModelArtifact.load``
    does (``model`` / ``model.json`` → ``model.npz``); None if missing."""
    npz_path, _ = _paths(path)
    if not npz_path.exists():
        return None
    return os.path.abspath(str(npz_path))


class _Conn:
    """One client connection's parse/response state."""

    __slots__ = (
        "sock", "inbuf", "outbuf", "busy", "closed", "parsing",
        "close_after_write", "half_closed", "close_deadline", "discard",
        "expect_body", "req_method", "req_path", "req_keep_alive",
        "req_started", "req_rows",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.busy = False            # a dispatched request awaits a reply
        self.closed = False
        self.parsing = False         # _process_conn is on the stack
        self.close_after_write = False
        self.half_closed = False     # FIN sent, draining client bytes
        self.close_deadline = 0.0
        self.discard = 0             # oversized-body bytes left to consume
        self.expect_body = 0         # body bytes the parsed head announced
        self.req_method = ""
        self.req_path = ""
        self.req_keep_alive = True
        self.req_started = 0.0
        self.req_rows = 0


class _Worker:
    """Handle for one engine: a forked worker process (``proc``/``sock``),
    or the in-process engine (``unit``) of a ``workers=0`` server."""

    __slots__ = (
        "id", "proc", "sock", "unit", "generation", "decoder", "outbuf",
        "meta", "state", "pending",
    )

    def __init__(self, wid: int, proc, sock: Optional[socket.socket],
                 generation: int):
        self.id = wid
        self.proc = proc
        self.sock = sock
        self.unit = None
        self.generation = generation
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()
        self.meta: Dict[str, object] = {}
        self.state = "booting"  # booting | ready | draining | dead
        self.pending: set = set()


class _Fanout:
    """One in-flight health/metrics fan-out across the worker set."""

    __slots__ = ("op", "conn", "waiting", "replies", "deadline")

    def __init__(self, op: str, conn: Optional[_Conn], deadline: float):
        self.op = op
        self.conn = conn
        self.waiting: Dict[int, _Worker] = {}
        self.replies: List[Tuple[_Worker, Dict[str, object]]] = []
        self.deadline = deadline


class _Swap:
    """One in-flight boot of the next generation."""

    __slots__ = ("conn", "path", "new", "deadline")

    def __init__(self, conn: Optional[_Conn], path: Optional[str],
                 deadline: float):
        self.conn = conn
        self.path = path
        self.new: List[_Worker] = []
        self.deadline = deadline


class PredictionServer:
    """An HTTP event loop in front of an in-process engine (``workers=0``)
    or N forked worker processes (``workers=N``).

    ``artifact`` is a :class:`ModelArtifact` or the path of a saved one;
    forked workers map the file, so ``workers > 0`` needs an artifact on
    disk.  Construction boots generation 1 and waits for it, unless
    ``lazy_init``: then the port answers at once and ``/predict`` is 503
    until the engine is ready (:meth:`wait_ready`).  ``port=0`` binds an
    ephemeral port, available as :attr:`port`.  The server builds its own
    :attr:`registry` and shares it with the in-process engine.
    """

    def __init__(
        self,
        artifact: Union[ModelArtifact, str, os.PathLike],
        workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 8000,
        cache_size: int = 256,
        max_body_bytes: int = 1 << 20,
        access_log: bool = False,
        index: Optional[str] = None,
        nprobe: Optional[int] = None,
        lazy_init: bool = False,
        boot_timeout: float = 120.0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self._inline = workers == 0
        if self._inline and isinstance(artifact, ModelArtifact):
            source = artifact  # the in-process engine serves it as given
            path = artifact.source_path and str(artifact.source_path)
        else:
            if isinstance(artifact, ModelArtifact):
                artifact = artifact.source_path
            if artifact is None:
                raise ValueError(
                    "workers > 0 maps the artifact file: save() it first"
                )
            source = path = _resolve_artifact(artifact)
            if path is None:
                raise FileNotFoundError(f"artifact not found: {artifact}")
        self._artifact_path: Optional[str] = path
        self.max_body_bytes = int(max_body_bytes)
        self.access_log = bool(access_log)
        # Forked workers map the npz; the in-process engine loads eagerly,
        # so a default deployment never reads a file that changes under it.
        self._worker_options = {
            "cache_size": int(cache_size),
            "index": index,
            "nprobe": nprobe,
            "mmap": not self._inline,
        }
        self._boot_timeout = float(boot_timeout)

        self.registry = MetricsRegistry()
        self._http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests by method, route and status.",
            labelnames=("method", "path", "status"),
        )
        self._http_duration = self.registry.histogram(
            "repro_http_request_duration_seconds",
            "HTTP request handling latency by route.",
            labelnames=("path",),
        )
        self._rejected_oversize = self.registry.counter(
            "repro_http_rejected_oversize_total",
            "Requests refused with HTTP 413 (body over max_body_bytes).",
        )
        if self._inline:
            # Forked workers export their own generation gauge (merged
            # with a worker label); the in-process engine shares ours.
            self.registry.gauge(
                "repro_engine_artifact_generation",
                "Monotonic artifact generation serving predictions "
                "(bumps on each hot swap).",
            ).set_function(lambda: float(self._generation))
        else:
            self.registry.gauge(
                "repro_frontdoor_workers",
                "Worker processes currently accepting dispatches.",
            ).set_function(lambda: float(len(self._ready_workers())))

        self._sel = selectors.DefaultSelector()
        self._listen = socket.create_server((host, port), backlog=128)
        self._listen.setblocking(False)
        self._address = self._listen.getsockname()[:2]
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._sel.register(self._wake_recv, selectors.EVENT_READ, ("wake", None))

        self._workers: List[_Worker] = []
        self._retiring: List[_Worker] = []
        self._reap: List[_Worker] = []
        #: in-process boots that finished off the loop thread
        self._booted: collections.deque = collections.deque()
        self._next_worker_id = 0
        self._generation = 0
        self._artifact_sha: Optional[str] = None
        self._init_error: Optional[str] = None
        self._pending: Dict[int, Tuple[str, object]] = {}
        self._next_id = 0
        self._rr = 0
        self._swap: Optional[_Swap] = None
        self._draining = False
        self._stopping = False
        self._stop_at: Optional[float] = None
        self._reload_requested = False
        self._running = False
        self._done = threading.Event()
        self._closed = False
        self._close_lock = threading.Lock()

        try:
            self._start_swap(None, source, workers)
            if not lazy_init:
                while self._swap is not None:
                    self._poll()
                if not self._generation:
                    raise RuntimeError(
                        f"artifact failed to boot: {self._init_error}"
                    )
        except BaseException:
            self.close()
            raise
        self._sel.register(self._listen, selectors.EVENT_READ, ("listen", None))

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return int(self._address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def generation(self) -> int:
        return self._generation

    def artifact_summary(self) -> Dict[str, object]:
        """What the deployment serves, from its first engine's report."""
        meta = self._workers[0].meta if self._workers else {}
        return {
            "formulation": meta.get("formulation"),
            "network": meta.get("network"),
            "schema_version": meta.get("schema_version"),
            "pool_rows": meta.get("pool_rows"),
            "mmapped": meta.get("mmapped"),
            "workers": 0 if self._inline else len(self._workers),
        }

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until generation 1 serves (needs the loop running, see
        :meth:`start`); False on timeout or a failed boot."""
        deadline = time.monotonic() + timeout
        while not self._generation and self._swap is not None:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return bool(self._generation)

    def serve_forever(self) -> None:
        """Block serving requests until a shutdown has drained.  On the
        main thread, SIGHUP hot-swaps and SIGTERM / Ctrl-C start the drain
        (flags the loop acts on between requests, so an in-process request
        being scored is never interrupted)."""
        if threading.current_thread() is threading.main_thread():
            if hasattr(signal, "SIGHUP"):
                signal.signal(signal.SIGHUP, self._on_sighup)
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, self._on_stop_signal)
        self._running = True
        self._run()

    def start(self) -> "PredictionServer":
        """Serve on a background thread (tests / embedding)."""
        self._running = True
        threading.Thread(
            target=self._run, name="repro-serving", daemon=True
        ).start()
        return self

    def shutdown(self) -> None:
        """Graceful stop (thread-safe): stop accepting, answer new requests
        with 503, let dispatched ones finish (up to a deadline), then stop
        the workers and release every socket."""
        self._stopping = True
        self._wake()
        if self._running:
            self._done.wait(timeout=_SHUTDOWN_DRAIN_S + 5.0)
        elif not self._closed:
            self._run()

    def _run(self) -> None:
        """The event loop until a shutdown has drained, then release
        everything."""
        try:
            self._loop()
        finally:
            self.close()
            self._done.set()

    def close(self) -> None:
        """Release everything at once, without draining (see shutdown)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers + self._retiring + (
            self._swap.new if self._swap else []
        ):
            self._shutdown_worker(worker)
        for worker in self._reap:
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2)
        for conn in self._conns():
            try:
                conn.sock.close()
            except OSError:
                pass
        try:
            self._sel.close()
        except OSError:
            pass
        for sock in (self._listen, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass

    def _shutdown_worker(self, worker: _Worker) -> None:
        """Best-effort graceful worker stop: flush, drain, reap."""
        if worker.proc is None:
            worker.state = "dead"
            return
        try:
            worker.sock.setblocking(True)
            worker.sock.settimeout(2.0)
            if worker.outbuf:
                worker.sock.sendall(bytes(worker.outbuf))
                worker.outbuf.clear()
            if worker.state in ("ready", "booting"):
                worker.sock.sendall(encode_frame({"op": "drain"}))
            # Workers answer outstanding frames then exit; wait for EOF.
            while worker.sock.recv(1 << 16):
                pass
        except OSError:
            pass
        try:
            worker.sock.close()
        except OSError:
            pass
        worker.proc.join(timeout=3)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2)
        worker.state = "dead"

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass

    def _on_sighup(self, signum, frame) -> None:
        self._reload_requested = True
        self._wake()

    def _on_stop_signal(self, signum, frame) -> None:
        self._stopping = True
        self._wake()

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            if self._stopping:
                if self._stop_at is None:
                    self._begin_stop()
                if self._idle() or time.monotonic() >= self._stop_at:
                    return
            self._poll()

    def _poll(self, timeout: float = 0.2) -> None:
        for key, mask in self._sel.select(timeout):
            kind, obj = key.data
            if kind == "listen":
                self._on_accept()
            elif kind == "wake":
                try:
                    self._wake_recv.recv(1 << 10)
                except OSError:
                    pass
            elif kind == "conn":
                self._on_conn_event(obj, mask)
            elif kind == "worker":
                self._on_worker_event(obj, mask)
        self._tick()

    def _begin_stop(self) -> None:
        """Refuse new work with 503 and stop accepting — after taking in
        the connections already queued, which would otherwise be reset."""
        self._stop_at = time.monotonic() + _SHUTDOWN_DRAIN_S
        self._draining = True
        self._on_accept()
        try:
            self._sel.unregister(self._listen)
        except (KeyError, ValueError):
            pass
        self._listen.close()
        self._fail_swap("server is shutting down")
        self._poll(timeout=0.0)  # read what those connections already sent

    def _idle(self) -> bool:
        """Every dispatched request answered and every response written."""
        return not self._pending and not any(
            conn.outbuf or conn.inbuf or conn.expect_body
            for conn in self._conns()
        )

    def _conns(self) -> List[_Conn]:
        return [
            key.data[1] for key in self._sel.get_map().values()
            if key.data[0] == "conn"
        ]

    def _tick(self) -> None:
        now = time.monotonic()
        while self._booted:
            worker, header = self._booted.popleft()
            if worker.state == "booting":  # not failed in the meantime
                self._on_worker_frame(worker, header, b"")
        if self._reload_requested:
            self._reload_requested = False
            if self._swap is None and self._artifact_path is not None:
                self._start_swap(None, self._artifact_path, self._count())
        # Request timeouts → 504; fan-out timeouts → partial responses.
        expired = [
            rid for rid, (kind, obj) in self._pending.items()
            if kind == "predict" and obj[2] <= now
        ]
        for rid in expired:
            _, (conn, worker, _deadline) = self._pending.pop(rid)
            worker.pending.discard(rid)
            self._respond_json(conn, 504, {
                "error": "worker did not answer in time", **_UNAVAILABLE,
            })
        for fanout in list({
            obj for kind, obj in self._pending.values() if kind == "fanout"
        }):
            if fanout.deadline <= now:
                for rid in list(fanout.waiting):
                    self._pending.pop(rid, None)
                    fanout.waiting[rid].pending.discard(rid)
                fanout.waiting.clear()
                self._finish_fanout(fanout, partial=True)
        if self._swap is not None and self._swap.deadline <= now:
            self._fail_swap("the new generation did not become ready in time")
        # Half-closed clients past their drain deadline, reaped workers.
        for conn in self._conns():
            if conn.half_closed and conn.close_deadline <= now:
                self._close_conn(conn)
        for worker in list(self._reap):
            worker.proc.join(timeout=0)
            if not worker.proc.is_alive():
                self._reap.remove(worker)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def _on_accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except OSError:
                return
            sock.setblocking(False)
            conn = _Conn(sock)
            self._sel.register(sock, selectors.EVENT_READ, ("conn", conn))

    def _conn_events(self, conn: _Conn) -> None:
        if conn.closed:
            return
        events = selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        try:
            key = self._sel.get_key(conn.sock)
            if key.events != events:
                self._sel.modify(conn.sock, events, key.data)
        except KeyError:
            pass

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._sel.unregister(conn.sock)
        except KeyError:
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _flush(self, conn: _Conn) -> None:
        """Write what the socket takes now; once a closing response is
        out, close (or half-close, to drain a rejected body)."""
        try:
            sent = conn.sock.send(conn.outbuf)
            del conn.outbuf[:sent]
        except BlockingIOError:
            pass
        except OSError:
            self._close_conn(conn)
            return
        if not conn.outbuf and conn.close_after_write:
            if conn.discard > 0:
                # 413 path: FIN our side, then drain the remainder of the
                # oversized body so closing cannot RST the response out of
                # the client's receive buffer.
                try:
                    conn.sock.shutdown(socket.SHUT_WR)
                except OSError:
                    self._close_conn(conn)
                    return
                conn.half_closed = True
                conn.close_deadline = time.monotonic() + 2.0
            else:
                self._close_conn(conn)

    def _on_conn_event(self, conn: _Conn, mask: int) -> None:
        if mask & selectors.EVENT_WRITE and conn.outbuf:
            self._flush(conn)
            if conn.closed:
                return
        if mask & selectors.EVENT_READ:
            try:
                data = conn.sock.recv(1 << 16)
            except BlockingIOError:
                data = None
            except OSError:
                self._close_conn(conn)
                return
            if data == b"":
                self._close_conn(conn)
                return
            if data:
                if conn.discard > 0:
                    take = min(len(data), conn.discard)
                    conn.discard -= take
                    data = data[take:]
                    if conn.discard <= 0 and conn.half_closed:
                        self._close_conn(conn)
                        return
                if data:
                    conn.inbuf.extend(data)
        if not conn.closed:
            self._process_conn(conn)
            self._conn_events(conn)

    def _process_conn(self, conn: _Conn) -> None:
        """Parse as many complete requests as are buffered (stop while a
        dispatched request awaits its worker — responses stay ordered)."""
        if conn.parsing:  # re-entered from a response sent inline below
            return
        conn.parsing = True
        try:
            while not conn.closed and not conn.busy:
                if conn.expect_body:
                    if len(conn.inbuf) < conn.expect_body:
                        return
                    body = bytes(conn.inbuf[:conn.expect_body])
                    del conn.inbuf[:conn.expect_body]
                    conn.expect_body = 0
                    self._route(conn, body)
                    continue
                head_end = conn.inbuf.find(b"\r\n\r\n")
                if head_end < 0:
                    if len(conn.inbuf) > _MAX_HEADER_BYTES:
                        self._start_request(conn, "?", "?")
                        self._respond_json(
                            conn, 431, {"error": "request head too large"},
                            close=True,
                        )
                    return
                head = bytes(conn.inbuf[:head_end])
                del conn.inbuf[:head_end + 4]
                if not self._parse_head(conn, head):
                    return
        finally:
            conn.parsing = False

    def _parse_head(self, conn: _Conn, head: bytes) -> bool:
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            self._start_request(conn, "?", "?")
            self._respond_json(
                conn, 400, {"error": "malformed request line"}, close=True
            )
            return False
        headers = {}
        lengths = set()
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                name, value = name.strip().lower(), value.strip()
                headers[name] = value
                if name == "content-length":
                    lengths.add(value)
        self._start_request(conn, method, path)
        # HTTP/1.1 persists unless told to close; HTTP/1.0 only on request.
        tokens = {
            token.strip()
            for token in headers.get("connection", "").lower().split(",")
        }
        if version == "HTTP/1.1":
            conn.req_keep_alive = "close" not in tokens
        else:
            conn.req_keep_alive = (
                version == "HTTP/1.0" and "keep-alive" in tokens
            )
        if "chunked" in headers.get("transfer-encoding", "").lower():
            self._respond_json(
                conn, 501, {"error": "chunked bodies are not supported"},
                close=True,
            )
            return False
        length = _content_length(lengths)
        if length is None:
            self._respond_json(
                conn, 400, {"error": "invalid Content-Length header"},
                close=True,
            )
            return False
        if length > self.max_body_bytes:
            # Refuse before buffering: an oversized body is never held in
            # memory, and the connection closes so its remainder cannot be
            # misparsed as a follow-up request.
            conn.discard = min(length, _DRAIN_LIMIT)
            if conn.inbuf:
                take = min(len(conn.inbuf), conn.discard)
                del conn.inbuf[:take]
                conn.discard -= take
            self._respond_json(conn, 413, {
                "error": (
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit"
                )
            }, close=True)
            return False
        if length:
            conn.expect_body = length
            return True
        self._route(conn, b"")
        return True

    def _start_request(self, conn: _Conn, method: str, path: str) -> None:
        conn.req_method = method
        conn.req_path = path
        conn.req_started = time.perf_counter()
        conn.req_rows = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, conn: _Conn, body: bytes) -> None:
        method, path = conn.req_method, conn.req_path
        if method == "GET":
            if path in ("/healthz", "/health"):
                self._start_fanout(conn, "health")
            elif path == "/metrics":
                self._start_fanout(conn, "metrics")
            else:
                self._respond_json(
                    conn, 404, {"error": f"unknown path {path}"}
                )
        elif method == "POST":
            if path == "/predict":
                self._dispatch_predict(conn, body)
            elif path == "/admin/reload":
                self._reload(conn, body)
            else:
                self._respond_json(
                    conn, 404, {"error": f"unknown path {path}"}
                )
        else:
            self._respond_json(
                conn, 501, {"error": f"unsupported method {method}"}
            )

    def _dispatch_predict(self, conn: _Conn, body: bytes) -> None:
        if self._draining:
            self._respond_json(
                conn, 503, {"error": "server is draining", **_UNAVAILABLE}
            )
            return
        ready = self._ready_workers()
        if not ready:
            reason = self._init_error or (
                "no ready workers" if self._generation
                else "engine is initializing"
            )
            self._respond_json(conn, 503, {"error": reason, **_UNAVAILABLE})
            return
        worker = ready[self._rr % len(ready)]
        self._rr = (self._rr + 1) % len(ready)
        rid = self._next_id
        self._next_id += 1
        deadline = time.monotonic() + _REQUEST_TIMEOUT_S
        self._pending[rid] = ("predict", (conn, worker, deadline))
        worker.pending.add(rid)
        conn.busy = True
        self._send_to_worker(worker, {"id": rid, "op": "predict"}, body)

    def _start_fanout(self, conn: Optional[_Conn], op: str) -> None:
        targets = self._ready_workers()
        if op == "metrics" and self._inline:
            targets = []  # the in-process engine reports into our registry
        fanout = _Fanout(op, conn, time.monotonic() + _FANOUT_TIMEOUT_S)
        if not targets:
            self._finish_fanout(fanout, partial=True)
            return
        for worker in targets:
            rid = self._next_id
            self._next_id += 1
            self._pending[rid] = ("fanout", fanout)
            fanout.waiting[rid] = worker
            worker.pending.add(rid)
        for rid, worker in list(fanout.waiting.items()):
            self._send_to_worker(worker, {"id": rid, "op": op})

    def _ready_workers(self) -> List[_Worker]:
        return [w for w in self._workers if w.state == "ready"]

    def _count(self) -> int:
        """Engines a reload boots by default: 0 means in-process."""
        return 0 if self._inline else max(1, len(self._workers))

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _spawn_worker(self, source, generation: int) -> _Worker:
        wid = self._next_worker_id
        self._next_worker_id += 1
        options = dict(self._worker_options, worker=wid, generation=generation)
        if self._inline:
            worker = _Worker(wid, None, None, generation)
            threading.Thread(
                target=self._boot_inline, args=(worker, source, options),
                name=f"repro-boot-{generation}", daemon=True,
            ).start()
            return worker
        import multiprocessing  # only forked deployments pay for it

        parent_sock, child_sock = socket.socketpair()
        proc = multiprocessing.get_context("fork").Process(
            target=worker_main,
            args=(child_sock, source, options),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_sock.close()
        parent_sock.setblocking(False)
        worker = _Worker(wid, proc, parent_sock, generation)
        self._sel.register(parent_sock, selectors.EVENT_READ, ("worker", worker))
        return worker

    def _boot_inline(self, worker: _Worker, source, options) -> None:
        """Build an in-process engine off the loop thread; the loop takes
        the outcome as that engine's ``ready``/``error`` frame."""
        try:
            worker.unit = boot(source, options, registry=self.registry)
            header = dict(worker.unit.meta, op="ready")
        except Exception as exc:
            header = {"op": "error", "error": f"{type(exc).__name__}: {exc}"}
        self._booted.append((worker, header))
        self._wake()

    def _send_to_worker(
        self, worker: _Worker, header: Dict[str, object], body: bytes = b""
    ) -> None:
        if worker.unit is not None:  # in-process: answered on the spot
            reply, out = handle_frame(worker.unit, header, body)
            self._on_worker_frame(worker, reply, out)
            return
        worker.outbuf += encode_frame(header, body)
        events = selectors.EVENT_READ | selectors.EVENT_WRITE
        try:
            key = self._sel.get_key(worker.sock)
            if key.events != events:
                self._sel.modify(worker.sock, events, key.data)
        except KeyError:
            pass

    def _on_worker_event(self, worker: _Worker, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            if worker.outbuf:
                try:
                    sent = worker.sock.send(worker.outbuf)
                    del worker.outbuf[:sent]
                except BlockingIOError:
                    pass
                except OSError:
                    self._on_worker_death(worker)
                    return
            if not worker.outbuf:
                try:
                    key = self._sel.get_key(worker.sock)
                    self._sel.modify(
                        worker.sock, selectors.EVENT_READ, key.data
                    )
                except KeyError:
                    pass
        if mask & selectors.EVENT_READ:
            while True:
                try:
                    data = worker.sock.recv(1 << 16)
                except BlockingIOError:
                    break
                except OSError:
                    self._on_worker_death(worker)
                    return
                if not data:
                    self._on_worker_death(worker)
                    return
                worker.decoder.feed(data)
                if len(data) < (1 << 16):
                    break
            try:
                for header, body in worker.decoder.frames():
                    self._on_worker_frame(worker, header, body)
            except ProtocolError:
                self._on_worker_death(worker)

    def _on_worker_frame(
        self, worker: _Worker, header: Dict[str, object], body: bytes
    ) -> None:
        op = header.get("op")
        if op == "ready":
            worker.meta = header
            worker.state = "ready"
            self._check_swap()
            return
        if op == "error":
            if self._swap is not None and worker in self._swap.new:
                self._fail_swap(str(header.get("error", "worker boot failed")))
            else:
                self._on_worker_death(worker)
            return
        if op == "drained":
            self._release(worker)
            if worker in self._retiring:
                self._retiring.remove(worker)
            return
        rid = header.get("id")
        entry = self._pending.pop(rid, None)
        worker.pending.discard(rid)
        if entry is None:
            return  # timed out / connection gone
        kind, obj = entry
        if kind == "predict":
            conn = obj[0]
            conn.req_rows = int(header.get("rows", 0))
            self._respond(conn, int(header.get("status", 500)), body or b"{}")
        elif kind == "fanout":
            fanout = obj
            fanout.waiting.pop(rid, None)
            try:
                fanout.replies.append((worker, json.loads(body.decode() or "{}")))
            except (UnicodeDecodeError, ValueError):
                pass
            if not fanout.waiting:
                self._finish_fanout(fanout)

    def _release(self, worker: _Worker) -> None:
        """Forget a worker: stop watching its socket; reap its process."""
        if worker.state == "dead":
            return
        worker.state = "dead"
        if worker.sock is not None:
            try:
                self._sel.unregister(worker.sock)
            except (KeyError, ValueError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        if worker.proc is not None:
            self._reap.append(worker)

    def _on_worker_death(self, worker: _Worker) -> None:
        if worker.state == "dead":
            return
        expected = worker.state == "draining"
        self._release(worker)
        for rid in list(worker.pending):
            entry = self._pending.pop(rid, None)
            if entry is None:
                continue
            kind, obj = entry
            if kind == "predict":
                self._respond_json(obj[0], 503, {
                    "error": f"worker {worker.id} died mid-request",
                    **_UNAVAILABLE,
                })
            elif kind == "fanout":
                obj.waiting.pop(rid, None)
                if not obj.waiting:
                    self._finish_fanout(obj, partial=True)
        worker.pending.clear()
        if worker in self._workers:
            self._workers.remove(worker)
        if worker in self._retiring:
            self._retiring.remove(worker)
        if self._swap is not None and worker in self._swap.new and not expected:
            self._fail_swap(f"worker {worker.id} exited during boot")

    # ------------------------------------------------------------------
    # boot and hot swap
    # ------------------------------------------------------------------
    def _reload(self, conn: _Conn, body: bytes) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (UnicodeDecodeError, ValueError) as exc:
            self._respond_json(conn, 400, {"error": str(exc)})
            return
        if self._draining:
            self._respond_json(
                conn, 503, {"error": "server is draining", **_UNAVAILABLE}
            )
            return
        if self._swap is not None:
            self._respond_json(
                conn, 409, {"error": "a reload is already in progress"}
            )
            return
        requested = payload.get("artifact") or self._artifact_path
        if requested is None:
            self._respond_json(conn, 400, {
                "error": "no artifact to reload: pass {\"artifact\": path} "
                         "or serve an artifact that knows its source_path",
            })
            return
        path = _resolve_artifact(str(requested))
        if path is None:
            self._respond_json(
                conn, 400, {"error": f"artifact not found: {requested}"}
            )
            return
        count = payload.get("workers") or self._count()
        if type(count) is not int or count < 0 or (count == 0) != self._inline:
            self._respond_json(conn, 400, {
                "error": "workers must be "
                         + ("0 on an in-process server" if self._inline
                            else "an int >= 1"),
            })
            return
        self._start_swap(conn, path, count)

    def _start_swap(self, conn: Optional[_Conn], source, count: int) -> None:
        """Boot the next generation — ``count`` forked workers, or the
        in-process engine when ``count`` is 0 — from ``source`` while the
        current one keeps serving.  :meth:`_check_swap` switches routing
        once all of it is ready; :meth:`_fail_swap` keeps the current one.
        """
        path = source if isinstance(source, str) else self._artifact_path
        swap = _Swap(conn, path, time.monotonic() + self._boot_timeout)
        self._swap = swap
        generation = self._generation + 1
        for _ in range(max(1, count)):
            swap.new.append(self._spawn_worker(source, generation))
        if conn is not None:
            conn.busy = True  # response lands when the swap resolves

    def _check_swap(self) -> None:
        swap = self._swap
        if swap is None or any(w.state != "ready" for w in swap.new):
            return
        # Every new engine is ready: switch routing atomically, then drain
        # the old set.  Drain frames queue FIFO behind any predicts already
        # dispatched to an old worker, so nothing in flight is lost.
        old = self._workers
        self._workers = swap.new
        self._generation = swap.new[0].generation
        self._artifact_path = swap.path
        self._artifact_sha = swap.new[0].meta.get("artifact_sha")
        self._init_error = None
        self._rr = 0
        self._swap = None
        for worker in old:
            worker.state = "draining"
            self._retiring.append(worker)
            self._send_to_worker(worker, {"op": "drain"})
        if swap.conn is not None:
            self._respond_json(swap.conn, 200, {
                "status": "ok",
                "artifact_generation": self._generation,
                "artifact_sha": self._artifact_sha,
                "workers": 0 if self._inline else len(self._workers),
            })

    def _fail_swap(self, reason: str) -> None:
        swap = self._swap
        if swap is None:
            return
        self._swap = None
        for worker in swap.new:
            if worker.proc is not None and worker.proc.is_alive():
                worker.proc.terminate()
            self._release(worker)
        if not self._generation:
            self._init_error = reason
        if swap.conn is not None:
            self._respond_json(swap.conn, 500, {
                "error": f"reload failed: {reason}; the previous "
                         f"generation keeps serving",
                "artifact_generation": self._generation,
            })

    # ------------------------------------------------------------------
    # responses & aggregation
    # ------------------------------------------------------------------
    def _finish_fanout(self, fanout: _Fanout, partial: bool = False) -> None:
        if fanout.conn is None or fanout.conn.closed:
            return
        if fanout.op == "health":
            self._respond_json(
                fanout.conn, 200, self._health_payload(fanout, partial)
            )
            return
        snapshots = [reply for _w, reply in fanout.replies]
        labels = [{"worker": str(w.id)} for w, _reply in fanout.replies]
        merged = merge_snapshots(snapshots, gauge_labels=labels)
        text = self.registry.render_prometheus()
        if merged:
            text = text + render_snapshot_prometheus(merged)
        self._respond(
            fanout.conn, 200, text.encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    #: health fields reported as the first engine's ``meta`` has them
    _META_FIELDS = (
        "formulation", "network", "schema_version", "compiled",
        "compile_ms", "index", "nprobe", "index_build_ms", "pool_rows",
        "artifact",
    )

    def _health_payload(
        self, fanout: _Fanout, partial: bool
    ) -> Dict[str, object]:
        ready = self._ready_workers()
        metas = [reply.get("meta", {}) for _w, reply in fanout.replies]
        meta0 = metas[0] if metas else {}
        if not self._generation:
            status = "error" if self._init_error else "initializing"
        elif self._draining:
            status = "draining"
        else:
            status = "ok" if ready and not partial else "degraded"
        payload = {
            "status": status,
            "workers": 0 if self._inline else len(ready),
            "artifact_generation": int(self._generation),
            "artifact_sha": self._artifact_sha,
            "mmapped": bool(metas) and all(m.get("mmapped") for m in metas),
            **{field: meta0.get(field) for field in self._META_FIELDS},
            "engine": InferenceEngine.merge_snapshots(
                [reply.get("engine", {}) for _w, reply in fanout.replies]
            ),
            "workers_detail": [
                {
                    "worker": w.id,
                    "pid": reply.get("meta", {}).get("pid"),
                    "generation": reply.get("meta", {}).get("generation"),
                    "engine": reply.get("engine", {}),
                }
                for w, reply in fanout.replies if w.proc is not None
            ],
            "server": {
                "rejected_oversize": self._rejected_oversize.value,
            },
        }
        if self._init_error:
            payload["error"] = self._init_error
        return payload

    def _respond_json(
        self, conn: _Conn, status: int, payload: Dict[str, object],
        close: bool = False,
    ) -> None:
        self._respond(
            conn, status, json.dumps(payload).encode(), close=close
        )

    def _respond(
        self, conn: _Conn, status: int, body: bytes,
        content_type: str = "application/json", close: bool = False,
    ) -> None:
        if conn.closed:
            return
        close = close or not conn.req_keep_alive or self._draining
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        )
        conn.outbuf += head.encode() + body
        conn.close_after_write = close
        conn.busy = False
        self._record_request(conn, status)
        self._flush(conn)
        if conn.closed:
            return
        self._conn_events(conn)
        if not close:
            self._process_conn(conn)

    #: known routes; anything else is grouped to keep label cardinality
    #: bounded against URL-scanning traffic.
    _ROUTES = ("/predict", "/healthz", "/health", "/metrics", "/admin/reload")

    def _record_request(self, conn: _Conn, status: int) -> None:
        route = conn.req_path if conn.req_path in self._ROUTES else "other"
        duration = time.perf_counter() - conn.req_started
        self._http_requests.labels(
            method=conn.req_method, path=route, status=str(status)
        ).inc()
        self._http_duration.labels(path=route).observe(duration)
        if status == 413:
            self._rejected_oversize.inc()
        if self.access_log:
            access_logger.info(json.dumps({
                "method": conn.req_method,
                "path": conn.req_path,
                "status": int(status),
                "latency_ms": round(duration * 1000.0, 3),
                "rows": conn.req_rows,
            }, sort_keys=True))


def main(argv=None) -> int:
    """CLI entry point: ``gnn4tdl-serve`` / ``python -m repro.serving``."""
    parser = argparse.ArgumentParser(
        prog="gnn4tdl-serve",
        description="Serve a trained GNN4TDL model artifact over HTTP.",
    )
    parser.add_argument("--artifact", required=True,
                        help="path to the .npz saved by ModelArtifact.save")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--max-body-bytes", type=int, default=1 << 20,
                        help="reject request bodies larger than this (HTTP 413)")
    parser.add_argument("--index", choices=("exact", "ivf"), default=None,
                        help="retrieval index backend for pool-attach "
                             "formulations (default: artifact config, else "
                             "the exact scan)")
    parser.add_argument("--nprobe", type=int, default=None,
                        help="IVF cells probed per query (recall/latency "
                             "knob; only meaningful with --index ivf)")
    parser.add_argument("--log-level", choices=("info", "quiet"), default="info",
                        help="info: one structured JSON access-log line per "
                             "request on stderr; quiet: no request logging")
    parser.add_argument("--workers", type=int, default=0,
                        help="N>0: score in N forked worker processes that "
                             "memory-map one shared read-only copy of the "
                             "artifact; 0 (default): score in this process")
    parser.add_argument("--lazy-init", action="store_true",
                        help="bind the port before the engine is built; "
                             "/predict answers 503 until it is ready")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")

    access_log = args.log_level != "quiet"
    if access_log and not access_logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        access_logger.addHandler(handler)
        access_logger.setLevel(logging.INFO)
        access_logger.propagate = False

    # SIGTERM while the engine boots aborts the boot; once serving,
    # serve_forever turns it into a graceful drain.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)

    try:
        server = PredictionServer(
            args.artifact,
            workers=args.workers,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            max_body_bytes=args.max_body_bytes,
            access_log=access_log,
            index=args.index,
            nprobe=args.nprobe,
            lazy_init=args.lazy_init,
        )
    except (FileNotFoundError, ValueError, RuntimeError) as exc:
        parser.error(str(exc))
    if server.generation:
        summary = ", ".join(
            f"{k}={v}" for k, v in server.artifact_summary().items()
        )
        print(f"serving {summary}")
    print(f"listening on {server.url}  "
          f"(POST /predict, GET /healthz, GET /metrics, "
          f"POST /admin/reload; workers={args.workers})")
    server.serve_forever()
    return 0
