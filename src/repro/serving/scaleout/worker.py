"""The serving unit and the one function that answers its request frames.

A :class:`Unit` is one full serving stack — artifact,
:class:`~repro.serving.InferenceEngine` (compiled plan, LRU cache, index)
and the :class:`~repro.obs.MetricsRegistry` it reports into.
:func:`handle_frame` answers one request frame against a unit and is the
whole request path of both deployments: the server calls it in-process
for ``workers=0``, and :func:`worker_main` calls it in each forked worker
for ``workers=N``, behind the length-prefixed frame protocol
(:mod:`repro.serving.scaleout.protocol`) over the socketpair the server
handed the worker at fork.

Forked workers load the artifact with ``mmap_mode="r"``: the ``.npz``'s
arrays become read-only ``np.memmap`` views, so N workers share **one**
physical copy of the pool state (activations, incidence structures,
retrieval pools) through the page cache instead of N private copies.
Network weights are the exception — ``load_state_dict`` copies them into
private writable arrays — but weights are tiny next to pool state.

Ops (one frame at a time — a worker scores serially; the server provides
the concurrency by fanning out across workers):

``predict``   body = raw HTTP body → reply status + JSON response body
``health``    reply body = engine snapshot + artifact identity
``metrics``   reply body = registry snapshot (merged by the server)
``drain``     reply ``drained``; a forked worker then exits 0 (frames
              received before it are, by FIFO, already answered)
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import socket
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.obs import MetricsRegistry
from repro.serving.artifact import ModelArtifact
from repro.serving.engine import InferenceEngine
from repro.serving.scaleout.protocol import (
    ProtocolError,
    read_frames,
    send_frame,
)


class _BadRequest(ValueError):
    """Client error → HTTP 400 with an explanatory JSON body."""


def _checked(values: object, kind: str) -> list:
    """One row's ``numerical`` or ``categorical`` list, checked in one pass.

    Refuses, by column, what numpy would coerce or the fitted
    preprocessing cannot place: a non-number (string, boolean, list), an
    infinite value, a code with a fractional part.  ``null`` and NaN mark
    a missing numerical value; an integral code such as ``3.0`` is 3.
    """
    if not isinstance(values, list):
        raise _BadRequest(f'"{kind}" must be a list')
    numerical = kind == "numerical"
    for column, value in enumerate(values):
        if type(value) is int or (numerical and value is None):
            continue
        if type(value) is float and (
            not math.isinf(value) if numerical else value.is_integer()
        ):
            continue
        rule = ("values must be finite numbers (send null or NaN if missing)"
                if numerical else "codes must be integers")
        raise _BadRequest(f"{kind} column {column} is {value!r}; {rule}")
    return values


def _parse_rows(rows: list, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """2-D ``(numerical, categorical)`` arrays of checked ``/predict`` rows.

    A row without ``"categorical"`` gets ``width`` (the fitted count)
    ``-1`` "missing" codes, so rows may mix present and absent ones; the
    engine checks the widths against the fitted schema.
    """
    numerical, categorical = [], []
    missing = [-1] * width
    for row in rows:
        if not isinstance(row, dict) or "numerical" not in row:
            raise _BadRequest('each row must be an object with a "numerical" list')
        numerical.append(_checked(row["numerical"], "numerical"))
        codes = row.get("categorical")
        categorical.append(missing if codes is None else _checked(codes, "categorical"))
    try:
        return (np.array(numerical, dtype=np.float64),
                np.array(categorical, dtype=np.int64))
    except OverflowError as exc:
        raise _BadRequest(f"value out of range: {exc}") from exc
    except ValueError as exc:
        raise _BadRequest(
            "every row needs the same number of numerical and of "
            "categorical values"
        ) from exc


def execute_predict(
    engine: InferenceEngine, payload: Dict[str, object]
) -> Dict[str, object]:
    """Score a parsed ``/predict`` body against ``engine``.

    The wire contract (validation errors, response shape, rounding) of
    every deployment shape: :func:`handle_frame` is its only caller.  A
    body without ``"rows"`` is one row: it is parsed like a batch of one
    and scored through :meth:`InferenceEngine.predict`.
    """
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    batch = "rows" in payload
    rows = payload["rows"] if batch else [payload]
    if not isinstance(rows, list) or not rows:
        raise _BadRequest('"rows" must be a non-empty list')
    numerical, categorical = _parse_rows(
        rows, engine.artifact.preprocessor.num_categorical_features
    )
    try:
        if batch:
            probs = engine.predict_batch(numerical, categorical)
        else:
            probs = engine.predict(numerical, categorical)[None]
    except ValueError as exc:  # wrong column count for the artifact
        raise _BadRequest(str(exc)) from exc
    return {
        "predictions": probs.argmax(axis=1).tolist(),
        "probabilities": probs.round(6).tolist(),
        "rows": int(probs.shape[0]),
    }


@dataclasses.dataclass
class Unit:
    """One serving stack: what :func:`handle_frame` answers against."""

    engine: InferenceEngine
    registry: MetricsRegistry
    #: artifact identity and engine configuration, JSON-safe: sent in a
    #: forked worker's ``ready`` frame and in every ``health`` reply
    meta: Dict[str, object]

    def __post_init__(self) -> None:
        self.requests = self.registry.counter(
            "repro_worker_requests_total",
            "Frames handled by this worker, by op and status.",
            labelnames=("op", "status"),
        )


def boot(
    artifact: Union[ModelArtifact, str],
    options: Dict[str, object],
    registry: Optional[MetricsRegistry] = None,
) -> Unit:
    """Build a serving unit from an artifact or the path of one.

    ``options``: ``cache_size`` / ``index`` / ``nprobe`` for the engine,
    ``mmap`` (memory-map a path instead of reading it), ``worker`` and
    ``generation`` (reported in :attr:`Unit.meta`).
    """
    if not isinstance(artifact, ModelArtifact):
        artifact = ModelArtifact.load(
            artifact, mmap_mode="r" if options.get("mmap") else None
        )
    registry = registry if registry is not None else MetricsRegistry()
    engine = InferenceEngine(
        artifact,
        registry=registry,
        cache_size=int(options.get("cache_size", 256)),
        index=options.get("index"),
        nprobe=options.get("nprobe"),
    )
    meta = {
        "worker": options.get("worker"),
        "pid": os.getpid(),
        "generation": int(options.get("generation", 1)),
        "artifact_sha": artifact.content_sha,
        "mmapped": artifact.mmap_mode == "r",
        "formulation": artifact.formulation,
        "network": artifact.network,
        "schema_version": int(artifact.schema_version),
        "compiled": bool(engine.compiled),
        "compile_ms": float(engine.compile_ms),
        "index": engine.index,
        "nprobe": engine.nprobe,
        "index_build_ms": float(engine.index_build_ms),
        "pool_rows": artifact.pool_rows,
        "artifact": artifact.summary(),
    }
    return Unit(engine, registry, meta)


def handle_frame(
    unit: Unit, header: Dict[str, object], body: bytes
) -> Tuple[Dict[str, object], bytes]:
    """Answer one request frame: ``(reply header, reply body)``.

    Never raises for a bad request: client errors become ``status`` 400
    and anything else 500, so one request cannot take a worker down.
    """
    op = str(header.get("op", ""))
    reply: Dict[str, object] = {"id": header.get("id"), "op": f"{op}_result"}
    out = b""
    if op == "predict":
        status, rows = 200, 0
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            status, response = 400, {"error": f"invalid JSON body: {exc}"}
        else:
            try:
                response = execute_predict(unit.engine, payload)
                # allow_nan=False: a 200 body is always standard JSON
                out = json.dumps(response, allow_nan=False).encode()
                rows = response["rows"]
            except _BadRequest as exc:
                status, response = 400, {"error": str(exc)}
            except Exception as exc:  # defensive: keep the worker alive
                status, response = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
        if status != 200:
            out = json.dumps(response).encode()
        reply["status"] = status
        reply["rows"] = rows
        unit.requests.labels(op="predict", status=str(status)).inc()
    elif op == "health":
        out = json.dumps({
            "meta": unit.meta,
            "engine": unit.engine.snapshot(),
        }).encode()
        unit.requests.labels(op="health", status="200").inc()
    elif op == "metrics":
        out = json.dumps(unit.registry.snapshot()).encode()
        unit.requests.labels(op="metrics", status="200").inc()
    elif op == "drain":
        reply["op"] = "drained"
        reply["engine"] = unit.engine.snapshot()
    else:
        reply["op"] = "error"
        reply["error"] = f"unknown op {op!r}"
    return reply, out


def worker_main(
    sock: socket.socket,
    artifact_path: str,
    options: Optional[Dict[str, object]] = None,
) -> int:
    """Entry point executed inside the forked worker process.

    Sends exactly one ``ready`` (or ``error``) frame, then serves request
    frames until ``drain`` or EOF.  Never raises across the process
    boundary — failures become ``error`` frames / nonzero exit codes.
    """
    options = dict(options or {})
    # The server owns interactive signals: a Ctrl-C in the terminal
    # reaches the whole process group, but only the server should act on
    # it (it drains workers explicitly). SIGTERM keeps its default so the
    # server can still kill a hung worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, signal.SIG_IGN)

    try:
        unit = boot(artifact_path, options)
    except Exception as exc:
        try:
            send_frame(sock, {
                "op": "error", "error": f"{type(exc).__name__}: {exc}",
            })
        except OSError:
            pass
        return 1
    generation = unit.meta["generation"]
    unit.registry.gauge(
        "repro_engine_artifact_generation",
        "Monotonic artifact generation serving predictions "
        "(bumps on each hot swap).",
    ).set_function(lambda: float(generation))

    try:
        send_frame(sock, dict(unit.meta, op="ready"))
    except OSError:
        return 1

    frames = read_frames(sock)
    while True:
        try:
            frame = next(frames, None)
        except (ProtocolError, OSError):
            return 1
        if frame is None:  # the server is gone
            return 0
        reply, out = handle_frame(unit, *frame)
        try:
            send_frame(sock, reply, out)
        except OSError:
            return 1
        if reply["op"] == "drained":
            return 0
