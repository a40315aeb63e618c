"""Open-loop load-generator bench for the multi-process serving stack.

Measures aggregate serving throughput of :class:`repro.serving.PredictionServer`
in its ``--workers N`` deployment at worker counts 1 / 2 / 4, driving an
**open-loop** arrival schedule at a fixed target QPS chosen well above the
fleet's capacity.  Because arrivals do not wait for completions, the achieved
rate under saturation is the fleet's capacity — so the recorded rows/sec
curve is a direct scaling measurement.  Each request carries a
``BATCH_ROWS``-row batch so worker-side scoring (not HTTP parsing on the
front door) dominates service time.

Recorded per worker count: achieved rows/sec, client-observed p50/p95/p99
latency (queueing included — honest open-loop numbers), the shared target
QPS, and ``usable_cores``.  Rows are merged into
``benchmarks/results/BENCH_serving.json`` under ``loadgen_scaling``
(preserving the keys owned by ``bench_serving_throughput``).

Scaling bar: >= 2x aggregate rows/sec at 4 workers vs 1.  Forked workers
cannot scale past the cores the container actually grants, so the bar is
asserted only when ``usable_cores >= 4`` (CI runners qualify); on smaller
containers the honest numbers are still recorded for the trajectory.
"""

import json
import os
import queue
import tempfile
import threading
import time
from http.client import HTTPConnection

import numpy as np

from _harness import RESULTS_DIR, once, record_table

from repro.datasets import make_correlated_instances
from repro.pipeline import run_pipeline
from repro.serving import PredictionServer

WORKER_COUNTS = (1, 2, 4)
POOL_ROWS = 300
#: rows per request: big enough that engine scoring dominates per-request
#: cost, small enough that queueing latency stays readable.
BATCH_ROWS = 16
N_REQUESTS = 96
#: client sender threads — bounds concurrency so a saturated fleet queues
#: requests instead of the client spawning unbounded sockets.
SENDERS = 16
CALIBRATE_REQUESTS = 12
ROWS = []
STATE = {}


def _setup():
    if STATE:
        return
    dataset = make_correlated_instances(n=POOL_ROWS, seed=0)
    result = run_pipeline(
        dataset, formulation="instance", network="gcn", max_epochs=30, seed=0
    )
    tmpdir = tempfile.mkdtemp(prefix="bench-loadgen-")
    result.export_artifact().save(os.path.join(tmpdir, "model"))
    STATE["artifact_path"] = os.path.join(tmpdir, "model.npz")
    rng = np.random.default_rng(1)
    picks = rng.integers(0, POOL_ROWS, N_REQUESTS * BATCH_ROWS)
    rows = dataset.numerical[picks] + rng.normal(
        0.0, 0.05, (N_REQUESTS * BATCH_ROWS, dataset.num_numerical)
    )
    bodies = []
    for i in range(N_REQUESTS):
        batch = rows[i * BATCH_ROWS : (i + 1) * BATCH_ROWS]
        bodies.append(
            json.dumps(
                {"rows": [{"numerical": r.tolist()} for r in batch]}
            ).encode()
        )
    STATE["bodies"] = bodies


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _post(conn, body):
    conn.request(
        "POST", "/predict", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    payload = response.read()
    return response.status, payload


def _calibrate(server):
    """Closed-loop service-rate estimate used to pick the open-loop target."""
    conn = HTTPConnection(server.host, server.port, timeout=60)
    try:
        _post(conn, STATE["bodies"][0])  # warm caches / first-touch mmap
        start = time.perf_counter()
        for i in range(CALIBRATE_REQUESTS):
            status, _ = _post(conn, STATE["bodies"][i % len(STATE["bodies"])])
            assert status == 200
        return CALIBRATE_REQUESTS / (time.perf_counter() - start)
    finally:
        conn.close()


def _run_open_loop(server, target_qps):
    """Drive ``N_REQUESTS`` at ``target_qps`` arrivals; return the stats row."""
    arrivals = queue.Queue()
    latencies = []
    errors = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    for i, body in enumerate(STATE["bodies"]):
        arrivals.put((start + i / target_qps, body))

    def sender():
        conn = HTTPConnection(server.host, server.port, timeout=60)
        try:
            while True:
                try:
                    due, body = arrivals.get_nowait()
                except queue.Empty:
                    return
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, payload = _post(conn, body)
                except OSError as exc:  # pragma: no cover - network failure
                    with lock:
                        errors.append(repr(exc))
                    conn.close()
                    conn = HTTPConnection(server.host, server.port, timeout=60)
                    continue
                elapsed = time.perf_counter() - sent
                with lock:
                    if status != 200:
                        errors.append(payload[:200].decode(errors="replace"))
                    else:
                        latencies.append(elapsed)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done = time.perf_counter()
    assert not errors, f"load-gen saw non-200 responses: {errors[:3]}"
    assert len(latencies) == N_REQUESTS
    lat_ms = np.sort(np.asarray(latencies)) * 1e3
    elapsed = done - start
    return {
        "rows_per_sec": float(N_REQUESTS * BATCH_ROWS / elapsed),
        "requests_per_sec": float(N_REQUESTS / elapsed),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p95_ms": float(np.percentile(lat_ms, 95)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "target_qps": float(target_qps),
    }


def _bench_workers(n_workers):
    _setup()
    with PredictionServer(
        STATE["artifact_path"], workers=n_workers, port=0,
        access_log=False, boot_timeout=180.0,
    ) as server:
        if "target_qps" not in STATE:
            # Calibrate once, on the first (1-worker) fleet: an open-loop
            # target far above any fleet's capacity keeps every config
            # saturated, so achieved rows/sec == capacity at that scale.
            STATE["target_qps"] = max(50.0, 8.0 * _calibrate(server))
        else:
            _calibrate(server)  # warm the new fleet's caches identically
        stats = _run_open_loop(server, STATE["target_qps"])
    stats["workers"] = n_workers
    stats["usable_cores"] = _usable_cores()
    ROWS.append(stats)
    return stats


def test_loadgen_workers_1(benchmark):
    once(benchmark, lambda: _bench_workers(1))


def test_loadgen_workers_2(benchmark):
    once(benchmark, lambda: _bench_workers(2))


def test_loadgen_workers_4(benchmark):
    once(benchmark, lambda: _bench_workers(4))


def test_zzz_render_loadgen(benchmark):
    def render():
        assert len(ROWS) == len(WORKER_COUNTS)
        by_workers = {row["workers"]: row for row in ROWS}
        cores = ROWS[0]["usable_cores"]
        speedup = (
            by_workers[4]["rows_per_sec"] / by_workers[1]["rows_per_sec"]
        )
        text = record_table(
            "BENCH_loadgen",
            "Open-loop serving scale-out (PredictionServer, "
            f"{BATCH_ROWS} rows/request, {cores} usable cores)",
            [
                "workers", "rows/sec", "req/sec",
                "p50 ms", "p95 ms", "p99 ms",
            ],
            [
                (
                    w,
                    by_workers[w]["rows_per_sec"],
                    by_workers[w]["requests_per_sec"],
                    by_workers[w]["p50_ms"],
                    by_workers[w]["p95_ms"],
                    by_workers[w]["p99_ms"],
                )
                for w in WORKER_COUNTS
            ],
            note=(
                f"open-loop target {ROWS[0]['target_qps']:.0f} req/s "
                f"(saturating); 4-vs-1 worker aggregate throughput "
                f"{speedup:.2f}x; >= 2x bar "
                + ("enforced" if cores >= 4 else
                   f"recorded only (needs >= 4 cores, have {cores})")
            ),
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / "BENCH_serving.json"
        merged = {}
        if out.exists():
            try:
                merged = json.loads(out.read_text())
            except (ValueError, OSError):
                merged = {}
        merged["loadgen_scaling"] = ROWS
        out.write_text(json.dumps(merged, indent=2) + "\n")
        if cores >= 4:
            assert speedup >= 2.0, (
                f"4-worker aggregate throughput {speedup:.2f}x of 1-worker "
                f"is below the 2x bar ({cores} usable cores)"
            )
        return text

    once(benchmark, render)
