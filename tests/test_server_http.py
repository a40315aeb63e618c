"""HTTP tests for :class:`~repro.serving.PredictionServer`, in both of
its deployment shapes: scoring in process (``workers=0``) and in a forked
worker (``workers=1``).

A public prediction endpoint sees garbage: malformed JSON, rows with the
wrong arity, unknown routes, oversized bodies.  Each must come back as a
*structured* 4xx JSON error — never a 500, never a dead server — and the
server must keep answering healthy requests afterwards.  The suite runs
over a real socket (ephemeral port) against a hypergraph artifact, which
also pins the ``/healthz`` contract for the newly-servable formulation.
"""

import dataclasses
import http.client
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.datasets import make_correlated_instances, make_fraud
from repro.formulations import HypergraphFormulation, InstanceFormulation
from repro.serving import InferenceEngine, ModelArtifact, PredictionServer
from repro.serving import server as server_module
from repro.serving.artifact import ARTIFACT_SCHEMA_VERSION
from repro.serving.scaleout import worker as worker_module


@pytest.fixture(scope="module")
def dataset():
    return make_fraud(n=60, seed=3)


@pytest.fixture(scope="module")
def artifact(dataset):
    # Untrained weights: HTTP semantics don't depend on model quality.
    config = {
        "network": "hypergraph_gnn", "hidden_dim": 8, "out_dim": 2,
        "num_layers": 2, "task": dataset.task,
    }
    fitted = HypergraphFormulation().fit(dataset, None, config)
    model = fitted.build_model(np.random.default_rng(0))
    arrays, meta = fitted.artifact_payload()
    return ModelArtifact(
        formulation="hypergraph",
        network=fitted.model_builder,
        config=config,
        state_dict=model.state_dict(),
        preprocessor=fitted.preprocessor,
        payload_arrays=arrays,
        payload_meta=meta,
    )


@pytest.fixture(scope="module")
def manhattan_path(tmp_path_factory):
    """A saved instance artifact whose kNN graph was built with the
    ``manhattan`` metric: ``knn_graph`` trains on it, but retrieval cannot
    rank unseen rows by it."""
    dataset = make_correlated_instances(n=60, seed=0)
    config = {
        "network": "gcn", "hidden_dim": 8, "out_dim": dataset.num_classes,
        "k": 5, "metric": "manhattan", "num_layers": 2, "task": dataset.task,
    }
    fitted = InstanceFormulation().fit(dataset, None, config)
    model = fitted.build_model(np.random.default_rng(0))
    arrays, meta = fitted.artifact_payload()
    artifact = ModelArtifact(
        formulation="instance",
        network=fitted.model_builder,
        config=config,
        state_dict=model.state_dict(),
        preprocessor=fitted.preprocessor,
        payload_arrays=arrays,
        payload_meta=meta,
    )
    path = tmp_path_factory.mktemp("manhattan") / "model"
    return str(artifact.save(path))


@pytest.fixture(scope="module", params=[0, 1], ids=["workers0", "workers1"])
def workers(request):
    return request.param


@pytest.fixture(scope="module")
def served(artifact, workers, tmp_path_factory):
    """What a server with ``workers`` is given: the in-memory artifact, or
    (forked workers map a file) a saved copy of it."""
    if workers == 0:
        return artifact
    path = tmp_path_factory.mktemp("hypergraph") / "model"
    return str(dataclasses.replace(artifact).save(path))


@pytest.fixture(scope="module")
def server(served, workers):
    with PredictionServer(
        served, workers=workers, port=0, max_body_bytes=4096
    ) as srv:
        yield srv


def _engine_labels(workers):
    """Labels of an engine gauge: forked workers' gauges carry their id."""
    return '{formulation="hypergraph"}' if workers == 0 else (
        '{formulation="hypergraph",worker="0"}'
    )


def _hold_boots(monkeypatch, tmp_path):
    """Make every later engine boot wait until the returned ``release`` is
    called (a file, so forked workers see it too)."""
    gate = tmp_path / "release-boots"
    original = worker_module.boot

    def held_boot(*args, **kwargs):
        deadline = time.monotonic() + 30
        while not gate.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return original(*args, **kwargs)

    monkeypatch.setattr(server_module, "boot", held_boot)
    monkeypatch.setattr(worker_module, "boot", held_boot)
    return gate.touch


def _request(server, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = json.loads(response.read().decode())
        return response.status, payload
    finally:
        conn.close()


def _request_raw(server, method, path):
    """Like ``_request`` but for non-JSON responses (``/metrics``)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode(),
        )
    finally:
        conn.close()


def _scrape(server):
    status, content_type, text = _request_raw(server, "GET", "/metrics")
    assert status == 200
    return text


def _sample_value(text, line_prefix):
    """Value of the unique exposition sample starting with ``line_prefix``."""
    matches = [
        line for line in text.splitlines()
        if line.startswith(line_prefix) and not line.startswith("#")
    ]
    assert len(matches) == 1, f"{line_prefix!r} matched {matches!r}"
    return float(matches[0].rsplit(" ", 1)[1])


def _good_row(dataset):
    return {
        "numerical": dataset.numerical[0].tolist(),
        "categorical": dataset.categorical[0].tolist(),
    }


class TestErrorPaths:
    def test_malformed_json_returns_400(self, server):
        status, payload = _request(server, "POST", "/predict", body="{not json")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_non_object_body_returns_400(self, server):
        status, payload = _request(server, "POST", "/predict", body="[1, 2, 3]")
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_wrong_numerical_arity_returns_400(self, server, dataset):
        row = {"numerical": [0.0] * (dataset.num_numerical + 2)}
        status, payload = _request(server, "POST", "/predict", body=json.dumps(row))
        assert status == 400
        assert "numerical columns" in payload["error"]

    def test_wrong_categorical_arity_returns_400(self, server, dataset):
        row = _good_row(dataset)
        row["categorical"] = row["categorical"] + [0, 0]
        status, payload = _request(server, "POST", "/predict", body=json.dumps(row))
        assert status == 400
        assert "categorical" in payload["error"]

    def test_missing_numerical_key_returns_400(self, server):
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps({"categorical": [1]})
        )
        assert status == 400
        assert "numerical" in payload["error"]

    def test_empty_and_ragged_batches_return_400(self, server, dataset):
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps({"rows": []})
        )
        assert status == 400 and "non-empty" in payload["error"]
        ragged = {"rows": [_good_row(dataset), {"numerical": [1.0]}]}
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps(ragged)
        )
        assert status == 400 and "error" in payload

    def test_unknown_route_returns_404(self, server):
        for method, path in (("GET", "/nope"), ("POST", "/nope"), ("GET", "/predict/x")):
            status, payload = _request(server, method, path)
            assert status == 404
            assert "unknown path" in payload["error"]

    def test_oversized_body_returns_413_without_reading_it(self, server, dataset):
        body = json.dumps({
            "numerical": dataset.numerical[0].tolist(),
            "padding": "x" * 10_000,  # well past max_body_bytes=4096
        })
        status, payload = _request(server, "POST", "/predict", body=body)
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_server_survives_the_error_barrage(self, server, dataset):
        # After every 4xx above the server still answers cleanly.
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps(_good_row(dataset))
        )
        assert status == 200
        assert payload["rows"] == 1
        assert abs(sum(payload["probabilities"][0]) - 1.0) < 1e-6


class TestHealthz:
    def test_healthz_reports_hypergraph_deployment(self, server, dataset):
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["formulation"] == "hypergraph"
        assert health["network"] == "hypergraph_gnn"
        assert health["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert health["compiled"] is True
        assert health["pool_rows"] == dataset.num_instances

    def test_health_alias_route(self, server):
        status, health = _request(server, "GET", "/health")
        assert status == 200 and health["formulation"] == "hypergraph"

    def test_healthz_snapshot_is_locked_and_consistent(self, server, dataset):
        _request(server, "POST", "/predict", body=json.dumps(_good_row(dataset)))
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        engine = health["engine"]
        # The locked engine snapshot: every scored row is accounted for by
        # exactly one of cache-hit or forward.
        assert engine["cache_hits"] + engine["forward_rows"] == engine["rows"]
        assert health["server"]["rejected_oversize"] >= 0

    def test_healthz_lists_forked_workers_only(self, server, workers):
        # workers=0 lists no pids besides the server's own process, so a
        # consumer summing memory over the server plus workers_detail
        # counts each process once.
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["workers"] == workers
        assert len(health["workers_detail"]) == workers
        if workers == 0:
            assert health["workers_detail"] == []


class TestMetricsEndpoint:
    def test_metrics_exposes_request_and_stage_histograms(
        self, server, dataset, workers
    ):
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps(_good_row(dataset))
        )
        assert status == 200
        text = _scrape(server)
        # Prometheus text exposition: typed families with HELP lines.
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_duration_seconds histogram" in text
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert "# TYPE repro_stage_duration_seconds histogram" in text
        # At least one single-row predict flowed through: the engine-side
        # request histogram and every scorer stage observed it.
        assert _sample_value(
            text,
            'repro_request_duration_seconds_count'
            '{formulation="hypergraph",endpoint="predict"}',
        ) >= 1
        # plan_execute replaces propagate: the server's engine defaults to
        # the compiled plan path.
        for stage in ("cache", "score", "encode", "attach", "plan_execute", "head"):
            assert _sample_value(
                text,
                f'repro_stage_duration_seconds_count'
                f'{{formulation="hypergraph",stage="{stage}"}}',
            ) >= 1, stage
        # Drift gauges are present and finite.
        for gauge in (
            "repro_engine_unk_rate", "repro_engine_cache_hit_rate",
            "repro_engine_attach_fanout", "repro_engine_cache_entries",
        ):
            assert np.isfinite(
                _sample_value(text, gauge + _engine_labels(workers))
            )

    def test_metrics_content_type_is_prometheus_text(self, server):
        status, content_type, _ = _request_raw(server, "GET", "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"

    def test_http_counters_track_status_and_path(self, server, dataset):
        before = _scrape(server)

        def count(text, path, status):
            prefix = (
                f'repro_http_requests_total{{method="POST",path="{path}",'
                f'status="{status}"}}'
            )
            try:
                return _sample_value(text, prefix)
            except AssertionError:
                return 0.0

        _request(server, "POST", "/predict", body=json.dumps(_good_row(dataset)))
        _request(server, "POST", "/predict", body="{not json")
        _request(server, "POST", "/definitely/not/a/route")
        after = _scrape(server)
        assert count(after, "/predict", 200) == count(before, "/predict", 200) + 1
        assert count(after, "/predict", 400) == count(before, "/predict", 400) + 1
        # Unknown paths collapse into one "other" series — scrape label
        # cardinality stays bounded no matter what clients probe.
        assert count(after, "other", 404) == count(before, "other", 404) + 1
        assert "/definitely/not/a/route" not in after

    def test_oversized_requests_increment_the_413_counter(self, server, dataset):
        before = _sample_value(_scrape(server), "repro_http_rejected_oversize_total")
        body = json.dumps({
            "numerical": dataset.numerical[0].tolist(),
            "padding": "x" * 10_000,
        })
        status, _ = _request(server, "POST", "/predict", body=body)
        assert status == 413
        after = _sample_value(_scrape(server), "repro_http_rejected_oversize_total")
        assert after == before + 1


class TestAccessLog:
    def test_structured_json_access_log_when_enabled(
        self, served, workers, dataset
    ):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.serving.access")
        handler = Capture(level=logging.INFO)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with PredictionServer(
                served, workers=workers, port=0, access_log=True
            ) as srv:
                _request(srv, "POST", "/predict", body=json.dumps(_good_row(dataset)))
                _request(srv, "GET", "/healthz")
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)

        entries = [json.loads(line) for line in records]
        assert len(entries) == 2
        predict, healthz = entries
        assert predict["method"] == "POST" and predict["path"] == "/predict"
        assert predict["status"] == 200 and predict["rows"] == 1
        assert predict["latency_ms"] >= 0
        assert healthz["method"] == "GET" and healthz["path"] == "/healthz"
        assert healthz["status"] == 200

    def test_access_log_is_off_by_default(self, served, workers, dataset):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.serving.access")
        handler = Capture(level=logging.INFO)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with PredictionServer(served, workers=workers, port=0) as srv:
                _request(srv, "POST", "/predict", body=json.dumps(_good_row(dataset)))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        assert records == []


class TestArtifactIdentity:
    def test_healthz_carries_generation_and_sha(self, server, workers):
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["artifact_generation"] == 1
        # The in-process server got the artifact built in memory (never
        # load()ed), so its content hash is unknown — the field must still
        # be present.  Forked workers map their saved copy.
        assert "artifact_sha" in health
        assert health["mmapped"] is (workers > 0)

    def test_generation_gauge_in_metrics(self, server):
        text = _scrape(server)
        assert _sample_value(text, "repro_engine_artifact_generation") == 1


class TestUnavailableStates:
    def test_predict_during_drain_returns_structured_503(
        self, served, workers, dataset
    ):
        with PredictionServer(served, workers=workers, port=0) as srv:
            srv._draining = True
            try:
                status, payload = _request(
                    srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
                )
            finally:
                srv._draining = False
            assert status == 503
            assert payload["status"] == "unavailable"
            assert payload["retriable"] is True
            assert "draining" in payload["error"]
            # Back out of the drain: the server still serves.
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200

    def test_lazy_init_returns_503_until_engine_ready(
        self, served, workers, dataset, monkeypatch, tmp_path
    ):
        release = _hold_boots(monkeypatch, tmp_path)
        srv = PredictionServer(served, workers=workers, port=0, lazy_init=True)
        srv.start()
        try:
            # Socket is up before the engine exists; /predict answers 503
            # and /healthz reports the initializing state.
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 503
            assert payload["retriable"] is True
            status, health = _request(srv, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "initializing"
            assert health["artifact_generation"] == 0
            release()
            assert srv.wait_ready(timeout=30)
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200
        finally:
            release()
            srv.shutdown()

    def test_shutdown_flushes_in_flight_requests(
        self, served, workers, dataset, monkeypatch
    ):
        # Slow scoring keeps requests in flight when shutdown starts (a
        # forked worker inherits the patch).
        original = worker_module.execute_predict

        def slow_predict(engine, payload):
            time.sleep(0.2)
            return original(engine, payload)

        monkeypatch.setattr(worker_module, "execute_predict", slow_predict)
        srv = PredictionServer(served, workers=workers, port=0)
        srv.start()
        results = []
        lock = threading.Lock()

        def one_predict():
            try:
                status, payload = _request(
                    srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
                )
            except OSError as exc:
                status, payload = "exc", repr(exc)
            with lock:
                results.append((status, payload))

        threads = [threading.Thread(target=one_predict) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # every request sent; the first one is scoring
        srv.shutdown()
        for thread in threads:
            thread.join(timeout=15)
        assert not any(thread.is_alive() for thread in threads)
        # Every request resolved: completed (200) or refused at the drain
        # gate (503) — never a reset, never a hang.
        assert len(results) == 4
        statuses = {status for status, _ in results}
        assert statuses <= {200, 503}, results
        assert 200 in statuses  # the in-flight ones actually completed


class TestConnectionSemantics:
    def _send(self, server, raw):
        """Send raw bytes: ``(bytes received, closed by the server within a
        second of answering)``."""
        with socket.create_connection(
            (server.host, server.port), timeout=1.0
        ) as sock:
            sock.sendall(raw)
            data = b""
            try:
                while chunk := sock.recv(1 << 16):
                    data += chunk
            except socket.timeout:
                return data, False
            return data, True

    def _exchange(self, server, dataset, version, connection=None):
        """One raw-socket predict (see :meth:`_send`)."""
        body = json.dumps(_good_row(dataset)).encode()
        head = f"POST /predict {version}\r\nContent-Length: {len(body)}\r\n"
        if connection:
            head += f"Connection: {connection}\r\n"
        return self._send(server, head.encode() + b"\r\n" + body)

    def test_http10_request_gets_response_then_close(self, server, dataset):
        data, closed = self._exchange(server, dataset, "HTTP/1.0")
        assert data.split(b" ", 2)[1] == b"200"
        assert b"Connection: close" in data
        assert closed, "HTTP/1.0 without keep-alive must close after the reply"

    def test_http10_keep_alive_and_http11_stay_open(self, server, dataset):
        for version, connection, stays_open in (
            ("HTTP/1.0", "keep-alive", True),
            ("HTTP/1.1", None, True),
            ("HTTP/1.1", "close", False),
        ):
            data, closed = self._exchange(server, dataset, version, connection)
            assert data.split(b" ", 2)[1] == b"200"
            assert closed is not stays_open, (version, connection)

    @pytest.mark.parametrize(
        "lengths",
        [("-5",), ("+{n}",), ("1_0",), ("0", "{n}"), ("9" * 5000,)],
        ids=[
            "negative", "plus-sign", "underscore", "conflicting-duplicate",
            "past-int-digit-limit",
        ],
    )
    def test_malformed_content_length_is_refused_and_closed(
        self, server, dataset, lengths
    ):
        # Only one run of ASCII digits is a length: anything int() would
        # also take, or a second header that disagrees, is a 400 that
        # closes the connection, so the body is never parsed as a request.
        # A run too long for int() is refused the same way, and the server
        # goes on answering.
        body = json.dumps(_good_row(dataset)).encode()
        head = "POST /predict HTTP/1.1\r\n" + "".join(
            f"Content-Length: {value.format(n=len(body))}\r\n"
            for value in lengths
        )
        data, closed = self._send(server, head.encode() + b"\r\n" + body)
        assert data.split(b" ", 2)[1] == b"400"
        assert b"invalid Content-Length header" in data
        assert b"Connection: close" in data
        assert data.count(b"HTTP/1.1 ") == 1, "a second response arrived"
        assert closed, "the connection must close after the 400"
        data, _ = self._exchange(server, dataset, "HTTP/1.1", "close")
        assert data.split(b" ", 2)[1] == b"200"


class TestHotReload:
    def test_reload_under_load_swaps_without_dropping(self, tmp_path, workers):
        from repro.datasets import make_correlated_instances
        from repro.pipeline import run_pipeline
        from repro.serving import InferenceEngine

        path_a = run_pipeline(
            make_correlated_instances(n=120, seed=0)
        ).export_artifact().save(tmp_path / "a")
        path_b = run_pipeline(
            make_correlated_instances(n=120, seed=1)
        ).export_artifact().save(tmp_path / "b")
        srv = PredictionServer(str(path_a), workers=workers, port=0)
        srv.start()
        try:
            stop = threading.Event()
            results = []
            lock = threading.Lock()
            body = json.dumps({"numerical": [0.15] * 16})

            def hammer():
                while not stop.is_set():
                    try:
                        status, payload = _request(
                            srv, "POST", "/predict", body=body
                        )
                    except OSError as exc:
                        status, payload = "exc", repr(exc)
                    with lock:
                        results.append((status, payload))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                status, reload_info = _request(
                    srv, "POST", "/admin/reload",
                    body=json.dumps({"artifact": str(path_b)}),
                )
            finally:
                time.sleep(0.3)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert status == 200
            assert reload_info["artifact_generation"] == 2
            assert results
            bad = [r for r in results if r[0] != 200]
            assert not bad, f"requests dropped during hot swap: {bad[:5]}"

            # Post-swap identity and parity with the new artifact's oracle.
            status, health = _request(srv, "GET", "/healthz")
            assert health["artifact_generation"] == 2
            assert health["artifact_sha"] == ModelArtifact.load(path_b).content_sha
            probe = np.asarray([0.15] * 16)
            expected = (
                InferenceEngine(ModelArtifact.load(path_b))
                .predict(probe).round(6).tolist()
            )
            status, payload = _request(srv, "POST", "/predict", body=body)
            assert status == 200
            assert payload["probabilities"][0] == expected
        finally:
            srv.shutdown()

    def test_concurrent_reload_conflicts_with_409(
        self, served, workers, dataset, monkeypatch, tmp_path
    ):
        path = served if workers else str(
            dataclasses.replace(served).save(tmp_path / "model")
        )
        with PredictionServer(served, workers=workers, port=0) as srv:
            release = _hold_boots(monkeypatch, tmp_path)
            first = []
            thread = threading.Thread(target=lambda: first.append(_request(
                srv, "POST", "/admin/reload",
                body=json.dumps({"artifact": path}),
            )))
            thread.start()
            try:
                deadline = time.monotonic() + 10
                while srv._swap is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                status, payload = _request(srv, "POST", "/admin/reload", body="{}")
                assert status == 409
                assert "in progress" in payload["error"]
                # The held generation 1 keeps serving meanwhile.
                status, _ = _request(
                    srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
                )
                assert status == 200
            finally:
                release()
                thread.join(timeout=30)
            assert first[0][0] == 200
            assert first[0][1]["artifact_generation"] == 2

    def test_reload_bad_path_returns_400_and_keeps_serving(
        self, served, workers, dataset
    ):
        with PredictionServer(served, workers=workers, port=0) as srv:
            status, payload = _request(
                srv, "POST", "/admin/reload",
                body=json.dumps({"artifact": "/nonexistent.npz"}),
            )
            assert status == 400
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200

    def test_failed_boot_keeps_the_old_generation_serving(
        self, served, workers, dataset, tmp_path
    ):
        (tmp_path / "broken.npz").write_bytes(b"not an npz archive")
        (tmp_path / "broken.json").write_text("{}")
        with PredictionServer(served, workers=workers, port=0) as srv:
            status, payload = _request(
                srv, "POST", "/admin/reload",
                body=json.dumps({"artifact": str(tmp_path / "broken.npz")}),
            )
            assert status == 500
            assert "reload failed" in payload["error"]
            assert payload["artifact_generation"] == 1
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200
            status, health = _request(srv, "GET", "/healthz")
            assert health["status"] == "ok"
            assert health["artifact_generation"] == 1

    def test_reload_without_source_returns_400(self, artifact):
        # This artifact was never load()ed from disk: no source_path.
        with PredictionServer(artifact, port=0) as srv:
            status, payload = _request(srv, "POST", "/admin/reload", body="{}")
            assert status == 400
            assert "source_path" in payload["error"] or "no artifact" in payload["error"]


class TestUnrankableMetric:
    """An artifact whose retrieval metric the pool index cannot rank is
    refused when an engine boots it, never blamed on the client later."""

    def test_engine_refuses_naming_the_metric(self, manhattan_path):
        with pytest.raises(ValueError, match="'manhattan'"):
            InferenceEngine(ModelArtifact.load(manhattan_path))

    def test_server_refuses_to_boot(self, manhattan_path, workers):
        with pytest.raises(RuntimeError, match="manhattan"):
            PredictionServer(manhattan_path, workers=workers, port=0)

    def test_reload_answers_500_and_keeps_the_old_generation(
        self, served, workers, dataset, manhattan_path
    ):
        with PredictionServer(served, workers=workers, port=0) as srv:
            status, payload = _request(
                srv, "POST", "/admin/reload",
                body=json.dumps({"artifact": manhattan_path}),
            )
            assert status == 500
            assert "manhattan" in payload["error"]
            assert payload["artifact_generation"] == 1
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200
            status, health = _request(srv, "GET", "/healthz")
            assert health["artifact_generation"] == 1
