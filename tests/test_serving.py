"""Tests for the ``repro.serving`` subsystem.

Covers the artifact round-trip (save → load → bitwise-equal weights and
identical predictions), inductive correctness against the transductive
pipeline, the LRU prediction cache, eval-mode guarantees (trainer and
engine), the micro-batcher, and an HTTP smoke test that boots the server
on an ephemeral port.
"""

import json
import pathlib
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.datasets import (
    TabularPreprocessor,
    make_correlated_instances,
    make_fraud,
)
from repro.pipeline import _field_matrix, run_pipeline
from repro.serving import (
    InferenceEngine,
    MicroBatcher,
    ModelArtifact,
    PredictionServer,
)
from repro.training.trainer import Trainer


@pytest.fixture(scope="module")
def instance_result():
    dataset = make_correlated_instances(n=220, seed=0, cluster_strength=2.0)
    result = run_pipeline(
        dataset, formulation="instance", network="gcn", max_epochs=40, seed=0
    )
    return dataset, result


@pytest.fixture(scope="module")
def feature_result():
    dataset = make_fraud(n=200, seed=0)
    result = run_pipeline(dataset, formulation="feature", max_epochs=30, seed=0)
    return dataset, result


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


# ----------------------------------------------------------------------
# preprocessor fit/transform separation
# ----------------------------------------------------------------------
class TestTabularPreprocessor:
    def test_onehot_matches_to_matrix_when_fit_on_full_data(self):
        ds = make_fraud(n=80, seed=1)
        prep = TabularPreprocessor(mode="onehot").fit(ds)
        np.testing.assert_allclose(prep.transform_dataset(ds), ds.to_matrix())

    def test_fields_matches_field_matrix(self):
        ds = make_fraud(n=80, seed=1)
        prep = TabularPreprocessor(mode="fields").fit(ds)
        np.testing.assert_allclose(
            prep.transform_dataset(ds), _field_matrix(ds)
        )

    def test_frozen_statistics_are_reused_not_refit(self):
        # The train/serve-skew regression: transforming new rows must use the
        # statistics of the *fitted* data, not refit on the incoming rows.
        ds = make_correlated_instances(n=60, seed=2)
        prep = TabularPreprocessor(mode="onehot").fit(ds)
        shifted = ds.numerical + 100.0
        transformed = prep.transform(shifted)
        assert transformed.mean() > 10.0  # a refit would re-center to ~0

    def test_out_of_vocabulary_category_gets_zero_block(self):
        ds = make_fraud(n=50, seed=0)
        prep = TabularPreprocessor(mode="onehot").fit(ds)
        weird = np.array([[ds.cardinalities[0] + 5, -1]])
        out = prep.transform(ds.numerical[:1], weird)
        onehot_part = out[:, ds.num_numerical:]
        assert np.all(onehot_part == 0.0)

    def test_state_round_trip(self):
        ds = make_fraud(n=60, seed=3)
        prep = TabularPreprocessor(mode="fields").fit(ds)
        arrays, meta = prep.state()
        clone = TabularPreprocessor.from_state(arrays, meta)
        np.testing.assert_array_equal(
            prep.transform_dataset(ds), clone.transform_dataset(ds)
        )

    def test_pipeline_fits_scaler_on_training_split_only(self, instance_result):
        dataset, result = instance_result
        prep = result.state.preprocessor
        # Statistics fitted on the train split differ from full-data stats.
        full = TabularPreprocessor(mode="onehot").fit(dataset)
        assert not np.allclose(prep.num_mean_, full.num_mean_)


# ----------------------------------------------------------------------
# artifact round-trips
# ----------------------------------------------------------------------
class TestArtifactRoundTrip:
    @pytest.mark.parametrize("which", ["instance", "feature"])
    def test_save_load_bitwise_state_and_identical_predictions(
        self, which, tmp_path, instance_result, feature_result
    ):
        dataset, result = instance_result if which == "instance" else feature_result
        artifact = result.export_artifact()
        npz = artifact.save(tmp_path / "model")
        assert npz.exists() and npz.with_suffix(".json").exists()

        loaded = ModelArtifact.load(npz)
        assert set(loaded.state_dict) == set(artifact.state_dict)
        for name, value in artifact.state_dict.items():
            np.testing.assert_array_equal(loaded.state_dict[name], value)

        held_out = dataset.numerical[-12:], dataset.categorical[-12:]
        before = InferenceEngine(artifact, cache_size=0).predict_batch(*held_out)
        after = InferenceEngine(loaded, cache_size=0).predict_batch(*held_out)
        np.testing.assert_array_equal(before, after)

    def test_load_accepts_either_file(self, tmp_path, feature_result):
        _, result = feature_result
        npz = result.export_artifact().save(tmp_path / "m")
        for path in (npz, npz.with_suffix(".json"), tmp_path / "m"):
            assert ModelArtifact.load(path).formulation == "feature"

    def test_missing_sidecar_raises(self, tmp_path, feature_result):
        _, result = feature_result
        npz = result.export_artifact().save(tmp_path / "m")
        npz.with_suffix(".json").unlink()
        with pytest.raises(FileNotFoundError):
            ModelArtifact.load(npz)

    def test_unservable_formulation_refuses_export(self):
        # Every built-in formulation now serves; the capability check still
        # guards plug-ins that declare ``servable = False``.
        from repro import formulations
        from repro.formulations.hypergraph import (
            FittedHypergraph,
            HypergraphFormulation,
        )

        class BoundFitted(FittedHypergraph):
            name = "bound"
            servable = False

        class BoundFormulation(HypergraphFormulation):
            name = "bound"
            fitted_cls = BoundFitted

        formulations.register(BoundFormulation())
        try:
            ds = make_fraud(n=120, seed=0)
            result = run_pipeline(ds, formulation="bound", max_epochs=2, seed=0)
            with pytest.raises(NotImplementedError, match="bound"):
                result.export_artifact()
        finally:
            formulations.unregister("bound")


# ----------------------------------------------------------------------
# inductive correctness
# ----------------------------------------------------------------------
class TestInductiveCorrectness:
    def test_pool_rows_match_transductive_instance(self, instance_result):
        dataset, result = instance_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        idx = np.arange(30)
        inductive = engine.predict_batch(dataset.numerical[idx])
        transductive = _softmax(result.state.logits()[idx])
        agreement = (
            inductive.argmax(axis=1) == transductive.argmax(axis=1)
        ).mean()
        assert agreement >= 0.9
        assert np.abs(inductive - transductive).mean() < 0.05

    def test_pool_rows_match_transductive_feature_exactly(self, feature_result):
        dataset, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        inductive = engine.predict_batch(
            dataset.numerical[:15], dataset.categorical[:15]
        )
        transductive = _softmax(result.state.logits()[:15])
        np.testing.assert_allclose(inductive, transductive, atol=1e-10)

    def test_queries_do_not_influence_each_other(self, instance_result):
        # Attachment edges are directed pool→query, so pool degrees (and
        # hence the GNN's normalization) are identical whatever else shares
        # the batch: scoring rows together vs alone matches exactly.
        dataset, result = instance_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        rows = dataset.numerical[:2] + 0.03
        together = engine.predict_batch(rows)
        alone = np.stack([engine.predict(rows[0]), engine.predict(rows[1])])
        np.testing.assert_allclose(together, alone, atol=1e-10)


# ----------------------------------------------------------------------
# LRU prediction cache
# ----------------------------------------------------------------------
class TestPredictionCache:
    def test_hit_returns_identical_array_without_second_forward(
        self, instance_result
    ):
        dataset, result = instance_result
        engine = InferenceEngine(result.export_artifact(), cache_size=8)
        row = dataset.numerical[0] + 0.01
        first = engine.predict(row)
        passes = engine.stats["forward_passes"]
        second = engine.predict(row)
        assert second is first  # the very same array, not a recompute
        assert engine.stats["forward_passes"] == passes
        assert engine.stats["cache_hits"] == 1

    def test_cache_is_bounded(self, feature_result):
        dataset, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=2)
        for i in range(5):
            engine.predict(dataset.numerical[i], dataset.categorical[i])
        assert len(engine._cache) <= 2

    def test_batch_deduplicates_repeated_rows(self, feature_result):
        dataset, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=8)
        idx = np.array([0, 1, 0, 1, 0])
        probs = engine.predict_batch(dataset.numerical[idx], dataset.categorical[idx])
        assert engine.stats["forward_rows"] == 2  # only the distinct rows
        np.testing.assert_array_equal(probs[0], probs[2])
        np.testing.assert_array_equal(probs[1], probs[3])

    def test_cache_disabled(self, feature_result):
        dataset, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        engine.predict(dataset.numerical[0], dataset.categorical[0])
        engine.predict(dataset.numerical[0], dataset.categorical[0])
        assert engine.stats["forward_passes"] == 2
        assert engine.stats["cache_hits"] == 0


# ----------------------------------------------------------------------
# eval-mode guarantees
# ----------------------------------------------------------------------
class TestEvalMode:
    def test_trainer_toggles_train_and_eval(self):
        from repro.tensor import Tensor

        rng = np.random.default_rng(0)
        model = nn.MLP(4, (8,), 2, rng, dropout=0.5)
        x = Tensor(rng.normal(size=(20, 4)))
        y = rng.integers(0, 2, size=20)
        modes = {"loss": [], "val": []}

        def loss_fn():
            modes["loss"].append(model.training)
            return nn.cross_entropy(model(x), y)

        def val_fn():
            modes["val"].append(model.training)
            return 0.0

        optimizer = nn.Adam(model.parameters(), lr=0.01)
        Trainer(model, optimizer, max_epochs=3, patience=None).fit(loss_fn, val_fn)
        assert all(modes["loss"]), "loss closure must run in train mode"
        assert not any(modes["val"]), "validation must run in eval mode"
        assert model.training is False, "fit must leave the model in eval mode"

    def test_engine_always_runs_eval_mode(self, instance_result, feature_result):
        for dataset, result in (instance_result, feature_result):
            result.state.model.train()  # sabotage: leave the model in train mode
            artifact = result.export_artifact()
            built = []
            original = artifact.build_model
            artifact.build_model = lambda graph=None: (
                built.append(original(graph)) or built[-1]
            )
            engine = InferenceEngine(artifact, cache_size=0)
            engine.predict_batch(dataset.numerical[:2], dataset.categorical[:2])
            assert built, "engine never built a model"
            assert all(m.training is False for m in built)
            result.state.model.eval()


# ----------------------------------------------------------------------
# micro-batcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_concurrent_submissions_coalesce_and_match_batch_path(
        self, feature_result
    ):
        dataset, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        expected = engine.predict_batch(dataset.numerical[:8], dataset.categorical[:8])
        with MicroBatcher(engine, max_batch_size=8, max_delay_ms=60.0) as batcher:
            with ThreadPoolExecutor(8) as pool:
                got = list(
                    pool.map(
                        lambda i: batcher.submit(
                            dataset.numerical[i], dataset.categorical[i]
                        ),
                        range(8),
                    )
                )
            assert batcher.stats["rows"] == 8
            assert batcher.stats["largest_batch"] >= 2, "no coalescing happened"
        np.testing.assert_allclose(np.stack(got), expected, atol=1e-12)

    def test_flush_on_max_batch_size(self, feature_result):
        dataset, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        with MicroBatcher(engine, max_batch_size=1, max_delay_ms=1000.0) as batcher:
            batcher.submit(dataset.numerical[0], dataset.categorical[0])
            assert batcher.stats == {"batches": 1, "rows": 1, "largest_batch": 1}

    def test_errors_propagate_to_caller(self, feature_result):
        _, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        with MicroBatcher(engine, max_delay_ms=0.0) as batcher:
            with pytest.raises(ValueError):
                batcher.submit(np.zeros(3))  # wrong row width

    def test_submit_after_close_raises(self, feature_result):
        _, result = feature_result
        engine = InferenceEngine(result.export_artifact(), cache_size=0)
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(np.zeros(1))


# ----------------------------------------------------------------------
# HTTP server smoke tests
# ----------------------------------------------------------------------
class TestPredictionServer:
    def test_boot_post_one_row_well_formed_json(self, instance_result):
        dataset, result = instance_result
        artifact = result.export_artifact()
        with PredictionServer(artifact, port=0) as server:
            body = json.dumps({"numerical": dataset.numerical[0].tolist()}).encode()
            request = urllib.request.Request(server.url + "/predict", data=body)
            with urllib.request.urlopen(request, timeout=10) as response:
                payload = json.loads(response.read())
            assert payload["rows"] == 1
            assert len(payload["predictions"]) == 1
            assert 0 <= payload["predictions"][0] < artifact.num_classes
            probs = payload["probabilities"][0]
            assert len(probs) == artifact.num_classes
            assert abs(sum(probs) - 1.0) < 1e-3

            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
                health = json.loads(r.read())
            assert health["status"] == "ok"
            assert health["artifact"]["formulation"] == "instance"
            # Operators can verify which inference path the deployment runs.
            assert health["network"] == artifact.network
            assert health["compiled"] is True
            assert health["pool_rows"] == artifact.pool_x.shape[0]

    def test_healthz_reports_retrieval_index(self, instance_result):
        dataset, result = instance_result
        artifact = result.export_artifact()
        with PredictionServer(artifact, port=0, index="ivf", nprobe=4) as server:
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
                health = json.loads(r.read())
            assert health["index"] == "ivf"
            assert health["nprobe"] == 4
            assert health["index_build_ms"] > 0.0
            body = json.dumps(
                {"numerical": dataset.numerical[0].tolist()}
            ).encode()
            request = urllib.request.Request(server.url + "/predict", data=body)
            urllib.request.urlopen(request, timeout=10).read()
            with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
                text = r.read().decode()
            assert 'repro_engine_retrieval_recall{formulation="instance"}' in text
            assert "repro_engine_retrieval_probed_cells_total" in text
            assert "repro_engine_retrieval_candidates_total" in text
        # Without --nprobe the IVF probes its default 8 cells: report them.
        with PredictionServer(artifact, port=0, index="ivf") as server:
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
                health = json.loads(r.read())
            assert health["index"] == "ivf"
            assert health["nprobe"] == 8
        assert InferenceEngine(artifact, index="ivf").nprobe == 8
        # Default deployments keep (and report) the exact scan.
        with PredictionServer(artifact, port=0) as server:
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as r:
                health = json.loads(r.read())
            assert health["index"] == "exact"
            assert health["nprobe"] is None

    def test_shutdown_without_start_returns(self, feature_result):
        # Regression: shutting down a constructed-but-never-started server
        # must not hang (the constructor already binds the port).
        _, result = feature_result
        server = PredictionServer(result.export_artifact(), port=0)
        done = threading.Event()

        def stop():
            server.shutdown()
            done.set()

        threading.Thread(target=stop, daemon=True).start()
        assert done.wait(timeout=10), "shutdown() hung on a never-started server"

    def test_batch_endpoint_and_errors(self, feature_result):
        dataset, result = feature_result
        with PredictionServer(result.export_artifact(), port=0) as server:
            rows = [
                {
                    "numerical": dataset.numerical[i].tolist(),
                    "categorical": dataset.categorical[i].tolist(),
                }
                for i in range(3)
            ]
            body = json.dumps({"rows": rows}).encode()
            request = urllib.request.Request(server.url + "/predict", data=body)
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.loads(response.read())["rows"] == 3

            bad = urllib.request.Request(server.url + "/predict", data=b"not json")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bad, timeout=10)
            assert err.value.code == 400

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope", timeout=10)
            assert err.value.code == 404


# ----------------------------------------------------------------------
# application export paths
# ----------------------------------------------------------------------
class TestApplicationExports:
    def test_fraud_export_is_serve_ready(self, tmp_path):
        from repro.applications import export_fraud_artifact

        dataset = make_fraud(n=150, seed=0)
        artifact = export_fraud_artifact(dataset, path=tmp_path / "fraud", epochs=5)
        assert artifact.metadata["application"] == "fraud"
        assert (tmp_path / "fraud.npz").exists()
        engine = InferenceEngine(ModelArtifact.load(tmp_path / "fraud.npz"))
        probs = engine.predict(dataset.numerical[0], dataset.categorical[0])
        assert probs.shape == (2,)

    def test_ctr_export_is_serve_ready(self, tmp_path):
        from repro.applications import export_ctr_artifact
        from repro.datasets import make_ctr

        dataset = make_ctr(n=200, seed=0)
        artifact = export_ctr_artifact(dataset, path=tmp_path / "ctr", epochs=5)
        assert artifact.formulation == "feature"
        assert (tmp_path / "ctr.json").exists()
        engine = InferenceEngine(ModelArtifact.load(tmp_path / "ctr"))
        probs = engine.predict(dataset.numerical[0], dataset.categorical[0])
        assert probs.shape == (2,)


# ----------------------------------------------------------------------
# CLI / packaging
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_console_script_declared_in_setup(self):
        setup_py = pathlib.Path(__file__).resolve().parents[1] / "setup.py"
        assert "gnn4tdl-serve=repro.serving.server:main" in setup_py.read_text()

    def test_python_dash_m_help(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serving", "--help"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == 0
        assert "--artifact" in proc.stdout
        assert "--index" in proc.stdout
        assert "--nprobe" in proc.stdout
