"""Cross-formulation parity & serving matrix (seeded randomized fuzz).

The formulation × serving matrix is closed: every formulation registered
as servable must export → reload → serve, and the served probabilities
(the compiled plan, the engine default) must match that formulation's
autograd oracle (``compiled=False``) to 1e-8: the training model's forward
over the frozen pool with the query rows appended as receive-only nodes.
Instance rebuilds the induced pool+queries graph, multiplex appends rows
that read their value groups' pool means without joining them, hetero
appends instance nodes with only value→instance edges, hypergraph appends
query columns to the incidence, and feature re-scores directly.

The matrix is built from the live registry at collection time, so a
formulation registered later is fuzzed automatically with zero edits
here.  Rows are drawn from a seeded RNG: training rows (parity),
perturbed numericals and randomly-missing cells (validity), and a
never-seen categorical code for every formulation whose scorer keeps a
value vocabulary (detected by its ``unk_values`` counter, not by name).
"""

import json

import numpy as np
import pytest

from repro import formulations
from repro.datasets import make_fraud
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, ModelArtifact
from repro.serving.scaleout.worker import boot, handle_frame
from repro.tensor.ops import softmax_rows

SEED = 20260729
#: instance is the only formulation with a free network axis (one family
#: per conv substrate); every other formulation carries its architecture.
#: All five families ride the matrix so the compiled-plan lowering of each
#: conv substrate is fuzzed against the autograd oracle.
INSTANCE_NETWORKS = ("gcn", "sage", "gin", "gat", "gated")


def _matrix():
    cells = []
    for form in formulations.servable():
        if form == "instance":
            cells.extend((form, network) for network in INSTANCE_NETWORKS)
        else:
            cells.append((form, "default"))
    return cells


MATRIX = _matrix()


@pytest.fixture(scope="module")
def dataset():
    return make_fraud(n=140, seed=1)


@pytest.fixture(scope="module")
def trained(dataset):
    cache = {}

    def get(form, network):
        key = (form, network)
        if key not in cache:
            kwargs = {} if network == "default" else {"network": network}
            cache[key] = run_pipeline(
                dataset, formulation=form, max_epochs=5, seed=0, **kwargs
            )
        return cache[key]

    return get


def _cell_rng(form, network):
    # Deterministic per-cell stream that doesn't depend on matrix order.
    return np.random.default_rng(
        [SEED, sum(map(ord, form)), sum(map(ord, network))]
    )


def _oracle_engine(artifact):
    """The formulation's appended-query autograd oracle."""
    return InferenceEngine(artifact, cache_size=0, compiled=False)


def test_matrix_covers_every_servable_formulation():
    assert {form for form, _ in MATRIX} == set(formulations.servable())
    assert len(MATRIX) >= len(formulations.servable())


@pytest.mark.parametrize(("form", "network"), MATRIX)
def test_export_reload_serve_matches_oracle(form, network, tmp_path, dataset, trained):
    result = trained(form, network)
    artifact = result.export_artifact()
    loaded = ModelArtifact.load(artifact.save(tmp_path / f"{form}-{network}"))
    assert loaded.formulation == form
    engine = InferenceEngine(loaded, cache_size=0)

    rng = _cell_rng(form, network)
    idx = rng.choice(dataset.num_instances, size=16, replace=False)
    served = engine.predict_batch(dataset.numerical[idx], dataset.categorical[idx])
    assert np.isfinite(served).all()
    np.testing.assert_allclose(served.sum(axis=1), 1.0, atol=1e-10)

    expected = _oracle_engine(loaded).predict_batch(
        dataset.numerical[idx], dataset.categorical[idx]
    )
    np.testing.assert_allclose(served, expected, atol=1e-8)


@pytest.mark.parametrize(("form", "network"), MATRIX)
def test_fuzzed_unseen_rows_serve_validly(form, network, dataset, trained):
    # Seeded fuzz over genuinely unseen traffic: perturbed numericals and
    # randomly-missing cells must score to finite, normalized probabilities
    # on the serve path, and the oracle must agree to 1e-8 even for these
    # rows.
    artifact = trained(form, network).export_artifact()
    engine = InferenceEngine(artifact, cache_size=0)
    rng = _cell_rng(form, network)

    idx = rng.choice(dataset.num_instances, size=12, replace=False)
    numerical = dataset.numerical[idx] + rng.normal(
        0.0, 0.5, (idx.size, dataset.num_numerical)
    )
    categorical = dataset.categorical[idx].copy()
    missing = rng.random(numerical.shape) < 0.25
    numerical[missing] = np.nan
    categorical[rng.random(categorical.shape) < 0.25] = -1

    served = engine.predict_batch(numerical, categorical)
    assert served.shape == (idx.size, dataset.num_classes)
    assert np.isfinite(served).all()
    np.testing.assert_allclose(served.sum(axis=1), 1.0, atol=1e-10)

    np.testing.assert_allclose(
        served,
        _oracle_engine(artifact).predict_batch(numerical, categorical),
        atol=1e-8,
    )


@pytest.mark.parametrize(("form", "network"), MATRIX)
def test_compiled_plan_matches_oracle(form, network, dataset, trained):
    # The compiled plan (default) must reproduce the appended-query
    # autograd oracle to 1e-8 on every registered servable cell — training
    # rows, fuzzed unseen rows, NaN and missing cells, and a never-seen
    # categorical code — and must keep the serving counters (unk_values,
    # attach_edges) identical.
    artifact = trained(form, network).export_artifact()
    compiled = InferenceEngine(artifact, cache_size=0)
    oracle = _oracle_engine(artifact)
    assert compiled.compiled, "registry formulations all lower to plans"
    assert not oracle.compiled
    assert compiled.compile_ms > 0.0
    rng = _cell_rng(form, network)

    idx = rng.choice(dataset.num_instances, size=12, replace=False)
    numerical = dataset.numerical[idx] + rng.normal(
        0.0, 0.5, (idx.size, dataset.num_numerical)
    )
    categorical = dataset.categorical[idx].copy()
    numerical[rng.random(numerical.shape) < 0.25] = np.nan
    categorical[rng.random(categorical.shape) < 0.25] = -1
    categorical[:2, 0] = 10_000_000  # never-seen code → UNK bucket
    numerical = np.concatenate([dataset.numerical[idx[:6]], numerical])
    categorical = np.concatenate([dataset.categorical[idx[:6]], categorical])

    np.testing.assert_allclose(
        compiled.predict_batch(numerical, categorical),
        oracle.predict_batch(numerical, categorical),
        atol=1e-8,
    )
    np.testing.assert_allclose(
        compiled.predict(numerical[:1], categorical[:1]),
        oracle.predict(numerical[:1], categorical[:1]),
        atol=1e-8,
    )
    for key in ("unk_values", "attach_edges"):
        assert compiled.stats.get(key) == oracle.stats.get(key), key


@pytest.mark.parametrize("network", INSTANCE_NETWORKS)
def test_ivf_served_prediction_drift_bounded(network, dataset, trained):
    # The ANN acceptance bound: probabilities served through the IVF
    # retrieval index stay within 1e-3 of the exact index on the fuzz
    # rows.  The 140-row fuzz pool quantizes into ~12 cells and a missed
    # true neighbor moves a tiny pool's probabilities well past 1e-3, so
    # nprobe covers the full quantizer — certifying the whole IVF serve
    # path (coarse probing, CSR cell gather, subset re-ranking, counter
    # export) under the drift bound; the recall/latency tradeoff at
    # 10⁵–10⁶-row pools is enforced in bench_serving_throughput.py.
    artifact = trained("instance", network).export_artifact()
    exact = InferenceEngine(artifact, cache_size=0, index="exact")
    ivf = InferenceEngine(artifact, cache_size=0, index="ivf", nprobe=12)
    assert ivf.index == "ivf" and ivf.nprobe == 12
    assert ivf.index_build_ms > 0.0
    rng = _cell_rng("instance", network)

    idx = rng.choice(dataset.num_instances, size=12, replace=False)
    numerical = dataset.numerical[idx] + rng.normal(
        0.0, 0.5, (idx.size, dataset.num_numerical)
    )
    categorical = dataset.categorical[idx].copy()
    numerical[rng.random(numerical.shape) < 0.25] = np.nan
    categorical[rng.random(categorical.shape) < 0.25] = -1

    drift = np.abs(
        np.asarray(ivf.predict_batch(numerical, categorical))
        - np.asarray(exact.predict_batch(numerical, categorical))
    ).max()
    assert drift <= 1e-3, f"{network}: IVF served drift {drift:.2e} > 1e-3"
    assert ivf.stats["retrieval_probed_cells"] > 0
    assert ivf.stats["retrieval_candidates"] > 0


@pytest.mark.parametrize("network", INSTANCE_NETWORKS)
def test_exact_index_stays_bit_identical(network, dataset, trained):
    # index="exact" (and the default, which resolves to it) must not move
    # a single bit relative to an engine that never heard of index
    # selection — the guarantee that shipping the ANN backend changed
    # nothing for existing deployments.
    artifact = trained("instance", network).export_artifact()
    default = InferenceEngine(artifact, cache_size=0)
    explicit = InferenceEngine(artifact, cache_size=0, index="exact")
    assert default.index == "exact" and explicit.index == "exact"
    assert not default._scorer._pool_index.is_approximate
    rng = _cell_rng("instance", network)

    idx = rng.choice(dataset.num_instances, size=12, replace=False)
    numerical = dataset.numerical[idx] + rng.normal(
        0.0, 0.5, (idx.size, dataset.num_numerical)
    )
    categorical = dataset.categorical[idx]
    assert np.array_equal(
        default.predict_batch(numerical, categorical),
        explicit.predict_batch(numerical, categorical),
    )


def test_artifact_config_selects_index_without_engine_kwargs(dataset, trained):
    # The ModelArtifact path: a deployment can bake index selection into
    # the artifact config; an engine constructed with no kwargs honors it
    # (explicit engine kwargs still win).
    artifact = trained("instance", "gcn").export_artifact()
    artifact.fitted.config["index"] = "ivf"
    artifact.fitted.config["nprobe"] = 6
    engine = InferenceEngine(artifact, cache_size=0)
    assert engine.index == "ivf" and engine.nprobe == 6
    override = InferenceEngine(artifact, cache_size=0, index="exact")
    assert override.index == "exact"
    del artifact.fitted.config["index"]
    del artifact.fitted.config["nprobe"]


def test_non_retrieval_formulation_rejects_index_selection(trained):
    artifact = trained("multiplex", "default").export_artifact()
    with pytest.raises(ValueError, match="does not retrieve"):
        InferenceEngine(artifact, index="ivf")
    engine = InferenceEngine(artifact)
    assert engine.index is None and engine.nprobe is None


def test_hypergraph_round_trip_without_continuous_columns(tmp_path):
    # Regression: a dataset with no binned numerical columns persists an
    # *empty* bin_edges array; the artifact must still reload and serve
    # (reshape(0, -1) on an empty array is ill-defined).
    from repro.datasets.tabular import TabularDataset

    n = 40
    categorical = np.stack([np.arange(n) % 3, np.arange(n) % 4], axis=1)
    dataset = TabularDataset(
        np.zeros((n, 0)), categorical, (np.arange(n) % 2).astype(np.int64),
        "binary",
    )
    result = run_pipeline(dataset, formulation="hypergraph", max_epochs=2, seed=0)
    path = result.export_artifact().save(tmp_path / "cat-only")
    engine = InferenceEngine(ModelArtifact.load(path), cache_size=0)
    served = engine.predict_batch(dataset.numerical[:4], dataset.categorical[:4])
    np.testing.assert_allclose(
        served, softmax_rows(result.state.logits()[:4], axis=1), atol=1e-8
    )


@pytest.mark.parametrize(("form", "network"), MATRIX)
def test_every_formulation_exposes_stage_metrics(form, network, dataset, trained):
    # The observability contract is formulation-agnostic: any servable
    # artifact's engine exposes per-stage latency histograms (the score
    # span plus the encode stage every scorer marks, and the
    # plan_execute stage the compiled default serves through), the
    # request-latency histogram, and the drift gauges — all under its own
    # ``formulation`` label.
    artifact = trained(form, network).export_artifact()
    engine = InferenceEngine(artifact)
    assert engine.compiled, "matrix formulations all lower to compiled plans"
    engine.predict(dataset.numerical[0], dataset.categorical[0])
    engine.predict_batch(dataset.numerical[:6], dataset.categorical[:6])

    text = engine.registry.render_prometheus()

    def count_of(line_prefix):
        matches = [
            line for line in text.splitlines()
            if line.startswith(line_prefix)
        ]
        assert len(matches) == 1, line_prefix
        return float(matches[0].rsplit(" ", 1)[1])

    for endpoint, expected in (("predict", 1), ("predict_batch", 1)):
        assert count_of(
            f'repro_request_duration_seconds_count'
            f'{{formulation="{form}",endpoint="{endpoint}"}}'
        ) == expected
    for stage in ("cache", "score", "encode", "plan_execute", "head"):
        assert count_of(
            f'repro_stage_duration_seconds_count'
            f'{{formulation="{form}",stage="{stage}"}}'
        ) >= 1, stage
    for gauge in (
        "repro_engine_unk_rate", "repro_engine_cache_hit_rate",
        "repro_engine_attach_fanout", "repro_engine_cache_entries",
        "repro_engine_compiled",
    ):
        assert f'{gauge}{{formulation="{form}"}}' in text, gauge
    # The internal request histogram's quantiles are real numbers the
    # bench can cross-check against an external timer.
    hist = engine.registry.get("repro_request_duration_seconds")
    p50 = hist.labels(formulation=form, endpoint="predict_batch").quantile(0.5)
    assert np.isfinite(p50) and p50 > 0


@pytest.mark.parametrize(("form", "network"), MATRIX)
def test_never_seen_value_serves_through_unk(form, network, dataset, trained):
    # Every value-node formulation (detected by capability: its scorer
    # registers an ``unk_values`` counter) must score a never-seen
    # categorical code without growing state, erroring, or going NaN.
    artifact = trained(form, network).export_artifact()
    engine = InferenceEngine(artifact, cache_size=0)
    if "unk_values" not in engine.stats:
        pytest.skip(f"{form} keeps no value vocabulary")
    categorical = dataset.categorical[:5].copy()
    categorical[:, 0] = 10_000_000
    probs = engine.predict_batch(dataset.numerical[:5], categorical)
    assert engine.stats["unk_values"] == 5
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)


def _strict_json(body):
    """Parse ``body`` as standard JSON: NaN/Infinity are not JSON."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(body.decode(), parse_constant=refuse)


@pytest.mark.parametrize(("form", "network"), MATRIX)
def test_wire_contract_is_strict(form, network, dataset, trained):
    # The request path every deployment shares (handle_frame →
    # execute_predict): an infinite numerical value is a 400 naming its
    # column, NaN and null stay the missing-value marker, and every 200
    # body is standard JSON with finite probabilities summing to 1 per row.
    unit = boot(trained(form, network).export_artifact(), {"cache_size": 0})

    def predict(payload):
        reply, body = handle_frame(
            unit, {"op": "predict"}, json.dumps(payload).encode()
        )
        return reply["status"], body

    row = dataset.numerical[0].tolist()
    for value in (float("inf"), float("-inf")):
        bad = list(row)
        bad[1] = value
        status, body = predict({"numerical": bad})
        assert status == 400
        assert "numerical column 1" in _strict_json(body)["error"]
        status, body = predict({"rows": [{"numerical": row}, {"numerical": bad}]})
        assert status == 400

    # Nothing is coerced: a string or boolean in either list, and a
    # categorical code with a fractional part, is a 400 naming the column
    # as a single row and inside a batch.
    codes = dataset.categorical[0].tolist()
    good = {"numerical": row, "categorical": codes}
    refused = []
    for column, value in ((0, codes[0] + 0.9), (1, str(codes[1])), (0, True)):
        bad = list(codes)
        bad[column] = value
        refused.append(({"numerical": row, "categorical": bad},
                        f"categorical column {column}"))
    refused.append(({"numerical": row, "categorical": [str(c) for c in codes]},
                    "categorical column 0"))
    for column, value in ((1, str(row[1])), (2, False)):
        bad = list(row)
        bad[column] = value
        refused.append(({"numerical": bad}, f"numerical column {column}"))
    refused.append(({"numerical": [str(v) for v in row]}, "numerical column 0"))
    for payload, column in refused:
        for request in (payload, {"rows": [good, payload]}):
            status, body = predict(request)
            assert status == 400, request
            assert column in _strict_json(body)["error"], request

    missing = list(row)
    missing[0] = float("nan")
    missing[2] = None
    rows = [
        good,
        {"numerical": missing},
        {"numerical": dataset.numerical[1].tolist(),
         "categorical": [10_000_000] * dataset.num_categorical},
        {"numerical": row, "categorical": [float(c) for c in codes]},
    ]
    served = []
    for payload in rows + [{"rows": rows}]:
        status, body = predict(payload)
        assert status == 200
        response = _strict_json(body)
        probs = np.asarray(response["probabilities"])
        assert probs.shape == (response["rows"], dataset.num_classes)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
        served.append(probs)
    # An integral float code is that code.
    np.testing.assert_array_equal(served[3], served[0])
