"""Compiled inference plans: lowering coverage, semantics, path selection.

Parity at the engine level is fuzzed per registry cell in
``test_formulation_matrix.py``; this module tests the plan machinery
itself — the kernels its steps call, fresh results per run, per-network
lowering of every conv substrate against the ``compiled=False`` oracle
(untrained artifacts: lowering correctness does not depend on the
weights), and path selection (a built-in model that cannot lower refuses
to start instead of serving slower; plug-in scorers serve through their
own ``score``).
"""

import numpy as np
import pytest

from repro import formulations
from repro.construction.rules import knn_graph
from repro.datasets import TabularPreprocessor, make_correlated_instances, make_fraud
from repro.gnn.networks import build_network
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, ModelArtifact
from repro.serving.compiled import (
    InferencePlan,
    UnsupportedPlanError,
    compile_instance,
    kernels,
)

NETWORKS = ("gcn", "sage", "gin", "gat", "gated")
#: every servable formulation, instance once per conv family
PLAN_CELLS = [("instance", network) for network in NETWORKS] + [
    (form, "default") for form in formulations.servable() if form != "instance"
]


def _instance_artifact(network, n=60, hidden=16, k=5, seed=0):
    dataset = make_correlated_instances(n=n, seed=seed)
    prep = TabularPreprocessor(mode="onehot").fit(dataset)
    x = prep.transform_dataset(dataset)
    graph = knn_graph(x, k=k, metric="euclidean", y=dataset.y)
    model = build_network(
        network, graph, hidden, dataset.num_classes,
        np.random.default_rng(seed), num_layers=2,
    )
    return ModelArtifact(
        formulation="instance",
        network=network,
        config={
            "hidden_dim": hidden, "out_dim": dataset.num_classes, "k": k,
            "metric": "euclidean", "num_layers": 2, "embed_dim": 8,
            "task": dataset.task,
        },
        state_dict=model.state_dict(),
        preprocessor=prep,
        pool_x=np.asarray(graph.x, dtype=np.float64),
        pool_edge_index=graph.edge_index.astype(np.int64),
    )


@pytest.fixture(scope="module")
def cell_artifact():
    """Artifact per (formulation, network) cell: untrained instance
    networks, briefly trained pipelines for the other formulations."""
    dataset = make_fraud(n=80, seed=0)
    cache = {}

    def get(form, network):
        if (form, network) not in cache:
            cache[form, network] = (
                _instance_artifact(network) if form == "instance"
                else run_pipeline(
                    dataset, formulation=form, max_epochs=2, seed=0
                ).export_artifact()
            )
        return cache[form, network]

    return get


def _rows(artifact, n=12, seed=42):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (n, artifact.preprocessor.num_numerical_features))


# ---------------------------------------------------------------------------
# plan machinery
# ---------------------------------------------------------------------------
class TestPlanMachinery:
    def test_run_returns_a_fresh_array(self):
        # A plan owns no buffers: a result held across a second run keeps
        # its values, and no step writes the caller's feed.
        plan = InferencePlan()
        plan.feed("x")
        w = plan.const("w", np.eye(3))
        lin = plan.step(kernels.linear, ("x", w), "lin")
        plan.output = plan.step(kernels.relu, (lin,), "out")
        assert plan.ops == ("linear", "relu")
        feed = np.full((4, 3), -1.0)
        feed.flags.writeable = False
        first = plan.run({"x": np.full((4, 3), 2.0)})
        second = plan.run({"x": feed})
        assert second is not first
        np.testing.assert_array_equal(first, 2.0)
        np.testing.assert_array_equal(second, 0.0)
        np.testing.assert_array_equal(feed, -1.0)

    def test_concat_step_joins_earlier_results_by_column(self):
        # The multiplex head reads [fused | self] through one concat step.
        plan = InferencePlan()
        plan.feed("x")
        w = plan.const("w", np.eye(2))
        left = plan.step(kernels.linear, ("x", w), "left")
        right = plan.step(kernels.relu, ("x",), "right")
        plan.output = plan.step(kernels.concat, (left, right), "combined")
        assert plan.ops == ("linear", "relu", "concat")
        got = plan.run({"x": np.full((3, 2), -1.5)})
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got[:, :2], -1.5)
        np.testing.assert_array_equal(got[:, 2:], 0.0)

    @pytest.mark.parametrize(("form", "network"), PLAN_CELLS)
    def test_every_step_op_is_in_the_kernel_vocabulary(
        self, form, network, cell_artifact
    ):
        # Whatever a lowering emits, each step calls a function defined
        # in serving/compiled/kernels.py, and plan.ops names it.
        engine = InferenceEngine(cell_artifact(form, network), cache_size=0)
        assert engine.compiled
        plan = engine._scorer.plan
        assert isinstance(plan, InferencePlan)
        assert plan.steps
        for kernel, _, _, _ in plan.steps:
            assert kernel.__module__ == kernels.__name__
            assert getattr(kernels, kernel.__name__) is kernel
        assert plan.ops == tuple(kernel.__name__ for kernel, *_ in plan.steps)


# ---------------------------------------------------------------------------
# per-network lowering parity (untrained weights, engine level)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("network", NETWORKS)
def test_network_lowering_matches_oracle(network):
    artifact = _instance_artifact(network)
    rows = _rows(artifact)
    compiled = InferenceEngine(artifact, cache_size=0)
    oracle = InferenceEngine(artifact, cache_size=0, compiled=False)
    assert compiled.compiled and not oracle.compiled
    assert compiled.compile_ms > 0.0
    np.testing.assert_allclose(
        compiled.predict_batch(rows), oracle.predict_batch(rows),
        atol=1e-8,
    )
    # Attach accounting identical: the plan consumes the same neighbors.
    assert compiled.stats["attach_edges"] == oracle.stats["attach_edges"]


# ---------------------------------------------------------------------------
# path selection: compiled plan, oracle, plug-in scorers
# ---------------------------------------------------------------------------
class TestPathSelection:
    def test_compiled_false_builds_the_oracle(self):
        engine = InferenceEngine(
            _instance_artifact("gcn"), cache_size=0, compiled=False
        )
        assert not engine.compiled
        assert engine.compile_ms == 0.0
        assert engine._scorer.plan is None

    def test_unlowerable_model_raises(self):
        class Opaque:
            pass

        with pytest.raises(UnsupportedPlanError, match="serve_plan"):
            compile_instance(Opaque(), 5)

    def test_builtin_scorer_that_cannot_lower_refuses_to_start(
        self, monkeypatch
    ):
        # No silent slow path: the default engine raises, naming the
        # oracle switch, and compiled=False still builds.
        from repro.serving import compiled as compiled_pkg

        def refuse(*args, **kwargs):
            raise UnsupportedPlanError("unsupported conv family: Custom")

        monkeypatch.setattr(compiled_pkg, "compile_instance", refuse)
        artifact = _instance_artifact("gcn")
        with pytest.raises(UnsupportedPlanError, match="compiled=False"):
            InferenceEngine(artifact, cache_size=0)
        oracle = InferenceEngine(artifact, cache_size=0, compiled=False)
        assert oracle.predict_batch(_rows(artifact, n=2)).shape[0] == 2

    def test_plugin_scorers_serve_through_their_own_score(self):
        from repro.formulations.base import RowScorer

        class PluginScorer(RowScorer):
            def score(self, numerical, categorical):  # pragma: no cover
                return np.zeros((numerical.shape[0], 2))

        scorer = PluginScorer()
        assert scorer.compile_plan() is None
        assert scorer.plan is None

    def test_compiled_gauge_reports_serving_path(self):
        engine = InferenceEngine(_instance_artifact("gcn"))
        text = engine.registry.render_prometheus()
        assert 'repro_engine_compiled{formulation="instance"} 1' in text
        oracle = InferenceEngine(_instance_artifact("gcn"), compiled=False)
        text = oracle.registry.render_prometheus()
        assert 'repro_engine_compiled{formulation="instance"} 0' in text
