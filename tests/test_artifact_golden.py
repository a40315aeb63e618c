"""Golden-artifact regression tests.

Two tiny artifacts are checked into ``tests/fixtures/`` (see
``generate_golden.py`` there): a *legacy* schema-v1 instance artifact
(``pool::`` arrays, ``format_version`` sidecar key) and a current
schema-v2 hypergraph artifact (namespaced ``form::`` payload).  They pin
three contracts refactors keep breaking silently:

* old saves keep **loading** (both schemas) and keep producing the exact
  probabilities recorded at generation time;
* a sidecar declaring a schema this library does not know is **rejected**,
  never half-loaded;
* a fresh save is **byte-stable**: saving the same artifact twice, or
  saving → loading → saving, produces identical ``.npz`` and ``.json``
  bytes — the property that makes artifact diffs meaningful in deploy
  pipelines.
"""

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.serving import InferenceEngine, ModelArtifact
from repro.serving.artifact import ARTIFACT_SCHEMA_VERSION

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def expected():
    with np.load(FIXTURES / "golden_expected.npz") as data:
        return {name: data[name] for name in data.files}


class TestGoldenLoads:
    def test_v1_legacy_fixture_loads_and_reproduces_probs(self, expected):
        artifact = ModelArtifact.load(FIXTURES / "golden_v1.npz")
        assert artifact.schema_version == 1
        assert artifact.formulation == "instance"
        assert artifact.pool_x is not None
        probs = InferenceEngine(artifact, cache_size=0).predict_batch(
            expected["v1_numerical"], expected["v1_categorical"]
        )
        np.testing.assert_allclose(probs, expected["v1_probs"], atol=1e-8)

    def test_v2_fixture_loads_and_reproduces_probs(self, expected):
        artifact = ModelArtifact.load(FIXTURES / "golden_v2.npz")
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION
        assert artifact.formulation == "hypergraph"
        probs = InferenceEngine(artifact, cache_size=0).predict_batch(
            expected["v2_numerical"], expected["v2_categorical"]
        )
        np.testing.assert_allclose(probs, expected["v2_probs"], atol=1e-8)

    def test_v2_fixture_serves_incrementally_with_oracle_parity(self, expected):
        artifact = ModelArtifact.load(FIXTURES / "golden_v2.npz")
        rows = (expected["v2_numerical"], expected["v2_categorical"])
        inc = InferenceEngine(artifact, cache_size=0)
        assert inc.compiled
        oracle = InferenceEngine(artifact, cache_size=0, compiled=False)
        np.testing.assert_allclose(
            inc.predict_batch(*rows), oracle.predict_batch(*rows), atol=1e-8
        )


class TestSchemaRejection:
    @pytest.mark.parametrize("fixture", ["golden_v1", "golden_v2"])
    def test_unknown_schema_version_rejected(self, fixture, tmp_path):
        for suffix in (".npz", ".json"):
            shutil.copy(FIXTURES / (fixture + suffix), tmp_path / ("m" + suffix))
        sidecar = json.loads((tmp_path / "m.json").read_text())
        sidecar["schema_version"] = ARTIFACT_SCHEMA_VERSION + 5
        (tmp_path / "m.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="unknown artifact schema"):
            ModelArtifact.load(tmp_path / "m.npz")


class TestByteStability:
    @pytest.mark.parametrize("fixture", ["golden_v1", "golden_v2"])
    def test_fresh_save_round_trips_byte_stably(self, fixture, tmp_path):
        artifact = ModelArtifact.load(FIXTURES / (fixture + ".npz"))
        first = artifact.save(tmp_path / "first")
        second = ModelArtifact.load(first).save(tmp_path / "second")
        assert first.read_bytes() == second.read_bytes()
        assert (
            first.with_suffix(".json").read_bytes()
            == second.with_suffix(".json").read_bytes()
        )

    def test_saving_twice_is_identical(self, tmp_path):
        artifact = ModelArtifact.load(FIXTURES / "golden_v2.npz")
        a = artifact.save(tmp_path / "a")
        b = artifact.save(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_v1_resave_upgrades_to_current_schema(self, tmp_path, expected):
        # Re-saving a legacy artifact writes the current schema and must
        # not change what it predicts.
        legacy = ModelArtifact.load(FIXTURES / "golden_v1.npz")
        upgraded = ModelArtifact.load(legacy.save(tmp_path / "upgraded"))
        assert upgraded.schema_version == ARTIFACT_SCHEMA_VERSION
        probs = InferenceEngine(upgraded, cache_size=0).predict_batch(
            expected["v1_numerical"], expected["v1_categorical"]
        )
        np.testing.assert_allclose(probs, expected["v1_probs"], atol=1e-8)
