"""Model serving: artifacts, inductive inference, an HTTP server.

This subsystem takes any servable pipeline (every formulation whose
:mod:`repro.formulations` class declares ``servable = True`` —
``formulations.servable()`` lists them) from experiment to
request-serving:

* :mod:`repro.serving.artifact` — :class:`ModelArtifact`, the deployable
  bundle of weights + fitted preprocessing + the formulation's frozen
  serve-time payload (retrieval pool, value-node vocabularies, …),
  persisted as ``.npz`` + versioned JSON sidecar;
* :mod:`repro.serving.engine` — :class:`InferenceEngine`, inductive scoring
  of unseen rows through the scorer the artifact's fitted formulation
  provides, with a bounded LRU prediction cache.  Instance graphs link
  rows into the frozen pool via retrieval (survey Sec. 4.2.4) and a
  compiled plan computes only the query rows — O(B·k·d), independent of
  pool size (``compiled=False`` builds the autograd oracle instead);
  multiplex/hetero graphs attach rows to frozen value nodes by vocabulary
  lookup (never-seen values hit the UNK bucket);
* :mod:`repro.serving.batching` — :class:`MicroBatcher`, a library class
  coalescing concurrent single-row callers into vectorized engine calls
  (the server does not use it: it scores each request as it arrives);
* :mod:`repro.serving.server` — :class:`PredictionServer`, the one
  stdlib-only JSON-over-HTTP server (``python -m repro.serving --artifact
  model.npz``): a selectors event loop that scores in process
  (``workers=0``, the default) or dispatches to N forked workers that
  memory-map one shared read-only copy of the artifact (``workers=N``,
  :mod:`repro.serving.scaleout`), with zero-downtime artifact hot swap
  (``POST /admin/reload``) and a graceful 503-then-drain shutdown.

Every layer reports into one :class:`repro.obs.MetricsRegistry`:
``GET /metrics`` exposes request/stage latency histograms, engine
counters and drift gauges in Prometheus text format; ``GET /healthz``
serves locked, consistent counter snapshots (see the *Observability*
section of ``ROADMAP.md``).

Quickstart::

    from repro.datasets import make_correlated_instances
    from repro.pipeline import run_pipeline
    from repro.serving import InferenceEngine, ModelArtifact

    result = run_pipeline(make_correlated_instances(n=300, seed=0))
    result.export_artifact().save("model")          # model.npz + model.json

    artifact = ModelArtifact.load("model.npz")      # possibly a new process
    engine = InferenceEngine(artifact)
    probs = engine.predict([0.3] * 16)              # unseen row → class probs
"""

from repro.serving.artifact import ModelArtifact
from repro.serving.batching import MicroBatcher
from repro.serving.engine import InferenceEngine
from repro.serving.server import PredictionServer

__all__ = [
    "ModelArtifact",
    "InferenceEngine",
    "MicroBatcher",
    "PredictionServer",
]
