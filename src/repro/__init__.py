"""GNN4TDL — Graph Neural Networks for Tabular Data Learning.

A complete, from-scratch reproduction of the ICDE 2023 survey "Graph Neural
Networks for Tabular Data Learning" (extended version arXiv:2401.02143):
every graph formulation, construction rule, GNN family, auxiliary task and
training strategy in the survey's taxonomy, implemented on numpy/scipy with
an in-house autograd engine.

Quickstart::

    from repro.datasets import make_correlated_instances
    from repro.pipeline import run_pipeline

    dataset = make_correlated_instances(n=400, seed=0)
    result = run_pipeline(dataset, formulation="instance", network="gcn")
    print(result.as_row())

Serving quickstart — train, export, serve, predict::

    from repro.serving import InferenceEngine, ModelArtifact

    result.export_artifact().save("model")      # → model.npz + model.json

    # Same process: score rows the training graph never saw.  Unseen rows
    # link into the frozen training pool by retrieval (survey Sec. 4.2.4).
    engine = InferenceEngine(ModelArtifact.load("model.npz"))
    probs = engine.predict([0.3] * dataset.num_numerical)

    # Fresh process: JSON-over-HTTP, stdlib only.
    #   $ python -m repro.serving --artifact model.npz --port 8000
    #   $ curl -d '{"numerical": [0.3, ...]}' localhost:8000/predict
    #   $ curl localhost:8000/healthz

Subpackages
-----------
``repro.tensor``        autograd engine (the PyTorch substitute)
``repro.nn``            layers, losses, optimizers
``repro.graph``         graph data structures (Phase 1)
``repro.formulations``  the Phase 1 formulation axis as a registry
``repro.construction``  graph construction (Phase 2)
``repro.gnn``           GNN layers & stacks (Phase 3)
``repro.training``      training plans (Phase 4)
``repro.models``        specialized GNN4TDL methods
``repro.datasets``      data container + synthetic generators
``repro.baselines``     structure-blind reference models
``repro.applications``  Sec. 5 application pipelines
``repro.serving``       model artifacts, inductive inference, HTTP serving
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "nn",
    "graph",
    "formulations",
    "construction",
    "gnn",
    "training",
    "models",
    "datasets",
    "baselines",
    "metrics",
    "registry",
    "pipeline",
    "applications",
    "serving",
]
