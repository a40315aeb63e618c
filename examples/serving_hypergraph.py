"""Serve a rows-as-hyperedges (hypergraph) pipeline — the last formulation
to become inductive, closing the formulation × serving matrix.

The hypergraph formulation (HCL/PET style) has *feature values* as nodes
and every table row as a hyperedge joining the values it contains.
Serving attaches each unseen row as a **new hyperedge** over the frozen
value nodes: the artifact carries the incidence structure plus the frozen
row→value-node encoder (global id offsets, quantile bin edges), the
engine caches the value-node states once, and a query's logits are the
degree-normalized mean of its member nodes' cached states — independent
of how many rows the training table held.  Because a training row rejoins
exactly the value nodes it occupied transductively, served training rows
reproduce the transductive predictions to float round-off, and
``compiled=False`` builds the autograd oracle (the model rebuilt on the
incidence with query columns appended) to check that claim.

Run with:  PYTHONPATH=src python examples/serving_hypergraph.py
"""

import json
import tempfile
import urllib.request

import numpy as np

from repro.datasets import make_fraud
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, ModelArtifact, PredictionServer

# 1. Train a hypergraph pipeline: device/merchant values + quantile-binned
# numericals become value nodes; each transaction is one hyperedge.
dataset = make_fraud(n=150, seed=0)
result = run_pipeline(dataset, formulation="hypergraph", max_epochs=60, seed=0)
print("trained:", result.as_row())

# 2. Export.  The payload freezes the incidence structure and the value
# encoder, so a fresh process can attach unseen rows as new hyperedges.
with tempfile.TemporaryDirectory() as tmp:
    path = result.export_artifact().save(f"{tmp}/model")
    artifact = ModelArtifact.load(path)
    print("artifact:", artifact.summary())

    # 3a. Compiled serving vs the two references.  Training rows match the
    # transductive forward exactly; arbitrary rows match the compiled=False
    # oracle (model rebuilt on the incidence with query columns appended).
    engine = InferenceEngine(artifact)
    served = engine.predict_batch(dataset.numerical[:8], dataset.categorical[:8])
    logits = result.state.logits()[:8]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    transductive = exp / exp.sum(axis=1, keepdims=True)
    print("served vs transductive max |diff|:",
          float(np.abs(served - transductive).max()))

    oracle = InferenceEngine(artifact, compiled=False)
    rng = np.random.default_rng(0)
    unseen = dataset.numerical[:4] + rng.normal(0, 0.3, (4, dataset.num_numerical))
    print("compiled vs oracle max |diff|:",
          float(np.abs(
              engine.predict_batch(unseen, dataset.categorical[:4])
              - oracle.predict_batch(unseen, dataset.categorical[:4])
          ).max()))

    # A transaction from a never-seen device: the unknown value simply has
    # no value node to join (the UNK fallback), the rest of the row still
    # carries the prediction.
    unseen_device = dataset.categorical[:1].copy()
    unseen_device[0, 0] = 999_999
    unk = engine.predict_batch(dataset.numerical[:1], unseen_device)
    print("UNK-device probs:", np.round(unk[0], 4).tolist(),
          "| unk_values:", engine.stats["unk_values"])

    # 3b. The same artifact behind HTTP, scored in process (workers=0).
    with PredictionServer(artifact, port=0) as server:
        body = json.dumps({
            "numerical": dataset.numerical[0].tolist(),
            "categorical": dataset.categorical[0].tolist(),
        }).encode()
        request = urllib.request.Request(server.url + "/predict", data=body)
        with urllib.request.urlopen(request) as response:
            print("http /predict:", json.loads(response.read()))
        with urllib.request.urlopen(server.url + "/healthz") as response:
            health = json.loads(response.read())
        print("http /healthz:", {k: health[k] for k in
                                 ("status", "formulation", "network",
                                  "schema_version", "compiled",
                                  "pool_rows")})
