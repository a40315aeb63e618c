"""Train → export artifact → reload → serve, with retrieval-index selection.

Demonstrates the full deployment path of ``repro.serving`` with an
**instance** (retrieval-attach, PET-style) pipeline — the formulation
whose serving cost is dominated by the attach stage: every query row
retrieves its k nearest pool rows before propagating.  That retrieval
runs through a :class:`~repro.construction.PoolIndex`, which scans the
pool exactly or searches an IVF index, and this example serves the same
artifact through both:

1. train an instance pipeline on a synthetic clustered table and export
   a :class:`~repro.serving.ModelArtifact` (weights + frozen
   preprocessing statistics + the training pool) to ``.npz`` + versioned
   JSON sidecar;
2. reload it (as a fresh process would) behind the default **exact**
   index — the exhaustive O(N·d) scan, bit-identical to what serving has
   always done and the oracle everything else is measured against;
3. reload it again behind the **IVF** index
   (``InferenceEngine(artifact, index="ivf", nprobe=8)``): a pure-numpy
   inverted-file index — seeded k-means coarse quantizer with
   ``nlist = round(√N)`` cells built once at engine init (``engine.
   index_build_ms``), per query only the ``nprobe`` most promising
   cells are scanned and re-ranked exactly — sub-linear in pool size
   (≈7× faster top_k at pool=10⁵, ≈21× at 10⁶, per the serving bench).
   The served probabilities are compared against the exact engine;
4. serve over HTTP with ``--index ivf`` semantics
   (``PredictionServer(..., index="ivf", nprobe=8)``), scoring in the
   server's own process (``workers=0``, the default), checking
   ``/healthz`` for the live ``index``/``nprobe``/``index_build_ms``
   and scraping the ``repro_engine_retrieval_*`` series from
   ``/metrics`` — probe counters plus a sampled recall-vs-exact gauge;
5. scale the same artifact out across **worker processes**
   (``PredictionServer(path, workers=2)`` — the CLI spells it
   ``gnn4tdl-serve --artifact model.npz --workers 2``): the same event
   loop dispatches to forked workers that memory-map one shared
   read-only copy of the pool state, ``/healthz`` reports the fleet
   (``workers``, ``artifact_generation``, ``artifact_sha``,
   ``mmapped``), ``/metrics`` merges every worker's registry, and
   ``POST /admin/reload`` hot-swaps to a new artifact with zero
   downtime (new workers boot, routing switches atomically, the old
   set drains behind its in-flight work) — the same swap a
   ``workers=0`` server performs with a new in-process engine.

The artifact's ``config["metric"]`` must be one of the six measures the
index ranks (``repro/construction/retrieval.py`` lists them); any other
is refused when the engine boots.

Every other formulation rides the same serving API — swap
``formulation="multiplex"`` and the artifact carries value-node
vocabularies instead of a retrieval pool (index selection then does not
apply and is refused; see ``examples/serving_hypergraph.py`` for the
hyperedge-attach variant).

Run with:  PYTHONPATH=src python examples/serving_quickstart.py
"""

import json
import tempfile
import urllib.request

import numpy as np

from repro.datasets import make_correlated_instances
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, ModelArtifact, PredictionServer

# 1. Train an instance (retrieval-attach) pipeline.  The training table
# becomes the frozen retrieval pool the served queries link into.
dataset = make_correlated_instances(n=600, seed=0, cluster_strength=2.0)
result = run_pipeline(dataset, formulation="instance", max_epochs=40, seed=0)
print("trained:", result.as_row())

with tempfile.TemporaryDirectory() as tmp:
    path = result.export_artifact().save(f"{tmp}/model")
    print("artifact:", path.name, "+", path.with_suffix(".json").name)
    artifact = ModelArtifact.load(path)

    # 2. The default deployment: exact retrieval and the compiled plan,
    # lowered at init.  compiled=False would build the autograd oracle
    # instead: the network's forward over the pool with the queries
    # appended, the reference the plan is tested against.
    exact = InferenceEngine(artifact)
    print(f"exact engine:       index={exact.index} "
          f"(built in {exact.index_build_ms:.2f} ms), "
          f"compiled={exact.compiled}")

    # 3. The same artifact behind the IVF index: nothing about the model
    # changes, only the attach stage's neighbor search.  nprobe is the
    # recall/latency knob — more probed cells, closer to the exact scan.
    ivf = InferenceEngine(artifact, index="ivf", nprobe=8)
    print(f"ivf engine:         index={ivf.index} nprobe={ivf.nprobe} "
          f"(k-means built in {ivf.index_build_ms:.2f} ms)")

    rng = np.random.default_rng(1)
    queries = dataset.numerical[:64] + rng.normal(
        0.0, 0.05, (64, dataset.num_numerical)
    )
    exact_probs = exact.predict_batch(queries)
    ivf_probs = ivf.predict_batch(queries)
    drift = float(np.abs(np.asarray(ivf_probs) - np.asarray(exact_probs)).max())
    agree = float((ivf_probs.argmax(1) == exact_probs.argmax(1)).mean())
    print(f"ivf vs exact:       max |Δprob| = {drift:.2e}, "
          f"argmax agreement = {agree:.1%}")
    print("retrieval stats:    ", {
        k: v for k, v in ivf.stats.items() if k.startswith("retrieval")
    })

    # 4. The HTTP deployment (the CLI spells this `gnn4tdl-serve
    # --artifact model.npz --index ivf --nprobe 8`).
    with PredictionServer(artifact, port=0, index="ivf", nprobe=8) as server:
        body = json.dumps({"numerical": dataset.numerical[0].tolist()}).encode()
        request = urllib.request.Request(server.url + "/predict", data=body)
        with urllib.request.urlopen(request) as response:
            print("http /predict:     ", json.loads(response.read()))
        with urllib.request.urlopen(server.url + "/healthz") as response:
            health = json.loads(response.read())
        print("http /healthz:     ", {k: health[k] for k in
                                      ("status", "formulation", "index",
                                       "nprobe", "index_build_ms",
                                       "pool_rows", "compiled")})

        # Probe counters and the sampled recall-vs-exact gauge land in
        # the same registry as every other serving metric — one scrape.
        with urllib.request.urlopen(server.url + "/metrics") as response:
            metrics = response.read().decode()
        print("/metrics snapshot:")
        for line in metrics.splitlines():
            if line.startswith(("repro_engine_retrieval",
                                "repro_engine_attach_fanout")):
                print("   ", line)

    # 5. Scale out: the same artifact behind the same server, scored in
    # two forked workers (`gnn4tdl-serve --artifact model.npz --workers 2`).
    # Each worker memory-maps the npz, so the frozen pool occupies one
    # physical copy however many workers serve it.
    with PredictionServer(path, workers=2, port=0) as fleet:
        request = urllib.request.Request(fleet.url + "/predict", data=body)
        with urllib.request.urlopen(request) as response:
            print("fleet /predict:    ", json.loads(response.read()))
        with urllib.request.urlopen(fleet.url + "/healthz") as response:
            health = json.loads(response.read())
        print("fleet /healthz:    ", {k: health[k] for k in
                                      ("status", "workers",
                                       "artifact_generation", "mmapped")},
              "sha:", health["artifact_sha"][:12])

        # Zero-downtime hot swap: retrain (here: a different seed, i.e. a
        # genuinely different model), save v2, and POST /admin/reload.
        # New workers boot while the old set keeps serving; routing flips
        # atomically once every new worker is ready; the old set drains
        # behind its in-flight requests — no request is lost or errored.
        v2 = run_pipeline(
            make_correlated_instances(n=600, seed=1, cluster_strength=2.0),
            formulation="instance", max_epochs=40, seed=1,
        ).export_artifact().save(f"{tmp}/model_v2")
        request = urllib.request.Request(
            fleet.url + "/admin/reload",
            data=json.dumps({"artifact": str(v2)}).encode(),
        )
        with urllib.request.urlopen(request) as response:
            swap = json.loads(response.read())
        print("hot swap:          ", {k: swap[k] for k in
                                      ("status", "artifact_generation")},
              "sha:", swap["artifact_sha"][:12])
        with urllib.request.urlopen(
            urllib.request.Request(fleet.url + "/predict", data=body)
        ) as response:
            print("post-swap /predict:", json.loads(response.read()))
