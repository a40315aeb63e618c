"""Anomaly detection on tabular data (survey Sec. 5.1).

Compares the survey's GNN-based detectors against their classical
ancestors on the same data:

* **LUNAR** — learned kNN-distance message passing;
* **kNN distance** — the non-learned mean-kNN-distance detector LUNAR
  generalizes (its ablation);
* **GAE** — graph-autoencoder reconstruction error (MST-GRA/GAEOD family);
* **z-score** — structure-blind per-feature deviation baseline.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.construction.rules import knn_graph
from repro.datasets.tabular import TabularDataset
from repro.gnn.autoencoder import GraphAutoencoder
from repro import nn
from repro.metrics import average_precision, precision_at_k, roc_auc
from repro.tensor import Tensor


def zscore_scores(x: np.ndarray) -> np.ndarray:
    """Mean absolute z-score per row — no structure, pure marginals."""
    mean = x.mean(axis=0)
    std = np.where(x.std(axis=0) > 0, x.std(axis=0), 1.0)
    return np.abs((x - mean) / std).mean(axis=1)


def gae_scores(
    x: np.ndarray, k: int = 10, epochs: int = 120, seed: int = 0
) -> np.ndarray:
    """Graph-autoencoder reconstruction error on the kNN graph."""
    rng = np.random.default_rng(seed)
    graph = knn_graph(x, k=k)
    model = GraphAutoencoder(x.shape[1], (32,), 16, rng)
    optimizer = nn.Adam(model.parameters(), lr=0.01)
    features = Tensor(x)
    for _ in range(epochs):
        model.train()
        loss = model.reconstruction_loss(features, graph, rng)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    model.eval()
    return model.anomaly_scores(features, graph)


def run_anomaly_detection(
    dataset: TabularDataset,
    k: int = 10,
    seed: int = 0,
    epochs: int = 120,
) -> Dict[str, Dict[str, float]]:
    """Score the dataset with all four detectors; returns metrics per method."""
    from repro.models import LUNAR  # local import avoids a cycle at package init

    if dataset.task != "binary":
        raise ValueError("anomaly detection expects a binary dataset (1 = anomaly)")
    x = dataset.to_matrix()
    y = dataset.y
    n_anomalies = int(y.sum())
    if n_anomalies == 0:
        raise ValueError("dataset contains no anomalies")

    lunar = LUNAR(k=k, seed=seed, epochs=epochs).fit(x)
    methods = {
        "lunar": lunar.score(),
        "knn_distance": lunar.baseline_knn_score(),
        "gae": gae_scores(x, k=k, epochs=epochs, seed=seed),
        "zscore": zscore_scores(x),
    }
    results: Dict[str, Dict[str, float]] = {}
    for name, scores in methods.items():
        results[name] = {
            "auc": roc_auc(y, scores),
            "ap": average_precision(y, scores),
            "p_at_k": precision_at_k(y, scores, k=n_anomalies),
        }
    return results
