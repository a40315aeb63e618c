"""EHR risk prediction (survey Sec. 5.3).

Patients carry multi-hot diagnosis-code records; the disease label depends
on which code *group* dominates.  Compares:

* **MLP** — flat multi-hot baseline;
* **HeteroTabClassifier** — patient & code nodes (GCT/HSGNN formulation);
* **HypergraphClassifier** — patients as hyperedges over code-value nodes
  (HCL formulation);
* **kNN-graph GCN** — patient-similarity instance graph.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import nn
from repro.baselines import MLPClassifier
from repro.datasets.preprocessing import train_val_test_masks
from repro.datasets.tabular import TabularDataset
from repro.metrics import accuracy, macro_f1
from repro.models import HeteroTabClassifier, HypergraphClassifier, KNNGraphClassifier
from repro.training.trainer import Trainer


def _train_full_batch(model, y, train_mask, val_mask, epochs, lr=0.01):
    optimizer = nn.Adam(model.parameters(), lr=lr, weight_decay=5e-4)
    trainer = Trainer(model, optimizer, max_epochs=epochs, patience=25)

    # The pair form lets the trainer score an epoch on the next training
    # forward's logits (see ``Trainer.fit``).
    def loss_fn():
        logits = model()
        return nn.cross_entropy(logits, y, mask=train_mask), logits

    def val_fn(logits) -> float:
        pred = (model() if logits is None else logits).data.argmax(axis=1)
        return accuracy(y[val_mask], pred[val_mask])

    trainer.fit(loss_fn, val_fn)
    return model


def run_ehr_benchmark(
    dataset: TabularDataset,
    seed: int = 0,
    epochs: int = 150,
) -> Dict[str, Dict[str, float]]:
    """Accuracy / macro-F1 of the four formulations on an EHR dataset."""
    rng = np.random.default_rng(seed)
    y = dataset.y
    train_mask, val_mask, test_mask = train_val_test_masks(
        dataset.num_instances, 0.6, 0.2, rng, stratify=y
    )
    x = dataset.to_matrix()
    results: Dict[str, Dict[str, float]] = {}

    def evaluate(pred: np.ndarray) -> Dict[str, float]:
        return {
            "accuracy": accuracy(y[test_mask], pred[test_mask]),
            "macro_f1": macro_f1(y[test_mask], pred[test_mask]),
        }

    mlp = MLPClassifier(hidden_dims=(64,), epochs=epochs, seed=seed).fit(
        x[train_mask], y[train_mask]
    )
    results["mlp"] = evaluate(mlp.predict(x))

    hetero = HeteroTabClassifier(dataset, np.random.default_rng(seed), hidden_dim=32)
    _train_full_batch(hetero, y, train_mask, val_mask, epochs)
    results["hetero_gnn"] = evaluate(hetero().data.argmax(axis=1))

    hyper = HypergraphClassifier(dataset, np.random.default_rng(seed), hidden_dim=32)
    _train_full_batch(hyper, y, train_mask, val_mask, epochs)
    results["hypergraph_gnn"] = evaluate(hyper().data.argmax(axis=1))

    knn = KNNGraphClassifier(k=10, network="gcn", max_epochs=epochs, seed=seed)
    knn.fit(x, y, train_mask=train_mask, val_mask=val_mask)
    results["knn_gcn"] = evaluate(knn.predict())
    return results
