"""Fraud detection on multi-relational graphs (survey Sec. 5.1 & 5.5).

Fraudsters form rings sharing devices and merchants; relations are built by
the same-feature-value rule per categorical column (the CARE-GNN/TabGNN
formulation).  Class-weighted losses handle the heavy imbalance (the
pick-and-choose concern of PC-GNN).  Compares:

* **MLP** — flat features, no relations;
* **TabGNN (attention fusion)** — multiplex relations with attention;
* **TabGNN (mean fusion)** — the fusion ablation arm;
* **flattened GCN** — all relations merged into one homogeneous graph.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro import nn
from repro.baselines import MLPClassifier
from repro.construction.intrinsic import multiplex_from_dataset
from repro.datasets.preprocessing import train_val_test_masks
from repro.datasets.tabular import TabularDataset
from repro.gnn.networks import GCN
from repro.metrics import average_precision, precision_recall_f1, roc_auc
from repro.models import TabGNN
from repro.training.trainer import Trainer


def _class_weights(y: np.ndarray) -> np.ndarray:
    counts = np.bincount(y, minlength=2).astype(np.float64)
    weights = counts.sum() / np.maximum(counts, 1.0) / 2.0
    return weights


def _fit(model, y, train_mask, val_mask, epochs, weights):
    optimizer = nn.Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    trainer = Trainer(model, optimizer, max_epochs=epochs, patience=25)

    # The pair form lets the trainer score an epoch on the next training
    # forward's logits (see ``Trainer.fit``).
    def loss_fn():
        logits = model()
        loss = nn.cross_entropy(logits, y, mask=train_mask, class_weights=weights)
        return loss, logits

    def val_fn(logits) -> float:
        scores = (model() if logits is None else logits).data
        probs = scores[:, 1] - scores[:, 0]
        return roc_auc(y[val_mask], probs[val_mask])

    trainer.fit(loss_fn, val_fn)


def run_fraud_benchmark(
    dataset: TabularDataset,
    seed: int = 0,
    epochs: int = 150,
) -> Dict[str, Dict[str, float]]:
    """AUC / AP / F1 of relation-aware models vs the flat baseline."""
    if dataset.task != "binary":
        raise ValueError("fraud detection expects a binary dataset")
    rng = np.random.default_rng(seed)
    y = dataset.y
    train_mask, val_mask, test_mask = train_val_test_masks(
        dataset.num_instances, 0.6, 0.2, rng, stratify=y
    )
    weights = _class_weights(y[train_mask])
    x = dataset.to_matrix()
    results: Dict[str, Dict[str, float]] = {}

    def evaluate(scores: np.ndarray, preds: np.ndarray) -> Dict[str, float]:
        metrics = {
            "auc": roc_auc(y[test_mask], scores[test_mask]),
            "ap": average_precision(y[test_mask], scores[test_mask]),
        }
        metrics.update(
            {"f1": precision_recall_f1(y[test_mask], preds[test_mask])["f1"]}
        )
        return metrics

    mlp = MLPClassifier(hidden_dims=(64,), epochs=epochs, seed=seed).fit(
        x[train_mask], y[train_mask]
    )
    probs = mlp.predict_proba(x)[:, 1]
    results["mlp"] = evaluate(probs, (probs > 0.5).astype(int))

    multiplex = multiplex_from_dataset(dataset)
    for fusion in ("attention", "mean"):
        model = TabGNN(multiplex, 32, 2, np.random.default_rng(seed), fusion=fusion)
        _fit(model, y, train_mask, val_mask, epochs, weights)
        logits = model().data
        scores = logits[:, 1] - logits[:, 0]
        results[f"tabgnn_{fusion}"] = evaluate(scores, logits.argmax(axis=1))

    flat = multiplex.flatten()
    flat.x = x
    gcn = GCN(flat, (32,), 2, np.random.default_rng(seed))
    _fit(gcn, y, train_mask, val_mask, epochs, weights)
    logits = gcn().data
    scores = logits[:, 1] - logits[:, 0]
    results["flattened_gcn"] = evaluate(scores, logits.argmax(axis=1))
    return results


def export_fraud_artifact(
    dataset: TabularDataset,
    path: Optional[str] = None,
    network: str = "gcn",
    epochs: int = 120,
    seed: int = 0,
):
    """Train a servable fraud scorer and export it as a model artifact.

    The deployment path trains the instance-graph pipeline: incoming
    transactions link into the frozen training pool by retrieval and are
    scored inductively.  Returns the :class:`repro.serving.ModelArtifact`;
    also saves it when ``path`` is given.
    """
    from repro.pipeline import run_pipeline

    if dataset.task != "binary":
        raise ValueError("fraud detection expects a binary dataset")
    result = run_pipeline(
        dataset, formulation="instance", network=network,
        max_epochs=epochs, seed=seed,
    )
    artifact = result.export_artifact()
    artifact.metadata["application"] = "fraud"
    artifact.metadata["test_auc_proxy_accuracy"] = result.test_accuracy
    if path is not None:
        artifact.save(path)
    return artifact
