"""Click-through-rate prediction (survey Sec. 5.2).

Fi-GNN's structural feature-interaction modelling versus the conventional
CTR stack: logistic regression over one-hot fields (no interactions) and an
MLP over one-hot fields (implicit interactions).  On latent-factor CTR data
the signal lives in user×item interactions, so the expected ranking is
Fi-GNN > MLP > logistic (the survey's Sec. 2.5b claim).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro import nn
from repro.baselines import LogisticRegressionClassifier, MLPClassifier
from repro.datasets.preprocessing import train_val_test_masks
from repro.datasets.tabular import TabularDataset
from repro.metrics import log_loss, roc_auc
from repro.models import FiGNN
from repro.tensor import Tensor
from repro.training.trainer import Trainer


def train_fignn(
    dataset: TabularDataset,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    embed_dim: int = 16,
    epochs: int = 150,
    seed: int = 0,
) -> FiGNN:
    rng = np.random.default_rng(seed)
    model = FiGNN(
        dataset.cardinalities,
        embed_dim,
        rng,
        num_numerical=dataset.num_numerical,
    )
    optimizer = nn.Adam(model.parameters(), lr=0.01, weight_decay=1e-5)
    trainer = Trainer(model, optimizer, max_epochs=epochs, patience=25)
    y = dataset.y

    def loss_fn():
        logits = model(dataset)
        loss = nn.binary_cross_entropy_with_logits(logits, y, mask=train_mask)
        return loss, logits

    def val_fn(logits: Optional[Tensor]) -> float:
        # The training forward scores every row, so the trainer hands its
        # logits here; the last epoch has none and runs its own forward.
        if logits is None:
            probs = model.predict_proba(dataset)
        else:
            probs = model.probabilities(logits.data)
        return roc_auc(y[val_mask], probs[val_mask])

    trainer.fit(loss_fn, val_fn)
    return model


def run_ctr_benchmark(
    dataset: TabularDataset,
    seed: int = 0,
    epochs: int = 150,
) -> Dict[str, Dict[str, float]]:
    """AUC / log-loss for logistic, MLP and Fi-GNN on a CTR dataset."""
    if dataset.task != "binary":
        raise ValueError("CTR prediction expects a binary dataset")
    rng = np.random.default_rng(seed)
    y = dataset.y
    train_mask, val_mask, test_mask = train_val_test_masks(
        dataset.num_instances, 0.6, 0.2, rng, stratify=y
    )
    onehot = dataset.to_matrix()

    results: Dict[str, Dict[str, float]] = {}

    logistic = LogisticRegressionClassifier(epochs=300).fit(
        onehot[train_mask], y[train_mask]
    )
    probs = logistic.predict_proba(onehot)[:, 1]
    results["logistic"] = {
        "auc": roc_auc(y[test_mask], probs[test_mask]),
        "logloss": log_loss(y[test_mask], probs[test_mask]),
    }

    mlp = MLPClassifier(hidden_dims=(64, 32), epochs=epochs, seed=seed).fit(
        onehot[train_mask], y[train_mask]
    )
    probs = mlp.predict_proba(onehot)[:, 1]
    results["mlp"] = {
        "auc": roc_auc(y[test_mask], probs[test_mask]),
        "logloss": log_loss(y[test_mask], probs[test_mask]),
    }

    fignn = train_fignn(dataset, train_mask, val_mask, epochs=epochs, seed=seed)
    probs = fignn.predict_proba(dataset)
    results["fignn"] = {
        "auc": roc_auc(y[test_mask], probs[test_mask]),
        "logloss": log_loss(y[test_mask], probs[test_mask]),
    }
    return results


def export_ctr_artifact(
    dataset: TabularDataset,
    path: Optional[str] = None,
    epochs: int = 120,
    seed: int = 0,
):
    """Train a servable CTR scorer and export it as a model artifact.

    Uses the feature-graph formulation (Fi-GNN style field interactions),
    which is row-wise and therefore serves unseen impressions without a
    training pool.  Returns the :class:`repro.serving.ModelArtifact`; also
    saves it when ``path`` is given.
    """
    from repro.pipeline import run_pipeline

    if dataset.task != "binary":
        raise ValueError("CTR prediction expects a binary dataset")
    result = run_pipeline(
        dataset, formulation="feature", max_epochs=epochs, seed=seed
    )
    artifact = result.export_artifact()
    artifact.metadata["application"] = "ctr"
    artifact.metadata["test_accuracy"] = result.test_accuracy
    if path is not None:
        artifact.save(path)
    return artifact
