"""Full-batch trainer with early stopping for semi-supervised TDL.

The trainer is deliberately closure-based: the caller supplies a loss
closure (which runs the forward pass, including any auxiliary tasks) and an
optional validation-score closure.  This keeps one trainer serving every
model family in the library — sparse GNNs, dense structure learners,
bipartite imputers and plain MLPs alike.

When a :class:`~repro.obs.MetricsRegistry` is supplied, :meth:`Trainer.fit`
reports per-epoch progress into it — epoch counter, epoch-duration
histogram, and live loss / val-score / best-score gauges — so a pipeline
run scraped mid-training shows where the optimizer stands.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import nn
from repro.obs import MetricsRegistry
from repro.tensor import Tensor, no_grad


@dataclasses.dataclass
class TrainResult:
    """Outcome of a training run."""

    epochs_run: int
    best_epoch: int
    best_val_score: float
    history: Dict[str, List[float]]

    def final_loss(self) -> float:
        return self.history["loss"][-1]


class Trainer:
    """Train a model by repeatedly minimizing a loss closure.

    Parameters
    ----------
    model:
        The module whose parameters are optimized (used for train/eval mode
        switching and best-state checkpointing).
    optimizer:
        Any :class:`repro.nn.optim.Optimizer` over the model's parameters.
    max_epochs:
        Upper bound on epochs.
    patience:
        Early-stopping patience measured in epochs without val improvement;
        ``None`` disables early stopping.
    grad_clip:
        Optional global gradient-norm clip.
    registry:
        Optional metrics registry; when set, :meth:`fit` records per-epoch
        loss/val-score gauges, an epoch counter, and an epoch-duration
        histogram under the ``repro_train_*`` prefix.
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: nn.optim.Optimizer,
        max_epochs: int = 200,
        patience: Optional[int] = 30,
        grad_clip: Optional[float] = None,
        restore_best: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.max_epochs = max_epochs
        self.patience = patience
        self.grad_clip = grad_clip
        self.restore_best = restore_best
        self.registry = registry

    def fit(
        self,
        loss_fn: Callable[[], Tensor],
        val_score_fn: Optional[Callable[[], float]] = None,
        scheduler: Optional[nn.optim._Scheduler] = None,
    ) -> TrainResult:
        """Run the optimization loop.

        ``val_score_fn`` returns a *higher-is-better* score computed in eval
        mode with gradient recording off (``no_grad``); when omitted, the
        negative training loss is used so early stopping still has a signal.
        """
        history: Dict[str, List[float]] = {"loss": [], "val_score": []}
        best_score = -np.inf
        best_epoch = -1
        best_state: Optional[Dict[str, np.ndarray]] = None
        bad_epochs = 0
        epoch = 0

        epochs_total = loss_gauge = score_gauge = best_gauge = None
        epoch_seconds = None
        if self.registry is not None:
            epochs_total = self.registry.counter(
                "repro_train_epochs_total", "Optimizer epochs completed."
            )
            epoch_seconds = self.registry.histogram(
                "repro_train_epoch_duration_seconds",
                "Wall-clock seconds per training epoch.",
            )
            loss_gauge = self.registry.gauge(
                "repro_train_loss", "Training loss of the most recent epoch."
            )
            score_gauge = self.registry.gauge(
                "repro_train_val_score",
                "Validation score (higher is better) of the most recent epoch.",
            )
            best_gauge = self.registry.gauge(
                "repro_train_best_val_score",
                "Best validation score observed so far.",
            )

        for epoch in range(1, self.max_epochs + 1):
            epoch_started = time.perf_counter()
            self.model.train()
            loss = loss_fn()
            self.optimizer.zero_grad()
            loss.backward()
            if self.grad_clip is not None:
                self.optimizer.clip_grad_norm(self.grad_clip)
            self.optimizer.step()
            if scheduler is not None:
                scheduler.step()
            loss_value = float(loss.item())
            history["loss"].append(loss_value)

            if val_score_fn is not None:
                self.model.eval()
                with no_grad():
                    score = float(val_score_fn())
            else:
                score = -loss_value
            history["val_score"].append(score)

            if epochs_total is not None:
                epochs_total.inc()
                epoch_seconds.observe(time.perf_counter() - epoch_started)
                loss_gauge.set(loss_value)
                score_gauge.set(score)
                best_gauge.set(max(best_score, score))

            if score > best_score:
                best_score = score
                best_epoch = epoch
                bad_epochs = 0
                if self.restore_best:
                    best_state = self.model.state_dict()
            else:
                bad_epochs += 1
                if self.patience is not None and bad_epochs > self.patience:
                    break

        if self.restore_best and best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return TrainResult(
            epochs_run=epoch,
            best_epoch=best_epoch,
            best_val_score=best_score,
            history=history,
        )
