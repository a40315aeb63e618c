"""Full-batch trainer with early stopping for semi-supervised TDL.

The trainer is deliberately closure-based: the caller supplies a loss
closure (which runs the forward pass, including any auxiliary tasks) and an
optional validation-score closure.  This keeps one trainer serving every
model family in the library — sparse GNNs, dense structure learners,
bipartite imputers and plain MLPs alike.

Scoring order
-------------
Epoch ``e`` is scored at the parameters its optimizer step left, and
early stopping reads that score.  A loss closure returns either a bare
loss or a ``(loss, outputs)`` pair; a validation closure paired with the
second form takes ``outputs`` (or ``None``) as its one argument.

* **Shared forward.**  When the loss closure returns a pair, a validation
  closure is given and the model has no train-only layer
  (:func:`repro.nn.has_train_only_layers`), epoch ``e`` is scored with
  ``val_score_fn(outputs)`` on the outputs of the forward that opens
  epoch ``e + 1``.  That forward runs before epoch ``e + 1``'s backward,
  so the parameters are still epoch ``e``'s, and without dropout or batch
  statistics a train-mode forward equals the eval-mode one.  Full-batch
  semi-supervised training builds the graph over every row, so each
  training forward already holds the validation rows' outputs; scoring
  them there saves one forward per epoch.  The last epoch has no next
  forward: it is scored with ``val_score_fn(None)``, and the closure runs
  its own forward.  When early stopping fires on epoch ``e``, epoch
  ``e + 1`` is dropped before its backward and step, so parameters,
  history and ``epochs_run`` equal those of scoring every epoch right
  after its step.
* **Own forward.**  Otherwise each epoch is scored right after its step:
  ``val_score_fn()`` for a bare loss, ``val_score_fn(None)`` for a pair.
  With dropout or batch norm a train-mode forward is not the eval one
  (batch norm also moves its running statistics), so such models always
  score this way.

Every ``val_score_fn`` call runs with gradient recording off (``no_grad``);
the calls that run their own forward run in eval mode.  Without a
validation closure the negative training loss is the score.

When a :class:`~repro.obs.MetricsRegistry` is supplied, :meth:`Trainer.fit`
reports per-epoch progress into it — epoch counter, epoch-duration
histogram, and live loss / val-score / best-score gauges — so a pipeline
run scraped mid-training shows where the optimizer stands, and it splits
the time into ``repro_train_stage_seconds{stage}``: ``forward`` (the loss
closure), ``backward``, ``optimizer`` (``zero_grad`` and step) and
``validate`` (scoring plus best-state bookkeeping; on a shared forward
just the score of its outputs).  Each scored epoch gets one observation
of every stage and one epoch duration, their sum; the forward of an
epoch that early stopping drops counts in the epoch it scored.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import nn
from repro.obs import MetricsRegistry
from repro.tensor import Tensor, no_grad

#: the ``stage`` labels of ``repro_train_stage_seconds``, in epoch order
STAGES = ("forward", "backward", "optimizer", "validate")
_FORWARD, _BACKWARD, _OPTIMIZER, _VALIDATE = range(len(STAGES))


@dataclasses.dataclass
class TrainResult:
    """Outcome of a training run."""

    epochs_run: int
    best_epoch: int
    best_val_score: float
    history: Dict[str, List[float]]

    def final_loss(self) -> float:
        return self.history["loss"][-1]


class _Meters:
    """The ``repro_train_*`` series one :meth:`Trainer.fit` reports into."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.epochs = registry.counter(
            "repro_train_epochs_total", "Optimizer epochs completed."
        )
        self.epoch_seconds = registry.histogram(
            "repro_train_epoch_duration_seconds",
            "Wall-clock seconds per training epoch.",
        )
        stages = registry.histogram(
            "repro_train_stage_seconds",
            "Wall-clock seconds per training epoch spent in each trainer stage.",
            labelnames=("stage",),
        )
        self.stages = [stages.labels(stage=name) for name in STAGES]
        self.loss = registry.gauge(
            "repro_train_loss", "Training loss of the most recent epoch."
        )
        self.score = registry.gauge(
            "repro_train_val_score",
            "Validation score (higher is better) of the most recent epoch.",
        )
        self.best = registry.gauge(
            "repro_train_best_val_score",
            "Best validation score observed so far.",
        )

    def report(self, seconds: List[float], dropped_forward: Optional[float],
               loss: float, score: float, best: float) -> None:
        """One scored epoch: its stages, its duration and the gauges."""
        for stage, value in zip(self.stages, seconds):
            stage.observe(value)
        total = sum(seconds)
        if dropped_forward is not None:
            self.stages[_FORWARD].observe(dropped_forward)
            total += dropped_forward
        self.epoch_seconds.observe(total)
        self.epochs.inc()
        self.loss.set(loss)
        self.score.set(score)
        self.best.set(best)


class _Progress:
    """History, best state and patience count of one :meth:`Trainer.fit`."""

    def __init__(self, trainer: "Trainer") -> None:
        self.trainer = trainer
        self.history: Dict[str, List[float]] = {"loss": [], "val_score": []}
        self.best_score = -np.inf
        self.best_epoch = -1
        self.best_state: Optional[Dict[str, np.ndarray]] = None
        self.bad_epochs = 0
        self.epochs_run = 0

    def record(self, epoch: int, score: float) -> bool:
        """Book ``epoch``'s score; True when early stopping fires."""
        self.epochs_run = epoch
        self.history["val_score"].append(score)
        if score > self.best_score:
            self.best_score = score
            self.best_epoch = epoch
            self.bad_epochs = 0
            if self.trainer.restore_best:
                self.best_state = self.trainer.model.state_dict()
            return False
        self.bad_epochs += 1
        patience = self.trainer.patience
        return patience is not None and self.bad_epochs > patience


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
    registry:
        Optional metrics registry; when set, :meth:`fit` records per-epoch
        loss/val-score gauges, an epoch counter, an epoch-duration
        histogram and the per-stage ``repro_train_stage_seconds``
        histogram under the ``repro_train_*`` prefix.
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: nn.optim.Optimizer,
        max_epochs: int = 200,
        patience: Optional[int] = 30,
        restore_best: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.max_epochs = max_epochs
        self.patience = patience
        self.restore_best = restore_best
        self.registry = registry

    def fit(
        self,
        loss_fn: Callable[[], Union[Tensor, Tuple[Tensor, object]]],
        val_score_fn: Optional[Callable[..., float]] = None,
    ) -> TrainResult:
        """Run the optimization loop.

        ``loss_fn`` returns the loss tensor, or a ``(loss, outputs)`` pair.
        ``val_score_fn`` returns a *higher-is-better* score: called with no
        argument after a bare-loss closure, and with the forward's
        ``outputs`` or ``None`` after a pair closure.  It always runs with
        gradient recording off (``no_grad``).

        Epoch ``e`` is scored on the forward that opens epoch ``e + 1``
        (``val_score_fn(outputs)``, one forward per epoch) when the closure
        returns a pair, a validation closure is given and the model has no
        train-only layer; the last epoch is then scored with
        ``val_score_fn(None)`` in eval mode, and an early stop on epoch
        ``e`` drops epoch ``e + 1`` before its backward.  Otherwise each
        epoch is scored right after its step, in eval mode.  Either way the
        history, best epoch and final parameters are the same.  Without
        ``val_score_fn`` the negative training loss is the score, so early
        stopping still has a signal.
        """
        clock = time.perf_counter
        meters = None if self.registry is None else _Meters(self.registry)
        progress = _Progress(self)
        can_share = (
            val_score_fn is not None and not nn.has_train_only_layers(self.model)
        )
        # Stage seconds of the epoch that the next forward scores.
        waiting: Optional[List[float]] = None

        def close(epoch: int, seconds: List[float], args: tuple,
                  next_forward: Optional[float] = None) -> bool:
            """Score ``epoch`` with ``val_score_fn(*args)`` and book it;
            True when early stopping fires."""
            started = clock()
            if val_score_fn is None:
                score = -progress.history["loss"][-1]
            else:
                with no_grad():
                    score = float(val_score_fn(*args))
            stop = progress.record(epoch, score)
            seconds[_VALIDATE] = clock() - started
            if meters is not None:
                meters.report(seconds, next_forward if stop else None,
                              progress.history["loss"][-1], score,
                              progress.best_score)
            return stop

        for epoch in range(1, self.max_epochs + 1):
            started = clock()
            self.model.train()
            out = loss_fn()
            pair = isinstance(out, tuple)
            loss, outputs = out if pair else (out, None)
            seconds = [clock() - started, 0.0, 0.0, 0.0]
            if waiting is not None:
                # The parameters are still epoch - 1's: score it here.
                if close(epoch - 1, waiting, (outputs,),
                         next_forward=seconds[_FORWARD]):
                    break
                waiting = None

            started = clock()
            self.optimizer.zero_grad()
            zeroed = clock()
            loss.backward()
            backward_done = clock()
            self.optimizer.step()
            progress.history["loss"].append(float(loss.item()))
            seconds[_BACKWARD] = backward_done - zeroed
            seconds[_OPTIMIZER] = (zeroed - started) + (clock() - backward_done)

            if pair and can_share:
                waiting = seconds
                continue
            if val_score_fn is not None:
                self.model.eval()
            if close(epoch, seconds, (None,) if pair else ()):
                break
        else:
            if waiting is not None:
                self.model.eval()
                close(self.max_epochs, waiting, (None,))

        if self.restore_best and progress.best_state is not None:
            self.model.load_state_dict(progress.best_state)
        self.model.eval()
        return TrainResult(
            epochs_run=progress.epochs_run,
            best_epoch=progress.best_epoch,
            best_val_score=progress.best_score,
            history=progress.history,
        )
