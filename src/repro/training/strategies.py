"""Training strategies (survey Sec. 4.4.2, Table 8).

Six orchestration patterns over :class:`repro.training.Trainer`:
end-to-end, two-stage, pretrain→finetune, alternating aux-weight
adaptation (GEDI), adversarial feature reconstruction (GINN), and
bi-level alternation between structure and GNN parameters (LDS/FATE).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.tensor import Tensor, ops
from repro.training.trainer import Trainer, TrainResult


def train_end_to_end(
    model: nn.Module,
    loss_fn: Callable[[], Tensor],
    val_score_fn: Optional[Callable[[], float]] = None,
    lr: float = 0.01,
    max_epochs: int = 200,
    patience: Optional[int] = 30,
    weight_decay: float = 0.0,
) -> TrainResult:
    """The default strategy: jointly optimize everything against one loss."""
    optimizer = nn.Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    trainer = Trainer(model, optimizer, max_epochs=max_epochs, patience=patience)
    return trainer.fit(loss_fn, val_score_fn)


def train_two_stage(
    stage1: Callable[[], object],
    stage2: Callable[[object], TrainResult],
) -> Tuple[object, TrainResult]:
    """Sequential learning (SUBLIME/GRAPE/MedGraph pattern).

    ``stage1`` learns a structure or representation (returning any artifact:
    a graph, embeddings, an imputed table); ``stage2`` consumes it and
    trains the downstream predictor.
    """
    artifact = stage1()
    result = stage2(artifact)
    return artifact, result


def train_pretrain_finetune(
    model: nn.Module,
    pretrain_loss_fn: Callable[[], Tensor],
    finetune_loss_fn: Callable[[], Tensor],
    val_score_fn: Optional[Callable[[], float]] = None,
    pretrain_epochs: int = 100,
    finetune_epochs: int = 200,
    pretrain_lr: float = 0.01,
    finetune_lr: float = 0.005,
    patience: Optional[int] = 30,
) -> Tuple[TrainResult, TrainResult]:
    """Self-supervised pretraining then supervised finetuning (GraphFC/ALLG)."""
    pre_opt = nn.Adam(model.parameters(), lr=pretrain_lr)
    pre_trainer = Trainer(
        model, pre_opt, max_epochs=pretrain_epochs, patience=None, restore_best=False
    )
    pre_result = pre_trainer.fit(pretrain_loss_fn)
    fine_opt = nn.Adam(model.parameters(), lr=finetune_lr)
    fine_trainer = Trainer(model, fine_opt, max_epochs=finetune_epochs, patience=patience)
    fine_result = fine_trainer.fit(finetune_loss_fn, val_score_fn)
    return pre_result, fine_result


def train_alternating(
    model: nn.Module,
    main_loss_fn: Callable[[], Tensor],
    aux_loss_fn: Callable[[], Tensor],
    val_score_fn: Callable[[], float],
    lr: float = 0.01,
    max_epochs: int = 200,
    aux_weight: float = 1.0,
    adapt_every: int = 10,
    adapt_factor: float = 0.5,
    patience: Optional[int] = 30,
) -> Tuple[TrainResult, float]:
    """GEDI-style adaptive weighting of the auxiliary reconstruction task.

    Every ``adapt_every`` epochs the validation score is compared against
    the previous window; if it worsened, the auxiliary weight is multiplied
    by ``adapt_factor`` (guarding against negative transfer), otherwise it
    is kept.  Returns the result and the final auxiliary weight.
    """
    optimizer = nn.Adam(model.parameters(), lr=lr)
    trainer = Trainer(model, optimizer, max_epochs=adapt_every, patience=None,
                      restore_best=False)
    weight = aux_weight
    best_score = -np.inf
    history_loss: list[float] = []
    history_val: list[float] = []
    best_state = None
    rounds = max(1, max_epochs // adapt_every)
    bad_rounds = 0
    round_patience = None if patience is None else max(1, patience // adapt_every)
    last_window_score = -np.inf
    for _ in range(rounds):
        current_weight = weight

        def combined() -> Tensor:
            return ops.add(main_loss_fn(), ops.mul(Tensor(current_weight), aux_loss_fn()))

        result = trainer.fit(combined, val_score_fn)
        history_loss.extend(result.history["loss"])
        history_val.extend(result.history["val_score"])
        window_score = float(np.mean(result.history["val_score"]))
        if window_score < last_window_score:
            weight *= adapt_factor
        last_window_score = window_score
        if result.best_val_score > best_score:
            best_score = result.best_val_score
            best_state = model.state_dict()
            bad_rounds = 0
        else:
            bad_rounds += 1
            if round_patience is not None and bad_rounds > round_patience:
                break
    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    final = TrainResult(
        epochs_run=len(history_loss),
        best_epoch=int(np.argmax(history_val)) + 1 if history_val else 0,
        best_val_score=best_score,
        history={"loss": history_loss, "val_score": history_val},
    )
    return final, weight


def train_adversarial_reconstruction(
    generator: nn.Module,
    discriminator: nn.Module,
    real_rows_fn: Callable[[], np.ndarray],
    fake_rows_fn: Callable[[], Tensor],
    recon_loss_fn: Callable[[Tensor], Tensor],
    epochs: int = 100,
    gen_lr: float = 0.01,
    disc_lr: float = 0.01,
    adv_weight: float = 0.1,
) -> dict:
    """GINN-style adversarial training of a feature reconstructor.

    The discriminator learns to tell real feature rows from reconstructed
    ones; the generator minimizes reconstruction error *plus* the
    adversarial term that makes its outputs look real.  Each epoch runs the
    generator once: both steps read the same ``fake_rows_fn()`` rows, the
    discriminator step detached, and ``recon_loss_fn`` scores those rows.
    """
    gen_opt = nn.Adam(generator.parameters(), lr=gen_lr)
    disc_opt = nn.Adam(discriminator.parameters(), lr=disc_lr)
    history = {"gen_loss": [], "disc_loss": []}
    for _ in range(epochs):
        generator.train()
        discriminator.train()
        # --- discriminator step ---
        real = real_rows_fn()
        fake = fake_rows_fn()
        logits_real = discriminator(Tensor(real))
        logits_fake = discriminator(fake.detach())
        disc_loss = ops.add(
            nn.binary_cross_entropy_with_logits(logits_real, np.ones(real.shape[0])),
            nn.binary_cross_entropy_with_logits(logits_fake, np.zeros(fake.shape[0])),
        )
        disc_opt.zero_grad()
        disc_loss.backward()
        disc_opt.step()
        # --- generator step (the generator has not stepped: same rows) ---
        logits_fake = discriminator(fake)
        adv_term = nn.binary_cross_entropy_with_logits(
            logits_fake, np.ones(fake.shape[0])
        )
        gen_loss = ops.add(recon_loss_fn(fake), ops.mul(Tensor(adv_weight), adv_term))
        gen_opt.zero_grad()
        gen_loss.backward()
        gen_opt.step()
        history["gen_loss"].append(float(gen_loss.item()))
        history["disc_loss"].append(float(disc_loss.item()))
    generator.eval()
    discriminator.eval()
    return history


def train_bilevel(
    structure_params: Sequence[nn.Parameter],
    gnn_params: Sequence[nn.Parameter],
    loss_fn: Callable[[], Tensor],
    val_loss_fn: Callable[[], Tensor],
    outer_steps: int = 30,
    inner_steps: int = 5,
    structure_lr: float = 0.05,
    gnn_lr: float = 0.01,
) -> dict:
    """Bi-level-style alternation (LDS/FIVES/FATE pattern).

    Inner loop: train GNN parameters on the training loss with the structure
    frozen.  Outer loop: take one step on the *structure* parameters against
    the validation loss (the first-order/alternating approximation of true
    bi-level optimization used in practice).
    """
    structure_opt = nn.Adam(list(structure_params), lr=structure_lr)
    gnn_opt = nn.Adam(list(gnn_params), lr=gnn_lr)
    history = {"train_loss": [], "val_loss": []}
    for _ in range(outer_steps):
        for _ in range(inner_steps):
            loss = loss_fn()
            gnn_opt.zero_grad()
            structure_opt.zero_grad()
            loss.backward()
            gnn_opt.step()
        history["train_loss"].append(float(loss.item()))
        val_loss = val_loss_fn()
        structure_opt.zero_grad()
        gnn_opt.zero_grad()
        val_loss.backward()
        structure_opt.step()
        history["val_loss"].append(float(val_loss.item()))
    return history
