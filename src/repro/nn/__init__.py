"""Neural-network building blocks on top of :mod:`repro.tensor`.

Provides a ``Module``/``Parameter`` system, common layers, loss functions
and optimizers — the minimum viable Torch-alike needed to implement every
GNN and baseline in the survey.
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import (
    Activation,
    BatchNorm1d,
    Dropout,
    Embedding,
    GRUCell,
    Identity,
    LayerNorm,
    Linear,
    MLP,
    Sequential,
    has_train_only_layers,
)
from repro.nn import losses
from repro.nn import optim
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    huber_loss,
    mae_loss,
    mse_loss,
    nt_xent_loss,
)
from repro.nn.optim import SGD, Adam, AdamW, StepLR, CosineAnnealingLR

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Activation",
    "BatchNorm1d",
    "Dropout",
    "Embedding",
    "GRUCell",
    "Identity",
    "LayerNorm",
    "Linear",
    "MLP",
    "Sequential",
    "has_train_only_layers",
    "losses",
    "optim",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "huber_loss",
    "mae_loss",
    "mse_loss",
    "nt_xent_loss",
    "SGD",
    "Adam",
    "AdamW",
    "StepLR",
    "CosineAnnealingLR",
]
