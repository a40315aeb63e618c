"""Standard layers: Linear, Embedding, Dropout, norms, MLP, GRUCell.

Every layer takes an explicit ``numpy.random.Generator`` for weight
initialization so results are reproducible from a single seed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.nn.module import Module, Parameter
from repro.tensor import init, ops
from repro.tensor.autograd import Tensor

ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": ops.relu,
    "leaky_relu": ops.leaky_relu,
    "elu": ops.elu,
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
    "identity": lambda x: x,
}


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look up an activation function by name."""
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[name]


class Identity(Module):
    """No-op layer, useful as a placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Activation(Module):
    """Wrap a named activation function as a layer."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self._fn = get_activation(name)

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Glorot-uniform initialization.

    ``x`` is a :class:`Tensor` or a constant ``scipy.sparse`` matrix (such
    as a one-hot input), whose product runs through :func:`ops.spmm`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Union[Tensor, sp.spmatrix]) -> Tensor:
        if sp.issparse(x):
            out = ops.spmm(x, self.weight)
        else:
            out = ops.matmul(x, self.weight)
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        std: float = 0.1,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std, rng))

    def forward(self, index: np.ndarray) -> Tensor:
        index = np.asarray(index, dtype=np.int64)
        if index.min(initial=0) < 0 or (index.size and index.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        flat = ops.gather_rows(self.weight, index.reshape(-1))
        return flat.reshape(index.shape + (self.embedding_dim,))


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = ops.dropout_mask(x.shape, self.p, self._rng)
        return ops.mul(x, Tensor(mask))


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = ops.mean(x, axis=-1, keepdims=True)
        centered = ops.sub(x, mu)
        var = ops.mean(ops.mul(centered, centered), axis=-1, keepdims=True)
        std = ops.power(ops.add(var, Tensor(self.eps)), 0.5)
        normed = ops.div(centered, std)
        return ops.add(ops.mul(normed, self.gamma), self.beta)


class BatchNorm1d(Module):
    """Batch normalization with running statistics for eval mode."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            batch_mean = x.data.mean(axis=0)
            batch_var = x.data.var(axis=0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * batch_var
            )
            mu = ops.mean(x, axis=0, keepdims=True)
            centered = ops.sub(x, mu)
            var = ops.mean(ops.mul(centered, centered), axis=0, keepdims=True)
            std = ops.power(ops.add(var, Tensor(self.eps)), 0.5)
            normed = ops.div(centered, std)
        else:
            normed = ops.div(
                ops.sub(x, Tensor(self.running_mean)),
                Tensor(np.sqrt(self.running_var + self.eps)),
            )
        return ops.add(ops.mul(normed, self.gamma), self.beta)


def has_train_only_layers(module: Module) -> bool:
    """Whether ``module`` computes differently in training mode.

    An active :class:`Dropout` (``p > 0``) and :class:`BatchNorm1d` are the
    only layers that read ``self.training``; a module holding neither gives
    the same forward in train and eval mode.
    """
    return any(
        isinstance(m, BatchNorm1d) or (isinstance(m, Dropout) and m.p > 0)
        for m in module.modules()
    )


class Sequential(Module):
    """Chain layers; each layer is applied to the previous layer's output."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers = list(layers)
        for i, layer in enumerate(self._layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class MLP(Module):
    """Multilayer perceptron with configurable hidden sizes.

    ``hidden_dims=()`` degrades gracefully to a single linear layer, which
    is how the survey's prediction heads (Sec. 2.4) are implemented.
    """

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        activation: str = "relu",
        dropout: float = 0.0,
        norm: Optional[str] = None,
    ) -> None:
        super().__init__()
        layers: list[Module] = []
        prev = in_features
        for width in hidden_dims:
            layers.append(Linear(prev, width, rng))
            if norm == "layer":
                layers.append(LayerNorm(width))
            elif norm == "batch":
                layers.append(BatchNorm1d(width))
            layers.append(Activation(activation))
            if dropout > 0:
                layers.append(Dropout(dropout, rng))
            prev = width
        layers.append(Linear(prev, out_features, rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class GRUCell(Module):
    """Gated recurrent unit cell, used by gated graph networks (Fi-GNN)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_ir = Parameter(init.glorot_uniform((input_dim, hidden_dim), rng))
        self.w_hr = Parameter(init.glorot_uniform((hidden_dim, hidden_dim), rng))
        self.b_r = Parameter(np.zeros(hidden_dim))
        self.w_iz = Parameter(init.glorot_uniform((input_dim, hidden_dim), rng))
        self.w_hz = Parameter(init.glorot_uniform((hidden_dim, hidden_dim), rng))
        self.b_z = Parameter(np.zeros(hidden_dim))
        self.w_in = Parameter(init.glorot_uniform((input_dim, hidden_dim), rng))
        self.w_hn = Parameter(init.glorot_uniform((hidden_dim, hidden_dim), rng))
        self.b_n = Parameter(np.zeros(hidden_dim))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        reset = ops.sigmoid(
            ops.add(ops.add(ops.matmul(x, self.w_ir), ops.matmul(h, self.w_hr)), self.b_r)
        )
        update = ops.sigmoid(
            ops.add(ops.add(ops.matmul(x, self.w_iz), ops.matmul(h, self.w_hz)), self.b_z)
        )
        candidate = ops.tanh(
            ops.add(
                ops.add(ops.matmul(x, self.w_in), ops.matmul(ops.mul(reset, h), self.w_hn)),
                self.b_n,
            )
        )
        one_minus = ops.sub(Tensor(1.0), update)
        return ops.add(ops.mul(one_minus, candidate), ops.mul(update, h))
