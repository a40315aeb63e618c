"""Graph autoencoder (GAE [76]) for unsupervised representation learning.

Used by the survey's anomaly-detection line (MST-GRA, GAEOD): the encoder
is a GCN stack, the decoder reconstructs (a) the adjacency via inner
products and/or (b) the node features via a linear decoder; reconstruction
error is the anomaly score.  Every method takes the
:class:`~repro.graph.Graph` itself: the encoder runs each layer over
``graph.edge_view("gcn")`` (the symmetric-normalized adjacency with self
loops) and the edge decoder's positive pairs are ``graph.edge_index``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import nn
from repro.gnn.conv import GCNConv
from repro.graph.homogeneous import Graph
from repro.tensor import Tensor, ops


class GraphAutoencoder(nn.Module):
    """GCN encoder + inner-product structure decoder + linear feature decoder."""

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        latent_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        widths = [in_features, *hidden_dims, latent_dim]
        self.encoder_layers = nn.ModuleList(
            [GCNConv(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]
        )
        self.feature_decoder = nn.Linear(latent_dim, in_features, rng)

    def encode(self, x: Tensor, graph: Graph) -> Tensor:
        """Latent node codes of features ``x`` over ``graph``'s edges."""
        h = x
        for i, conv in enumerate(self.encoder_layers):
            h = conv.propagate(h, graph.edge_view(conv.view_kind))
            if i < len(self.encoder_layers) - 1:
                h = ops.relu(h)
        return h

    def decode_features(self, z: Tensor) -> Tensor:
        return self.feature_decoder(z)

    def decode_edges(self, z: Tensor, pairs: np.ndarray) -> Tensor:
        """Edge-probability logits ``<z_i, z_j>`` for the given (2, m) pairs."""
        zi = ops.gather_rows(z, pairs[0])
        zj = ops.gather_rows(z, pairs[1])
        return ops.sum(ops.mul(zi, zj), axis=1)

    def reconstruction_loss(
        self,
        x: Tensor,
        graph: Graph,
        rng: np.random.Generator,
        feature_weight: float = 1.0,
        structure_weight: float = 1.0,
    ) -> Tensor:
        """Feature MSE + balanced positive/negative edge BCE.

        The positives are ``graph``'s edges, the negatives as many node
        pairs drawn uniformly from ``rng``.
        """
        z = self.encode(x, graph)
        loss = ops.mul(
            Tensor(feature_weight),
            nn.losses.mse_loss(self.decode_features(z), x.data),
        )
        edge_index = graph.edge_index
        num_pos = edge_index.shape[1]
        if structure_weight > 0 and num_pos > 0:
            n = x.shape[0]
            neg = rng.integers(0, n, size=(2, num_pos))
            pairs = np.concatenate([edge_index, neg], axis=1)
            labels = np.concatenate([np.ones(num_pos), np.zeros(num_pos)])
            logits = self.decode_edges(z, pairs)
            loss = ops.add(
                loss,
                ops.mul(
                    Tensor(structure_weight),
                    nn.losses.binary_cross_entropy_with_logits(logits, labels),
                ),
            )
        return loss

    def anomaly_scores(self, x: Tensor, graph: Graph) -> np.ndarray:
        """Per-node feature reconstruction error (higher = more anomalous)."""
        z = self.encode(x, graph)
        recon = self.decode_features(z)
        return np.mean((recon.data - x.data) ** 2, axis=1)
