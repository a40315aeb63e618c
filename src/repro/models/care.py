"""CARE-GNN-lite [25]: similarity-aware neighbor filtering against camouflage.

Formulation (survey Tables 2 & 6, "Neighbor Sampling"): a multi-relational
instance graph where fraudsters *camouflage* by connecting to benign nodes.
CARE-GNN's defense is a label-supervised similarity measure that filters
each node's neighbors per relation before aggregation, keeping only the
most similar fraction.

This lite version replaces the original's reinforcement-learned per-relation
thresholds with a fixed keep-ratio ``rho`` (the ablation knob), keeping the
defining mechanism: a learned, label-aware similarity prunes camouflage
edges, and the auxiliary similarity loss trains it directly on labeled
pairs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import nn
from repro.graph.multiplex import MultiplexGraph
from repro.tensor import Tensor, ops


class CAREGNN(nn.Module):
    """Multi-relational classifier with learned neighbor filtering."""

    def __init__(
        self,
        graph: MultiplexGraph,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        rho: float = 0.5,
        filter_neighbors: bool = True,
    ) -> None:
        super().__init__()
        if graph.x is None:
            raise ValueError("graph must carry node features")
        if not 0.0 < rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        self.graph = graph
        self.rho = rho
        self.filter_neighbors = filter_neighbors
        self.x = Tensor(graph.x)
        in_dim = graph.x.shape[1]
        self.similarity_encoder = nn.MLP(in_dim, (hidden_dim,), hidden_dim, rng)
        self.relation_linears = nn.ModuleList(
            [nn.Linear(in_dim, hidden_dim, rng) for _ in graph.relations]
        )
        self.self_linear = nn.Linear(in_dim, hidden_dim, rng)
        self.head = nn.Linear(hidden_dim, out_dim, rng)
        self._edge_indexes = [graph.layer(r).edge_index for r in graph.relations]

    # ------------------------------------------------------------------
    def _similarity_embeddings(self) -> Tensor:
        z = self.similarity_encoder(self.x)
        norms = ops.power(
            ops.add(ops.sum(ops.mul(z, z), axis=1, keepdims=True), Tensor(1e-12)), 0.5
        )
        return ops.div(z, norms)

    def _filtered_operator(self, edge_index: np.ndarray, sims: np.ndarray):
        """Keep the top-``rho`` most similar incoming edges per node."""
        import scipy.sparse as sp

        src, dst = edge_index
        keep = np.ones(len(src), dtype=bool)
        if self.filter_neighbors and len(src):
            order = np.lexsort((-sims, dst))
            sorted_dst = dst[order]
            boundaries = np.searchsorted(
                sorted_dst, np.arange(self.graph.num_nodes + 1)
            )
            keep = np.zeros(len(src), dtype=bool)
            for node in range(self.graph.num_nodes):
                lo, hi = boundaries[node], boundaries[node + 1]
                if hi <= lo:
                    continue
                count = max(1, int(np.ceil((hi - lo) * self.rho)))
                keep[order[lo:lo + count]] = True
        matrix = sp.csr_matrix(
            (np.ones(int(keep.sum())), (dst[keep], src[keep])),
            shape=(self.graph.num_nodes, self.graph.num_nodes),
        )
        degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
        inv = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
        return (sp.diags(inv) @ matrix).tocsr()

    def forward(self) -> Tensor:
        return self.head(self.embed())

    def embed(self) -> Tensor:
        z = self._similarity_embeddings()
        z_data = z.data
        out = self.self_linear(self.x)
        for linear, edge_index in zip(self.relation_linears, self._edge_indexes):
            if edge_index.shape[1] == 0:
                continue
            sims = np.sum(z_data[edge_index[0]] * z_data[edge_index[1]], axis=1)
            operator = self._filtered_operator(edge_index, sims)
            out = ops.add(out, ops.spmm(operator, linear(self.x)))
        return ops.relu(out)

    # ------------------------------------------------------------------
    def similarity_loss(
        self,
        y: np.ndarray,
        train_mask: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        samples: int = 256,
    ) -> Tensor:
        """Label-aware similarity supervision (CARE-GNN's L_simi).

        Samples labeled edge pairs; the cosine similarity of the similarity
        embeddings should be high for same-label pairs and low otherwise.
        """
        rng = rng or np.random.default_rng(0)
        y = np.asarray(y)
        train_mask = np.asarray(train_mask, dtype=bool)
        all_edges = np.concatenate(
            [e for e in self._edge_indexes if e.shape[1]], axis=1
        )
        both_labeled = train_mask[all_edges[0]] & train_mask[all_edges[1]]
        candidates = all_edges[:, both_labeled]
        if candidates.shape[1] == 0:
            raise ValueError("no fully-labeled edges to supervise similarity")
        take = min(samples, candidates.shape[1])
        pick = rng.choice(candidates.shape[1], size=take, replace=False)
        pairs = candidates[:, pick]
        targets = (y[pairs[0]] == y[pairs[1]]).astype(np.float64)
        z = self._similarity_embeddings()
        zi = ops.gather_rows(z, pairs[0])
        zj = ops.gather_rows(z, pairs[1])
        logits = ops.mul(Tensor(4.0), ops.sum(ops.mul(zi, zj), axis=1))
        return nn.binary_cross_entropy_with_logits(logits, targets)

    def loss(
        self,
        y: np.ndarray,
        train_mask: np.ndarray,
        class_weights: Optional[np.ndarray] = None,
        similarity_weight: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Joint objective: weighted CE + the similarity supervision."""
        main = nn.cross_entropy(
            self.forward(), y, mask=train_mask, class_weights=class_weights
        )
        if similarity_weight <= 0:
            return main
        aux = self.similarity_loss(y, train_mask, rng=rng)
        return ops.add(main, ops.mul(Tensor(similarity_weight), aux))
