"""Rule-based graph construction (survey Sec. 4.2.2, Table 3).

Implements the similarity measures and the four mainstream edge criteria
the survey identifies: k-nearest neighbors, thresholding, fully-connected,
and same-feature-value.

The kNN criterion ranks through the exact
:class:`~repro.construction.retrieval.PoolIndex` scan, with the table as
its own pool; only ``manhattan``, which the index refuses, is dense here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.construction.retrieval import PoolIndex, top_k_columns
from repro.graph.homogeneous import Graph
from repro.graph.utils import symmetrize_edge_index


# ----------------------------------------------------------------------
# pairwise distances / similarities
# ----------------------------------------------------------------------
def pairwise_distances(x: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Dense pairwise distance matrix for ``metric`` in {euclidean, manhattan, cosine}."""
    x = np.asarray(x, dtype=np.float64)
    if metric == "euclidean":
        sq = (x**2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric == "manhattan":
        return np.abs(x[:, None, :] - x[None, :, :]).sum(axis=-1)
    if metric == "cosine":
        return 1.0 - pairwise_similarity(x, "cosine")
    raise ValueError(f"unknown distance metric {metric!r}")


def _cosine_similarity(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    normed = x / np.maximum(norms, 1e-12)
    return normed @ normed.T


def _rbf_similarity(x: np.ndarray, gamma: Optional[float] = None) -> np.ndarray:
    d = pairwise_distances(x, "euclidean")
    if gamma is None:
        # Median heuristic: gamma = 1 / (2 * median(d)^2).
        positive = d[d > 0]
        median = np.median(positive) if positive.size else 1.0
        gamma = 1.0 / max(2.0 * median**2, 1e-12)
    return np.exp(-gamma * d**2)


def _heat_similarity(x: np.ndarray, t: float = 1.0) -> np.ndarray:
    d = pairwise_distances(x, "euclidean")
    return np.exp(-(d**2) / max(t, 1e-12))


def _pearson_similarity(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=1, keepdims=True)
    return _cosine_similarity(centered)


def _inner_similarity(x: np.ndarray) -> np.ndarray:
    return x @ x.T


SIMILARITIES: Dict[str, Callable[..., np.ndarray]] = {
    "cosine": _cosine_similarity,
    "rbf": _rbf_similarity,
    "heat": _heat_similarity,
    "pearson": _pearson_similarity,
    "inner": _inner_similarity,
}


def pairwise_similarity(x: np.ndarray, measure: str = "cosine", **kwargs) -> np.ndarray:
    """Dense pairwise similarity for ``measure`` in SIMILARITIES."""
    x = np.asarray(x, dtype=np.float64)
    if measure in SIMILARITIES:
        return SIMILARITIES[measure](x, **kwargs)
    if measure == "euclidean":
        # Convert distance to similarity for threshold-style uses.
        return -pairwise_distances(x, "euclidean")
    raise ValueError(
        f"unknown similarity {measure!r}; choose from {sorted(SIMILARITIES) + ['euclidean']}"
    )


# ----------------------------------------------------------------------
# kNN criterion
# ----------------------------------------------------------------------
def knn_edges(
    x: np.ndarray,
    k: int,
    metric: str = "euclidean",
    include_distances: bool = False,
):
    """Directed kNN edge index: each node points to its ``k`` nearest others.

    Returns ``edge_index`` of shape ``(2, n*k)`` with edges (neighbor → node)
    so that message passing aggregates *from* neighbors, nearest first
    (exact ties in any order); optionally also the neighbor distances, for
    ``metric="euclidean"`` only (LUNAR's distance-preserving edge features).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, n), got k={k}, n={n}")
    if include_distances and metric != "euclidean":
        raise ValueError(f"include_distances needs the euclidean metric, got {metric!r}")
    if metric == "manhattan":
        scores = -pairwise_distances(x, metric)
        np.fill_diagonal(scores, -np.inf)
        neighbor_idx = top_k_columns(scores, k)
    else:
        neighbor_idx = PoolIndex(x, metric).exact_top_k(x, k, exclude=np.arange(n))
    dst = np.repeat(np.arange(n, dtype=np.int64), k)
    src = neighbor_idx.reshape(-1)
    edge_index = np.stack([src, dst])
    if include_distances:
        return edge_index, np.linalg.norm(x[src] - x[dst], axis=1)
    return edge_index


def knn_graph(
    x: np.ndarray,
    k: int,
    metric: str = "euclidean",
    y: Optional[np.ndarray] = None,
) -> Graph:
    """Symmetric instance graph via the kNN criterion (LUNAR, GNN4MV, LSTM-GNN style)."""
    edge_index, _ = symmetrize_edge_index(knn_edges(x, k, metric))
    return Graph(x.shape[0], edge_index, x=x, y=y)


# ----------------------------------------------------------------------
# threshold criterion
# ----------------------------------------------------------------------
def threshold_graph(
    x: np.ndarray,
    threshold: float,
    measure: str = "cosine",
    y: Optional[np.ndarray] = None,
    weighted: bool = False,
) -> Graph:
    """Connect pairs whose similarity exceeds ``threshold`` (GINN/GAEOD style)."""
    sim = pairwise_similarity(x, measure)
    np.fill_diagonal(sim, -np.inf)
    src, dst = np.nonzero(sim > threshold)
    edge_index = np.stack([src, dst]).astype(np.int64)
    edge_weight = sim[src, dst] if weighted else None
    return Graph(x.shape[0], edge_index, x=x, y=y, edge_weight=edge_weight)


# ----------------------------------------------------------------------
# fully-connected criterion
# ----------------------------------------------------------------------
def fully_connected_graph(
    num_nodes: int,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    self_loops: bool = False,
) -> Graph:
    """Complete graph over ``num_nodes`` (Fi-GNN feature graphs, SGANM)."""
    idx = np.arange(num_nodes, dtype=np.int64)
    src = np.repeat(idx, num_nodes)
    dst = np.tile(idx, num_nodes)
    if not self_loops:
        mask = src != dst
        src, dst = src[mask], dst[mask]
    return Graph(num_nodes, np.stack([src, dst]), x=x, y=y)


# ----------------------------------------------------------------------
# same-feature-value criterion
# ----------------------------------------------------------------------
def same_value_graph(
    codes: np.ndarray,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    max_group_degree: Optional[int] = 30,
    rng: Optional[np.random.Generator] = None,
) -> Graph:
    """Connect instances sharing the same categorical value (TabGNN, WPN).

    A value shared by ``m`` instances would create a clique of ``m(m-1)``
    edges; ``max_group_degree`` caps the per-node degree inside each value
    group by sampling, which keeps popular values from exploding the graph
    (the survey's scalability warning for this rule).  Missing codes (-1)
    create no edges.
    """
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    rng = rng or np.random.default_rng(0)
    n = codes.shape[0]
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for value in np.unique(codes):
        if value < 0:
            continue
        members = np.nonzero(codes == value)[0]
        m = len(members)
        if m < 2:
            continue
        if max_group_degree is None or m - 1 <= max_group_degree:
            src = np.repeat(members, m)
            dst = np.tile(members, m)
            mask = src != dst
            sources.append(src[mask])
            targets.append(dst[mask])
        else:
            # Sample max_group_degree partners per member.
            for node in members:
                others = members[members != node]
                partners = rng.choice(others, size=max_group_degree, replace=False)
                sources.append(partners)
                targets.append(np.full(max_group_degree, node, dtype=np.int64))
    if sources:
        edge_index = np.stack(
            [np.concatenate(sources), np.concatenate(targets)]
        ).astype(np.int64)
        edge_index, _ = symmetrize_edge_index(edge_index)
    else:
        edge_index = np.zeros((2, 0), dtype=np.int64)
    return Graph(n, edge_index, x=x, y=y)
