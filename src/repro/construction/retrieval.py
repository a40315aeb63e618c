"""Retrieval-based graph construction (survey Sec. 4.2.4, PET [27]).

For each target row, retrieve the most relevant rows from a data pool and
connect the target to its retrieved neighbors.  Unlike plain kNN over the
full dataset, retrieval (a) separates the query set from the pool — new
rows can be linked into a frozen pool at test time — and (b) can restrict
similarity to a subset of columns (the "label-relevant" view PET uses).

Search
------
:class:`PoolIndex` ranks a frozen pool by one of six measures: the
dot-product family (``cosine``/``pearson``/``inner``) and the distance
family (``euclidean``/``rbf``/``heat``, ranked by the sqrt-free ``−d²``
surrogate, which orders rows exactly as ``-d`` and ``exp(-γ·d²)`` do).
Any other measure is refused when the index is built.  ``backend`` picks
how :meth:`PoolIndex.top_k` searches:

* ``"exact"`` (default) — the O(N·d) scan over the precomputed pool
  matrix, and the oracle the IVF is measured against
  (:meth:`PoolIndex.exact_top_k` runs it whatever the backend).
* ``"ivf"`` — a pure-numpy IVF (inverted-file) index: a seeded k-means
  coarse quantizer over the pool's ranking representation splits the pool
  into ``nlist = round(√N)`` cells; a query scores the ``nprobe`` best
  cells' members exactly (by the same surrogate the exact scan ranks by)
  and re-ranks only those candidates — O(√N·d) per query instead of
  O(N·d).

Both answer ``max(1, 2²² // N)`` query rows at a time, so a block's
scores hold at most 32 MiB and a caller passes all its queries in one
call: the kNN criterion (:func:`repro.construction.rules.knn_edges`)
ranks a whole table without its n×n matrix.  Blocks change no answer.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.homogeneous import Graph
from repro.graph.utils import symmetrize_edge_index

_DOT_MEASURES = ("cosine", "pearson", "inner")
_DISTANCE_MEASURES = ("euclidean", "rbf", "heat")

#: Scores per query block: an N-row pool answers ``max(1, _SCAN_BLOCK // N)``
#: query rows at a time.
_SCAN_BLOCK = 1 << 22
#: Cells the IVF probes per query unless ``nprobe`` says otherwise.
_NPROBE = 8
#: IVF build settings: Lloyd iterations and k-means seed (the build is
#: deterministic), and rows per chunk of the nearest-centroid pass.  The
#: k-means trains on at most ``max(4096, 32·nlist)`` sampled pool rows.
_IVF_ITERS = 10
_IVF_SEED = 0
_IVF_CHUNK_ROWS = 65536


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Row-wise squared norms (distance-family ranking terms and IVF
    centroids)."""
    return (x**2).sum(axis=1)


def top_k_columns(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices ``(B, k)`` of each row's ``k`` highest scores, best
    first."""
    top = np.argpartition(scores, kth=scores.shape[1] - k, axis=1)[:, -k:]
    order = np.argsort(np.take_along_axis(scores, top, axis=1), axis=1)
    return np.take_along_axis(top, order[:, ::-1], axis=1)


class _IVF:
    """Pure-numpy IVF over a :class:`PoolIndex`: k-means coarse quantizer
    plus exact re-ranking of the probed cells' members.

    ``nprobe`` is the recall/latency dial: more cells probed, higher
    recall, more candidates re-ranked.  Probing widens past ``nprobe``
    cells when the probed cells hold fewer than ``k`` candidates, so
    results are always valid.
    """

    def __init__(self, index: "PoolIndex", nprobe: int) -> None:
        self.nprobe = int(nprobe)
        if self.nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        self._index = index
        # Row-major ranking representation (a no-copy view: _pool_t is
        # itself the transpose of a C-contiguous matrix).
        pool_repr = np.ascontiguousarray(index._pool_t.T)
        n = pool_repr.shape[0]
        nlist = int(np.clip(round(np.sqrt(n)), 1, n))
        rng = np.random.default_rng(_IVF_SEED)
        sample = min(n, max(4096, 32 * nlist))
        train = (
            pool_repr
            if n <= sample
            else pool_repr[rng.choice(n, size=sample, replace=False)]
        )
        centroids = self._kmeans(train, nlist, rng)
        self.nlist = int(centroids.shape[0])
        self._centroid_t = np.ascontiguousarray(centroids.T)
        self._centroid_sq = _sq_norms(centroids)
        # Cells are a Voronoi partition (−d² assignment) for every
        # measure; *probing* must follow the ranking-score family.  For
        # the dot family (inner/cosine/pearson) the best members live in
        # cells whose centroid maximizes q·c — the −d² preference would
        # skip exactly the high-norm cells a MIPS query wants (the
        # spherical-k-means / IVF-for-MIPS idiom).  The distance family
        # probes by −d², matching its −d² re-ranking surrogate.
        self._dot_probe = index.measure in _DOT_MEASURES
        assign = self._nearest_cell(pool_repr)
        # CSR-style cell membership: pool rows grouped by cell.
        self._order = np.argsort(assign, kind="stable").astype(np.int64)
        counts = np.bincount(assign, minlength=self.nlist)
        self._offsets = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        # The ranking rows (and the distance family's squared norms) in
        # cell order: a probed cell scores as one contiguous slice, where
        # gathering its members out of the pool would copy them per query.
        self._cell_repr = pool_repr[self._order]
        self._cell_sq = (
            None if index._pool_sq is None else index._pool_sq[self._order]
        )

    def _nearest_cell(self, rows: np.ndarray) -> np.ndarray:
        """Chunked nearest-centroid assignment by the ``−d²`` surrogate."""
        out = np.empty(rows.shape[0], dtype=np.int64)
        for start in range(0, rows.shape[0], _IVF_CHUNK_ROWS):
            chunk = rows[start:start + _IVF_CHUNK_ROWS]
            scores = chunk @ self._centroid_t
            scores *= 2.0
            scores -= self._centroid_sq[None, :]
            out[start:start + _IVF_CHUNK_ROWS] = scores.argmax(axis=1)
        return out

    def _kmeans(self, rows: np.ndarray, nlist: int, rng) -> np.ndarray:
        n, d = rows.shape
        if nlist > n:  # nlist is clipped to pool size, but the k-means
            nlist = n  # training set may be a smaller sample
        centroids = rows[rng.choice(n, size=nlist, replace=False)].copy()
        for _ in range(_IVF_ITERS):
            self._centroid_t = np.ascontiguousarray(centroids.T)
            self._centroid_sq = _sq_norms(centroids)
            assign = self._nearest_cell(rows)
            counts = np.bincount(assign, minlength=nlist)
            # Per-dimension bincount is a fast segment-sum for small d.
            sums = np.stack(
                [
                    np.bincount(assign, weights=rows[:, j], minlength=nlist)
                    for j in range(d)
                ],
                axis=1,
            )
            empty = counts == 0
            if empty.any():  # re-seed dead cells to random training rows
                sums[empty] = rows[rng.integers(0, n, int(empty.sum()))]
                counts[empty] = 1
            centroids = sums / counts[:, None]
        return centroids

    def top_k(
        self, queries: np.ndarray, k: int, exclude: Optional[np.ndarray]
    ) -> np.ndarray:
        index = self._index
        q = index._query_repr(queries)
        batch = q.shape[0]
        # Cell preference per query, best first (nlist is O(√N): a full
        # sort here is cheap and lets probing widen without rescoring).
        probe_scores = q @ self._centroid_t
        if not self._dot_probe:
            probe_scores *= 2.0
            probe_scores -= self._centroid_sq[None, :]
        cell_order = np.argsort(probe_scores, axis=1)[:, ::-1]
        offsets, order = self._offsets, self._order
        out = np.empty((batch, k), dtype=np.int64)
        probed_total = 0
        candidate_total = 0
        for i in range(batch):
            excluded = -1 if exclude is None else int(exclude[i])
            need = k + (1 if excluded >= 0 else 0)
            cells = []
            count = 0
            probed = 0
            for cell in cell_order[i]:
                if probed >= self.nprobe and count >= need:
                    break
                lo, hi = offsets[cell], offsets[cell + 1]
                if hi > lo:
                    cells.append(slice(lo, hi))
                    count += hi - lo
                probed += 1
            candidates = np.concatenate([order[cell] for cell in cells])
            # The exact scan's ranking surrogate (the distance family's
            # per-query constant dropped: it cannot change a ranking).
            scores = np.concatenate([self._cell_repr[cell] @ q[i] for cell in cells])
            if self._cell_sq is not None:
                scores *= 2.0
                scores -= np.concatenate([self._cell_sq[cell] for cell in cells])
            if excluded >= 0:
                scores[candidates == excluded] = -np.inf
            if count > k:
                top = np.argpartition(scores, count - k)[count - k:]
            else:
                top = np.arange(count)
            order_k = np.argsort(scores[top])[::-1]
            out[i] = candidates[top[order_k]]
            probed_total += probed
            candidate_total += count
        stats = index.stats
        stats["queries"] += batch
        stats["probed_cells"] += probed_total
        stats["candidates"] += candidate_total
        return out


class PoolIndex:
    """A frozen retrieval pool with its measure-specific terms precomputed.

    The pool-side quantities (row norms for ``cosine``, squared norms for
    the distance family, row means for ``pearson``) never change between
    serving requests, so they are hoisted to construction time: a request
    only pays for the query-side terms plus one ``(B, N)`` matmul.

    ``measure`` is one of the six the module docstring lists (anything
    else raises ``ValueError``).  ``backend`` is ``"exact"`` (the scan) or
    ``"ivf"``, whose one setting is ``nprobe``, the cells probed per query
    (``None``: 8); :attr:`nprobe` reports the live value, ``None`` for the
    exact scan.  :meth:`exact_top_k` always scans exactly.
    """

    def __init__(
        self,
        pool: np.ndarray,
        measure: str = "cosine",
        backend: str = "exact",
        nprobe: Optional[int] = None,
    ) -> None:
        pool = np.asarray(pool, dtype=np.float64)
        if pool.ndim != 2 or pool.shape[0] == 0:
            raise ValueError("pool must be a non-empty (N, d) matrix")
        if measure not in _DOT_MEASURES + _DISTANCE_MEASURES:
            raise ValueError(
                f"PoolIndex cannot rank by the measure {measure!r}; choose "
                f"from {sorted(_DOT_MEASURES + _DISTANCE_MEASURES)}"
            )
        if backend not in ("exact", "ivf"):
            raise ValueError(
                f"unknown index backend {backend!r}; choose from "
                "['exact', 'ivf']"
            )
        self.pool = pool
        self.measure = measure
        self.backend_name = backend
        self._pool_sq: Optional[np.ndarray] = None
        if measure in ("cosine", "pearson"):
            centered = (
                pool - pool.mean(axis=1, keepdims=True)
                if measure == "pearson"
                else pool
            )
            norms = np.maximum(
                np.linalg.norm(centered, axis=1, keepdims=True), 1e-12
            )
            self._pool_t = (centered / norms).T
        else:
            self._pool_t = pool.T
            if measure in _DISTANCE_MEASURES:
                self._pool_sq = _sq_norms(pool)
        #: IVF search counters (monotonic; the serving engine exports
        #: them).  The exact scan leaves them at zero.
        self.stats: Dict[str, int] = {
            "queries": 0, "probed_cells": 0, "candidates": 0,
        }
        self._ivf = (
            _IVF(self, _NPROBE if nprobe is None else nprobe)
            if backend == "ivf" else None
        )

    @property
    def size(self) -> int:
        return int(self.pool.shape[0])

    @property
    def is_approximate(self) -> bool:
        return self._ivf is not None

    @property
    def nprobe(self) -> Optional[int]:
        """Cells the IVF probes per query; ``None`` for the exact scan."""
        return None if self._ivf is None else self._ivf.nprobe

    # ------------------------------------------------------------------
    def _query_repr(self, queries: np.ndarray) -> np.ndarray:
        """Queries mapped into the pool's ranking representation: the
        space in which ranking scores are dot products against
        ``_pool_t`` (plus pool-side constants for the distance family)."""
        queries = np.asarray(queries, dtype=np.float64)
        measure = self.measure
        if measure in ("cosine", "pearson"):
            if measure == "pearson":
                queries = queries - queries.mean(axis=1, keepdims=True)
            return queries / np.maximum(
                np.linalg.norm(queries, axis=1, keepdims=True), 1e-12
            )
        return queries

    def _check(
        self, queries: np.ndarray, k: int, exclude: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Validate ``k`` and ``exclude``; ``exclude`` as a flat int64."""
        limit = self.size - (1 if exclude is not None else 0)
        if not 1 <= k <= limit:
            raise ValueError(
                f"k must be in [1, {limit}] for this pool"
                f"{' (self-exclusion active)' if exclude is not None else ''}"
                f", got {k}"
            )
        if exclude is None:
            return None
        exclude = np.asarray(exclude, dtype=np.int64).reshape(-1)
        if exclude.shape[0] != np.asarray(queries).shape[0]:
            raise ValueError("exclude must supply one pool row per query")
        return exclude

    def _exact_scan(
        self, queries: np.ndarray, k: int, exclude: Optional[np.ndarray]
    ) -> np.ndarray:
        """Top-k over the (B, N) block of ranking scores.

        The dot family's score is its similarity itself.  The distance
        family ranks by ``-d²`` directly: ``-d`` (euclidean) and
        ``exp(-γ·d²)`` (rbf/heat, γ > 0) are strictly decreasing in
        ``d²``, so the sqrt/exp passes buy nothing for top-k.
        """
        queries = self._query_repr(queries)
        scores = queries @ self._pool_t
        if self._pool_sq is not None:
            scores *= 2.0
            scores -= _sq_norms(queries)[:, None]
            scores -= self._pool_sq[None, :]
        if exclude is not None:
            rows = np.nonzero(exclude >= 0)[0]
            scores[rows, exclude[rows]] = -np.inf
        return top_k_columns(scores, k)

    def _in_blocks(self, search, queries, k, exclude) -> np.ndarray:
        """``search`` over ``max(1, _SCAN_BLOCK // N)`` queries at a time."""
        queries = np.asarray(queries, dtype=np.float64)
        rows = max(1, _SCAN_BLOCK // self.size)
        out = np.empty((queries.shape[0], k), dtype=np.int64)
        for start in range(0, queries.shape[0], rows):
            block = slice(start, start + rows)
            out[block] = search(
                queries[block], k, None if exclude is None else exclude[block]
            )
        return out

    def top_k(
        self,
        queries: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Indices (B, k) of each query's top-k pool rows, best first.

        ``exclude`` optionally masks one pool row per query (a ``(B,)``
        int array; ``-1`` masks nothing) — the self-match exclusion the
        transductive kNN path needs when pool rows query their own pool.
        """
        exclude = self._check(queries, k, exclude)
        search = self._exact_scan if self._ivf is None else self._ivf.top_k
        return self._in_blocks(search, queries, k, exclude)

    def exact_top_k(
        self,
        queries: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The exact-scan answer, regardless of backend — the oracle
        recall@k is measured against."""
        exclude = self._check(queries, k, exclude)
        return self._in_blocks(self._exact_scan, queries, k, exclude)


def retrieval_augmented_graph(
    x: np.ndarray,
    pool_mask: np.ndarray,
    k: int = 10,
    measure: str = "cosine",
    columns: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    index: str = "exact",
    nprobe: Optional[int] = None,
) -> Graph:
    """Connect every row to its top-k retrieved rows *inside the pool*.

    ``pool_mask`` marks the retrievable rows (typically the training set).
    Pool rows retrieve among the other pool rows; non-pool rows (val/test)
    retrieve from the pool only, so no information flows between test rows.

    All retrieval — pool-side included, self-matches masked — is one
    :class:`PoolIndex` call per side, whose query blocks bound the score
    memory instead of the dense O(N²) pairwise block; ``index="ivf"``
    (probing ``nprobe`` cells) drops the scan to O(√N·d) per row for the
    pools where N² was never an option.
    """
    x = np.asarray(x, dtype=np.float64)
    pool_mask = np.asarray(pool_mask, dtype=bool)
    if pool_mask.shape != (x.shape[0],):
        raise ValueError("pool_mask must be a boolean vector over rows")
    view = x if columns is None else x[:, columns]
    pool_idx = np.nonzero(pool_mask)[0]
    n_pool = len(pool_idx)
    if n_pool <= k:
        raise ValueError("pool must contain more than k rows")
    pool_view = view[pool_idx]
    pool_index = PoolIndex(pool_view, measure, backend=index, nprobe=nprobe)
    query_idx = np.nonzero(~pool_mask)[0]
    pool_neighbors = pool_index.top_k(pool_view, k, exclude=np.arange(n_pool))
    query_neighbors = pool_index.top_k(view[query_idx], k)
    sources = pool_idx[np.concatenate([pool_neighbors, query_neighbors])]
    targets = np.repeat(np.concatenate([pool_idx, query_idx]), k)
    edge_index = np.stack([sources.reshape(-1), targets]).astype(np.int64)
    edge_index, _ = symmetrize_edge_index(edge_index)
    return Graph(x.shape[0], edge_index, x=x, y=y)
