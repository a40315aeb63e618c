"""``PoolIndex`` search: exact-scan parity, IVF recall, refused measures.

The exact scan must stay bit-identical to the historical exhaustive scan
(it is the serving default and the parity oracle the IVF is measured
against); the IVF trades an ``nprobe`` budget for sub-linear scans and is
held to seeded recall@k floors across every measure the index ranks.  A
measure outside those six is refused when the index is built.  Both
answer in query blocks whose boundaries change no answer, and the kNN
criterion, which searches the whole table at once, stays within a flat
memory bound.
"""

import tracemalloc

import numpy as np
import pytest

from repro.construction import retrieval
from repro.construction.retrieval import PoolIndex, retrieval_augmented_graph
from repro.construction.rules import knn_edges
from repro.models.lunar import LUNAR

MEASURES = ["cosine", "euclidean", "rbf", "heat", "inner", "pearson"]


def _clustered(rng, n, d=8, centers=12, spread=3.0):
    mu = rng.normal(0.0, spread, (centers, d))
    return mu[rng.integers(0, centers, n)] + rng.normal(0.0, 1.0, (n, d))


def _recall(approx, exact):
    k = exact.shape[1]
    hits = sum(
        len(set(approx[i]) & set(exact[i])) for i in range(exact.shape[0])
    )
    return hits / float(exact.shape[0] * k)


class TestExactBackendParity:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_exact_backend_bit_identical_to_default(self, measure):
        rng = np.random.default_rng(0)
        pool = rng.normal(size=(60, 7))
        queries = rng.normal(size=(9, 7))
        default = PoolIndex(pool, measure)
        explicit = PoolIndex(pool, measure, backend="exact")
        np.testing.assert_array_equal(
            default.top_k(queries, 5), explicit.top_k(queries, 5)
        )
        np.testing.assert_array_equal(
            explicit.top_k(queries, 5), explicit.exact_top_k(queries, 5)
        )
        assert explicit.backend_name == "exact"
        assert not explicit.is_approximate

    def test_exclude_masks_self_matches(self):
        rng = np.random.default_rng(1)
        pool = rng.normal(size=(50, 5))
        exclude = np.arange(10)
        for backend in ("exact", "ivf"):
            index = PoolIndex(pool, "euclidean", backend=backend)
            neighbors = index.top_k(pool[:10], 4, exclude=exclude)
            assert not np.any(neighbors == exclude[:, None]), backend
        # without exclusion a pool row retrieves itself first
        index = PoolIndex(pool, "euclidean")
        assert np.array_equal(index.top_k(pool[:10], 1)[:, 0], exclude)

    def test_exclude_k_bound(self):
        index = PoolIndex(np.eye(4))
        with pytest.raises(ValueError):
            index.top_k(np.eye(4), 4, exclude=np.arange(4))


class TestIVFBackend:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_recall_at_k_across_measures(self, measure):
        rng = np.random.default_rng(7)
        pool = _clustered(rng, 2000)
        queries = _clustered(rng, 32)
        exact = PoolIndex(pool, measure)
        ivf = PoolIndex(pool, measure, backend="ivf", nprobe=8)
        assert ivf.backend_name == "ivf" and ivf.is_approximate
        recall = _recall(ivf.top_k(queries, 10), exact.top_k(queries, 10))
        assert recall >= 0.9, f"{measure}: recall@10 {recall:.3f} < 0.9"

    def test_full_probe_matches_exact_sets(self):
        # nprobe >= nlist probes every cell: the candidate set is the whole
        # pool, so the neighbor *sets* must equal the exact scan's.
        rng = np.random.default_rng(3)
        pool = _clustered(rng, 400)
        queries = _clustered(rng, 16)
        ivf = PoolIndex(pool, "cosine", backend="ivf", nprobe=10_000)
        exact_sets = PoolIndex(pool, "cosine").top_k(queries, 8)
        assert _recall(ivf.top_k(queries, 8), exact_sets) == 1.0

    def test_widens_probe_when_candidates_short(self):
        # k close to the pool size forces probing past nprobe cells until
        # enough candidates accumulate — results must stay valid and unique.
        rng = np.random.default_rng(4)
        pool = _clustered(rng, 40, centers=20)
        ivf = PoolIndex(pool, "euclidean", backend="ivf", nprobe=1)
        neighbors = ivf.top_k(_clustered(rng, 5), 35)
        assert neighbors.shape == (5, 35)
        for row in neighbors:
            assert len(set(row.tolist())) == 35
            assert row.min() >= 0 and row.max() < 40

    def test_nprobe_reports_the_live_budget(self):
        pool = _clustered(np.random.default_rng(5), 200)
        assert PoolIndex(pool, "euclidean", backend="ivf").nprobe == 8
        assert PoolIndex(pool, "euclidean", backend="ivf", nprobe=3).nprobe == 3
        assert PoolIndex(pool, "euclidean", nprobe=3).nprobe is None
        with pytest.raises(ValueError, match="nprobe"):
            PoolIndex(pool, "euclidean", backend="ivf", nprobe=0)

    def test_probe_stats_accumulate(self):
        rng = np.random.default_rng(6)
        ivf = PoolIndex(_clustered(rng, 500), "euclidean", backend="ivf")
        assert ivf.stats == {"queries": 0, "probed_cells": 0, "candidates": 0}
        ivf.top_k(_clustered(rng, 8), 5)
        assert ivf.stats["queries"] == 8
        assert ivf.stats["probed_cells"] >= 8
        assert ivf.stats["candidates"] >= 8 * 5

    def test_seeded_build_is_deterministic(self):
        rng = np.random.default_rng(8)
        pool = _clustered(rng, 1500)
        queries = _clustered(rng, 12)
        a = PoolIndex(pool, "euclidean", backend="ivf")
        b = PoolIndex(pool, "euclidean", backend="ivf")
        np.testing.assert_array_equal(a.top_k(queries, 10), b.top_k(queries, 10))


class TestBackendRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown index backend"):
            PoolIndex(np.eye(4), backend="hnsw")

    @pytest.mark.parametrize("backend", ["exact", "ivf"])
    def test_unrankable_measure_refused_at_construction(self, backend):
        # knn_graph trains on manhattan, but retrieval cannot rank by it:
        # the index refuses it up front instead of failing every query.
        with pytest.raises(ValueError, match="'manhattan'"):
            PoolIndex(np.eye(4), "manhattan", backend=backend)


class TestQueryBlocks:
    @pytest.mark.parametrize("measure", ["cosine", "euclidean", "rbf", "pearson"])
    def test_block_boundaries_change_nothing(self, measure, monkeypatch):
        # Every search below runs against a 150-row pool, so a block
        # constant of rows·150 cuts the queries into `rows`-row blocks.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 6))
        pool_mask = np.zeros(200, dtype=bool)
        pool_mask[rng.choice(200, size=150, replace=False)] = True
        pool, queries = x[pool_mask], x[~pool_mask]
        exact = PoolIndex(pool, measure)
        ivf = PoolIndex(pool, measure, backend="ivf", nprobe=2)
        lunar = LUNAR(k=5, epochs=1).fit(pool)
        self_match = np.arange(150)

        def answers():
            return [
                exact.top_k(queries, 5),
                exact.top_k(pool, 5, exclude=self_match),
                exact.exact_top_k(pool, 5, exclude=self_match),
                ivf.top_k(pool, 5, exclude=self_match),
                ivf.exact_top_k(queries, 5),
                retrieval_augmented_graph(
                    x, pool_mask, k=5, measure=measure
                ).edge_index,
                knn_edges(pool, 5, metric=measure),
                lunar._features(None),
                lunar._features(queries),
            ]

        one_block = answers()
        for rows in (1, 17):
            monkeypatch.setattr(retrieval, "_SCAN_BLOCK", rows * 150)
            for got, want in zip(answers(), one_block):
                np.testing.assert_array_equal(got, want)

    def test_knn_edges_memory_stays_flat(self):
        # A dense n×n ranking of these rows peaks at 572 MiB.
        x = np.random.default_rng(11).normal(size=(5000, 16))
        tracemalloc.start()
        try:
            edges = knn_edges(x, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges.shape == (2, 5000 * 8)
        assert peak < 128 * 2**20, f"knn_edges peaked at {peak / 2**20:.0f} MiB"


class TestRetrievalAugmentedGraphChunking:
    def test_ivf_graph_build_close_to_exact(self):
        rng = np.random.default_rng(10)
        x = _clustered(rng, 400)
        pool_mask = np.zeros(400, dtype=bool)
        pool_mask[:300] = True
        exact = retrieval_augmented_graph(x, pool_mask, k=5, measure="cosine")
        ivf = retrieval_augmented_graph(
            x, pool_mask, k=5, measure="cosine", index="ivf", nprobe=10_000
        )
        # full probe -> identical neighbor sets -> identical symmetrized graph
        np.testing.assert_array_equal(exact.edge_index, ivf.edge_index)
