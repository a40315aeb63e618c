"""Hypothesis property-based tests on core data structures and invariants."""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import metrics, nn
from repro.construction.learned import topk_sparsify
from repro.construction.rules import (
    knn_edges,
    pairwise_distances,
    pairwise_similarity,
    same_value_graph,
)
from repro.datasets.preprocessing import MinMaxScaler, StandardScaler
from repro.gnn.readout import mean_readout, sum_readout
from repro.graph.multiplex import group_mean_operators
from repro.graph.utils import (
    coalesce_edge_index,
    safe_reciprocal,
    symmetrize_edge_index,
)
from repro.tensor import Tensor, ops

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def small_matrix(max_rows=8, max_cols=6, min_rows=1, min_cols=1):
    return st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    ).flatmap(lambda s: arrays(np.float64, s, elements=finite))


# ----------------------------------------------------------------------
# autograd engine
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(small_matrix())
def test_add_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    ops.sum(ops.add(t, Tensor(np.ones_like(x)))).backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=30, deadline=None)
@given(small_matrix())
def test_mul_gradient_is_other_operand(x):
    other = np.full_like(x, 2.5)
    t = Tensor(x, requires_grad=True)
    ops.sum(ops.mul(t, Tensor(other))).backward()
    np.testing.assert_allclose(t.grad, other)


@settings(max_examples=30, deadline=None)
@given(small_matrix(min_cols=2))
def test_softmax_rows_are_distributions(x):
    out = ops.softmax(Tensor(x), axis=-1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_matrix())
def test_relu_idempotent(x):
    once = ops.relu(Tensor(x)).data
    twice = ops.relu(Tensor(once)).data
    np.testing.assert_allclose(once, twice)


@settings(max_examples=30, deadline=None)
@given(small_matrix(), st.integers(0, 4))
def test_segment_sum_conserves_mass(x, extra_segments):
    n = x.shape[0]
    rng = np.random.default_rng(0)
    seg = rng.integers(0, n + extra_segments, size=n)
    out = ops.segment_sum(Tensor(x), seg, n + extra_segments).data
    np.testing.assert_allclose(out.sum(axis=0), x.sum(axis=0), atol=1e-8)


@st.composite
def scatter_cases(draw):
    """(ids, values, num_rows): duplicate, negative and absent ids, 1-3-D
    values, and zero edges."""
    num_rows = draw(st.integers(1, 6))
    num_edges = draw(st.integers(0, 16))
    row_shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    ids = draw(arrays(np.int64, num_edges,
                      elements=st.integers(-num_rows, num_rows - 1)))
    values = draw(arrays(np.float64, (num_edges,) + row_shape, elements=finite))
    return ids, values, num_rows


@settings(max_examples=60, deadline=None)
@given(scatter_cases())
@example((np.zeros(0, np.int64), np.zeros(0), 3))
@example((np.zeros(0, np.int64), np.zeros((0, 4)), 3))
@example((np.zeros(0, np.int64), np.zeros((0, 2, 3)), 3))
def test_scatters_equal_ufunc_at_reference(case):
    # The sparse scatter adds in edge order, so equality is exact.
    ids, values, num_rows = case
    reference = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(reference, ids, values)
    out = ops.segment_sum(Tensor(values), ids, num_rows).data
    assert out.shape == reference.shape and np.array_equal(out, reference)

    table = Tensor(np.zeros((num_rows,) + values.shape[1:]), requires_grad=True)
    ops.gather_rows(table, ids).backward(values)
    assert np.array_equal(table.grad, reference)

    reference_max = np.full((num_rows,) + values.shape[1:], -np.inf)
    np.maximum.at(reference_max, ids, values)
    assert np.array_equal(ops.segment_max(values, ids, num_rows), reference_max)


def edge_sum_case(num_edges, num_src=3, num_dst=4, heads=2, width=3, seed=0):
    """Seeded case with ``num_dst - 1`` left without in-edges."""
    local = np.random.default_rng(seed)
    return (local.normal(size=(num_src, heads, width)),
            local.normal(size=(num_edges, heads)),
            local.integers(0, num_src, num_edges),
            local.integers(0, num_dst - 1, num_edges),
            num_dst,
            local.normal(size=(num_dst, heads, width)))


@st.composite
def edge_sum_cases(draw):
    """(h, w, src, dst, num_dst, probe): duplicate edges, destinations
    without edges, zero edges, ``n_src != num_dst``, 1-4 heads, and edge
    counts on both sides of the weight gradient's block size."""
    num_src = draw(st.integers(1, 5))
    num_dst = draw(st.integers(1, 5))
    heads = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    num_edges = draw(st.one_of(st.integers(0, 12),
                               st.sampled_from([255, 256, 257, 600])))
    src = draw(arrays(np.int64, num_edges, elements=st.integers(0, num_src - 1)))
    dst = draw(arrays(np.int64, num_edges, elements=st.integers(0, num_dst - 1)))
    h = draw(arrays(np.float64, (num_src, heads, width), elements=finite))
    w = draw(arrays(np.float64, (num_edges, heads), elements=finite))
    probe = draw(arrays(np.float64, (num_dst, heads, width), elements=finite))
    return h, w, src, dst, num_dst, probe


@settings(max_examples=40, deadline=None)
@given(edge_sum_cases())
@example(edge_sum_case(0))
@example(edge_sum_case(257, heads=4))
@example(edge_sum_case(600, num_src=7, num_dst=2, heads=3, width=1))
def test_edge_weighted_sum_equals_composed_reference(case):
    # Both sparse products add in edge order and the weight gradient
    # reduces each (edge, head) row on its own, so equality is exact.
    h_data, w_data, src, dst, num_dst, probe = case
    num_src, heads = h_data.shape[:2]
    h = Tensor(h_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    out = ops.edge_weighted_sum(h, w, ops.HeadEdges(src, dst, num_src, num_dst, heads))
    out.backward(probe)

    h_ref = Tensor(h_data, requires_grad=True)
    w_ref = Tensor(w_data, requires_grad=True)
    messages = ops.mul(ops.gather_rows(h_ref, src),
                       ops.reshape(w_ref, (len(src), heads, 1)))
    reference = ops.segment_sum(messages, dst, num_dst)
    reference.backward(probe)

    assert out.shape == reference.shape and np.array_equal(out.data, reference.data)
    assert np.array_equal(h.grad, h_ref.grad)
    assert np.array_equal(w.grad, w_ref.grad)


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.integers(1, 80), elements=st.integers(-1, 5)),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(np.zeros(80, np.int64), 3, 0)  # one 80-row group
@example(np.full(7, -1), 2, 0)  # every row missing
@example(np.arange(9), 1, 0)  # singleton groups only
def test_group_mean_equals_uncapped_clique_gcn(codes, width, seed):
    # TabGNN's value-layer aggregation against GCN over the materialized
    # clique with self loops.  Both add at most 80 rounded terms per entry,
    # so they agree to 80 ulps of the largest operand.
    local = np.random.default_rng(seed)
    z_data = local.normal(size=(codes.size, width))
    probe = local.normal(size=(codes.size, width))
    members, means = group_mean_operators(codes)
    z = Tensor(z_data, requires_grad=True)
    out = ops.spmm(members, ops.spmm(means, z))  # as TabGNN applies it
    out.backward(probe)

    adjacency = same_value_graph(codes, max_group_degree=None).gcn_adjacency()
    z_ref = Tensor(z_data, requires_grad=True)
    reference = ops.spmm(adjacency, z_ref)
    reference.backward(probe)

    assert out.shape == reference.shape
    tol = 1e-14
    assert np.abs(out.data - reference.data).max() <= tol * np.abs(z_data).max()
    assert np.abs(z.grad - z_ref.grad).max() <= tol * np.abs(probe).max()


def _all_sender_operators(codes):
    """The training operators: every row joins its group's mean."""
    n = codes.size
    keys = np.where(codes >= 0, codes, -1 - np.arange(n))
    _, group, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    members = sp.csr_matrix((np.ones(n), group, np.arange(n + 1)), shape=(n, sizes.size))
    return members, (sp.diags(1.0 / sizes) @ members.T).tocsr()


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.integers(1, 80), elements=st.integers(-1, 5)),
       arrays(np.int64, st.integers(0, 12), elements=st.integers(-1, 9)),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(np.zeros(80, np.int64), np.array([0, -1, 7]), 3, 0)
@example(np.full(7, -1), np.array([-1, 0]), 2, 0)  # no pool group at all
@example(np.arange(6), np.arange(-1, 10), 1, 0)  # singleton groups only
def test_group_mean_receive_only_rows(codes, queries, width, seed):
    # The multiplex serving oracle: query rows appended as receive-only
    # rows read their group's pool mean without moving it.
    pool = codes.size
    local = np.random.default_rng(seed)
    z = local.normal(size=(pool + queries.size, width))

    # No appended rows: exactly the operators training runs on.
    for got, ref in zip(group_mean_operators(codes), _all_sender_operators(codes)):
        assert got.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr

    members, means = group_mean_operators(
        np.concatenate([codes, queries]), receive_only=queries.size
    )
    out = ops.spmm(members, ops.spmm(means, Tensor(z))).data
    ref_members, ref_means = _all_sender_operators(codes)
    expected_pool = ops.spmm(ref_members, ops.spmm(ref_means, Tensor(z[:pool]))).data
    assert np.array_equal(out[:pool], expected_pool)
    for q, code in enumerate(queries):
        row = out[pool + q]
        group = np.flatnonzero(codes == code) if code >= 0 else np.zeros(0, int)
        if group.size:
            mean = z[group].mean(axis=0)
            assert np.abs(row - mean).max() <= 1e-14 * np.abs(z[group]).max()
        else:
            assert np.array_equal(row, z[pool + q])


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.integers(2, 20), elements=finite))
def test_segment_softmax_within_single_segment_is_softmax(scores):
    seg = np.zeros(len(scores), dtype=np.int64)
    out = ops.segment_softmax(Tensor(scores), seg, 1).data
    expected = ops.softmax(Tensor(scores.reshape(1, -1))).data.reshape(-1)
    np.testing.assert_allclose(out, expected, atol=1e-9)


# ----------------------------------------------------------------------
# graph utilities
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(1, 30))
def test_symmetrize_makes_edge_set_symmetric(num_nodes, num_edges):
    rng = np.random.default_rng(num_nodes * 100 + num_edges)
    edges = rng.integers(0, num_nodes, size=(2, num_edges))
    sym, _ = symmetrize_edge_index(edges)
    pairs = set(map(tuple, sym.T))
    assert all((b, a) in pairs for a, b in pairs)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(1, 30))
def test_coalesce_is_idempotent_and_duplicate_free(num_nodes, num_edges):
    rng = np.random.default_rng(num_nodes * 7 + num_edges)
    edges = rng.integers(0, num_nodes, size=(2, num_edges))
    once, _ = coalesce_edge_index(edges)
    twice, _ = coalesce_edge_index(once)
    assert once.shape == twice.shape
    assert len(set(map(tuple, once.T))) == once.shape[1]


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, st.integers(1, 10),
              elements=st.floats(0, 100, allow_nan=False)))
def test_safe_reciprocal_no_inf(values):
    out = safe_reciprocal(values)
    assert np.all(np.isfinite(out))
    positive = values > 0
    mask = positive & (values > 1e-100)
    np.testing.assert_allclose(out[mask] * values[mask], 1.0, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 15), st.integers(1, 3))
def test_knn_outdegree_invariant(n, k):
    rng = np.random.default_rng(n * 10 + k)
    x = rng.normal(size=(n, 3))
    edges = knn_edges(x, k=k)
    counts = np.bincount(edges[1], minlength=n)
    assert np.all(counts == k)


KNN_METRICS = ("euclidean", "manhattan", "cosine", "rbf", "heat", "pearson", "inner")


@st.composite
def tied_tables(draw):
    """A small-integer table in which some rows are copies of others, and a
    ``k`` it can serve: exact ties between neighbours are the rule."""
    n = draw(st.integers(3, 12))
    d = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, d), elements=st.integers(-2, 2).map(float)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=n)):
        x[dst] = x[src]
    return x, draw(st.integers(1, n - 1))


@settings(max_examples=100, deadline=None)
@given(tied_tables())
@example((np.zeros((5, 3)), 4))  # every row ties with every other
def test_knn_picks_a_valid_k_nearest_set_under_ties(case):
    x, k = case
    n = x.shape[0]
    for metric in KNN_METRICS:
        edges = knn_edges(x, k=k, metric=metric)
        neighbors = edges[0].reshape(n, k)
        np.testing.assert_array_equal(edges[1], np.repeat(np.arange(n), k))
        assert not np.any(neighbors == np.arange(n)[:, None]), metric
        assert all(len(set(row)) == k for row in neighbors.tolist()), metric
        # Dense reference: the neighbours' scores are the row's k best.
        if metric in ("euclidean", "manhattan"):
            scores = -pairwise_distances(x, metric)
        else:
            scores = pairwise_similarity(x, metric)
        np.fill_diagonal(scores, -np.inf)
        picked = np.sort(np.take_along_axis(scores, neighbors, axis=1), axis=1)
        best = np.sort(scores, axis=1)[:, n - k:]
        np.testing.assert_allclose(picked, best, rtol=0, atol=1e-12, err_msg=metric)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 10))
def test_pairwise_distance_symmetry_and_triangle(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 4))
    d = pairwise_distances(x, "euclidean")
    np.testing.assert_allclose(d, d.T, atol=1e-8)
    # triangle inequality on a random triple
    i, j, k = rng.integers(0, n, size=3)
    assert d[i, k] <= d[i, j] + d[j, k] + 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 10), st.integers(1, 3))
def test_topk_mask_row_counts(n, k):
    rng = np.random.default_rng(n * 3 + k)
    if k >= n:
        return
    mask = topk_sparsify(rng.normal(size=(n, n)), k)
    np.testing.assert_array_equal(mask.sum(axis=1), k)


# ----------------------------------------------------------------------
# preprocessing
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(small_matrix(min_rows=2))
def test_standard_scaler_inverse_roundtrip(x):
    scaler = StandardScaler()
    z = scaler.fit_transform(x)
    np.testing.assert_allclose(scaler.inverse_transform(z), x, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(small_matrix(min_rows=2))
def test_minmax_scaler_output_in_unit_box(x):
    z = MinMaxScaler().fit_transform(x)
    assert np.all(z >= -1e-12) and np.all(z <= 1 + 1e-12)


# ----------------------------------------------------------------------
# losses & metrics
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(small_matrix(min_rows=2, min_cols=2))
def test_cross_entropy_nonnegative(logits):
    targets = np.zeros(logits.shape[0], dtype=np.int64)
    loss = nn.cross_entropy(Tensor(logits), targets).item()
    assert loss >= -1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 50))
def test_auc_complement_when_scores_negated(n):
    rng = np.random.default_rng(n)
    y = rng.integers(0, 2, size=n)
    if y.sum() in (0, n):
        y[0] = 0
        y[1] = 1
    scores = rng.normal(size=n)
    auc = metrics.roc_auc(y, scores)
    flipped = metrics.roc_auc(y, -scores)
    assert auc + flipped == 1.0 or abs(auc + flipped - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40))
def test_accuracy_bounds(n):
    rng = np.random.default_rng(n)
    y = rng.integers(0, 3, size=n)
    pred = rng.integers(0, 3, size=n)
    acc = metrics.accuracy(y, pred)
    assert 0.0 <= acc <= 1.0


# ----------------------------------------------------------------------
# readout invariance
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(2, 6), st.integers(1, 4))
def test_readout_permutation_invariance(batch, nodes, dim):
    rng = np.random.default_rng(batch * 100 + nodes * 10 + dim)
    h = rng.normal(size=(batch, nodes, dim))
    perm = rng.permutation(nodes)
    for readout in (sum_readout, mean_readout):
        a = readout(Tensor(h)).data
        b = readout(Tensor(h[:, perm])).data
        np.testing.assert_allclose(a, b, atol=1e-10)
