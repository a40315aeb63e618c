"""Unit tests for the autograd engine: every op checked against finite differences."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.construction.intrinsic import multiplex_from_dataset
from repro.construction.rules import knn_graph
from repro.datasets import make_fraud
from repro.gnn.networks import build_network
from repro.models import TabGNN
from repro.tensor import Tensor, is_grad_enabled, no_grad, ops


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_unary(op, x_data, tol=1e-5, **kwargs):
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x, **kwargs)
    loss = ops.sum(ops.mul(out, out))
    loss.backward()

    def scalar_fn(arr):
        return float((op(Tensor(arr), **kwargs).data ** 2).sum())

    expected = numeric_grad(scalar_fn, x_data.copy())
    np.testing.assert_allclose(x.grad, expected, rtol=tol, atol=tol)


RNG = np.random.default_rng(0)


class TestElementwiseGrads:
    def test_add_broadcast(self):
        a = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        out = ops.sum(ops.add(a, b))
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_mul_grads(self):
        a_data = RNG.normal(size=(5, 2))
        b_data = RNG.normal(size=(5, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ops.sum(ops.mul(a, b)).backward()
        np.testing.assert_allclose(a.grad, b_data)
        np.testing.assert_allclose(b.grad, a_data)

    def test_div_grad(self):
        a_data = RNG.normal(size=(4,)) + 3.0
        b_data = RNG.normal(size=(4,)) + 3.0
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ops.sum(ops.div(a, b)).backward()
        np.testing.assert_allclose(a.grad, 1.0 / b_data)
        np.testing.assert_allclose(b.grad, -a_data / b_data**2)

    @pytest.mark.parametrize(
        "op",
        [ops.exp, ops.tanh, ops.sigmoid, ops.relu, ops.leaky_relu, ops.elu, ops.absolute],
    )
    def test_unary_against_numeric(self, op):
        x = RNG.normal(size=(6, 3)) + 0.05  # offset avoids kinks at 0
        check_unary(op, x)

    def test_log_grad(self):
        x = np.abs(RNG.normal(size=(5,))) + 0.5
        check_unary(ops.log, x)

    def test_power_grad(self):
        x = np.abs(RNG.normal(size=(5,))) + 0.5
        check_unary(lambda t: ops.power(t, 3.0), x)

    def test_sqrt_at_positive(self):
        x = np.abs(RNG.normal(size=(5,))) + 0.5
        check_unary(lambda t: ops.power(t, 0.5), x)

    def test_maximum_grad_routes_to_larger(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        ops.sum(ops.maximum(a, b)).backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_clip_grad(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        ops.sum(ops.clip(x, -1.0, 1.0)).backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_where_routes_gradient(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        ops.sum(ops.where(cond, a, b)).backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestMatmulGrads:
    def test_matmul_2d(self):
        a_data = RNG.normal(size=(3, 4))
        b_data = RNG.normal(size=(4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = ops.matmul(a, b)
        g = RNG.normal(size=(3, 2))
        ops.sum(ops.mul(out, Tensor(g))).backward()
        np.testing.assert_allclose(a.grad, g @ b_data.T)
        np.testing.assert_allclose(b.grad, a_data.T @ g)

    def test_matmul_batched(self):
        a_data = RNG.normal(size=(2, 3, 4))
        b_data = RNG.normal(size=(2, 4, 5))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ops.sum(ops.matmul(a, b)).backward()
        ones = np.ones((2, 3, 5))
        np.testing.assert_allclose(a.grad, ones @ np.swapaxes(b_data, -1, -2))
        np.testing.assert_allclose(b.grad, np.swapaxes(a_data, -1, -2) @ ones)

    def test_spmm_matches_dense(self):
        dense = (RNG.random((5, 5)) < 0.4).astype(float)
        matrix = sp.csr_matrix(dense)
        x_data = RNG.normal(size=(5, 3))
        x = Tensor(x_data, requires_grad=True)
        out = ops.spmm(matrix, x)
        np.testing.assert_allclose(out.data, dense @ x_data)
        g = RNG.normal(size=(5, 3))
        ops.sum(ops.mul(out, Tensor(g))).backward()
        np.testing.assert_allclose(x.grad, dense.T @ g)


class TestSoftmaxGrads:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 6)))
        out = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_grad_numeric(self):
        x = RNG.normal(size=(3, 4))
        check_unary(lambda t: ops.softmax(t, axis=-1), x)

    def test_log_softmax_grad_numeric(self):
        x = RNG.normal(size=(3, 4))
        check_unary(lambda t: ops.log_softmax(t, axis=-1), x)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        np.testing.assert_allclose(
            ops.log_softmax(x).data, np.log(ops.softmax(x).data), atol=1e-10
        )


class TestReductionGrads:
    def test_sum_axis(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        ops.sum(ops.sum(x, axis=0)).backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_mean_grad(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        ops.mean(x).backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 12.0))

    def test_mean_axis_keepdims(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = ops.mean(x, axis=1, keepdims=True)
        assert out.shape == (3, 1)
        ops.sum(out).backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 0.25))

    def test_max_grad_goes_to_argmax(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 2.0]]), requires_grad=True)
        ops.sum(ops.max(x, axis=1)).backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        ops.sum(ops.max(x, axis=1)).backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestShapeOps:
    def test_reshape_roundtrip(self):
        x = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
        out = x.reshape(3, 4)
        ops.sum(ops.mul(out, out)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_transpose_grad(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        ops.sum(ops.mul(ops.transpose(x), Tensor(np.ones((3, 2))))).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_concat_splits_grad(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        out = ops.concat([a, b], axis=0)
        assert out.shape == (6, 3)
        g = RNG.normal(size=(6, 3))
        ops.sum(ops.mul(out, Tensor(g))).backward()
        np.testing.assert_allclose(a.grad, g[:2])
        np.testing.assert_allclose(b.grad, g[2:])

    def test_stack_grad(self):
        a = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        ops.sum(out).backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_getitem_slice_grad(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        ops.sum(x[1:3]).backward()
        expected = np.zeros((5, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestGatherScatter:
    def test_gather_rows_duplicates_accumulate(self):
        x = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        idx = np.array([0, 0, 3])
        out = ops.gather_rows(x, idx)
        ops.sum(out).backward()
        expected = np.zeros((4, 2))
        expected[0] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_segment_sum_forward_and_grad(self):
        x = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        seg = np.array([0, 1, 0, 2])
        out = ops.segment_sum(x, seg, 3)
        np.testing.assert_allclose(out.data, [[4.0, 6.0], [2.0, 3.0], [6.0, 7.0]])
        g = RNG.normal(size=(3, 2))
        ops.sum(ops.mul(out, Tensor(g))).backward()
        np.testing.assert_allclose(x.grad, g[seg])

    @pytest.mark.parametrize("bad_id", [3, 7, -4])
    def test_segment_sum_rejects_out_of_range_id(self, bad_id):
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError):
            ops.segment_sum(x, np.array([0, bad_id, 1]), 3)

    def test_segment_sum_wraps_negative_id(self):
        values = RNG.normal(size=(3, 2))
        seg = np.array([-1, 0, -3])
        expected = np.zeros((3, 2))
        np.add.at(expected, seg, values)
        out = ops.segment_sum(Tensor(values), seg, 3)
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(out.data[2], values[0])

    @pytest.mark.parametrize("bad_id", [4, -5])
    def test_gather_rows_rejects_out_of_range_id(self, bad_id):
        x = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        with pytest.raises(IndexError):
            ops.sum(ops.gather_rows(x, np.array([0, bad_id]))).backward()

    @pytest.mark.parametrize("bad_id", [4, -5])
    def test_scatter_behind_gather_backward_checks_ids(self, bad_id):
        # The incidence product does no bounds checking of its own: an id
        # past the end must raise before the product, never reach it.
        with pytest.raises(IndexError):
            ops._scatter_rows(np.array([0, bad_id]), np.ones((2, 3)), 4)

    def test_gather_rows_backward_wraps_negative_id(self):
        x = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        idx = np.array([-1, 0, -1])
        g = RNG.normal(size=(3, 2))
        ops.gather_rows(x, idx).backward(g)
        expected = np.zeros((4, 2))
        np.add.at(expected, idx, g)
        np.testing.assert_array_equal(x.grad, expected)
        np.testing.assert_array_equal(x.grad[3], g[0] + g[2])

    def test_segment_mean_handles_empty_segment(self):
        x = Tensor(np.ones((2, 3)))
        out = ops.segment_mean(x, np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data[0], np.ones(3))
        np.testing.assert_allclose(out.data[1], np.zeros(3))

    def test_segment_softmax_normalizes_per_segment(self):
        scores = Tensor(RNG.normal(size=(6,)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = ops.segment_softmax(scores, seg, 3)
        sums = np.zeros(3)
        np.add.at(sums, seg, out.data)
        np.testing.assert_allclose(sums, np.ones(3), atol=1e-12)

    def test_segment_softmax_grad_numeric(self):
        seg = np.array([0, 0, 1, 1, 1])
        x_data = RNG.normal(size=(5,))

        x = Tensor(x_data.copy(), requires_grad=True)
        out = ops.segment_softmax(x, seg, 2)
        ops.sum(ops.mul(out, out)).backward()

        def scalar_fn(arr):
            return float((ops.segment_softmax(Tensor(arr), seg, 2).data ** 2).sum())

        expected = numeric_grad(scalar_fn, x_data.copy())
        np.testing.assert_allclose(x.grad, expected, rtol=1e-5, atol=1e-6)


    def test_edge_weighted_sum_grads_numeric(self):
        # Three sources feeding four destinations (one without edges),
        # with a duplicate edge.
        src = np.array([0, 2, 2, 1, 0, 2])
        dst = np.array([1, 0, 1, 1, 2, 0])
        edges = ops.HeadEdges(src, dst, 3, 4, 2)
        h_data = RNG.normal(size=(3, 2, 3))
        w_data = RNG.normal(size=(6, 2))
        probe = Tensor(RNG.normal(size=(4, 2, 3)))

        def loss(h, w):
            return ops.sum(ops.mul(ops.edge_weighted_sum(h, w, edges), probe))

        h = Tensor(h_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        loss(h, w).backward()
        expected_h = numeric_grad(lambda a: loss(Tensor(a), Tensor(w_data)).item(),
                                  h_data.copy())
        expected_w = numeric_grad(lambda a: loss(Tensor(h_data), Tensor(a)).item(),
                                  w_data.copy())
        np.testing.assert_allclose(h.grad, expected_h, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(w.grad, expected_w, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("bad_src, bad_dst", [(3, 0), (0, 4), (-4, 0)])
    def test_head_edges_reject_out_of_range_ids(self, bad_src, bad_dst):
        # The sparse kernels do no bounds checking: ids are checked once,
        # when the structure is built.
        with pytest.raises(IndexError):
            ops.HeadEdges(np.array([0, bad_src]), np.array([1, bad_dst]), 3, 4, 2)


class TestGraphMechanics:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = ops.mul(x, x)
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        # A enters, B enters, A leaves, B leaves.  With one process-wide
        # flag, B's exit restores the "off" it saw on entry and recording
        # stays off everywhere.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(10)
            seen["a_after"] = is_grad_enabled()
            a_out.set()

        def thread_b():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                a_out.wait(10)
                seen["b_inside"] = is_grad_enabled()
            seen["b_after"] = is_grad_enabled()

        threads = [threading.Thread(target=fn) for fn in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"a_after": True, "b_inside": False, "b_after": True}
        assert is_grad_enabled()
        x = Tensor([1.0], requires_grad=True)
        assert x.requires_grad
        ops.sum(ops.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_backward_on_non_scalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ops.mul(x, x)
        with pytest.raises(RuntimeError):
            out.backward()
        out.backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 2 * np.ones((2, 2)))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        ops.sum(x).backward()
        ops.sum(x).backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = ops.mul(x, x).detach()
        z = ops.sum(ops.mul(Tensor.ensure(y), Tensor(np.ones(2))))
        assert not z.requires_grad

    def test_diamond_graph_accumulates_once_per_path(self):
        # f(x) = sum(x*x + x*x) => grad = 4x
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ops.mul(x, x)
        z = ops.add(y, y)
        ops.sum(z).backward()
        np.testing.assert_allclose(x.grad, 4 * x.data)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(1), requires_grad=True)
        out = x
        for _ in range(3000):
            out = ops.add(out, Tensor(0.0))
        ops.sum(out).backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_operator_sugar(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * 3 + 1) / 2 - 0.5
        y.backward()
        np.testing.assert_allclose(y.data, [3.0])
        np.testing.assert_allclose(x.grad, [1.5])

    def test_pow_operator(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x**2).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_second_backward_through_a_freed_graph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ops.mul(x, x)
        loss = ops.sum(y)
        loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        # ``y``'s graph is gone: a second pass through it must raise, not
        # propagate ``y``'s stale gradient again (x.grad would read [8, 16])
        # nor drop it silently.
        with pytest.raises(RuntimeError, match="detach"):
            ops.sum(ops.mul(Tensor(2.0), y)).backward()
        with pytest.raises(RuntimeError, match="detach"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        assert y.requires_grad and loss.requires_grad
        # The value itself is still usable in a new graph.
        ops.sum(ops.mul(x, y.detach())).backward()
        np.testing.assert_array_equal(x.grad, [3.0, 8.0])

    def test_backward_releases_the_graph(self):
        x_data = np.array([0.5, -1.0, 2.0])
        # A chain x -> 3x -> tanh -> sum and a diamond x -> (x*x, exp x) -> + -> sum.
        x = Tensor(x_data.copy(), requires_grad=True)
        scaled = ops.mul(x, Tensor(3.0))
        squashed = ops.tanh(scaled)
        chain = [scaled, squashed, ops.sum(squashed)]
        u = Tensor(x_data.copy(), requires_grad=True)
        square, grown = ops.mul(u, u), ops.exp(u)
        joined = ops.add(square, grown)
        diamond = [square, grown, joined, ops.sum(joined)]
        for nodes in (chain, diamond):
            loss = nodes[-1]
            value = loss.data.copy()
            loss.backward()
            for node in nodes:
                assert node.grad is None and node._prev == ()
                assert node.requires_grad
            assert loss.item() == value
        np.testing.assert_allclose(x.grad, 3.0 * (1.0 - np.tanh(3.0 * x_data) ** 2))
        np.testing.assert_allclose(u.grad, 2.0 * x_data + np.exp(x_data))

    def test_leaf_gradients_are_private_and_writable(self):
        # ``add`` hands both operands the same array; each leaf must copy it.
        a, b = nn.Parameter(np.ones(3)), nn.Parameter(np.ones(3))
        ops.sum(ops.add(a, b)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        norm = nn.SGD([a, b], lr=0.1).clip_grad_norm(1.0)
        assert norm == pytest.approx(np.sqrt(6.0))
        np.testing.assert_allclose(a.grad, np.full(3, 1.0 / np.sqrt(6.0)))
        np.testing.assert_allclose(b.grad, np.full(3, 1.0 / np.sqrt(6.0)))

        x = Tensor(np.ones((2, 3)), requires_grad=True)
        ops.mean(x).backward()
        assert x.grad.flags.writeable
        x.grad *= 6.0
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        # A read-only broadcast gradient reaches the leaf as a private copy.
        v = Tensor(np.ones((2, 3)), requires_grad=True)
        ops.add(v, Tensor(0.0)).backward(np.broadcast_to(1.0, (2, 3)))
        assert v.grad.flags.writeable and v.grad.base is None

    @pytest.mark.parametrize("model_name", ["tabgnn", "gat"])
    def test_backward_holds_only_parameter_gradients(self, model_name):
        ds = make_fraud(n=300, seed=0)
        rng = np.random.default_rng(0)
        if model_name == "tabgnn":
            model = TabGNN(multiplex_from_dataset(ds), 16, 2, rng)
        else:
            graph = knn_graph(ds.to_matrix(), k=5, y=ds.y)
            model = build_network("gat", graph, 16, 2, rng)
        # A first pass fills the graph's memoized operators.
        nn.cross_entropy(model(), ds.y).backward()
        model.zero_grad()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = nn.cross_entropy(model(), ds.y)
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.grad.nbytes for p in model.parameters())
        assert np.isfinite(loss.item())
        assert held <= grad_bytes + 64 * 1024, (held, grad_bytes)
