"""Unit tests for the nn layer/module system."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.tensor import Tensor, ops


RNG = np.random.default_rng(42)


def rng():
    return np.random.default_rng(7)


class TestModule:
    def test_parameters_discovered_recursively(self):
        mlp = nn.MLP(4, (8, 8), 2, rng())
        names = [n for n, _ in mlp.named_parameters()]
        assert len(names) == len(set(names))
        # 3 linear layers, each weight+bias
        assert len(mlp.parameters()) == 6

    def test_num_parameters_counts_elements(self):
        linear = nn.Linear(3, 5, rng())
        assert linear.num_parameters() == 3 * 5 + 5

    def test_state_dict_roundtrip(self):
        m1 = nn.MLP(4, (8,), 2, rng())
        m2 = nn.MLP(4, (8,), 2, np.random.default_rng(99))
        state = m1.state_dict()
        m2.load_state_dict(state)
        x = Tensor(RNG.normal(size=(5, 4)))
        np.testing.assert_allclose(m1(x).data, m2(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        m = nn.Linear(3, 2, rng())
        with pytest.raises(KeyError):
            m.load_state_dict({"weight": np.zeros((3, 2))})
        good = m.state_dict()
        good["weight"] = np.zeros((4, 2))
        with pytest.raises(ValueError):
            m.load_state_dict(good)

    def test_train_eval_propagates(self):
        mlp = nn.MLP(4, (8,), 2, rng(), dropout=0.5)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_zero_grad_clears(self):
        linear = nn.Linear(3, 2, rng())
        out = ops.sum(linear(Tensor(np.ones((2, 3)))))
        out.backward()
        assert linear.weight.grad is not None
        linear.zero_grad()
        assert linear.weight.grad is None

    def test_module_list_indexing(self):
        ml = nn.ModuleList([nn.Linear(2, 2, rng()) for _ in range(3)])
        assert len(ml) == 3
        assert ml[1] is list(ml)[1]
        assert len(ml.parameters()) == 6


class TestLinear:
    def test_output_shape_and_value(self):
        linear = nn.Linear(3, 4, rng())
        x = RNG.normal(size=(5, 3))
        out = linear(Tensor(x))
        assert out.shape == (5, 4)
        np.testing.assert_allclose(
            out.data, x @ linear.weight.data + linear.bias.data
        )

    def test_no_bias(self):
        linear = nn.Linear(3, 4, rng(), bias=False)
        assert linear.bias is None
        assert len(linear.parameters()) == 1

    def test_gradients_flow(self):
        linear = nn.Linear(3, 2, rng())
        out = ops.sum(linear(Tensor(np.ones((4, 3)))))
        out.backward()
        assert linear.weight.grad.shape == (3, 2)
        np.testing.assert_allclose(linear.bias.grad, np.full(2, 4.0))


    def test_sparse_input_matches_dense(self):
        dense = RNG.normal(size=(6, 5)) * (RNG.random((6, 5)) < 0.3)
        probe = Tensor(RNG.normal(size=(6, 3)))
        results = []
        for x in (Tensor(dense), sp.csr_matrix(dense)):
            linear = nn.Linear(5, 3, rng())
            out = linear(x)
            ops.sum(ops.mul(out, probe)).backward()
            results.append((out.data, linear.weight.grad, linear.bias.grad))
        for sparse, reference in zip(results[1], results[0]):
            np.testing.assert_allclose(sparse, reference, rtol=1e-12)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6, rng())
        out = emb(np.array([1, 3, 3]))
        assert out.shape == (3, 6)
        np.testing.assert_allclose(out.data[1], out.data[2])

    def test_multidim_index(self):
        emb = nn.Embedding(10, 4, rng())
        out = emb(np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 4)

    def test_out_of_range_raises(self):
        emb = nn.Embedding(5, 4, rng())
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_on_duplicates(self):
        emb = nn.Embedding(4, 2, rng())
        out = ops.sum(emb(np.array([1, 1, 2])))
        out.backward()
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[2], [1.0, 1.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = nn.Dropout(0.5, rng())
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_train_mode_scales_survivors(self):
        drop = nn.Dropout(0.5, rng())
        out = drop(Tensor(np.ones((100, 100)))).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.3 < (out == 0).mean() < 0.7

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0, rng())


class TestNorms:
    def test_layernorm_normalizes_rows(self):
        ln = nn.LayerNorm(8)
        out = ln(Tensor(RNG.normal(2.0, 3.0, size=(5, 8)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_batchnorm_train_stats(self):
        bn = nn.BatchNorm1d(4)
        out = bn(Tensor(RNG.normal(5.0, 2.0, size=(200, 4)))).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = nn.BatchNorm1d(2, momentum=1.0)
        x = RNG.normal(3.0, 2.0, size=(100, 2))
        bn(Tensor(x))  # one training pass to set running stats
        bn.eval()
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-2)


class TestGRUCell:
    def test_output_shape(self):
        cell = nn.GRUCell(4, 6, rng())
        out = cell(Tensor(RNG.normal(size=(3, 4))), Tensor(np.zeros((3, 6))))
        assert out.shape == (3, 6)

    def test_update_gate_interpolates(self):
        # With tiny weights, update ~ 0.5 and output interpolates toward h.
        cell = nn.GRUCell(2, 2, rng())
        for param in cell.parameters():
            param.data[:] = 0.0
        h = Tensor(np.ones((1, 2)))
        out = cell(Tensor(np.zeros((1, 2))), h)
        np.testing.assert_allclose(out.data, 0.5 * np.ones((1, 2)))

    def test_gradients_reach_all_parameters(self):
        cell = nn.GRUCell(3, 3, rng())
        out = ops.sum(cell(Tensor(RNG.normal(size=(2, 3))), Tensor(RNG.normal(size=(2, 3)))))
        out.backward()
        for param in cell.parameters():
            assert param.grad is not None


class TestMLP:
    def test_no_hidden_is_linear(self):
        mlp = nn.MLP(4, (), 2, rng())
        assert len(list(mlp.net)) == 1

    def test_activation_names(self):
        for name in ("relu", "tanh", "sigmoid", "elu", "leaky_relu", "identity"):
            mlp = nn.MLP(4, (8,), 2, rng(), activation=name)
            assert mlp(Tensor(RNG.normal(size=(3, 4)))).shape == (3, 2)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            nn.MLP(4, (8,), 2, rng(), activation="swishy")

    def test_norm_options(self):
        for norm in ("layer", "batch"):
            mlp = nn.MLP(4, (8,), 2, rng(), norm=norm)
            assert mlp(Tensor(RNG.normal(size=(3, 4)))).shape == (3, 2)
