"""Tests for Linear and BlockCirculantLinear (paper Algorithms 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BlockCirculantLinear, Linear, Tensor
from repro.structured import BlockCirculantMatrix


def numerical_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    base = f(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] += eps
        grad[idx] = (f(bumped) - base) / eps
    return grad


class TestLinear:
    def test_forward_matches_formula(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_1d_input_promoted(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(rng.normal(size=4))).shape == (1, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        x = rng.normal(size=(2, 4))
        assert np.allclose(layer(Tensor(x)).data, x @ layer.weight.data.T)

    def test_wrong_input_width_raises(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 3, rng=rng)(Tensor(rng.normal(size=(2, 5))))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradients_numerical(self, rng):
        layer = Linear(3, 2, rng=rng)
        x_data = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        x = Tensor(x_data, requires_grad=True)
        layer(x).backward(g)
        assert np.allclose(x.grad, g @ layer.weight.data)
        assert np.allclose(layer.bias.grad, g.sum(axis=0))
        w_numeric = numerical_gradient(
            lambda w: float(np.sum(g * (x_data @ w.T + layer.bias.data))),
            layer.weight.data,
        )
        assert np.allclose(layer.weight.grad, w_numeric, atol=1e-4)


class TestBlockCirculantLinearForward:
    @pytest.mark.parametrize(
        "n_in,n_out,block",
        [(8, 12, 4), (10, 7, 3), (6, 6, 6), (121, 64, 32), (16, 16, 1)],
    )
    def test_matches_dense_equivalent(self, rng, n_in, n_out, block):
        layer = BlockCirculantLinear(n_in, n_out, block, rng=rng)
        x = rng.normal(size=(3, n_in))
        expected = x @ layer.dense_weight().T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected, atol=1e-9)

    def test_block_size_one_behaves_dense_diagonal(self, rng):
        # b=1 blocks are scalars: the matrix is unstructured.
        layer = BlockCirculantLinear(4, 4, 1, rng=rng)
        assert layer.weight.data.shape == (4, 4, 1)

    def test_1d_input_promoted(self, rng):
        layer = BlockCirculantLinear(8, 8, 4, rng=rng)
        assert layer(Tensor(rng.normal(size=8))).shape == (1, 8)

    def test_no_bias(self, rng):
        layer = BlockCirculantLinear(8, 8, 4, bias=False, rng=rng)
        assert layer.bias is None

    def test_wrong_input_width_raises(self, rng):
        with pytest.raises(ValueError):
            BlockCirculantLinear(8, 8, 4, rng=rng)(Tensor(rng.normal(size=(2, 9))))

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            BlockCirculantLinear(4, 4, 0)
        with pytest.raises(ValueError):
            BlockCirculantLinear(4, 4, 8)

    def test_block_size_up_to_max_dim_allowed(self, rng):
        # The paper's layout: block = min dimension is valid and compresses.
        layer = BlockCirculantLinear(256, 128, 128, rng=rng)
        assert layer.weight.data.shape == (1, 2, 128)

    def test_compression_ratio(self, rng):
        layer = BlockCirculantLinear(256, 128, 64, rng=rng)
        assert layer.compression_ratio == pytest.approx(64.0)

    @given(
        st.integers(1, 20),
        st.integers(1, 20),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_forward_matches_dense(self, n_in, n_out, block, seed):
        local = np.random.default_rng(seed)
        block = min(block, max(n_in, n_out))
        layer = BlockCirculantLinear(n_in, n_out, block, rng=local)
        x = local.normal(size=(2, n_in))
        expected = x @ layer.dense_weight().T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected, atol=1e-8)


class TestBlockCirculantLinearBackward:
    def test_input_gradient_matches_dense(self, rng):
        layer = BlockCirculantLinear(10, 6, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 10)), requires_grad=True)
        g = rng.normal(size=(3, 6))
        layer(x).backward(g)
        assert np.allclose(x.grad, g @ layer.dense_weight(), atol=1e-9)

    def test_weight_gradient_numerical(self, rng):
        layer = BlockCirculantLinear(6, 8, 4, rng=rng)
        x_data = rng.normal(size=(3, 6))
        g = rng.normal(size=(3, 8))
        layer(Tensor(x_data)).backward(g)

        def loss(w):
            dense = BlockCirculantMatrix(w, rows=8, cols=6).to_dense()
            return float(np.sum(g * (x_data @ dense.T + layer.bias.data)))

        numeric = numerical_gradient(loss, layer.weight.data)
        assert np.allclose(layer.weight.grad, numeric, atol=1e-4)

    def test_bias_gradient(self, rng):
        layer = BlockCirculantLinear(8, 5, 4, rng=rng)
        g = rng.normal(size=(4, 5))
        layer(Tensor(rng.normal(size=(4, 8)))).backward(g)
        assert np.allclose(layer.bias.grad, g.sum(axis=0))

    def test_training_reduces_loss(self, rng):
        # One SGD step along the computed gradient must reduce the loss —
        # the end-to-end sanity check of Algorithm 2.
        from repro.nn import SGD

        layer = BlockCirculantLinear(12, 8, 4, rng=rng)
        x = rng.normal(size=(16, 12))
        target = rng.normal(size=(16, 8))

        def loss_value():
            out = layer(Tensor(x))
            return float(((out.data - target) ** 2).mean())

        optimizer = SGD(layer.parameters(), lr=0.05)
        before = loss_value()
        for _ in range(5):
            optimizer.zero_grad()
            out = layer(Tensor(x))
            loss = ((out - Tensor(target)) ** 2).mean()
            loss.backward()
            optimizer.step()
        assert loss_value() < before


class TestTrainingStepAtBenchmarkSizes:
    """One Algorithm-2 step at the sizes benchmarks/test_training_step.py times.

    The loss is quadratic in the parameters, so a step of ``lr`` along the
    computed gradient ``g`` lowers it by ``lr * |g|^2`` up to an
    ``O(lr^2)`` term: a wrong FFT-domain gradient cannot pass.
    """

    @pytest.mark.parametrize(
        "kind,n",
        [("bc", 256), ("bc", 1024), ("bc", 4096), ("dense", 256), ("dense", 1024)],
    )
    def test_step_descends_along_the_gradient(self, rng, kind, n):
        from repro.nn import SGD

        if kind == "bc":
            layer = BlockCirculantLinear(n, n, n // 4, rng=rng)
        else:
            layer = Linear(n, n, rng=rng)
        x = rng.normal(size=(8, n))
        target = rng.normal(size=(8, n))

        def loss_value():
            return float(((layer(Tensor(x)).data - target) ** 2).mean())

        lr = 1e-4
        optimizer = SGD(layer.parameters(), lr=lr)
        before = loss_value()
        optimizer.zero_grad()
        ((layer(Tensor(x)) - Tensor(target)) ** 2).mean().backward()
        squared_norm = sum(float(np.sum(p.grad**2)) for p in layer.parameters())
        optimizer.step()
        assert before - loss_value() == pytest.approx(lr * squared_norm, rel=0.05)


class TestFromDense:
    def test_projection_round_trip_exact(self, rng):
        source = BlockCirculantLinear(8, 12, 4, rng=rng)
        rebuilt = BlockCirculantLinear.from_dense(
            source.dense_weight(), 4, bias=source.bias.data
        )
        x = rng.normal(size=(2, 8))
        assert np.allclose(
            rebuilt(Tensor(x)).data, source(Tensor(x)).data, atol=1e-9
        )

    def test_bias_shape_check(self, rng):
        with pytest.raises(ValueError):
            BlockCirculantLinear.from_dense(
                rng.normal(size=(4, 4)), 2, bias=rng.normal(size=3)
            )

    def test_rejects_1d_weight(self, rng):
        with pytest.raises(ValueError):
            BlockCirculantLinear.from_dense(rng.normal(size=4), 2)

    def test_as_matrix_view(self, rng):
        layer = BlockCirculantLinear(6, 9, 3, rng=rng)
        matrix = layer.as_matrix()
        assert matrix.shape == (9, 6)
        assert np.allclose(matrix.to_dense(), layer.dense_weight())
