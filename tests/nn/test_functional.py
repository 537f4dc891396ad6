"""Tests for stateless NN operations (activations, softmax, im2col, pooling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Tensor


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


class TestActivations:
    def test_relu_values(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self, rng):
        data = rng.normal(size=(4, 4))
        x = Tensor(data, requires_grad=True)
        F.relu(x).sum().backward()
        assert np.allclose(x.grad, (data > 0).astype(float))

    def test_leaky_relu_values(self):
        out = F.leaky_relu(Tensor([-2.0, 3.0]), negative_slope=0.1)
        assert np.allclose(out.data, [-0.2, 3.0])

    def test_leaky_relu_grad(self, rng):
        data = rng.normal(size=6)
        x = Tensor(data, requires_grad=True)
        F.leaky_relu(x, 0.2).sum().backward()
        assert np.allclose(x.grad, np.where(data > 0, 1.0, 0.2))

    def test_sigmoid_range_and_symmetry(self, rng):
        data = rng.normal(size=10) * 5
        out = F.sigmoid(Tensor(data)).data
        assert np.all((out > 0) & (out < 1))
        assert np.allclose(
            F.sigmoid(Tensor(-data)).data, 1.0 - out, atol=1e-12
        )

    def test_sigmoid_extreme_inputs_stable(self):
        out = F.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_grad_numerical(self, rng):
        data = rng.normal(size=5)
        x = Tensor(data, requires_grad=True)
        F.sigmoid(x).sum().backward()
        numeric = numerical_gradient(
            lambda d: F.sigmoid(Tensor(d)).sum().item(), data
        )
        assert np.allclose(x.grad, numeric, atol=1e-4)

    def test_tanh_matches_numpy(self, rng):
        data = rng.normal(size=7)
        assert np.allclose(F.tanh(Tensor(data)).data, np.tanh(data))


class TestSoftmax:
    def test_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 6)))).data
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        data = rng.normal(size=(3, 5))
        assert np.allclose(
            F.softmax(Tensor(data)).data,
            F.softmax(Tensor(data + 100.0)).data,
        )

    def test_extreme_logits_stable(self):
        out = F.softmax(Tensor([[1000.0, 0.0, -1000.0]])).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    def test_grad_numerical(self, rng):
        data = rng.normal(size=(2, 4))
        x = Tensor(data, requires_grad=True)
        weights = rng.normal(size=(2, 4))
        (F.softmax(x) * Tensor(weights)).sum().backward()
        numeric = numerical_gradient(
            lambda d: float((F.softmax(Tensor(d)).data * weights).sum()), data
        )
        assert np.allclose(x.grad, numeric, atol=1e-4)

    def test_log_softmax_is_log_of_softmax(self, rng):
        data = rng.normal(size=(3, 5))
        assert np.allclose(
            F.log_softmax(Tensor(data)).data,
            np.log(F.softmax(Tensor(data)).data),
        )

    def test_log_softmax_grad_numerical(self, rng):
        data = rng.normal(size=(2, 3))
        x = Tensor(data, requires_grad=True)
        F.log_softmax(x).sum().backward()
        numeric = numerical_gradient(
            lambda d: float(F.log_softmax(Tensor(d)).data.sum()), data
        )
        assert np.allclose(x.grad, numeric, atol=1e-4)

    def test_axis_argument(self, rng):
        data = rng.normal(size=(3, 4))
        out = F.softmax(Tensor(data), axis=0).data
        assert np.allclose(out.sum(axis=0), 1.0)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_probability_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_drop_fraction(self):
        x = Tensor(np.ones(100_000))
        out = F.dropout(x, 0.25, training=True, rng=np.random.default_rng(0))
        assert (out.data == 0).mean() == pytest.approx(0.25, abs=0.01)

    def test_grad_masks_match_forward(self, rng):
        x = Tensor(rng.normal(size=1000), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(1))
        out.sum().backward()
        dropped = out.data == 0
        assert np.allclose(x.grad[dropped], 0.0)
        assert np.allclose(x.grad[~dropped], 2.0)

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(rng.normal(size=3)), 1.0, training=True)


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        assert np.allclose(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)


class TestIm2col:
    def test_shape(self, rng):
        cols = F.im2col(rng.normal(size=(2, 3, 8, 8)), kernel=3)
        assert cols.shape == (2, 36, 27)

    def test_stride_and_padding_shapes(self, rng):
        cols = F.im2col(rng.normal(size=(1, 1, 8, 8)), kernel=3, stride=2, padding=1)
        assert cols.shape == (1, 16, 9)

    def test_values_match_manual_window(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        cols = F.im2col(x, kernel=3)
        # Window at position (1, 2), channel 1, kernel offset (2, 0).
        position = 1 * 3 + 2
        column = 1 * 9 + 2 * 3 + 0
        assert cols[0, position, column] == pytest.approx(x[0, 1, 1 + 2, 2 + 0])

    def test_conv_equivalence(self, rng):
        # im2col @ flattened filter == direct convolution (paper Fig. 3).
        from scipy.signal import correlate2d

        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 3, 3))
        cols = F.im2col(x, kernel=3)
        result = (cols @ w.reshape(-1)).reshape(4, 4)
        expected = sum(
            correlate2d(x[0, c], w[c], mode="valid") for c in range(2)
        )
        assert np.allclose(result, expected)

    def test_col2im_is_adjoint(self, rng):
        # <im2col(x), y> == <x, col2im(y)> defines the exact adjoint.
        x = rng.normal(size=(2, 3, 6, 7))
        y = rng.normal(size=(2, 20, 27))
        lhs = np.sum(F.im2col(x, 3) * y)
        rhs = np.sum(x * F.col2im(y, x.shape, 3))
        assert lhs == pytest.approx(rhs)

    def test_col2im_adjoint_with_stride_padding(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        cols_shape = F.im2col(x, 3, stride=2, padding=1).shape
        y = rng.normal(size=cols_shape)
        lhs = np.sum(F.im2col(x, 3, stride=2, padding=1) * y)
        rhs = np.sum(x * F.col2im(y, x.shape, 3, stride=2, padding=1))
        assert lhs == pytest.approx(rhs)

    def test_rejects_3d_input(self, rng):
        with pytest.raises(ValueError):
            F.im2col(rng.normal(size=(3, 8, 8)), 3)

    def test_kernel_too_large(self, rng):
        with pytest.raises(ValueError):
            F.im2col(rng.normal(size=(1, 1, 4, 4)), kernel=5)

    def test_col2im_shape_check(self, rng):
        with pytest.raises(ValueError):
            F.col2im(rng.normal(size=(1, 4, 9)), (1, 1, 5, 5), kernel=3)


def _im2col_by_gather(images, kernel, stride, padding):
    """The index-gather formulation ``im2col`` used to run — the oracle
    the slice-copy unfold must reproduce element for element."""
    batch, channels, height, width = images.shape
    rows, cols, out_h, out_w = F.im2col_indices(
        height, width, kernel, stride, padding
    )
    if padding:
        images = np.pad(
            images, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    patches = images[:, :, rows, cols].transpose(0, 2, 1, 3)
    return patches.reshape(batch, out_h * out_w, channels * kernel * kernel)


class TestIm2colMatchesGather:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "batch,channels,height,width,kernel,stride,padding",
        [
            (1, 3, 32, 32, 3, 1, 1),
            (2, 16, 16, 16, 3, 1, 1),
            (3, 1, 9, 7, 3, 1, 0),
            (2, 4, 11, 13, 5, 2, 2),
            (1, 2, 8, 8, 2, 2, 0),
            (2, 3, 7, 9, 3, 3, 1),
            (1, 5, 6, 6, 6, 1, 0),  # a single output position
            (4, 2, 5, 5, 1, 1, 0),  # 1x1 kernel
            (2, 2, 4, 4, 3, 1, 3),  # padding wider than the kernel needs
        ],
    )
    def test_grid(
        self, rng, dtype, batch, channels, height, width, kernel, stride, padding
    ):
        x = rng.normal(size=(batch, channels, height, width)).astype(dtype)
        got = F.im2col(x, kernel, stride, padding)
        assert got.dtype == dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got, _im2col_by_gather(x, kernel, stride, padding))

    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 5),
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(
        self, batch, channels, height, width, kernel, stride, padding, dtype, seed
    ):
        x = (
            np.random.default_rng(seed)
            .normal(size=(batch, channels, height, width))
            .astype(dtype)
        )
        if min(height, width) + 2 * padding < kernel:
            with pytest.raises(ValueError):
                F.im2col(x, kernel, stride, padding)
            return
        assert np.array_equal(
            F.im2col(x, kernel, stride, padding),
            _im2col_by_gather(x, kernel, stride, padding),
        )

    def test_non_contiguous_input(self, rng):
        x = rng.normal(size=(2, 8, 8, 3)).transpose(0, 3, 1, 2)
        assert np.array_equal(F.im2col(x, 3, 1, 1), _im2col_by_gather(x, 3, 1, 1))

    def test_output_size_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="invalid geometry"):
            F.conv_output_size(8, 8, 3, stride=0)
        with pytest.raises(ValueError, match="does not fit"):
            F.conv_output_size(2, 8, 3)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4),
                   requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.allclose(x.grad[0, 0], expected)

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad_uniform(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        F.avg_pool2d(x, 3).sum().backward()
        assert np.allclose(x.grad, 1.0 / 9.0)

    def test_strided_pooling_shape(self, rng):
        out = F.max_pool2d(Tensor(rng.normal(size=(1, 1, 7, 7))), 3, stride=2)
        assert out.shape == (1, 1, 3, 3)

    def test_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(rng.normal(size=(4, 4))), 2)
