"""Tests for Conv2d and BlockCirculantConv2d (paper section IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate2d

from repro.nn import BlockCirculantConv2d, Conv2d, Tensor


def reference_conv(x, weight, bias, stride=1, padding=0):
    """Direct per-window convolution (paper Eqn. 5), any stride/padding."""
    batch, _, height, width = x.shape
    out_c, in_c, k, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (height + 2 * padding - k) // stride + 1
    out_w = (width + 2 * padding - k) // stride + 1
    out = np.zeros((batch, out_c, out_h, out_w))
    for n in range(batch):
        for p in range(out_c):
            acc = sum(
                correlate2d(x[n, c], weight[p, c], mode="valid")
                for c in range(in_c)
            )
            out[n, p] = acc[::stride, ::stride] + bias[p]
    return out


class TestConv2d:
    def test_matches_reference(self, rng):
        conv = Conv2d(3, 4, 3, rng=rng)
        x = rng.normal(size=(2, 3, 7, 6))
        expected = reference_conv(x, conv.weight.data, conv.bias.data)
        assert np.allclose(conv(Tensor(x)).data, expected, atol=1e-10)

    def test_stride(self, rng):
        conv = Conv2d(2, 3, 3, stride=2, rng=rng)
        x = rng.normal(size=(1, 2, 9, 9))
        expected = reference_conv(x, conv.weight.data, conv.bias.data, stride=2)
        assert np.allclose(conv(Tensor(x)).data, expected, atol=1e-10)

    def test_padding(self, rng):
        conv = Conv2d(2, 2, 3, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv(Tensor(x))
        assert out.shape == (1, 2, 5, 5)
        expected = reference_conv(x, conv.weight.data, conv.bias.data, padding=1)
        assert np.allclose(out.data, expected, atol=1e-10)

    def test_output_shape_helper(self, rng):
        conv = Conv2d(3, 8, 5, stride=2, padding=2, rng=rng)
        assert conv.output_shape(16, 12) == (8, 8, 6)

    def test_no_bias(self, rng):
        conv = Conv2d(1, 1, 3, bias=False, rng=rng)
        assert conv.bias is None

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, rng=rng)(Tensor(rng.normal(size=(1, 2, 6, 6))))

    def test_rejects_3d_input(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, rng=rng)(Tensor(rng.normal(size=(3, 6, 6))))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Conv2d(0, 4, 3)
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, padding=-1)

    def test_input_gradient_numerical(self, rng):
        conv = Conv2d(2, 3, 3, rng=rng)
        x_data = rng.normal(size=(1, 2, 5, 5))
        g = rng.normal(size=(1, 3, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        conv(x).backward(g)

        def loss(d):
            return float(np.sum(g * conv(Tensor(d)).data))

        grad = np.zeros_like(x_data)
        eps = 1e-6
        base = loss(x_data)
        it = np.nditer(x_data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = x_data.copy()
            bumped[idx] += eps
            grad[idx] = (loss(bumped) - base) / eps
        assert np.allclose(x.grad, grad, atol=1e-4)

    def test_weight_gradient_numerical(self, rng):
        conv = Conv2d(1, 2, 2, rng=rng)
        x = rng.normal(size=(2, 1, 4, 4))
        g = rng.normal(size=(2, 2, 3, 3))
        conv(Tensor(x)).backward(g)
        saved = conv.weight.data.copy()
        eps = 1e-6
        base = float(np.sum(g * reference_conv(x, saved, conv.bias.data)))
        grad = np.zeros_like(saved)
        it = np.nditer(saved, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = saved.copy()
            bumped[idx] += eps
            grad[idx] = (
                float(np.sum(g * reference_conv(x, bumped, conv.bias.data))) - base
            ) / eps
        assert np.allclose(conv.weight.grad, grad, atol=1e-4)

    def test_bias_gradient(self, rng):
        conv = Conv2d(1, 3, 3, rng=rng)
        g = rng.normal(size=(2, 3, 2, 2))
        conv(Tensor(rng.normal(size=(2, 1, 4, 4)))).backward(g)
        assert np.allclose(conv.bias.grad, g.sum(axis=(0, 2, 3)))


class TestBlockCirculantConv2d:
    @pytest.mark.parametrize(
        "in_c,out_c,block",
        # (16, 16, 8): the channels and block of the paper's Fig. 3 table
        # (benchmarks/test_conv_reformulation.py).
        [(4, 6, 2), (3, 8, 4), (6, 6, 3), (2, 2, 2), (5, 7, 3), (16, 16, 8)],
    )
    def test_matches_dense_expansion(self, rng, in_c, out_c, block):
        bcc = BlockCirculantConv2d(in_c, out_c, 3, block_size=block, rng=rng)
        dense = Conv2d(in_c, out_c, 3, rng=rng)
        dense.weight.data = bcc.dense_weight()
        dense.bias.data = bcc.bias.data.copy()
        x = rng.normal(size=(2, in_c, 6, 5))
        assert np.allclose(
            bcc(Tensor(x)).data, dense(Tensor(x)).data, atol=1e-9
        )

    def test_stride_padding_match_dense(self, rng):
        bcc = BlockCirculantConv2d(4, 4, 3, block_size=2, stride=2, padding=1, rng=rng)
        dense = Conv2d(4, 4, 3, stride=2, padding=1, rng=rng)
        dense.weight.data = bcc.dense_weight()
        dense.bias.data = bcc.bias.data.copy()
        x = rng.normal(size=(1, 4, 8, 8))
        assert np.allclose(bcc(Tensor(x)).data, dense(Tensor(x)).data, atol=1e-9)

    def test_per_position_slices_are_circulant(self, rng):
        # Paper Eqn. 6: each F(i, j, :, :) slice must be (block-)circulant.
        from repro.structured import BlockCirculantMatrix

        bcc = BlockCirculantConv2d(4, 4, 3, block_size=4, rng=rng)
        weight = bcc.dense_weight()  # (P, C, r, r)
        for i in range(3):
            for j in range(3):
                slice_pc = weight[:, :, i, j]  # (P, C)
                projected = BlockCirculantMatrix.from_dense(slice_pc, 4)
                assert np.allclose(projected.to_dense(), slice_pc, atol=1e-9)

    def test_input_gradient_matches_dense(self, rng):
        bcc = BlockCirculantConv2d(4, 6, 3, block_size=2, rng=rng)
        dense = Conv2d(4, 6, 3, rng=rng)
        dense.weight.data = bcc.dense_weight()
        dense.bias.data = bcc.bias.data.copy()
        x_data = rng.normal(size=(2, 4, 6, 6))
        g = rng.normal(size=(2, 6, 4, 4))
        x1 = Tensor(x_data, requires_grad=True)
        x2 = Tensor(x_data, requires_grad=True)
        bcc(x1).backward(g)
        dense(x2).backward(g)
        assert np.allclose(x1.grad, x2.grad, atol=1e-9)

    def test_weight_gradient_numerical(self, rng):
        bcc = BlockCirculantConv2d(2, 2, 2, block_size=2, rng=rng)
        x = rng.normal(size=(1, 2, 4, 4))
        g = rng.normal(size=(1, 2, 3, 3))
        bcc(Tensor(x)).backward(g)
        saved = bcc.weight.data.copy()
        eps = 1e-6

        def loss(w):
            bcc.weight.data = w
            value = float(np.sum(g * bcc(Tensor(x)).data))
            bcc.weight.data = saved
            return value

        base = loss(saved)
        grad = np.zeros_like(saved)
        it = np.nditer(saved, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = saved.copy()
            bumped[idx] += eps
            grad[idx] = (loss(bumped) - base) / eps
        assert np.allclose(bcc.weight.grad, grad, atol=1e-4)

    def test_bias_gradient(self, rng):
        bcc = BlockCirculantConv2d(2, 4, 3, block_size=2, rng=rng)
        g = rng.normal(size=(2, 4, 2, 2))
        bcc(Tensor(rng.normal(size=(2, 2, 4, 4)))).backward(g)
        assert np.allclose(bcc.bias.grad, g.sum(axis=(0, 2, 3)))

    def test_compression_ratio(self, rng):
        bcc = BlockCirculantConv2d(8, 8, 3, block_size=4, rng=rng)
        assert bcc.compression_ratio == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockCirculantConv2d(4, 4, 3, block_size=0)
        with pytest.raises(ValueError):
            BlockCirculantConv2d(4, 4, 3, block_size=8)
        with pytest.raises(ValueError):
            BlockCirculantConv2d(0, 4, 3, block_size=2)

    def test_channel_mismatch_raises(self, rng):
        layer = BlockCirculantConv2d(4, 4, 3, block_size=2, rng=rng)
        with pytest.raises(ValueError):
            layer(Tensor(rng.normal(size=(1, 3, 6, 6))))

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_matches_dense(self, in_c, out_c, block, seed):
        local = np.random.default_rng(seed)
        block = min(block, max(in_c, out_c))
        bcc = BlockCirculantConv2d(in_c, out_c, 2, block_size=block, rng=local)
        dense = Conv2d(in_c, out_c, 2, rng=local)
        dense.weight.data = bcc.dense_weight()
        dense.bias.data = bcc.bias.data.copy()
        x = local.normal(size=(1, in_c, 4, 4))
        assert np.allclose(
            bcc(Tensor(x)).data, dense(Tensor(x)).data, atol=1e-8
        )
