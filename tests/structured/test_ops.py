"""Tests for the functional circulant kernels (Eqn. 3 / Algorithm 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import rfft
from repro.structured import (
    BlockCirculantMatrix,
    CirculantMatrix,
    block_circulant_backward_batch,
    block_circulant_forward_batch,
    block_circulant_matvec,
    block_circulant_to_dense,
    block_circulant_transpose_matvec,
    blockify,
    circulant_gradients,
    circulant_matvec,
    circulant_transpose_matvec,
    unblockify,
)


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


class TestCirculantMatvec:
    def test_equals_eqn3(self, rng):
        # The paper's Eqn. 3: C x = IFFT(FFT(w) o FFT(x)).
        w, x = rng.normal(size=8), rng.normal(size=8)
        expected = np.fft.ifft(np.fft.fft(w) * np.fft.fft(x)).real
        assert np.allclose(circulant_matvec(w, x), expected)

    def test_matches_dense(self, rng):
        w, x = rng.normal(size=7), rng.normal(size=7)
        dense = CirculantMatrix(w).to_dense()
        assert np.allclose(circulant_matvec(w, x), dense @ x)

    def test_transpose_matches_dense(self, rng):
        w, y = rng.normal(size=7), rng.normal(size=7)
        dense = CirculantMatrix(w).to_dense()
        assert np.allclose(circulant_transpose_matvec(w, y), dense.T @ y)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            circulant_matvec(rng.normal(size=4), rng.normal(size=5))

    def test_batched_x(self, rng):
        w = rng.normal(size=6)
        x = rng.normal(size=(3, 6))
        dense = CirculantMatrix(w).to_dense()
        assert np.allclose(circulant_matvec(w, x), x @ dense.T)


class TestCirculantGradients:
    def test_grad_w_numerical(self, rng):
        n = 6
        w, x, g = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        grad_w, _ = circulant_gradients(w, x, g)
        numeric = numerical_gradient(
            lambda v: float(g @ (CirculantMatrix(v).to_dense() @ x)), w
        )
        assert np.allclose(grad_w, numeric, atol=1e-4)

    def test_grad_x_numerical(self, rng):
        n = 6
        w, x, g = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        _, grad_x = circulant_gradients(w, x, g)
        dense = CirculantMatrix(w).to_dense()
        numeric = numerical_gradient(lambda v: float(g @ (dense @ v)), x)
        assert np.allclose(grad_x, numeric, atol=1e-4)

    def test_grad_x_is_transpose_product(self, rng):
        n = 5
        w, x, g = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        _, grad_x = circulant_gradients(w, x, g)
        assert np.allclose(grad_x, CirculantMatrix(w).to_dense().T @ g)


class TestBlockify:
    def test_exact_multiple(self, rng):
        x = rng.normal(size=(2, 8))
        blocks = blockify(x, 4)
        assert blocks.shape == (2, 2, 4)
        assert np.allclose(blocks.reshape(2, 8), x)

    def test_padding(self, rng):
        x = rng.normal(size=7)
        blocks = blockify(x, 4)
        assert blocks.shape == (2, 4)
        assert np.allclose(blocks.reshape(-1)[:7], x)
        assert blocks.reshape(-1)[7] == 0.0

    def test_unblockify_round_trip(self, rng):
        x = rng.normal(size=(3, 11))
        assert np.allclose(unblockify(blockify(x, 4), 11), x)

    def test_unblockify_rejects_overflow(self, rng):
        with pytest.raises(ValueError):
            unblockify(rng.normal(size=(2, 4)), 9)

    def test_blockify_rejects_bad_block(self, rng):
        with pytest.raises(ValueError):
            blockify(rng.normal(size=8), 0)


class TestBlockCirculantKernels:
    def test_matvec_matches_dense(self, rng):
        weights = rng.normal(size=(3, 2, 4))
        dense = block_circulant_to_dense(weights)
        x = rng.normal(size=8)
        assert np.allclose(block_circulant_matvec(weights, x), dense @ x)

    def test_transpose_matvec_matches_dense(self, rng):
        weights = rng.normal(size=(3, 2, 4))
        dense = block_circulant_to_dense(weights)
        y = rng.normal(size=12)
        assert np.allclose(
            block_circulant_transpose_matvec(weights, y), dense.T @ y
        )

    def test_matvec_shape_checks(self, rng):
        weights = rng.normal(size=(2, 2, 4))
        with pytest.raises(ValueError):
            block_circulant_matvec(weights, rng.normal(size=9))
        with pytest.raises(ValueError):
            block_circulant_matvec(rng.normal(size=(2, 4)), rng.normal(size=8))

    def test_forward_batch_matches_dense(self, rng):
        weights = rng.normal(size=(2, 3, 4))
        dense = block_circulant_to_dense(weights)
        x = rng.normal(size=(5, 12))
        out = block_circulant_forward_batch(rfft(weights), x.reshape(5, 3, 4))
        assert np.allclose(out.reshape(5, 8), x @ dense.T)

    def test_backward_batch_grad_x(self, rng):
        weights = rng.normal(size=(2, 3, 4))
        dense = block_circulant_to_dense(weights)
        x = rng.normal(size=(5, 3, 4))
        g = rng.normal(size=(5, 2, 4))
        _, grad_x = block_circulant_backward_batch(rfft(weights), x, g)
        assert np.allclose(grad_x.reshape(5, 12), g.reshape(5, 8) @ dense)

    def test_backward_batch_grad_w_numerical(self, rng):
        weights = rng.normal(size=(2, 2, 3))
        x = rng.normal(size=(4, 2, 3))
        g = rng.normal(size=(4, 2, 3))
        grad_w, _ = block_circulant_backward_batch(rfft(weights), x, g)

        def loss(w):
            dense = block_circulant_to_dense(w)
            return float(np.sum(g.reshape(4, 6) * (x.reshape(4, 6) @ dense.T)))

        numeric = numerical_gradient(loss, weights)
        assert np.allclose(grad_w, numeric, atol=1e-4)

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_forward_batch(self, p, q, b, batch, seed):
        local = np.random.default_rng(seed)
        weights = local.normal(size=(p, q, b))
        dense = block_circulant_to_dense(weights)
        x = local.normal(size=(batch, q * b))
        out = block_circulant_forward_batch(rfft(weights), x.reshape(batch, q, b))
        assert np.allclose(out.reshape(batch, p * b), x @ dense.T, atol=1e-8)

    def test_to_dense_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            block_circulant_to_dense(rng.normal(size=(2, 3)))



class TestForwardBatchOperands:
    def test_mixed_precision_promotes(self, rng):
        weights = rng.normal(size=(2, 3, 8))
        x = rng.normal(size=(5, 3, 8))
        spectra = rfft(weights)
        wide = block_circulant_forward_batch(spectra, x.astype(np.float32))
        assert wide.dtype == np.float64
        single = block_circulant_forward_batch(
            spectra.astype(np.complex64), x.astype(np.float32)
        )
        assert single.dtype == np.float32
        grad_w, grad_x = block_circulant_backward_batch(
            spectra, x.astype(np.float32), rng.normal(size=(5, 2, 8))
        )
        assert grad_w.dtype == grad_x.dtype == np.float64
