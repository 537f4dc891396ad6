"""BLAS-backed contraction kernels vs their einsum reference forms."""

import numpy as np
import pytest

from repro.fft import irfft, rfft
from repro.structured import (
    block_circulant_backward_batch,
    block_circulant_forward_batch,
    block_circulant_matvec,
    block_circulant_to_dense,
    block_circulant_transpose_matvec,
)


def block_circulant_forward_batch_einsum(weight_spectra, x_blocks):
    """Reference einsum form of :func:`block_circulant_forward_batch`.

    The readable specification of the contraction; the fast kernel must
    match it to round-off.
    """
    b = x_blocks.shape[-1]
    x_spec = rfft(x_blocks)  # (batch, q, nb)
    y_spec = np.einsum("pqf,nqf->npf", weight_spectra, x_spec)
    return irfft(y_spec, n=b)


def block_circulant_backward_batch_einsum(weight_spectra, x_blocks, grad_blocks):
    """Reference einsum form of :func:`block_circulant_backward_batch`."""
    b = x_blocks.shape[-1]
    x_spec = rfft(x_blocks)
    g_spec = rfft(grad_blocks)
    grad_w_spec = np.einsum("nqf,npf->pqf", np.conj(x_spec), g_spec)
    grad_x_spec = np.einsum("pqf,npf->nqf", np.conj(weight_spectra), g_spec)
    return irfft(grad_w_spec, n=b), irfft(grad_x_spec, n=b)


GRIDS = [
    (1, 1, 4),
    (2, 3, 4),  # ragged p != q
    (5, 2, 8),
    (3, 3, 16),
    (4, 7, 6),  # non-power-of-two block
]


@pytest.mark.parametrize("p,q,b", GRIDS)
@pytest.mark.parametrize("batch", [1, 2, 9])
class TestForwardEquivalence:
    def test_matches_einsum_real_weights(self, p, q, b, batch, rng):
        spectra = rfft(rng.normal(size=(p, q, b)))
        x_blocks = rng.normal(size=(batch, q, b))
        fast = block_circulant_forward_batch(spectra, x_blocks)
        ref = block_circulant_forward_batch_einsum(spectra, x_blocks)
        assert np.allclose(fast, ref, atol=1e-10)

    def test_matches_einsum_complex_spectra(self, p, q, b, batch, rng):
        # Arbitrary (non-Hermitian) spectra: the contraction itself must
        # agree even when the spectra did not come from real weights.
        nb = b // 2 + 1
        spectra = rng.normal(size=(p, q, nb)) + 1j * rng.normal(size=(p, q, nb))
        x_blocks = rng.normal(size=(batch, q, b))
        fast = block_circulant_forward_batch(spectra, x_blocks)
        ref = block_circulant_forward_batch_einsum(spectra, x_blocks)
        assert np.allclose(fast, ref, atol=1e-10)


@pytest.mark.parametrize("p,q,b", GRIDS)
@pytest.mark.parametrize("batch", [1, 2, 9])
class TestBackwardEquivalence:
    def test_matches_einsum(self, p, q, b, batch, rng):
        spectra = rfft(rng.normal(size=(p, q, b)))
        x_blocks = rng.normal(size=(batch, q, b))
        grad_blocks = rng.normal(size=(batch, p, b))
        fast_w, fast_x = block_circulant_backward_batch(
            spectra, x_blocks, grad_blocks
        )
        ref_w, ref_x = block_circulant_backward_batch_einsum(
            spectra, x_blocks, grad_blocks
        )
        assert np.allclose(fast_w, ref_w, atol=1e-10)
        assert np.allclose(fast_x, ref_x, atol=1e-10)

    def test_matches_einsum_complex_spectra(self, p, q, b, batch, rng):
        nb = b // 2 + 1
        spectra = rng.normal(size=(p, q, nb)) + 1j * rng.normal(size=(p, q, nb))
        x_blocks = rng.normal(size=(batch, q, b))
        grad_blocks = rng.normal(size=(batch, p, b))
        fast = block_circulant_backward_batch(spectra, x_blocks, grad_blocks)
        ref = block_circulant_backward_batch_einsum(
            spectra, x_blocks, grad_blocks
        )
        for fast_part, ref_part in zip(fast, ref):
            assert np.allclose(fast_part, ref_part, atol=1e-10)


@pytest.mark.parametrize("p,q,b", GRIDS)
class TestMatvecSpectraArgument:
    def test_matvec_accepts_precomputed_spectra(self, p, q, b, rng):
        weights = rng.normal(size=(p, q, b))
        x = rng.normal(size=(q * b,))
        spectra = rfft(weights)
        without = block_circulant_matvec(weights, x)
        with_spectra = block_circulant_matvec(weights, x, weight_spectra=spectra)
        dense = block_circulant_to_dense(weights) @ x
        assert np.allclose(without, with_spectra, atol=1e-10)
        assert np.allclose(with_spectra, dense, atol=1e-10)

    def test_transpose_matvec_accepts_precomputed_spectra(self, p, q, b, rng):
        weights = rng.normal(size=(p, q, b))
        y = rng.normal(size=(p * b,))
        spectra = rfft(weights)
        without = block_circulant_transpose_matvec(weights, y)
        with_spectra = block_circulant_transpose_matvec(
            weights, y, weight_spectra=spectra
        )
        dense = block_circulant_to_dense(weights).T @ y
        assert np.allclose(without, with_spectra, atol=1e-10)
        assert np.allclose(with_spectra, dense, atol=1e-10)
