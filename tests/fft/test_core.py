"""Tests for the dispatching fft/ifft/rfft/irfft entry points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft, ifft, irfft, rfft, use_backend

BACKENDS = ("numpy", "pure")


@pytest.mark.parametrize("backend", BACKENDS)
class TestFft:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 121])
    def test_matches_numpy(self, rng, backend, n):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        with use_backend(backend):
            assert np.allclose(fft(x), np.fft.fft(x))

    def test_round_trip(self, rng, backend):
        x = rng.normal(size=24) + 1j * rng.normal(size=24)
        with use_backend(backend):
            assert np.allclose(ifft(fft(x)), x)

    def test_zero_padding(self, rng, backend):
        x = rng.normal(size=10)
        with use_backend(backend):
            assert np.allclose(fft(x, n=16), np.fft.fft(x, n=16))

    def test_truncation(self, rng, backend):
        x = rng.normal(size=20)
        with use_backend(backend):
            assert np.allclose(fft(x, n=8), np.fft.fft(x, n=8))

    def test_axis_argument(self, rng, backend):
        x = rng.normal(size=(3, 6, 5))
        with use_backend(backend):
            for axis in (0, 1, 2, -1, -2):
                assert np.allclose(fft(x, axis=axis), np.fft.fft(x, axis=axis))

    def test_rejects_nonpositive_length(self, rng, backend):
        with use_backend(backend):
            with pytest.raises(ValueError):
                fft(rng.normal(size=4), n=0)

    def test_linearity(self, rng, backend):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        with use_backend(backend):
            assert np.allclose(fft(3 * a - b), 3 * fft(a) - fft(b))


@pytest.mark.parametrize("backend", BACKENDS)
class TestRfft:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 11, 16, 121])
    def test_matches_numpy(self, rng, backend, n):
        x = rng.normal(size=n)
        with use_backend(backend):
            assert np.allclose(rfft(x), np.fft.rfft(x))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 11, 16])
    def test_round_trip(self, rng, backend, n):
        x = rng.normal(size=n)
        with use_backend(backend):
            assert np.allclose(irfft(rfft(x), n=n), x)

    def test_rfft_rejects_complex(self, rng, backend):
        with use_backend(backend):
            with pytest.raises(TypeError):
                rfft(rng.normal(size=4) + 1j)

    def test_irfft_checks_bin_count(self, rng, backend):
        with use_backend(backend):
            with pytest.raises(ValueError):
                irfft(rng.normal(size=5) + 0j, n=16)

    def test_irfft_matches_numpy(self, rng, backend):
        spectrum = np.fft.rfft(rng.normal(size=14))
        with use_backend(backend):
            assert np.allclose(irfft(spectrum, n=14), np.fft.irfft(spectrum, n=14))

    def test_batched(self, rng, backend):
        x = rng.normal(size=(4, 3, 10))
        with use_backend(backend):
            assert np.allclose(rfft(x), np.fft.rfft(x, axis=-1))

    def test_half_spectrum_size(self, rng, backend):
        with use_backend(backend):
            assert rfft(rng.normal(size=10)).shape == (6,)
            assert rfft(rng.normal(size=11)).shape == (6,)


class TestBackendParity:
    @given(st.integers(1, 96), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pure_equals_numpy_backend(self, n, seed):
        local = np.random.default_rng(seed)
        x = local.normal(size=n) + 1j * local.normal(size=n)
        with use_backend("numpy"):
            reference = fft(x)
        with use_backend("pure"):
            ours = fft(x)
        assert np.allclose(ours, reference)

    @given(st.integers(1, 96), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rfft_parity(self, n, seed):
        local = np.random.default_rng(seed)
        x = local.normal(size=n)
        with use_backend("numpy"):
            reference = rfft(x)
        with use_backend("pure"):
            ours = rfft(x)
        assert np.allclose(ours, reference)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBenchmarkSizes:
    """The calls ``benchmarks/test_fft_backends.py`` times, checked off the clock."""

    @pytest.mark.parametrize("n", (128, 121, 1024))
    def test_fft_matches_numpy(self, rng, backend, n):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        reference = np.fft.fft(x)
        with use_backend(backend):
            error = np.abs(fft(x) - reference).max()
        assert error < 1e-9 * max(1.0, np.abs(reference).max())

    def test_rfft_block128_grid(self, rng, backend):
        # The deployed kernel's hot call: rfft over a (p, q, 128) grid.
        grid = rng.normal(size=(2, 2, 128))
        with use_backend(backend):
            spectra = rfft(grid)
        assert spectra.shape == (2, 2, 65)
        assert np.allclose(spectra, np.fft.rfft(grid, axis=-1), atol=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDestinationBuffers:
    """rfft/irfft out=: bitwise-identical results written in place."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 17, 64])
    def test_rfft_out_bitwise(self, rng, backend, n):
        x = rng.normal(size=(3, n))
        with use_backend(backend):
            reference = rfft(x)
            out = np.empty_like(reference)
            returned = rfft(x, out=out)
        assert returned is out
        assert np.array_equal(out, reference)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 17, 64])
    def test_irfft_out_bitwise(self, rng, backend, n):
        x = rng.normal(size=(3, n))
        with use_backend(backend):
            spec = rfft(x)
            reference = irfft(spec, n=n)
            out = np.empty_like(reference)
            returned = irfft(spec, n=n, out=out)
        assert returned is out
        assert np.array_equal(out, reference)

    def test_rfft_out_fp32(self, rng, backend):
        x = rng.normal(size=(4, 16)).astype(np.float32)
        with use_backend(backend):
            reference = rfft(x)
            out = np.empty((4, 9), dtype=np.complex64)
            rfft(x, out=out)
        assert out.dtype == reference.dtype == np.complex64
        assert np.array_equal(out, reference)

    def test_irfft_out_fp32(self, rng, backend):
        x = rng.normal(size=(4, 16)).astype(np.float32)
        with use_backend(backend):
            spec = rfft(x)
            reference = irfft(spec, n=16)
            out = np.empty((4, 16), dtype=np.float32)
            irfft(spec, n=16, out=out)
        assert out.dtype == reference.dtype == np.float32
        assert np.array_equal(out, reference)

    def test_out_respects_axis(self, rng, backend):
        x = rng.normal(size=(5, 8, 3))
        with use_backend(backend):
            reference = rfft(x, axis=1)
            out = np.empty((5, 5, 3), dtype=np.complex128)
            rfft(x, axis=1, out=out)
        assert np.array_equal(out, reference)

    def test_rfft_out_shape_mismatch_raises(self, rng, backend):
        x = rng.normal(size=(3, 8))
        with use_backend(backend):
            with pytest.raises(ValueError, match="shape"):
                rfft(x, out=np.empty((3, 8), dtype=np.complex128))

    def test_rfft_out_dtype_mismatch_raises(self, rng, backend):
        x = rng.normal(size=(3, 8))
        with use_backend(backend):
            with pytest.raises(ValueError, match="dtype"):
                rfft(x, out=np.empty((3, 5), dtype=np.complex64))

    def test_irfft_out_dtype_mismatch_raises(self, rng, backend):
        x = rng.normal(size=(3, 8))
        with use_backend(backend):
            spec = rfft(x)
            with pytest.raises(ValueError, match="dtype"):
                irfft(spec, n=8, out=np.empty((3, 8), dtype=np.float32))

    def test_out_rejects_readonly(self, rng, backend):
        x = rng.normal(size=(3, 8))
        buf = np.empty((3, 5), dtype=np.complex128)
        buf.flags.writeable = False
        with use_backend(backend):
            with pytest.raises(ValueError, match="writeable"):
                rfft(x, out=buf)
