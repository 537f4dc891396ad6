"""Tests for Rader's prime-size FFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft_bluestein, fft_rader, primitive_root

PRIMES = (2, 3, 5, 7, 11, 13, 17, 31, 97, 101, 257)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,expected", [(2, 1), (3, 2), (5, 2), (7, 3),
                                            (11, 2), (13, 2), (23, 5)])
    def test_known_roots(self, p, expected):
        assert primitive_root(p) == expected

    @pytest.mark.parametrize("p", PRIMES[1:])
    def test_generates_full_group(self, p):
        g = primitive_root(p)
        powers = {pow(g, k, p) for k in range(p - 1)}
        assert powers == set(range(1, p))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            primitive_root(12)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            primitive_root(1)


class TestFftRader:
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_numpy(self, rng, p):
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        assert np.allclose(fft_rader(x), np.fft.fft(x))

    @pytest.mark.parametrize("p", (3, 7, 13))
    def test_inverse_flag(self, rng, p):
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        assert np.allclose(fft_rader(x, inverse=True) / p, np.fft.ifft(x))

    def test_batched(self, rng):
        x = rng.normal(size=(3, 4, 13)) + 1j * rng.normal(size=(3, 4, 13))
        assert np.allclose(fft_rader(x), np.fft.fft(x, axis=-1))

    def test_rejects_composite_length(self, rng):
        with pytest.raises(ValueError):
            fft_rader(rng.normal(size=12))

    def test_length_one_and_two(self, rng):
        x1 = rng.normal(size=1) + 0j
        assert np.allclose(fft_rader(x1), x1)
        x2 = rng.normal(size=2) + 0j
        assert np.allclose(fft_rader(x2), np.fft.fft(x2))

    def test_agrees_with_bluestein(self, rng):
        x = rng.normal(size=31) + 1j * rng.normal(size=31)
        assert np.allclose(fft_rader(x), fft_bluestein(x))

    def test_does_not_mutate_input(self, rng):
        x = rng.normal(size=7) + 0j
        copy = x.copy()
        fft_rader(x)
        assert np.array_equal(x, copy)

    @given(
        st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_numpy(self, p, seed):
        local = np.random.default_rng(seed)
        x = local.normal(size=p) + 1j * local.normal(size=p)
        assert np.allclose(fft_rader(x), np.fft.fft(x))


class TestPrimeKernelsAtBenchmarkSizes:
    """The primes ``benchmarks/test_prime_kernels.py`` times, off the clock."""

    @pytest.mark.parametrize("p", (101, 1009))
    @pytest.mark.parametrize("kernel", (fft_rader, fft_bluestein),
                             ids=("rader", "bluestein"))
    def test_matches_numpy(self, rng, kernel, p):
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        assert np.allclose(kernel(x), np.fft.fft(x))

    @pytest.mark.parametrize("p", (11, 101, 257, 1009))
    def test_rader_agrees_with_bluestein(self, rng, p):
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        assert np.abs(fft_rader(x) - fft_bluestein(x)).max() < 1e-9
