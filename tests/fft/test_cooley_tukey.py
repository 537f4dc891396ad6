"""Tests for the radix-2 and mixed-radix Cooley-Tukey kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import fft_mixed_radix, fft_radix2, ifft_radix2


class TestRadix2:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256, 1024, 4096])
    def test_matches_numpy(self, rng, n):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fft_radix2(x), np.fft.fft(x))

    def test_rejects_non_power_of_two(self, rng):
        with pytest.raises(ValueError):
            fft_radix2(rng.normal(size=12))

    def test_inverse_round_trip(self, rng):
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(ifft_radix2(fft_radix2(x)), x)

    def test_batched(self, rng):
        x = rng.normal(size=(5, 3, 16))
        assert np.allclose(fft_radix2(x), np.fft.fft(x, axis=-1))

    def test_does_not_mutate_input(self, rng):
        x = rng.normal(size=8) + 0j
        copy = x.copy()
        fft_radix2(x)
        assert np.array_equal(x, copy)

    def test_parseval(self, rng):
        x = rng.normal(size=64)
        spectrum = fft_radix2(x)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(
            np.sum(np.abs(spectrum) ** 2) / 64
        )

    @given(st.integers(0, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_numpy(self, log_n, seed):
        n = 2**log_n
        local = np.random.default_rng(seed)
        x = local.normal(size=n) + 1j * local.normal(size=n)
        assert np.allclose(fft_radix2(x), np.fft.fft(x))


class TestMixedRadix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 15, 30, 36, 49, 121])
    def test_matches_numpy(self, rng, n):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fft_mixed_radix(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [5, 7, 13, 31])
    def test_prime_sizes(self, rng, n):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fft_mixed_radix(x), np.fft.fft(x))

    def test_inverse_flag(self, rng):
        x = rng.normal(size=18) + 1j * rng.normal(size=18)
        inverse = fft_mixed_radix(x, inverse=True) / 18
        assert np.allclose(inverse, np.fft.ifft(x))

    def test_batched(self, rng):
        x = rng.normal(size=(4, 6))
        assert np.allclose(fft_mixed_radix(x), np.fft.fft(x, axis=-1))

    @given(st.integers(1, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_numpy(self, n, seed):
        local = np.random.default_rng(seed)
        x = local.normal(size=n) + 1j * local.normal(size=n)
        assert np.allclose(fft_mixed_radix(x), np.fft.fft(x))
