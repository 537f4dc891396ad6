"""Tests for the O(n^2) reference DFT."""

import numpy as np
import pytest

from repro.fft import dft_matrix, naive_dft, naive_idft


class TestDftMatrix:
    def test_size_1(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_size_2(self):
        assert np.allclose(dft_matrix(2), [[1, 1], [1, -1]])

    def test_unitary_up_to_scale(self):
        n = 8
        w = dft_matrix(n)
        assert np.allclose(w @ np.conj(w.T), n * np.eye(n))

    def test_inverse_matrix_is_conjugate(self):
        assert np.allclose(dft_matrix(6, inverse=True), np.conj(dft_matrix(6)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestNaiveDft:
    def test_matches_numpy(self, rng):
        for n in (1, 2, 3, 7, 16, 21):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.allclose(naive_dft(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", (64, 256, 1024))
    def test_matches_numpy_at_fig1_sizes(self, rng, n):
        # The sizes the Fig. 1 benchmark times against the radix-2 kernel.
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(naive_dft(x), np.fft.fft(x))

    def test_round_trip(self, rng):
        x = rng.normal(size=11) + 1j * rng.normal(size=11)
        assert np.allclose(naive_idft(naive_dft(x)), x)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(8)
        x[0] = 1.0
        assert np.allclose(naive_dft(x), np.ones(8))

    def test_constant_gives_impulse_spectrum(self):
        spectrum = naive_dft(np.ones(8))
        expected = np.zeros(8)
        expected[0] = 8.0
        assert np.allclose(spectrum, expected)

    def test_batched_along_axis(self, rng):
        x = rng.normal(size=(3, 5, 4))
        assert np.allclose(naive_dft(x, axis=1), np.fft.fft(x, axis=1))
        assert np.allclose(naive_dft(x, axis=0), np.fft.fft(x, axis=0))

    def test_linearity(self, rng):
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        assert np.allclose(
            naive_dft(2.0 * a + 3.0 * b),
            2.0 * naive_dft(a) + 3.0 * naive_dft(b),
        )
