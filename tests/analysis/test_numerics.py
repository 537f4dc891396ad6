"""Tests for the round-off error analysis (paper section III-B claim)."""

import numpy as np
import pytest

from repro.analysis import (
    dft_roundoff_error,
    fft_roundoff_error,
    matvec_roundoff_comparison,
)


class TestFftRoundoff:
    def test_error_near_machine_epsilon(self, rng):
        # float64 FFT of modest size: relative error within a few hundred ulp.
        assert fft_roundoff_error(256, rng) < 1e-13

    def test_pure_and_numpy_backends_comparable(self, rng):
        pure = fft_roundoff_error(128, np.random.default_rng(0), backend="pure")
        fast = fft_roundoff_error(128, np.random.default_rng(0), backend="numpy")
        assert pure < 1e-13
        assert fast < 1e-13

    def test_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            fft_roundoff_error(0, rng)


class TestDftVsFft:
    def test_fft_more_accurate_than_naive_dft_at_scale(self):
        # The section III-B claim: the O(n^2) direct evaluation accumulates
        # more round-off than the O(n log n) factorization.
        rng_seed = 7
        n = 2048
        fft_err = fft_roundoff_error(n, np.random.default_rng(rng_seed))
        dft_err = dft_roundoff_error(n, np.random.default_rng(rng_seed))
        assert fft_err < dft_err

    def test_dft_error_grows_with_n(self):
        errors = [
            dft_roundoff_error(n, np.random.default_rng(1))
            for n in (64, 512, 4096)
        ]
        assert errors[-1] > errors[0]


class TestMatvecComparison:
    def test_returns_pair_of_small_errors(self, rng):
        dense_err, fft_err = matvec_roundoff_comparison(64, rng)
        assert 0 <= dense_err < 1e-12
        assert 0 <= fft_err < 1e-12

    def test_fft_path_not_worse_at_scale(self):
        # At n = 4096 the FFT path's error is at or below the dense path's
        # (numpy's pairwise-summation dense product is already good, so
        # the win is modest in float64 — see benchmarks/test_numerics.py).
        dense_err, fft_err = matvec_roundoff_comparison(
            4096, np.random.default_rng(3)
        )
        assert fft_err <= dense_err * 1.5

    def test_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            matvec_roundoff_comparison(0, rng)
