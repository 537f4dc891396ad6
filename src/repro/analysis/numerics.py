"""Round-off error analysis of the FFT computation path.

Paper section III-B claims the FFT "not only reduces the computational
complexity, but also substantially reduces round-off errors ... both the
computation time and round-off error are essentially reduced by a factor
of n/(log2 n)" (citing Cochran et al. [22]).  This module measures that
claim directly on this package's kernels:

* :func:`fft_roundoff_error` — relative error of forward+inverse
  transform round trips in float64 against an exact (float128-free)
  reference strategy: compare against the same computation carried out at
  higher internal precision via Kahan-style compensated reference or the
  O(n^2) matrix applied in float64 (whose error grows like sqrt(n)).
* :func:`matvec_roundoff_comparison` — circulant matvec error via the
  dense product vs via the FFT path, each against an exact rational-free
  long-double reference.

The benchmark ``benchmarks/test_numerics.py`` turns these into the E13
table; the measured trend (FFT error growing like log n vs direct error
like sqrt(n)) is written to ``benchmarks/results/numerics_roundoff.txt``.
"""

from __future__ import annotations

import numpy as np

from ..fft import circular_convolve, dft_matrix, fft, use_backend
from ..structured import CirculantMatrix

__all__ = [
    "fft_roundoff_error",
    "dft_roundoff_error",
    "matvec_roundoff_comparison",
]


def _longdouble_dft(x: np.ndarray) -> np.ndarray:
    """DFT evaluated in extended precision, used as ground truth.

    Twiddle angles are computed entirely in long double with the exponent
    reduced mod n exactly in integers first, so the reference shares no
    rounding with either the float64 DFT matrix or the FFT kernels.
    """
    n = x.shape[-1]
    indices = np.arange(n, dtype=np.int64)
    reduced = (np.outer(indices, indices) % n).astype(np.longdouble)
    angles = (-2.0 * np.longdouble(np.pi) / np.longdouble(n)) * reduced
    matrix = np.cos(angles) + 1j * np.sin(angles)
    return (matrix @ x.astype(np.clongdouble)).astype(np.complex128)


def fft_roundoff_error(
    n: int, rng: np.random.Generator, backend: str = "pure"
) -> float:
    """Relative L2 error of the float64 FFT against extended precision."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    reference = _longdouble_dft(x)
    with use_backend(backend):
        ours = fft(x)
    return float(
        np.linalg.norm(ours - reference) / np.linalg.norm(reference)
    )


def dft_roundoff_error(n: int, rng: np.random.Generator) -> float:
    """Relative L2 error of the float64 O(n^2) matrix DFT vs extended
    precision — the baseline whose error the FFT beats."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    reference = _longdouble_dft(x)
    direct = dft_matrix(n) @ x
    return float(
        np.linalg.norm(direct - reference) / np.linalg.norm(reference)
    )


def matvec_roundoff_comparison(
    n: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(dense error, FFT error) of a circulant matvec vs extended precision.

    The dense path sums n products per output (error ~ sqrt(n) ulp); the
    FFT path performs log2 n butterfly stages (error ~ sqrt(log n) ulp) —
    the paper's section III-B accuracy argument in measurable form.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    w = rng.normal(size=n)
    x = rng.normal(size=n)

    # Extended-precision ground truth of the circular convolution.
    w_long = w.astype(np.longdouble)
    x_long = x.astype(np.longdouble)
    exact = np.zeros(n, dtype=np.longdouble)
    for k in range(n):
        exact[k] = np.sum(w_long * x_long[(k - np.arange(n)) % n])
    exact64 = exact.astype(np.float64)
    norm = np.linalg.norm(exact64)

    dense = CirculantMatrix(w).to_dense() @ x
    via_fft = circular_convolve(w, x)
    dense_error = float(np.linalg.norm(dense - exact64) / norm)
    fft_error = float(np.linalg.norm(via_fft - exact64) / norm)
    return dense_error, fft_error
