"""Fixed NumPy kernels that measure the host, not the repo.

The reference host is shared: the same code runs 30-70% slower for
minutes at a time when its neighbours are busy, and by different
amounts for dispatch-bound and arithmetic-bound code.  A yardstick is a
small kernel with a workload's instruction mix that uses no repo code,
timed beside the workload; the ratio of its time to ``REF_MS`` (its
time on the quiet reference host) is the *host factor* that CPU-bound
workloads divide their times by.  A repo change cannot move a
yardstick, so it cannot move a factor.

Measured on the reference host (README.md, "Why normalise"): raw
in-process medians spread 15-35% between runs, matched-yardstick
normalised ones 3-10%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: One repetition of each yardstick on the quiet 2-vCPU reference host.
REF_MS = {"fft_gemm": 0.925, "dispatch": 0.76, "batch": 0.72}


class Yardsticks:
    """The three kernels, over arrays made once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(256, 256))
        self.b = rng.normal(size=(256, 256))
        self.row = rng.normal(size=(1, 4, 64))
        self.rows = rng.normal(size=(64, 4, 64))
        self.spectra = np.ascontiguousarray(
            np.fft.rfft(rng.normal(size=(2, 4, 64))).transpose(2, 0, 1)
        )
        self.bias = rng.normal(size=128)
        self.dense = rng.normal(size=(128, 10))

    def fft_gemm(self) -> None:
        """Arithmetic-bound: an rfft of 256x256 float64 and a 256x256 GEMM
        (reduced Arch. 3's mix: im2col, FFT, contractions)."""
        np.fft.rfft(self.a)
        self.a @ self.b

    def _block_layer(self, x: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(x)
        out = np.matmul(self.spectra, spec.transpose(2, 1, 0))
        y = np.fft.irfft(out.transpose(2, 1, 0), n=64).reshape(x.shape[0], -1)
        return np.maximum(y + self.bias, 0.0)

    def dispatch(self) -> None:
        """Dispatch-bound: 40 block-circulant layers on one row, where
        NumPy call overhead outweighs the arithmetic (Arch. 1, batch 1)."""
        for _ in range(40):
            self._block_layer(self.row)

    def batch(self) -> None:
        """In between: 4 forward/backward-shaped passes at batch 64
        (a training step's mix)."""
        for _ in range(4):
            hidden = self._block_layer(self.rows)
            logits = hidden @ self.dense
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            grad = e @ self.dense.T
            grad *= hidden > 0

    def calib_ms(self) -> float:
        """The window-boundary probe: 10 repetitions of 4 x ``fft_gemm``,
        as their median in ms (``4 * REF_MS['fft_gemm']`` when quiet)."""
        times = []
        for _ in range(10):
            start = time.perf_counter()
            for _ in range(4):
                self.fft_gemm()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3
