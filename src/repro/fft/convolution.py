"""Convolution and correlation via the circular convolution theorem.

This module is the bridge between the FFT kernel and the structured-matrix
layer algebra: the paper's central identity (Eqn. 3)

    C(w) @ x = IFFT(FFT(w) o FFT(x))

is exactly :func:`circular_convolve`, and the backward-pass identities
(Eqn. 4 in FFT form, derived in
:func:`repro.structured.circulant_gradients`) are
:func:`circular_correlate`.  Direct O(n^2) reference implementations are
included for testing and for the complexity benchmarks.

Conventions (stated once, used everywhere):

* ``circular_convolve(a, b)[k] = sum_j a[j] * b[(k - j) mod n]``
* ``circular_correlate(a, b)[k] = sum_j a[j] * b[(j + k) mod n]``
  (real inputs; for complex inputs ``a`` is conjugated, matching the usual
  cross-correlation definition)
"""

from __future__ import annotations

import numpy as np

from .core import fft, ifft, irfft, rfft

__all__ = [
    "circular_convolve",
    "circular_convolve_direct",
    "circular_correlate",
    "circular_correlate_direct",
    "linear_convolve",
    "linear_convolve_direct",
    "overlap_add_convolve",
    "convolve2d",
    "convolve2d_direct",
]


def _common_length(a: np.ndarray, b: np.ndarray, n: int | None) -> int:
    """Resolve the circular length shared by ``a`` and ``b``."""
    if n is not None:
        if n <= 0:
            raise ValueError(f"circular length must be positive, got {n}")
        return n
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            "circular operations need equal lengths (or explicit n); got "
            f"{a.shape[-1]} and {b.shape[-1]}"
        )
    return a.shape[-1]


def circular_convolve(
    a: np.ndarray, b: np.ndarray, n: int | None = None
) -> np.ndarray:
    """Circular convolution along the last axis via FFT -> o -> IFFT.

    Real inputs produce real output through the rfft path (half-spectrum
    pointwise product), which is the deployed inference kernel.  Leading
    axes broadcast.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    length = _common_length(a, b, n)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return ifft(fft(a, n=length) * fft(b, n=length))
    return irfft(rfft(a, n=length) * rfft(b, n=length), n=length)


def circular_convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(n^2) reference circular convolution (last axis, equal lengths)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = _common_length(a, b, None)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k in range(n):
        for j in range(n):
            out[..., k] = out[..., k] + a[..., j] * b[..., (k - j) % n]
    return out


def circular_correlate(
    a: np.ndarray, b: np.ndarray, n: int | None = None
) -> np.ndarray:
    """Circular cross-correlation along the last axis via conj(FFT) product.

    ``result[k] = sum_j conj(a[j]) * b[(j + k) mod n]``.  This realizes the
    transposed-circulant products in the training algorithm: for real
    ``w, g``: ``C(w)^T g = circular_correlate(w, g)``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    length = _common_length(a, b, n)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return ifft(np.conj(fft(a, n=length)) * fft(b, n=length))
    return irfft(np.conj(rfft(a, n=length)) * rfft(b, n=length), n=length)


def circular_correlate_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(n^2) reference circular correlation (last axis, equal lengths)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = _common_length(a, b, None)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k in range(n):
        for j in range(n):
            out[..., k] = out[..., k] + np.conj(a[..., j]) * b[..., (j + k) % n]
    return out


def linear_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution along the last axis via zero-padded FFT."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1] + b.shape[-1] - 1
    return circular_convolve(a, b, n=n)


def linear_convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(n*m) reference linear convolution along the last axis."""
    a = np.asarray(a)
    b = np.asarray(b)
    la, lb = a.shape[-1], b.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (la + lb - 1,)
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for i in range(la):
        out[..., i : i + lb] = out[..., i : i + lb] + a[..., i : i + 1] * b
    return out


def overlap_add_convolve(
    signal: np.ndarray, kernel: np.ndarray, block_size: int | None = None
) -> np.ndarray:
    """Linear convolution of a long signal by overlap-add of FFT blocks.

    Splits ``signal`` into chunks of ``block_size`` samples, convolves each
    chunk with ``kernel`` in the frequency domain, and overlap-adds the
    tails — the standard streaming embedded-DSP formulation.  Defaults to a
    block size of roughly 4x the kernel length.
    """
    signal = np.asarray(signal)
    kernel = np.asarray(kernel)
    if signal.ndim != 1 or kernel.ndim != 1:
        raise ValueError("overlap_add_convolve expects 1-D signal and kernel")
    if kernel.shape[0] == 0 or signal.shape[0] == 0:
        raise ValueError("overlap_add_convolve requires non-empty inputs")
    if block_size is None:
        block_size = max(4 * kernel.shape[0], 16)
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")

    total = signal.shape[0] + kernel.shape[0] - 1
    out = np.zeros(total, dtype=np.result_type(signal, kernel, np.float64))
    segment_out = block_size + kernel.shape[0] - 1
    for start in range(0, signal.shape[0], block_size):
        chunk = signal[start : start + block_size]
        chunk_conv = circular_convolve(chunk, kernel, n=segment_out)
        stop = min(start + chunk.shape[0] + kernel.shape[0] - 1, total)
        out[start:stop] += chunk_conv[: stop - start]
    return out


def convolve2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'Valid' 2-D cross-correlation via zero-padded 2-D FFT.

    Matches the paper's CONV-layer definition (Eqn. 2): the kernel is slid
    without flipping, output size ``(H - r + 1, W - r + 1)``.
    """
    from .fft2d import fft2, ifft2

    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if image.ndim != 2 or kernel.ndim != 2:
        raise ValueError("convolve2d expects 2-D image and kernel")
    h, w = image.shape
    r1, r2 = kernel.shape
    if r1 > h or r2 > w:
        raise ValueError(f"kernel {kernel.shape} larger than image {image.shape}")
    # Cross-correlation == convolution with the doubly-flipped kernel.
    flipped = kernel[::-1, ::-1]
    spectrum = fft2(image, shape=(h, w)) * fft2(flipped, shape=(h, w))
    full = ifft2(spectrum).real
    # The 'valid' region of the linear result sits at offset (r-1) once the
    # circular wrap-around rows/columns are discarded.
    return full[r1 - 1 : h, r2 - 1 : w]


def convolve2d_direct(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """O(H*W*r^2) reference 'valid' 2-D cross-correlation (paper Eqn. 2)."""
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if image.ndim != 2 or kernel.ndim != 2:
        raise ValueError("convolve2d_direct expects 2-D image and kernel")
    h, w = image.shape
    r1, r2 = kernel.shape
    out = np.zeros((h - r1 + 1, w - r2 + 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = np.sum(image[i : i + r1, j : j + r2] * kernel)
    return out
