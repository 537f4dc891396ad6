"""Functional kernels for circulant and block-circulant linear algebra.

These functions are the computational heart of the paper: every product
with a (block-)circulant matrix is executed as
``FFT -> component-wise multiplication -> IFFT`` (paper Eqn. 3, Fig. 2),
and the gradients needed by the training algorithm (paper Eqn. 4,
Algorithm 2) are circular correlations computed the same way.

Conventions:

* ``C(w)`` is the circulant matrix whose **first column** is ``w``;
  ``C(w) @ x == circular_convolve(w, x)``.
* A block-circulant matrix is a ``p x q`` grid of ``b x b`` circulant
  blocks, stored as a ``(p, q, b)`` array of defining vectors.  Logical
  shape is ``(p*b, q*b)``; callers zero-pad ragged operands (the paper's
  footnote: "we can apply zero padding such that the definition of
  block-circulant matrices can be applied").

**One kernel.**  :func:`spectral_product` is paper Algorithm 1 and
:func:`spectral_gradients` paper Algorithm 2; they are the only
block-circulant forward and gradient bodies in the package.  The
training layers (:mod:`repro.nn.layers`), :class:`BlockCirculantMatrix`
and every frozen plan op (:mod:`repro.runtime.plan`) call them, so a
frozen ``bc_linear`` reproduces the training layer bitwise.  They work
on half-spectra (``rfft`` outputs) in the frequency-major ``(nb, ., .)``
layout, so a layer hoists ``FFT(w)`` out of the loop — exactly the
deployment trick of section IV-A — and each frequency bin's block
product runs as one complex GEMM of a single batched BLAS call.  The
direct ``np.einsum`` forms of both contractions live in
``tests/structured/test_matmul_kernels.py`` as the reference the kernel
is pinned to; :func:`block_circulant_forward_batch` and
:func:`block_circulant_backward_batch` are the kernel's public
``(p, q, nb)``-spectra entry points.

**Precision.**  The kernel runs at the precision of the spectra it is
handed: complex64 spectra with float32 blocks keep the whole
FFT -> GEMM -> IFFT pipeline in single precision (``numpy.fft`` computes
float32 natively; cgemm instead of zgemm, half the memory traffic).  The
two public entry points promote mixed operands by numpy's ordinary
rules, so callers wanting a pure fp32 hot path (the ``"fp32"``
:class:`~repro.precision.PrecisionPolicy`) supply both operands in single
precision — the frozen runtime's plan compiler does.
"""

from __future__ import annotations

import numpy as np

from ..fft import circular_convolve, circular_correlate, irfft, rfft
from ..fft.backend import get_backend
from .spectral import freq_major

__all__ = [
    "circulant_matvec",
    "circulant_transpose_matvec",
    "circulant_gradients",
    "blockify",
    "unblockify",
    "block_circulant_matvec",
    "block_circulant_transpose_matvec",
    "block_circulant_forward_batch",
    "block_circulant_backward_batch",
    "spectral_product",
    "spectral_gradients",
    "block_circulant_to_dense",
]


def circulant_matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compute ``C(w) @ x`` in O(n log n) (paper Eqn. 3 with k = 1)."""
    w = np.asarray(w)
    x = np.asarray(x)
    if w.ndim != 1 or x.shape[-1] != w.shape[0]:
        raise ValueError(
            f"incompatible shapes for circulant matvec: w {w.shape}, x {x.shape}"
        )
    return circular_convolve(w, x)


def circulant_transpose_matvec(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Compute ``C(w).T @ y`` as a circular correlation in O(n log n)."""
    w = np.asarray(w)
    y = np.asarray(y)
    if w.ndim != 1 or y.shape[-1] != w.shape[0]:
        raise ValueError(
            f"incompatible shapes for transpose matvec: w {w.shape}, y {y.shape}"
        )
    return circular_correlate(w, y)


def circulant_gradients(
    w: np.ndarray, x: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``y = C(w) @ x`` given ``grad_y = dL/dy``.

    Returns ``(dL/dw, dL/dx)``; both are circular correlations (the FFT
    form of paper Eqn. 4):

    * ``dL/dw = correlate(x, grad_y)`` because ``dy_i/dw_k = x_{(i-k) % n}``,
    * ``dL/dx = C(w).T grad_y = correlate(w, grad_y)``.
    """
    grad_w = circular_correlate(x, grad_y)
    grad_x = circular_correlate(w, grad_y)
    return grad_w, grad_x


def blockify(x: np.ndarray, block_size: int) -> np.ndarray:
    """Zero-pad the last axis to a multiple of ``block_size`` and fold it.

    ``(..., n)`` becomes ``(..., ceil(n / b), b)``.
    """
    x = np.asarray(x)
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    n = x.shape[-1]
    blocks = -(-n // block_size)
    padded_len = blocks * block_size
    if padded_len != n:
        padded = np.zeros(x.shape[:-1] + (padded_len,), dtype=x.dtype)
        padded[..., :n] = x
        x = padded
    return x.reshape(x.shape[:-1] + (blocks, block_size))


def unblockify(x_blocks: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`blockify`: flatten blocks and trim padding to ``n``."""
    x_blocks = np.asarray(x_blocks)
    if x_blocks.ndim < 2:
        raise ValueError("unblockify expects at least 2 dims (blocks, block)")
    flat = x_blocks.reshape(x_blocks.shape[:-2] + (-1,))
    if n > flat.shape[-1]:
        raise ValueError(
            f"cannot trim to {n}; only {flat.shape[-1]} padded entries exist"
        )
    return flat[..., :n]


def block_circulant_matvec(
    weights: np.ndarray,
    x: np.ndarray,
    weight_spectra: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``W @ x`` for ``W`` given as a ``(p, q, b)`` block grid.

    ``x`` has length ``q*b``; the result has length ``p*b``.  Each output
    block is ``sum_q C(w[p, q]) x_q`` — the inner loop of paper
    Algorithm 1, executed for all blocks at once in the frequency domain.

    ``weight_spectra`` may carry a precomputed ``rfft`` of the grid (shape
    ``(p, q, b // 2 + 1)``) so repeated products with the same weights skip
    the weight transform entirely (paper section IV-A).
    """
    weights = np.asarray(weights)
    x = np.asarray(x)
    p, q, b = _check_block_grid(weights)
    if x.shape != (q * b,):
        raise ValueError(f"expected x of length {q * b}, got shape {x.shape}")
    if weight_spectra is None:
        weight_spectra = rfft(weights)  # (p, q, nb)
    y_blocks = block_circulant_forward_batch(
        weight_spectra, x.reshape(1, q, b)
    )
    return y_blocks.reshape(p * b)


def block_circulant_transpose_matvec(
    weights: np.ndarray,
    y: np.ndarray,
    weight_spectra: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``W.T @ y`` for a ``(p, q, b)`` block grid (length ``p*b`` in).

    As with :func:`block_circulant_matvec`, ``weight_spectra`` optionally
    supplies the precomputed weight ``rfft``.
    """
    weights = np.asarray(weights)
    y = np.asarray(y)
    p, q, b = _check_block_grid(weights)
    if y.shape != (p * b,):
        raise ValueError(f"expected y of length {p * b}, got shape {y.shape}")
    if weight_spectra is None:
        weight_spectra = rfft(weights)
    spectra_fm, y_blocks = _common_precision(weight_spectra, y.reshape(1, p, b))
    return spectral_product(_transposed(spectra_fm), y_blocks)[0].reshape(q * b)


class FreshBuffers:
    """Workspace stand-in that allocates every slot fresh.

    :func:`spectral_product` stages its intermediates through the
    :class:`~repro.runtime.workspace.Workspace` slot call ``get``; run
    with this stand-in it allocates them new — the same floating-point
    operations in the same order, only into new memory.  Training calls
    the kernel this way.
    """

    @staticmethod
    def get(slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)


FRESH = FreshBuffers()


def spectral_product(
    spectra_fm: np.ndarray,
    blocks: np.ndarray,
    ws=FRESH,
    tag: str = "",
    m: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Paper Algorithm 1: rfft -> frequency-major GEMM -> irfft.

    ``spectra_fm`` is the weight grid's half-spectra in the
    frequency-major ``(nb, p, q)`` layout
    (:func:`~repro.structured.spectral.freq_major`); ``blocks`` are real
    ``(rows, q, b)`` input blocks at the spectra's precision (float64
    with complex128, float32 with complex64).  Returns ``(out_blocks,
    xs_fm)``: the real ``(rows, p, b)`` output blocks and the
    ``(nb, q, rows)`` frequency-major input spectrum the product built,
    which :func:`spectral_gradients` reuses.

    Every intermediate lives in a slot of ``ws`` named with the
    op-private prefix ``tag`` and sized for ``m >= rows`` rows (default
    ``rows``): a frozen plan passes its workspace arena, training the
    fresh-allocating :data:`FRESH`.  On the numpy backend the transforms
    call ``numpy.fft`` with ``out=`` directly — the exact call
    :mod:`repro.fft` would make, bitwise, without its size/axis/backend
    handling, which costs as much as a small transform; the pure
    backend's packed real paths write into the slots through
    :mod:`repro.fft`.
    The contraction ``y[n, p, f] = sum_q W[p, q, f] X[n, q, f]`` runs as
    ``nb`` independent complex ``(p, q) @ (q, rows)`` GEMMs in one BLAS
    call; the explicit copy into the contiguous frequency-major operand
    replaces the re-buffering ``matmul`` would do internally.
    """
    cdtype = spectra_fm.dtype
    nb, p, q = spectra_fm.shape
    rows, _, b = blocks.shape
    if m is None:
        m = rows
    direct = get_backend() == "numpy"
    spec = ws.get(tag + ".spec", (m, q, nb), cdtype)[:rows]
    if direct:
        x_spec = np.fft.rfft(blocks, axis=-1, out=spec)
    else:
        x_spec = rfft(blocks, out=spec)
    xs_fm = ws.get(tag + ".xsfm", (nb, q, m), cdtype)[..., :rows]
    np.copyto(xs_fm, x_spec.transpose(2, 1, 0))
    # Each stage's names are dropped once consumed, so with fresh
    # buffers (training) an array is freed before the next stage
    # allocates instead of all of them living until the return.
    del spec, x_spec
    y_fm = ws.get(tag + ".yfm", (nb, p, m), cdtype)[..., :rows]
    np.matmul(spectra_fm, xs_fm, out=y_fm)
    if direct:
        # numpy's irfft hits a slow path when both ``out=`` and a strided
        # input are given; stage the transposed spectrum contiguously
        # first (a plain copy) so the transform runs on its fast path.
        y_spec = ws.get(tag + ".ysp", (m, p, nb), cdtype)[:rows]
        np.copyto(y_spec, y_fm.transpose(2, 1, 0))
    else:
        y_spec = y_fm.transpose(2, 1, 0)
    del y_fm
    out = ws.get(tag + ".blk", (m, p, b), blocks.dtype)[:rows]
    if direct:
        return np.fft.irfft(y_spec, n=b, axis=-1, out=out), xs_fm
    return irfft(y_spec, n=b, out=out), xs_fm


def _transposed(spectra_fm: np.ndarray) -> np.ndarray:
    """Frequency-major spectra of the transposed grid: ``C(w).T`` has
    spectrum ``conj(FFT(w))``, and block ``(p, q)`` moves to ``(q, p)``."""
    return np.conj(spectra_fm).transpose(0, 2, 1)


def spectral_gradients(
    spectra_fm: np.ndarray, xs_fm: np.ndarray, grad_blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Paper Algorithm 2: both gradients of :func:`spectral_product`.

    ``spectra_fm`` and ``xs_fm`` are the weight and input spectra of the
    forward product (``(nb, p, q)`` and ``(nb, q, rows)``), and
    ``grad_blocks`` the upstream gradient ``(rows, p, b)``.  Returns
    ``(grad_weights, grad_x_blocks)`` in the time domain, ``(p, q, b)``
    and ``(rows, q, b)``.  Both are circular correlations, i.e. conjugate
    products in the frequency domain (paper Eqn. 4):

    * ``dL/dx[q] = sum_p correlate(w_pq, g_p)`` is ``W.T @ g`` — Algorithm
      1 itself on the transposed grid, which also yields ``G``, the
      gradient's frequency-major spectrum;
    * ``dL/dw[p, q] = sum_n correlate(x_q, g_p)``, one
      ``(p, rows) @ (rows, q)`` GEMM per frequency bin of ``G`` against
      ``conj(X)``.
    """
    grad_x, gs_fm = spectral_product(_transposed(spectra_fm), grad_blocks)
    grad_w_fm = np.matmul(gs_fm, np.conj(xs_fm).transpose(0, 2, 1))
    return irfft(grad_w_fm.transpose(1, 2, 0), n=grad_blocks.shape[-1]), grad_x


def _common_precision(
    weight_spectra: np.ndarray, *blocks: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Frequency-major spectra and real blocks at one common precision.

    Mixed operands promote by numpy's ordinary rules: complex64 spectra
    with float32 blocks stay single precision, anything else widens.
    """
    weight_spectra = np.asarray(weight_spectra)
    blocks = [np.asarray(b) for b in blocks]
    cdtype = np.result_type(weight_spectra, *blocks, np.complex64)
    rdtype = np.finfo(cdtype).dtype
    return (
        freq_major(weight_spectra.astype(cdtype, copy=False)),
        *(b.astype(rdtype, copy=False) for b in blocks),
    )


def block_circulant_forward_batch(
    weight_spectra: np.ndarray, x_blocks: np.ndarray
) -> np.ndarray:
    """Batched forward product in the frequency domain (Algorithm 1).

    ``weight_spectra`` is ``rfft`` of the ``(p, q, b)`` grid (shape
    ``(p, q, nb)``); ``x_blocks`` is ``(batch, q, b)``.  Returns the
    output blocks ``(batch, p, b)`` of :func:`spectral_product`.
    Callers that already hold frequency-major spectra call
    :func:`spectral_product` directly.
    """
    spectra_fm, x_blocks = _common_precision(weight_spectra, x_blocks)
    return spectral_product(spectra_fm, x_blocks)[0]


def block_circulant_backward_batch(
    weight_spectra: np.ndarray,
    x_blocks: np.ndarray,
    grad_blocks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched gradients of the block-circulant product (Algorithm 2).

    Arguments: precomputed ``rfft`` of the ``(p, q, b)`` weight grid, the
    saved input blocks ``(batch, q, b)``, and the upstream gradient blocks
    ``(batch, p, b)``.  Returns ``(grad_weights, grad_x_blocks)`` of
    :func:`spectral_gradients` — O(n log n) per block versus the O(n^2)
    of dense backprop.  The layers skip this call's input transform by
    keeping the spectrum their forward :func:`spectral_product` built.
    """
    spectra_fm, x_blocks, grad_blocks = _common_precision(
        weight_spectra, x_blocks, grad_blocks
    )
    xs_fm = np.ascontiguousarray(rfft(x_blocks).transpose(2, 1, 0))
    return spectral_gradients(spectra_fm, xs_fm, grad_blocks)


def block_circulant_to_dense(weights: np.ndarray) -> np.ndarray:
    """Expand a ``(p, q, b)`` block grid to its dense ``(p*b, q*b)`` matrix."""
    weights = np.asarray(weights)
    p, q, b = _check_block_grid(weights)
    shift = (np.arange(b)[:, None] - np.arange(b)[None, :]) % b
    # (p, q, b, b) circulant blocks -> block rows by block columns.
    return weights[:, :, shift].transpose(0, 2, 1, 3).reshape(p * b, q * b)


def _check_block_grid(weights: np.ndarray) -> tuple[int, int, int]:
    """Validate a ``(p, q, b)`` block grid and return its dimensions."""
    if weights.ndim != 3:
        raise ValueError(
            f"block grid must be 3-D (p, q, block); got shape {weights.shape}"
        )
    p, q, b = weights.shape
    if min(p, q, b) < 1:
        raise ValueError(f"block grid dimensions must be positive: {weights.shape}")
    return p, q, b
