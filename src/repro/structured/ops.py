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

The batched kernels work directly on half-spectra (``rfft`` outputs) so a
layer can hoist ``FFT(w)`` out of the loop — exactly the deployment trick
of section IV-A.

The frequency-domain contractions are executed as frequency-major batched
``matmul`` — ``(f, p, q) @ (f, q, n)`` — so each frequency bin's block
product runs as one complex GEMM and the whole contraction hits BLAS.
The direct ``np.einsum`` forms of both contractions live in
``tests/structured/test_matmul_kernels.py`` as the reference the fast
kernels are pinned to.

**Precision.**  Every kernel follows the dtypes it is handed: complex64
weight spectra plus float32 input blocks keep the whole
FFT -> GEMM -> IFFT pipeline in single precision (cgemm instead of
zgemm, half the memory traffic) because the transforms in
:mod:`repro.fft` are dtype-following.  Mixed inputs promote by numpy's
ordinary rules, so callers wanting a pure fp32 hot path (the
``"fp32"`` :class:`~repro.precision.PrecisionPolicy`) must supply both
operands in single precision — the frozen runtime's plan compiler does.
"""

from __future__ import annotations

import numpy as np

from ..fft import circular_convolve, circular_correlate, irfft, rfft

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
    y_spec = rfft(y.reshape(1, p, b))
    x_spec = _contract_grad_x(np.asarray(weight_spectra), y_spec)
    return irfft(x_spec, n=b).reshape(q * b)


def _contract_grad_w(x_spec: np.ndarray, g_spec: np.ndarray) -> np.ndarray:
    """``gw[p, q, f] = sum_n conj(X[n, q, f]) G[n, p, f]`` via batched GEMM."""
    g_f = g_spec.transpose(2, 1, 0)  # (f, p, n)
    x_f = np.conj(x_spec).transpose(2, 0, 1)  # (f, n, q)
    return np.matmul(g_f, x_f).transpose(1, 2, 0)  # (p, q, f)


def _contract_grad_x(
    weight_spectra: np.ndarray, g_spec: np.ndarray
) -> np.ndarray:
    """``gx[n, q, f] = sum_p conj(W[p, q, f]) G[n, p, f]`` via batched GEMM."""
    g_f = g_spec.transpose(2, 0, 1)  # (f, n, p)
    w_f = np.conj(weight_spectra).transpose(2, 0, 1)  # (f, p, q)
    return np.matmul(g_f, w_f).transpose(1, 2, 0)  # (n, q, f)


def block_circulant_forward_batch(
    weight_spectra: np.ndarray,
    x_blocks: np.ndarray,
    weight_fm: np.ndarray | None = None,
    out: np.ndarray | None = None,
    gemm_out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched forward product in the frequency domain.

    ``weight_spectra`` is ``rfft`` of the ``(p, q, b)`` grid (shape
    ``(p, q, nb)``); ``x_blocks`` is ``(batch, q, b)``.  Returns the output
    blocks ``(batch, p, b)``.  This is the inference kernel: the weight
    spectra are precomputed once (paper section IV-A), and the contraction
    ``y[n, p, f] = sum_q W[p, q, f] X[n, q, f]`` runs as frequency-major
    batched ``matmul`` — ``nb`` independent complex ``(p, q) @ (q, batch)``
    GEMMs in one BLAS call.

    ``weight_fm`` optionally supplies the weights already transposed to
    the contiguous frequency-major ``(nb, p, q)`` layout (e.g. from
    :meth:`SpectrumCache.get_pair`); without it ``matmul`` re-buffers the
    strided transpose view on every call, which dominates small-batch
    inference.

    ``out`` (shape ``(batch, p, b)``, the policy's real dtype) receives
    the final output blocks in place; ``gemm_out`` (shape
    ``(nb, p, batch)``, complex) is the destination for the
    frequency-major GEMM.  Both are bitwise-neutral: the same
    floating-point operations run, only into caller-owned buffers — the
    workspace-arena runtime passes preallocated slots here so repeated
    calls stop paying the allocator.
    """
    weight_spectra = np.asarray(weight_spectra)
    x_blocks = np.asarray(x_blocks)
    b = x_blocks.shape[-1]
    x_spec = rfft(x_blocks)  # (batch, q, nb)
    w_f = weight_spectra.transpose(2, 0, 1) if weight_fm is None else weight_fm
    if gemm_out is not None:
        y_fm = np.matmul(w_f, x_spec.transpose(2, 1, 0), out=gemm_out)
    else:
        y_fm = np.matmul(w_f, x_spec.transpose(2, 1, 0))
    y_spec = y_fm.transpose(2, 1, 0)
    return irfft(y_spec, n=b, out=out)


def block_circulant_backward_batch(
    weight_spectra: np.ndarray,
    x_blocks: np.ndarray,
    grad_blocks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched gradients of the block-circulant product (paper Algorithm 2).

    Arguments: precomputed ``rfft`` of the ``(p, q, b)`` weight grid, the
    saved input blocks ``(batch, q, b)``, and the upstream gradient blocks
    ``(batch, p, b)``.  Returns ``(grad_weights, grad_x_blocks)`` in the
    time domain with shapes ``(p, q, b)`` and ``(batch, q, b)``.  Both are
    single frequency-domain contractions — O(n log n) per block versus the
    O(n^2) of dense backprop — executed as frequency-major batched GEMMs.
    """
    weight_spectra = np.asarray(weight_spectra)
    x_blocks = np.asarray(x_blocks)
    grad_blocks = np.asarray(grad_blocks)
    b = x_blocks.shape[-1]
    x_spec = rfft(x_blocks)  # (batch, q, nb)
    g_spec = rfft(grad_blocks)  # (batch, p, nb)
    # dL/dw[p, q] = sum_batch correlate(x_q, g_p): conj(X) * G in frequency.
    grad_w_spec = _contract_grad_w(x_spec, g_spec)
    # dL/dx[q] = sum_p correlate(w_pq, g_p): conj(W) * G in frequency.
    grad_x_spec = _contract_grad_x(weight_spectra, g_spec)
    return irfft(grad_w_spec, n=b), irfft(grad_x_spec, n=b)


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
