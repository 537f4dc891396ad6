"""Theoretical complexity formulas (paper sections IV-A and IV-B).

Closed-form operation counts for dense vs block-circulant FC and CONV
layers — the one place the paper's Algorithm 1 arithmetic is written.
The frozen plan's kernel choice (:func:`repro.runtime.plan.bc_conv_kernel`),
the per-layer cost table (:mod:`repro.embedded.cost_model`) and the
complexity benchmarks (E5/E6) all call these, and they check the
paper's asymptotic claims:

* FC: ``O(n^2)`` dense vs ``O(n log n)`` block-circulant (Eqn. 3),
* CONV: ``O(W H r^2 C P)`` dense vs ``O(W H Q log Q)``,
  ``Q = max(r^2 C, P)`` (section IV-B).

FFT cost conventions (standard split-radix estimates): a complex FFT of
length ``n`` is ``5 n log2 n`` real operations, a real FFT (rfft/irfft)
half that; a complex multiply is 6 real operations, a complex add 2.

This module imports only :mod:`math`: it sits on the engine's import
path through :mod:`repro.runtime.plan`.
"""

from __future__ import annotations

import math

__all__ = [
    "complex_fft_ops",
    "real_fft_ops",
    "dense_fc_ops",
    "bc_fc_ops",
    "dense_conv_ops",
    "bc_conv_ops",
    "fc_speedup",
    "conv_speedup",
    "crossover_block_size",
]


def complex_fft_ops(n: int) -> float:
    """Real-operation count of one complex FFT of length ``n``."""
    if n <= 0:
        raise ValueError(f"FFT length must be positive, got {n}")
    if n == 1:
        return 0.0
    return 5.0 * n * math.log2(n)


def real_fft_ops(n: int) -> float:
    """Real-operation count of one real-input FFT (or inverse) of length n."""
    return 0.5 * complex_fft_ops(n)


def dense_fc_ops(out_features: int, in_features: int) -> float:
    """Multiply-add count of a dense FC layer: ``2 m n``."""
    _check_positive(out_features=out_features, in_features=in_features)
    return 2.0 * out_features * in_features


def bc_fc_ops(out_features: int, in_features: int, block_size: int) -> float:
    """Operation count of the FFT-based block-circulant FC layer.

    ``q`` forward FFTs, ``p q`` spectrum products (weight spectra are
    precomputed at deployment, section IV-A), ``p (q - 1)`` block
    accumulations, and ``p`` inverse FFTs, with ``p = ceil(m/b)``,
    ``q = ceil(n/b)`` — the ``O((m n / b) log b)`` of paper Eqn. 3 with
    explicit constants.  Bias excluded.
    """
    _check_positive(
        out_features=out_features, in_features=in_features, block_size=block_size
    )
    p = -(-out_features // block_size)
    q = -(-in_features // block_size)
    bins = block_size // 2 + 1
    fft_cost = real_fft_ops(block_size)
    return (q + p) * fft_cost + p * q * 6.0 * bins + p * (q - 1) * 2.0 * bins


def dense_conv_ops(
    height: int, width: int, kernel: int, in_channels: int, out_channels: int
) -> float:
    """Multiply-add count of a dense valid CONV layer (paper Eqn. 5)."""
    _check_positive(
        height=height,
        width=width,
        kernel=kernel,
        in_channels=in_channels,
        out_channels=out_channels,
    )
    positions = (height - kernel + 1) * (width - kernel + 1)
    return 2.0 * positions * out_channels * in_channels * kernel * kernel


def bc_conv_ops(
    height: int,
    width: int,
    kernel: int,
    in_channels: int,
    out_channels: int,
    block_size: int,
) -> float:
    """Operation count of the block-circulant CONV layer (section IV-B).

    Per output position, the FC count over the block grid the layer
    runs: each of the ``k*k`` kernel positions pads the channels to
    ``ceil(C/b)`` blocks, so ``q = k^2 ceil(C/b)``.  Bias excluded.
    """
    _check_positive(
        height=height,
        width=width,
        kernel=kernel,
        in_channels=in_channels,
        out_channels=out_channels,
        block_size=block_size,
    )
    positions = (height - kernel + 1) * (width - kernel + 1)
    channel_blocks = -(-in_channels // block_size)
    per_position = bc_fc_ops(
        out_channels, kernel * kernel * channel_blocks * block_size, block_size
    )
    return positions * per_position


def fc_speedup(out_features: int, in_features: int, block_size: int) -> float:
    """Dense-over-block-circulant op ratio for an FC layer."""
    return dense_fc_ops(out_features, in_features) / bc_fc_ops(
        out_features, in_features, block_size
    )


def conv_speedup(
    height: int,
    width: int,
    kernel: int,
    in_channels: int,
    out_channels: int,
    block_size: int,
) -> float:
    """Dense-over-block-circulant op ratio for a CONV layer."""
    return dense_conv_ops(
        height, width, kernel, in_channels, out_channels
    ) / bc_conv_ops(height, width, kernel, in_channels, out_channels, block_size)


def crossover_block_size(out_features: int, in_features: int) -> int | None:
    """Smallest block size at which the FFT path beats the dense path.

    Returns None when no block size up to ``min(m, n)`` wins (tiny
    layers where FFT constants dominate).
    """
    _check_positive(out_features=out_features, in_features=in_features)
    limit = min(out_features, in_features)
    for block in range(2, limit + 1):
        if fc_speedup(out_features, in_features, block) > 1.0:
            return block
    return None


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
