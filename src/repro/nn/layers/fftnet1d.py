"""Causal dilated sequence layers (the FFTNet-style streaming stack).

An :class:`FFTLayer1d` is the radix-2 building block of an FFTNet
vocoder: a two-tap dilated causal convolution,

    ``y[t] = W_r x[t] + W_l x[t - d] + b``

with ``x[t] = 0`` for ``t < 0`` (zero left padding keeps the layer
strictly causal).  Stacking layers with dilations ``2^(depth-1) ... 1``
gives a receptive field of ``1 + sum(dilations)`` past samples — the
classic exponential-context construction.  :class:`Pointwise1d` is the
per-timestep ``1x1`` projection (``W_o`` in the FFTNet papers).

Both layers run **time-major**: inputs are ``(batch, T, channels)``, so
each timestep is one row and the plan compiler can flatten the whole
sequence into a single row-major GEMM.

Row-stable matmul
-----------------

Streaming inference (``repro.streaming``) runs the batch plan's own ops
on *suffixes* of the same sequence, in chunks of arbitrary size, and
promises results bitwise-identical to the full-sequence batch plan at
the same precision.  BLAS GEMMs do not offer that:
``(A @ W)[i]`` changes in the last bits with the number of rows in ``A``
(gemv dispatch at M=1, kernel blocking elsewhere).  :func:`seq_matmul`
is the shared kernel that does offer it — a non-optimized ``np.einsum``
whose per-row accumulation order depends only on the reduction length,
so any row-chunking of the input produces identical bits.  Every
consumer that participates in the streaming parity contract (this
module's forwards, the plan's ``fft1d`` / ``pointwise1d`` ops that both
sessions and stream pushes run) must go through it.
"""

from __future__ import annotations

import numpy as np

from ..init import he_normal
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["FFTLayer1d", "Pointwise1d", "seq_matmul", "shift_right"]


def seq_matmul(x: np.ndarray, weight_t: np.ndarray, out=None) -> np.ndarray:
    """``x @ weight_t`` with per-row results independent of row count.

    ``x`` is ``(rows, in)``; ``weight_t`` is ``(in, out)``.  Implemented
    as a non-optimized einsum so the accumulation order per output
    element is fixed by the reduction length alone — chunking ``x`` into
    any row blocks (including single rows) reproduces the full-matrix
    result bitwise, which BLAS ``@`` does not guarantee.
    """
    if out is None:
        return np.einsum("mc,co->mo", x, weight_t)
    return np.einsum("mc,co->mo", x, weight_t, out=out)


def shift_right(x: np.ndarray, shift: int) -> np.ndarray:
    """Shift a time-major ``(..., T, C)`` array right by ``shift`` rows.

    Rows ``t < shift`` become zero — the causal zero-padding the dilated
    left tap reads before the sequence starts.
    """
    if shift == 0:
        return x
    shifted = np.zeros_like(x)
    if x.shape[-2] > shift:
        shifted[..., shift:, :] = x[..., :-shift, :]
    return shifted


def _check_seq_input(x: Tensor, in_channels: int, name: str) -> Tensor:
    if x.ndim == 2:  # (T, C) single sequence
        x = x.reshape(1, *x.shape)
    if x.ndim != 3 or x.shape[-1] != in_channels:
        raise ValueError(
            f"{name} expects (batch, T, {in_channels}) time-major input, "
            f"got shape {x.shape}"
        )
    return x


class FFTLayer1d(Module):
    """Two-tap causal dilated layer: ``y[t] = W_r x[t] + W_l x[t-d] + b``.

    Parameters
    ----------
    in_channels, out_channels:
        Channel widths; weights are ``(out_channels, in_channels)`` per
        tap, matching the ``Linear`` convention.
    dilation:
        Distance ``d >= 1`` of the left tap.  A stack with dilations
        ``2^(depth-1), ..., 2, 1`` sees ``1 + sum(d)`` past samples.
    """

    #: Marks time-major sequence layers for shape inference.
    sequence_layer = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        dilation: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError(
                f"channels must be positive: in={in_channels} "
                f"out={out_channels}"
            )
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.dilation = int(dilation)
        # Two taps share the fan-in (the layer reads 2*in values per
        # output), mirroring a kernel-2 conv initialization.
        fan_in = 2 * in_channels
        self.weight_r = Parameter(
            he_normal((out_channels, in_channels), fan_in=fan_in, rng=rng)
        )
        self.weight_l = Parameter(
            he_normal((out_channels, in_channels), fan_in=fan_in, rng=rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = _check_seq_input(x, self.in_channels, "FFTLayer1d")
        xd = x.data
        batch, steps, _ = xd.shape
        xl = shift_right(xd, self.dilation)
        wr_t = np.ascontiguousarray(self.weight_r.data.T)
        wl_t = np.ascontiguousarray(self.weight_l.data.T)
        out_data = seq_matmul(xd.reshape(-1, self.in_channels), wr_t)
        out_data += seq_matmul(xl.reshape(-1, self.in_channels), wl_t)
        out_data = out_data.reshape(batch, steps, self.out_channels)

        weight_r, weight_l, dilation = self.weight_r, self.weight_l, self.dilation

        def backward(grad: np.ndarray) -> None:
            g2 = grad.reshape(-1, self.out_channels)
            weight_r.accumulate_grad(g2.T @ xd.reshape(-1, self.in_channels))
            weight_l.accumulate_grad(g2.T @ xl.reshape(-1, self.in_channels))
            gx = grad @ weight_r.data
            gl = grad @ weight_l.data
            # xl[t] = x[t-d]  =>  dL/dx[t] += gl[t+d]
            if steps > dilation:
                gx[:, : steps - dilation] += gl[:, dilation:]
            x.accumulate_grad(gx)

        out = Tensor.from_op(out_data, (x, weight_r, weight_l), backward)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"FFTLayer1d(in_channels={self.in_channels}, "
            f"out_channels={self.out_channels}, dilation={self.dilation}, "
            f"bias={self.bias is not None})"
        )


class Pointwise1d(Module):
    """Per-timestep projection: ``y[t] = W x[t] + b`` (a 1x1 conv)."""

    sequence_layer = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError(
                f"channels must be positive: in={in_channels} "
                f"out={out_channels}"
            )
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            he_normal((out_channels, in_channels), fan_in=in_channels, rng=rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = _check_seq_input(x, self.in_channels, "Pointwise1d")
        xd = x.data
        batch, steps, _ = xd.shape
        weight_t = np.ascontiguousarray(self.weight.data.T)
        out_data = seq_matmul(xd.reshape(-1, self.in_channels), weight_t)
        out_data = out_data.reshape(batch, steps, self.out_channels)

        weight = self.weight

        def backward(grad: np.ndarray) -> None:
            g2 = grad.reshape(-1, self.out_channels)
            weight.accumulate_grad(g2.T @ xd.reshape(-1, self.in_channels))
            x.accumulate_grad(grad @ weight.data)

        out = Tensor.from_op(out_data, (x, weight), backward)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Pointwise1d(in_channels={self.in_channels}, "
            f"out_channels={self.out_channels}, "
            f"bias={self.bias is not None})"
        )
