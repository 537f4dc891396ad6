"""Block-circulant 2-D convolution (paper section IV-B).

The paper generalizes the block-circulant structure to the CONV weight
tensor ``F(i, j, c, p)``: for each kernel position ``(i, j)`` the
channel-by-filter slice is circulant (paper Eqn. 6).  After the im2col
reformulation of Fig. 3, the flattened weight matrix ``F`` of shape
``(C*r*r, P)`` is block-circulant — provided the patch columns are laid
out kernel-position-major with channels fastest (the paper's row index
``a = c + C(i-1) + C*r*(j-1)``).  This layer performs that column
permutation and then runs the same frequency-domain block product as the
FC layer, reducing the CONV complexity from ``O(W H r^2 C P)`` to
``O(W H Q log Q)`` with ``Q = max(r^2 C, P)``.
"""

from __future__ import annotations

import numpy as np

from ...structured import (
    SpectrumCache,
    block_circulant_to_dense,
)
from ...structured.ops import spectral_gradients, spectral_product
from ..functional import col2im, im2col
from ..init import circulant_spectral
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["BlockCirculantConv2d"]


class BlockCirculantConv2d(Module):
    """2-D convolution whose per-kernel-position weight slices are circulant.

    Parameters
    ----------
    in_channels, out_channels, kernel_size, stride, padding:
        As in :class:`~repro.nn.layers.conv2d.Conv2d`.
    block_size:
        Circulant block dimension ``b``.  Blocks tile the channel axis
        within each kernel position and the filter axis, so each
        ``F(i, j, :, :)`` slice is block-circulant exactly as Eqn. 6
        requires; channels and filters are zero-padded to multiples of
        ``b``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        block_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ValueError(
                "invalid BlockCirculantConv2d geometry: "
                f"C={in_channels} P={out_channels} r={kernel_size} "
                f"stride={stride} padding={padding}"
            )
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if block_size > max(in_channels, out_channels):
            raise ValueError(
                f"block_size {block_size} exceeds channel counts "
                f"({in_channels}, {out_channels})"
            )
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.block_size = block_size
        # Block grid: p tiles the P filters; q tiles (kernel positions x
        # padded channels) so no block straddles two kernel positions.
        self.channel_blocks = -(-in_channels // block_size)
        self.filter_blocks = -(-out_channels // block_size)
        self.block_rows = self.filter_blocks
        self.block_cols = kernel_size * kernel_size * self.channel_blocks
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            circulant_spectral(
                (self.block_rows, self.block_cols, block_size),
                fan_in=fan_in,
                rng=rng,
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        # FFT(w_i) memoized per weight version (see block_circulant_linear).
        self._spectrum_cache = SpectrumCache()

    # ------------------------------------------------------------------
    # Patch layout helpers
    # ------------------------------------------------------------------
    def _fold_patches(self, cols: np.ndarray) -> np.ndarray:
        """im2col output -> position-major, channel-padded block layout.

        ``cols`` is ``(batch, L, C*k*k)`` with channel-major columns; the
        result is ``(batch * L, q, b)`` where consecutive blocks cover the
        padded channels of kernel position (0,0), then (0,1), ...
        """
        batch, positions, _ = cols.shape
        k2 = self.kernel_size * self.kernel_size
        b = self.block_size
        padded_c = self.channel_blocks * b
        # (batch, L, C, k*k) -> (batch, L, k*k, C)
        by_position = cols.reshape(
            batch, positions, self.in_channels, k2
        ).transpose(0, 1, 3, 2)
        if padded_c != self.in_channels:
            padded = np.zeros((batch, positions, k2, padded_c))
            padded[..., : self.in_channels] = by_position
            by_position = padded
        return by_position.reshape(batch * positions, self.block_cols, b)

    def _unfold_patches(
        self, blocks: np.ndarray, batch: int, positions: int
    ) -> np.ndarray:
        """Adjoint of :meth:`_fold_patches` (used for the input gradient)."""
        k2 = self.kernel_size * self.kernel_size
        b = self.block_size
        padded_c = self.channel_blocks * b
        by_position = blocks.reshape(batch, positions, k2, padded_c)
        by_position = by_position[..., : self.in_channels]
        return by_position.transpose(0, 1, 3, 2).reshape(
            batch, positions, self.in_channels * k2
        )

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(
                f"BlockCirculantConv2d expects (batch, C, H, W), got {x.shape}"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        weight = self.weight
        k, stride, padding, b = (
            self.kernel_size,
            self.stride,
            self.padding,
            self.block_size,
        )
        batch, _, height, width = x.shape
        out_h = (height + 2 * padding - k) // stride + 1
        out_w = (width + 2 * padding - k) // stride + 1
        positions = out_h * out_w

        cols = im2col(x.data, k, stride, padding)  # (batch, L, C*k*k)
        x_blocks = self._fold_patches(cols)  # (batch*L, q, b)
        _, spectra_fm = self._spectrum_cache.get_pair(weight)
        y_blocks, xs_fm = spectral_product(spectra_fm, x_blocks)
        y_flat = y_blocks.reshape(batch * positions, -1)[:, : self.out_channels]
        out_data = (
            y_flat.reshape(batch, positions, self.out_channels)
            .transpose(0, 2, 1)
            .reshape(batch, self.out_channels, out_h, out_w)
        )

        def backward(grad: np.ndarray) -> None:
            grad_flat = grad.reshape(batch, self.out_channels, positions).transpose(
                0, 2, 1
            )  # (batch, L, P)
            grad_blocks = np.zeros((batch * positions, self.block_rows, b))
            grad_blocks.reshape(batch * positions, -1)[
                :, : self.out_channels
            ] = grad_flat.reshape(batch * positions, self.out_channels)
            grad_w, grad_x_blocks = spectral_gradients(
                spectra_fm, xs_fm, grad_blocks
            )
            if weight.requires_grad:
                weight.accumulate_grad(grad_w)
            if x.requires_grad:
                grad_cols = self._unfold_patches(grad_x_blocks, batch, positions)
                x.accumulate_grad(
                    col2im(grad_cols, x.data.shape, k, stride, padding)
                )

        out = Tensor.from_op(out_data, (x, weight), backward)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out

    # ------------------------------------------------------------------
    def weight_spectra(self, dtype=None) -> tuple[np.ndarray, np.ndarray]:
        """``(spectra, freq_major)`` of the current weights at ``dtype``.

        Same contract as
        :meth:`~repro.nn.layers.block_circulant_linear.BlockCirculantLinear.weight_spectra`:
        the dtype-keyed cached pair the frozen runtime snapshots.
        """
        return self._spectrum_cache.get_pair(self.weight, dtype)

    def dense_weight(self) -> np.ndarray:
        """Expand to an equivalent dense ``(P, C, r, r)`` filter bank.

        The dense Conv2d applying this bank produces identical outputs —
        the equivalence the tests and the Fig. 3 benchmark check.
        """
        k, b = self.kernel_size, self.block_size
        dense = block_circulant_to_dense(self.weight.data)  # (p*b, q*b)
        dense = dense[: self.out_channels]  # trim filter padding
        padded_c = self.channel_blocks * b
        # Columns: position-major (k*k groups of padded channels).
        per_position = dense.reshape(self.out_channels, k * k, padded_c)
        per_position = per_position[..., : self.in_channels]
        # -> (P, C, r, r) with kernel index (i, j) = divmod(position, k)
        return per_position.transpose(0, 2, 1).reshape(
            self.out_channels, self.in_channels, k, k
        )

    def output_shape(self, height: int, width: int) -> tuple[int, int, int]:
        """``(P, out_h, out_w)`` for an input of spatial size (H, W)."""
        k, s, p = self.kernel_size, self.stride, self.padding
        return (
            self.out_channels,
            (height + 2 * p - k) // s + 1,
            (width + 2 * p - k) // s + 1,
        )

    @property
    def compression_ratio(self) -> float:
        """Dense filter parameter count over stored parameter count."""
        dense = self.out_channels * self.in_channels * self.kernel_size**2
        return dense / self.weight.size

    def __repr__(self) -> str:
        return (
            f"BlockCirculantConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, block_size={self.block_size}, "
            f"stride={self.stride}, padding={self.padding}, "
            f"bias={self.bias is not None})"
        )
