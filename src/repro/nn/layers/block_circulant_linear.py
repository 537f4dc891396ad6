"""Block-circulant fully-connected layer — the paper's core contribution.

Forward pass implements paper Algorithm 1 / Eqn. 3: the weight matrix is a
grid of circulant blocks, and each block product runs as
``IFFT(FFT(w) o FFT(x))``.  The backward pass implements the FFT form of
paper Algorithm 2 / Eqn. 4: both the weight gradient and the input
gradient are circular correlations, evaluated as conjugate products in the
frequency domain.  Computation is O((m n / b) log b) and storage O(m n / b)
versus the dense layer's O(m n) for both.

The weight half-spectra ``FFT(w_i)`` are cached in a
:class:`~repro.structured.spectral.SpectrumCache` keyed on the weight
Parameter's ``version`` counter: they are recomputed once per weight
update during training (optimizer steps rebind ``weight.data``) and
exactly once across an entire inference run.  Code that writes into
``weight.data`` in place must call ``weight.bump_version()`` to keep the
cache honest.
"""

from __future__ import annotations

import numpy as np

from ...structured import (
    BlockCirculantMatrix,
    SpectrumCache,
    blockify,
)
from ...structured.ops import spectral_gradients, spectral_product
from ..init import circulant_spectral
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["BlockCirculantLinear"]


class BlockCirculantLinear(Module):
    """FFT-based fully-connected layer with a block-circulant weight matrix.

    Parameters
    ----------
    in_features, out_features:
        Logical layer dimensions (zero-padded internally to multiples of
        ``block_size``, per the paper's footnote).
    block_size:
        Circulant block dimension ``b`` — the compression knob.  ``b = 1``
        degenerates to an unstructured (dense) matrix; larger ``b``
        compresses harder.  The paper's single-block-row layout corresponds
        to ``block_size = min(in_features, out_features)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        block_size: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"features must be positive: in={in_features} out={out_features}"
            )
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if block_size > max(in_features, out_features):
            raise ValueError(
                f"block_size {block_size} exceeds both layer dimensions "
                f"({in_features}, {out_features})"
            )
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.block_size = block_size
        self.block_rows = -(-out_features // block_size)
        self.block_cols = -(-in_features // block_size)
        self.weight = Parameter(
            circulant_spectral(
                (self.block_rows, self.block_cols, block_size),
                fan_in=in_features,
                rng=rng,
            )
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._spectrum_cache = SpectrumCache()

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected input with {self.in_features} features, "
                f"got shape {x.shape}"
            )
        weight = self.weight
        batch = x.shape[0]
        b = self.block_size

        # --- paper Algorithm 1, batched over blocks and samples ---
        x_blocks = blockify(x.data, b)  # (batch, q, b)
        _, spectra_fm = self._spectrum_cache.get_pair(weight)
        y_blocks, xs_fm = spectral_product(spectra_fm, x_blocks)
        out_data = y_blocks.reshape(batch, -1)[:, : self.out_features]

        def backward(grad: np.ndarray) -> None:
            # --- paper Algorithm 2: correlations in the frequency domain,
            # against the input spectrum the forward already built ---
            grad_blocks = blockify(grad, b)  # zero-pads the ragged tail
            grad_w, grad_x_blocks = spectral_gradients(
                spectra_fm, xs_fm, grad_blocks
            )
            if weight.requires_grad:
                weight.accumulate_grad(grad_w)
            if x.requires_grad:
                grad_x = grad_x_blocks.reshape(batch, -1)[:, : self.in_features]
                x.accumulate_grad(grad_x)

        out = Tensor.from_op(out_data, (x, weight), backward)
        if self.bias is not None:
            out = out + self.bias
        return out

    # ------------------------------------------------------------------
    def weight_spectra(self, dtype=None) -> tuple[np.ndarray, np.ndarray]:
        """``(spectra, freq_major)`` of the current weights at ``dtype``.

        The read-only cached pair the frozen runtime snapshots at freeze
        time; ``dtype`` selects the spectrum precision (complex64 for an
        fp32 :class:`~repro.precision.PrecisionPolicy`, ``None`` for the
        native complex128).
        """
        return self._spectrum_cache.get_pair(self.weight, dtype)

    def as_matrix(self) -> BlockCirculantMatrix:
        """View the current weights as a :class:`BlockCirculantMatrix`."""
        return BlockCirculantMatrix(
            self.weight.data.copy(),
            rows=self.out_features,
            cols=self.in_features,
        )

    def dense_weight(self) -> np.ndarray:
        """Dense ``(out, in)`` expansion of the structured weights."""
        return self.as_matrix().to_dense()

    @classmethod
    def from_dense(
        cls,
        weight: np.ndarray,
        block_size: int,
        bias: np.ndarray | None = None,
    ) -> "BlockCirculantLinear":
        """Build a layer by projecting a dense ``(out, in)`` weight matrix.

        Used when converting a pre-trained dense network for fine-tuning.
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"expected 2-D weight, got shape {weight.shape}")
        out_features, in_features = weight.shape
        layer = cls(
            in_features, out_features, block_size, bias=bias is not None
        )
        projected = BlockCirculantMatrix.from_dense(weight, block_size)
        layer.weight.data = projected.block_weights
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (out_features,):
                raise ValueError(
                    f"expected bias of shape ({out_features},), got {bias.shape}"
                )
            layer.bias.data = bias.copy()
        return layer

    @property
    def compression_ratio(self) -> float:
        """Dense parameter count over stored parameter count (weights only)."""
        dense = self.in_features * self.out_features
        return dense / self.weight.size

    def __repr__(self) -> str:
        return (
            f"BlockCirculantLinear(in_features={self.in_features}, "
            f"out_features={self.out_features}, block_size={self.block_size}, "
            f"bias={self.bias is not None})"
        )
