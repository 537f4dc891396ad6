"""Block-circulant matrix class (paper section IV).

A block-circulant matrix is a grid of circulant blocks.  The paper uses a
single row/column of blocks (``W = [C_1 | C_2 | ... | C_k]^T``); this class
implements the general ``p x q`` grid with block size ``b``, of which the
paper's layout is the one-row/one-column special case.  Ragged logical
shapes are handled by zero padding, per the paper's footnote.

The block size is the knob trading compression against accuracy (paper
section II, contribution (1)): parameters drop from ``m*n`` to ``m*n/b``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from ..fft import rfft
from .spectral import freq_major
from .ops import (
    block_circulant_to_dense,
    block_circulant_transpose_matvec,
    blockify,
    spectral_product,
    unblockify,
)

__all__ = ["BlockCirculantMatrix"]


class BlockCirculantMatrix:
    """An ``m x n`` matrix represented as a grid of circulant blocks.

    Parameters
    ----------
    block_weights:
        Array of shape ``(p, q, b)``: defining vector of each block.
    rows, cols:
        Logical (possibly unpadded) dimensions; default to ``p*b`` and
        ``q*b``.  Products accept/return vectors of the logical size and
        pad/trim internally.
    """

    def __init__(
        self,
        block_weights: np.ndarray,
        rows: int | None = None,
        cols: int | None = None,
    ):
        # Copy: the matrix owns its defining vectors.  The lazy spectra
        # cache below assumes they never change, so aliasing a caller
        # array that later mutates would silently serve stale products.
        weights = np.array(block_weights, dtype=np.float64)
        if weights.ndim != 3:
            raise ShapeError(
                f"block_weights must have shape (p, q, b), got {weights.shape}"
            )
        p, q, b = weights.shape
        self._weights = weights
        self._spectra: np.ndarray | None = None  # lazy rfft of the grid
        self._spectra_fm: np.ndarray | None = None  # frequency-major copy
        self._rows = p * b if rows is None else int(rows)
        self._cols = q * b if cols is None else int(cols)
        if not (p * b - b < self._rows <= p * b):
            raise ShapeError(
                f"rows={self._rows} inconsistent with {p} blocks of size {b}"
            )
        if not (q * b - b < self._cols <= q * b):
            raise ShapeError(
                f"cols={self._cols} inconsistent with {q} blocks of size {b}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        block_size: int,
        rng: np.random.Generator | None = None,
        scale: float | None = None,
    ) -> "BlockCirculantMatrix":
        """Random block-circulant matrix with Gaussian defining vectors.

        ``scale`` defaults to ``1/sqrt(cols)`` so the dense expansion has
        roughly unit-variance rows — the same criterion layer init uses.
        """
        if rows <= 0 or cols <= 0 or block_size <= 0:
            raise ShapeError(
                f"dimensions must be positive: rows={rows} cols={cols} "
                f"block_size={block_size}"
            )
        rng = rng or np.random.default_rng()
        p = -(-rows // block_size)
        q = -(-cols // block_size)
        if scale is None:
            scale = 1.0 / np.sqrt(cols)
        weights = rng.normal(scale=scale, size=(p, q, block_size))
        return cls(weights, rows=rows, cols=cols)

    @property
    def block_weights(self) -> np.ndarray:
        """The ``(p, q, b)`` grid of defining vectors (copy)."""
        return self._weights.copy()

    @property
    def block_size(self) -> int:
        """Circulant block dimension ``b``."""
        return self._weights.shape[2]

    @property
    def grid(self) -> tuple[int, int]:
        """Number of blocks ``(p, q)``."""
        return self._weights.shape[0], self._weights.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """Logical dense shape ``(rows, cols)``."""
        return (self._rows, self._cols)

    @property
    def padded_shape(self) -> tuple[int, int]:
        """Internal zero-padded shape ``(p*b, q*b)``."""
        p, q, b = self._weights.shape
        return (p * b, q * b)

    @property
    def parameter_count(self) -> int:
        """Stored parameters: ``p * q * b`` (vs ``rows * cols`` dense)."""
        return int(np.prod(self._weights.shape))

    @property
    def compression_ratio(self) -> float:
        """Dense parameter count divided by stored parameter count."""
        return (self._rows * self._cols) / self.parameter_count

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def weight_spectra(self) -> np.ndarray:
        """Half-spectra ``rfft`` of the block grid, computed once.

        The defining vectors of this matrix are immutable, so the spectra
        are transformed lazily on first product and reused by every
        subsequent :meth:`matvec` / :meth:`rmatvec` (section IV-A's
        "keep the FFT result FFT(w_i)").
        """
        if self._spectra is None:
            spectra = rfft(self._weights)
            spectra.setflags(write=False)
            self._spectra = spectra
        return self._spectra

    def _weight_spectra_fm(self) -> np.ndarray:
        """Contiguous frequency-major ``(nb, p, q)`` copy of the spectra."""
        if self._spectra_fm is None:
            fm = freq_major(self.weight_spectra())
            fm.setflags(write=False)
            self._spectra_fm = fm
        return self._spectra_fm

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``W @ x`` for a logical length-``cols`` vector, O(m n log b / b)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._cols,):
            raise ShapeError(f"expected x of shape ({self._cols},), got {x.shape}")
        padded = blockify(x, self.block_size)
        p, _, b = self._weights.shape
        result, _ = spectral_product(
            self._weight_spectra_fm(), padded.reshape(1, -1, b)
        )
        result = result.reshape(p * b)
        return result[: self._rows]

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y`` for a logical length-``rows`` vector."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self._rows,):
            raise ShapeError(f"expected y of shape ({self._rows},), got {y.shape}")
        padded = blockify(y, self.block_size).reshape(-1)
        result = block_circulant_transpose_matvec(
            self._weights, padded, weight_spectra=self.weight_spectra()
        )
        return result[: self._cols]

    def __matmul__(self, other):
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            if other.shape[0] != self._cols:
                raise ShapeError(
                    f"cannot multiply {self.shape} block-circulant by "
                    f"{other.shape}"
                )
            return np.stack(
                [self.matvec(other[:, j]) for j in range(other.shape[1])],
                axis=1,
            )
        raise ShapeError(f"unsupported operand ndim {other.ndim}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def transpose(self) -> "BlockCirculantMatrix":
        """The transpose, a ``(q, p, b)`` grid of transposed blocks."""
        w = self._weights
        transposed = np.concatenate([w[..., :1], w[..., 1:][..., ::-1]], axis=-1)
        return BlockCirculantMatrix(
            np.swapaxes(transposed, 0, 1), rows=self._cols, cols=self._rows
        )

    @property
    def T(self) -> "BlockCirculantMatrix":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def to_dense(self) -> np.ndarray:
        """Materialize the logical ``(rows, cols)`` dense matrix."""
        dense = block_circulant_to_dense(self._weights)
        return dense[: self._rows, : self._cols]

    @classmethod
    def from_dense(
        cls, matrix: np.ndarray, block_size: int
    ) -> "BlockCirculantMatrix":
        """Least-squares projection of a dense matrix onto the
        block-circulant set (mean along each block's wrapped diagonals).

        This is how a pre-trained dense layer is converted for fine-tuning.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got shape {matrix.shape}")
        if block_size <= 0:
            raise ShapeError(f"block_size must be positive, got {block_size}")
        rows, cols = matrix.shape
        p = -(-rows // block_size)
        q = -(-cols // block_size)
        padded = np.zeros((p * block_size, q * block_size))
        padded[:rows, :cols] = matrix
        shift = (
            np.arange(block_size)[:, None] - np.arange(block_size)[None, :]
        ) % block_size
        weights = np.empty((p, q, block_size))
        for i in range(p):
            for j in range(q):
                block = padded[
                    i * block_size : (i + 1) * block_size,
                    j * block_size : (j + 1) * block_size,
                ]
                for k in range(block_size):
                    weights[i, j, k] = block[shift == k].mean()
        return cls(weights, rows=rows, cols=cols)

    def blockify_input(self, x: np.ndarray) -> np.ndarray:
        """Fold a batch of logical input vectors into ``(batch, q, b)``."""
        return blockify(np.asarray(x, dtype=np.float64), self.block_size)

    def unblockify_output(self, y_blocks: np.ndarray) -> np.ndarray:
        """Flatten output blocks ``(batch, p, b)`` to logical vectors."""
        return unblockify(y_blocks, self._rows)

    def __repr__(self) -> str:
        p, q = self.grid
        return (
            f"BlockCirculantMatrix(shape={self.shape}, grid=({p}, {q}), "
            f"block_size={self.block_size})"
        )
