"""Structured matrices (paper sections III-C and IV).

* :class:`CirculantMatrix` — ``n`` parameters, O(n log n) products,
* :class:`BlockCirculantMatrix` — the paper's weight representation,
* :class:`ToeplitzMatrix` — the related-work baseline [18],
* the spectral kernel (:func:`spectral_product`, paper Algorithm 1, and
  :func:`spectral_gradients`, Algorithm 2) that the neural-network
  layers and the frozen runtime share, plus functional wrappers
  (:func:`block_circulant_forward_batch`, ...),
* least-squares projections from dense matrices.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".block_circulant": ["BlockCirculantMatrix"],
        ".circulant": ["CirculantMatrix"],
        ".ops": [
            "block_circulant_backward_batch", "block_circulant_forward_batch",
            "block_circulant_matvec", "block_circulant_to_dense",
            "block_circulant_transpose_matvec", "blockify",
            "circulant_gradients", "circulant_matvec",
            "circulant_transpose_matvec", "spectral_gradients",
            "spectral_product", "unblockify",
        ],
        ".projection": [
            "nearest_block_circulant", "nearest_circulant", "projection_error",
        ],
        ".spectral": ["SpectrumCache"],
        ".toeplitz": ["ToeplitzMatrix"],
    },
)
