"""Datasets and transforms.

Synthetic, offline-generatable substitutes for MNIST and CIFAR-10 (each
module's docstring records its substitution), plus the bilinear resize
the paper applies to MNIST and generic batching utilities.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".dataset": ["ArrayDataset", "DataLoader", "train_test_split"],
        ".synthetic_cifar": [
            "CLASS_NAMES", "generate_cifar", "load_synthetic_cifar",
        ],
        ".synthetic_mnist": [
            "digit_template", "generate_mnist", "load_synthetic_mnist",
        ],
        ".synthetic_wave": [
            "generate_wave", "load_synthetic_wave", "quantize_wave",
        ],
        ".transforms": [
            "Compose", "affine_warp", "bilinear_resize", "flatten_images",
            "normalize",
        ],
    },
)
