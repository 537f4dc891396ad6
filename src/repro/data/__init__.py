"""Datasets and transforms.

Synthetic, offline-generatable substitutes for MNIST and CIFAR-10 (each
module's docstring records its substitution), plus the bilinear resize
the paper applies to MNIST and generic batching utilities.
"""

from .dataset import ArrayDataset, DataLoader, train_test_split
from .synthetic_cifar import (
    CLASS_NAMES,
    generate_cifar,
    load_synthetic_cifar,
)
from .synthetic_mnist import (
    digit_template,
    generate_mnist,
    load_synthetic_mnist,
)
from .synthetic_wave import (
    generate_wave,
    load_synthetic_wave,
    quantize_wave,
)
from .transforms import (
    Compose,
    affine_warp,
    bilinear_resize,
    flatten_images,
    normalize,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "train_test_split",
    "generate_mnist",
    "load_synthetic_mnist",
    "digit_template",
    "generate_cifar",
    "load_synthetic_cifar",
    "CLASS_NAMES",
    "generate_wave",
    "load_synthetic_wave",
    "quantize_wave",
    "bilinear_resize",
    "affine_warp",
    "normalize",
    "flatten_images",
    "Compose",
]
