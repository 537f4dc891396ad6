"""Procedural stand-in for the CIFAR-10 dataset.

CIFAR-10 cannot be downloaded offline, so this module generates 32x32x3
color images in [0, 1] across ten classes.  Each class pairs a base hue
with a characteristic spatial structure (stripes, checkers, rings, blobs,
gradients, ...), and every sample varies frequency, phase, orientation,
color jitter, and noise — so a convolutional network must learn spatial
feature detectors, exercising the same code paths as real CIFAR-10.
"""

from __future__ import annotations

import numpy as np

from .dataset import ArrayDataset

__all__ = [
    "IMAGE_SIZE",
    "NUM_CHANNELS",
    "NUM_CLASSES",
    "CLASS_NAMES",
    "generate_cifar",
    "load_synthetic_cifar",
]

IMAGE_SIZE = 32
NUM_CHANNELS = 3
NUM_CLASSES = 10

CLASS_NAMES = (
    "h-stripes",
    "v-stripes",
    "diagonal",
    "checker",
    "rings",
    "blobs",
    "gradient",
    "spots",
    "cross",
    "waves",
)

# Base colors per class (RGB in [0, 1]); hue jitter is applied per sample.
_BASE_COLORS = np.array(
    [
        [0.85, 0.25, 0.25],
        [0.25, 0.65, 0.85],
        [0.35, 0.80, 0.35],
        [0.85, 0.70, 0.25],
        [0.65, 0.35, 0.80],
        [0.85, 0.45, 0.65],
        [0.30, 0.75, 0.70],
        [0.75, 0.55, 0.35],
        [0.45, 0.50, 0.85],
        [0.60, 0.75, 0.30],
    ]
)


def _pattern(label: int, rng: np.random.Generator) -> np.ndarray:
    """Greyscale 32x32 structure for ``label`` with random nuisances."""
    size = IMAGE_SIZE
    rows, cols = np.meshgrid(
        np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij"
    )
    freq = rng.uniform(2.5, 5.0)
    phase = rng.uniform(0, 2 * np.pi)
    if label == 0:  # horizontal stripes
        field = np.sin(2 * np.pi * freq * rows + phase)
    elif label == 1:  # vertical stripes
        field = np.sin(2 * np.pi * freq * cols + phase)
    elif label == 2:  # diagonal stripes (random slope sign)
        slope = rng.choice([-1.0, 1.0])
        field = np.sin(2 * np.pi * freq * (rows + slope * cols) / 1.4 + phase)
    elif label == 3:  # checkerboard
        field = np.sin(2 * np.pi * freq * rows + phase) * np.sin(
            2 * np.pi * freq * cols + phase
        )
    elif label == 4:  # concentric rings around a jittered center
        cr, cc = rng.uniform(0.3, 0.7, size=2)
        radius = np.hypot(rows - cr, cols - cc)
        field = np.sin(2 * np.pi * freq * 1.6 * radius + phase)
    elif label == 5:  # smooth blobs: low-frequency random field
        coarse = rng.normal(size=(4, 4))
        field = np.kron(coarse, np.ones((size // 4, size // 4)))
        field = _smooth(field)
    elif label == 6:  # linear gradient at random orientation
        angle = rng.uniform(0, 2 * np.pi)
        field = (rows - 0.5) * np.cos(angle) + (cols - 0.5) * np.sin(angle)
        field = field / (np.abs(field).max() + 1e-9)
    elif label == 7:  # bright spots on a dark field
        field = -np.ones((size, size)) * 0.6
        for _ in range(rng.integers(4, 8)):
            cr, cc = rng.uniform(0.1, 0.9, size=2)
            sigma = rng.uniform(0.05, 0.09)
            bump = np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2 * sigma**2))
            field = np.maximum(field, 2.0 * bump - 0.6)
    elif label == 8:  # centered cross / plus shape
        cr, cc = rng.uniform(0.4, 0.6, size=2)
        width = rng.uniform(0.06, 0.12)
        bar_h = np.exp(-((rows - cr) ** 2) / (2 * width**2))
        bar_v = np.exp(-((cols - cc) ** 2) / (2 * width**2))
        field = np.maximum(bar_h, bar_v) * 2.0 - 1.0
    elif label == 9:  # wavy (frequency-modulated) stripes
        field = np.sin(
            2 * np.pi * freq * rows + 2.0 * np.sin(2 * np.pi * cols * 2.0) + phase
        )
    else:
        raise ValueError(f"label must be 0-9, got {label}")
    return field


def _smooth(field: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box smoothing with edge replication."""
    padded = np.pad(field, 1, mode="edge")
    out = np.zeros_like(field)
    for dr in range(3):
        for dc in range(3):
            out += padded[dr : dr + field.shape[0], dc : dc + field.shape[1]]
    return out / 9.0


def generate_cifar(
    num_samples: int,
    rng: np.random.Generator | None = None,
    noise: float = 0.06,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(images, labels)``: images ``(n, 3, 32, 32)`` in [0, 1].

    Channel layout is channel-first to match the CONV stack.  Each sample
    modulates its class color by the class pattern field, with hue jitter
    and additive Gaussian noise.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    if noise < 0.0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = rng or np.random.default_rng()
    labels = rng.integers(0, NUM_CLASSES, size=num_samples)
    images = np.empty((num_samples, NUM_CHANNELS, IMAGE_SIZE, IMAGE_SIZE))
    for index, label in enumerate(labels):
        field = _pattern(int(label), rng)  # roughly in [-1, 1]
        color = np.clip(
            _BASE_COLORS[label] + rng.normal(scale=0.06, size=3), 0.05, 0.95
        )
        background = np.clip(
            np.array([0.45, 0.45, 0.45]) + rng.normal(scale=0.05, size=3), 0.0, 1.0
        )
        mix = (field + 1.0) / 2.0  # [0, 1] blend factor
        image = (
            mix[None, :, :] * color[:, None, None]
            + (1.0 - mix[None, :, :]) * background[:, None, None]
        )
        image += rng.normal(scale=noise, size=image.shape)
        images[index] = np.clip(image, 0.0, 1.0)
    return images, labels


def load_synthetic_cifar(
    train_size: int = 4000,
    test_size: int = 800,
    seed: int = 0,
    noise: float = 0.06,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Train/test datasets mirroring the CIFAR-10 50k/10k split (scaled).

    Independent generator streams for train and test, as in
    :func:`repro.data.synthetic_mnist.load_synthetic_mnist`.
    """
    train_rng = np.random.default_rng(seed)
    test_rng = np.random.default_rng(seed + 2_000_003)
    train = ArrayDataset(*generate_cifar(train_size, train_rng, noise))
    test = ArrayDataset(*generate_cifar(test_size, test_rng, noise))
    return train, test
