"""Procedural stand-in for the MNIST handwritten-digit dataset.

The real MNIST download is unavailable offline, so this module generates a
drop-in substitute: 28x28 greyscale digit images in [0, 1] with integer
labels 0-9.  Digits are rendered from seven-segment-style stroke skeletons
(with per-digit styling), then individually perturbed with a random affine
warp (rotation, scale, shear, translation), stroke-intensity jitter, and
pixel noise — giving the intra-class variability a classifier must absorb,
at MNIST's exact shape and value range.  ``benchmarks/test_table2_mnist.py``
reports the accuracies measured on this data.
"""

from __future__ import annotations

import functools

import numpy as np

from .dataset import ArrayDataset
from .transforms import affine_warp

__all__ = [
    "IMAGE_SIZE",
    "NUM_CLASSES",
    "digit_template",
    "generate_mnist",
    "load_synthetic_mnist",
]

IMAGE_SIZE = 28
NUM_CLASSES = 10

# Segment endpoints on a unit box (row, col), top-left origin.  The seven
# standard segments plus two diagonals used by 1 and 7 for styling.
_SEGMENTS: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "top": ((0.0, 0.1), (0.0, 0.9)),
    "top_right": ((0.0, 0.9), (0.5, 0.9)),
    "bottom_right": ((0.5, 0.9), (1.0, 0.9)),
    "bottom": ((1.0, 0.1), (1.0, 0.9)),
    "bottom_left": ((0.5, 0.1), (1.0, 0.1)),
    "top_left": ((0.0, 0.1), (0.5, 0.1)),
    "middle": ((0.5, 0.1), (0.5, 0.9)),
    "flag": ((0.18, 0.5), (0.0, 0.9)),  # serif on the 1
    "slash": ((1.0, 0.25), (0.0, 0.9)),  # diagonal stroke of the 7
}

# Which segments make up each digit (seven-segment layout, 1 and 7 styled
# with diagonals so they are not subsets of other digits pixel-wise).
_DIGIT_SEGMENTS: dict[int, tuple[str, ...]] = {
    0: ("top", "top_right", "bottom_right", "bottom", "bottom_left", "top_left"),
    1: ("top_right", "bottom_right", "flag"),
    2: ("top", "top_right", "middle", "bottom_left", "bottom"),
    3: ("top", "top_right", "middle", "bottom_right", "bottom"),
    4: ("top_left", "middle", "top_right", "bottom_right"),
    5: ("top", "top_left", "middle", "bottom_right", "bottom"),
    6: ("top", "top_left", "middle", "bottom_left", "bottom_right", "bottom"),
    7: ("top", "slash"),
    8: (
        "top",
        "top_right",
        "bottom_right",
        "bottom",
        "bottom_left",
        "top_left",
        "middle",
    ),
    9: ("top", "top_right", "top_left", "middle", "bottom_right", "bottom"),
}


def _segment_distance(
    rows: np.ndarray,
    cols: np.ndarray,
    start: tuple[float, float],
    end: tuple[float, float],
) -> np.ndarray:
    """Euclidean distance from each (row, col) grid point to a segment."""
    p0 = np.array(start)
    p1 = np.array(end)
    direction = p1 - p0
    length_sq = float(direction @ direction)
    dr = rows - p0[0]
    dc = cols - p0[1]
    if length_sq == 0.0:
        return np.hypot(dr, dc)
    t = np.clip((dr * direction[0] + dc * direction[1]) / length_sq, 0.0, 1.0)
    return np.hypot(dr - t * direction[0], dc - t * direction[1])


@functools.lru_cache(maxsize=16)
def digit_template(digit: int, size: int = IMAGE_SIZE) -> np.ndarray:
    """Canonical ``size x size`` rendering of ``digit`` in [0, 1].

    The glyph occupies a box inset from the borders so that augmentation
    warps keep the stroke inside the canvas.
    """
    if digit not in _DIGIT_SEGMENTS:
        raise ValueError(f"digit must be 0-9, got {digit}")
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    # Glyph box: rows 4..size-5, cols 7..size-8 (tall, narrow like digits).
    row_lo, row_hi = size * 0.16, size * 0.84
    col_lo, col_hi = size * 0.28, size * 0.72
    grid_r, grid_c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    rows = (grid_r - row_lo) / (row_hi - row_lo)
    cols = (grid_c - col_lo) / (col_hi - col_lo)
    stroke = size * 0.055  # stroke half-width in pixels
    scale = row_hi - row_lo  # unit-box distance -> pixel distance
    intensity = np.zeros((size, size))
    for name in _DIGIT_SEGMENTS[digit]:
        distance = _segment_distance(rows, cols, *_SEGMENTS[name]) * scale
        intensity = np.maximum(intensity, np.clip(1.5 - distance / stroke, 0.0, 1.0))
    return np.clip(intensity, 0.0, 1.0)


def _random_affine(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Random inverse-mapping affine (matrix, offset) about the center."""
    angle = rng.uniform(-0.2, 0.2)  # radians, ~±11 degrees
    scale = rng.uniform(0.85, 1.1)
    shear = rng.uniform(-0.12, 0.12)
    shift = rng.uniform(-1.8, 1.8, size=2)
    cos, sin = np.cos(angle), np.sin(angle)
    forward = np.array([[cos, -sin], [sin, cos]]) @ np.array(
        [[scale, scale * shear], [0.0, scale]]
    )
    inverse = np.linalg.inv(forward)
    center = np.array([(size - 1) / 2.0, (size - 1) / 2.0])
    offset = center - inverse @ (center + shift)
    return inverse, offset


def generate_mnist(
    num_samples: int,
    rng: np.random.Generator | None = None,
    noise: float = 0.08,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(images, labels)``: images ``(n, 28, 28)`` in [0, 1].

    Labels are drawn uniformly; every image gets an independent affine
    warp, stroke-gain jitter, and additive Gaussian noise of standard
    deviation ``noise``.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    if noise < 0.0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = rng or np.random.default_rng()
    labels = rng.integers(0, NUM_CLASSES, size=num_samples)
    images = np.empty((num_samples, IMAGE_SIZE, IMAGE_SIZE))
    for index, digit in enumerate(labels):
        matrix, offset = _random_affine(rng, IMAGE_SIZE)
        warped = affine_warp(digit_template(int(digit)), matrix, offset)
        gain = rng.uniform(0.8, 1.0)
        noisy = gain * warped + rng.normal(scale=noise, size=warped.shape)
        images[index] = np.clip(noisy, 0.0, 1.0)
    return images, labels


def load_synthetic_mnist(
    train_size: int = 6000,
    test_size: int = 1000,
    seed: int = 0,
    noise: float = 0.08,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Train/test datasets mirroring the MNIST 60k/10k split (scaled down).

    Train and test draw from independent generator streams of the same
    process, so test accuracy measures generalization over nuisance
    parameters rather than memorization.
    """
    train_rng = np.random.default_rng(seed)
    test_rng = np.random.default_rng(seed + 1_000_003)
    train = ArrayDataset(*generate_mnist(train_size, train_rng, noise))
    test = ArrayDataset(*generate_mnist(test_size, test_rng, noise))
    return train, test
