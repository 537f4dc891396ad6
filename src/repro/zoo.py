"""Model zoo: the three network architectures evaluated in the paper.

* **Arch. 1** (section V-B): 256 inputs (MNIST resized 16x16), two
  block-circulant FC layers of 128 neurons, softmax over 10 digits.
* **Arch. 2** (section V-B): 121 inputs (MNIST resized 11x11), two
  block-circulant FC layers of 64 neurons, softmax over 10 digits.
* **Arch. 3** (section V-C): the CIFAR-10 CONV network
  ``128x3x32x32-64Conv3-64Conv3-128Conv3-128Conv3-512F-1024F-1024F-10F``
  with the first two CONV layers kept dense ("traditional") and the rest
  block-circulant, per the paper.

The paper does not report the block size it used; ``block_size`` defaults
to half the smaller layer dimension (a 2-block decomposition of the
smaller axis), and is exposed so the block-size ablation (experiment E11)
can sweep it.  ``build_arch3_reduced`` is a width-reduced Arch. 3 used to
*train* on the synthetic CIFAR-10 stand-in within CI-scale budgets; the
full ``build_arch3`` is used for runtime/storage modeling, where only the
architecture matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigurationError
from .nn import (
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    FFTLayer1d,
    Flatten,
    Linear,
    MaxPool2d,
    Pointwise1d,
    ReLU,
    Sequential,
)

__all__ = [
    "ARCH1_INPUT_SIDE",
    "ARCH2_INPUT_SIDE",
    "ZooEntry",
    "build_arch1",
    "build_arch2",
    "build_arch3",
    "build_arch3_reduced",
    "build_fftnet",
    "entry",
    "get",
    "names",
    "register",
]

ARCH1_INPUT_SIDE = 16  # 16 x 16 = 256 input neurons
ARCH2_INPUT_SIDE = 11  # 11 x 11 = 121 input neurons


def build_arch1(
    block_size: int = 64,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Paper Arch. 1: ``256 -> 128 (BC) -> 128 (BC) -> 10`` (logits out).

    The softmax itself lives in the loss during training and in the
    deployment engine at inference, so the model returns logits.
    """
    rng = rng or np.random.default_rng()
    return Sequential(
        BlockCirculantLinear(256, 128, block_size, rng=rng),
        ReLU(),
        BlockCirculantLinear(128, 128, block_size, rng=rng),
        ReLU(),
        Linear(128, 10, rng=rng),
    )


def build_arch2(
    block_size: int = 32,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Paper Arch. 2: ``121 -> 64 (BC) -> 64 (BC) -> 10`` (logits out)."""
    rng = rng or np.random.default_rng()
    return Sequential(
        BlockCirculantLinear(121, 64, block_size, rng=rng),
        ReLU(),
        BlockCirculantLinear(64, 64, block_size, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    )


def build_arch3(
    block_size: int = 32,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Paper Arch. 3 for CIFAR-10 (full width, logits out).

    ``64Conv3-64Conv3-128Conv3-128Conv3-512F-1024F-1024F-10F`` on 3x32x32
    inputs.  The first two CONV layers are traditional dense convolutions
    (the paper treats them as preprocessing, citing the TrueNorth paper);
    CONV 3-4 and the large FC layers are block-circulant.  2x2 max pooling
    after each CONV pair keeps the FC interface at the commonly used size
    (the paper omits pooling details).
    """
    rng = rng or np.random.default_rng()
    return Sequential(
        Conv2d(3, 64, 3, padding=1, rng=rng),
        ReLU(),
        Conv2d(64, 64, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        BlockCirculantConv2d(64, 128, 3, block_size=block_size, padding=1, rng=rng),
        ReLU(),
        BlockCirculantConv2d(128, 128, 3, block_size=block_size, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        BlockCirculantLinear(128 * 8 * 8, 512, block_size * 4, rng=rng),
        ReLU(),
        BlockCirculantLinear(512, 1024, block_size * 4, rng=rng),
        ReLU(),
        BlockCirculantLinear(1024, 1024, block_size * 4, rng=rng),
        ReLU(),
        Linear(1024, 10, rng=rng),
    )


def build_arch3_reduced(
    block_size: int = 8,
    width: int = 16,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Width-reduced Arch. 3 for training on the synthetic CIFAR stand-in.

    Preserves the paper's topology (2 dense CONV, 2 block-circulant CONV,
    3 block-circulant FC, dense classifier) at ``width`` channels instead
    of 64, so accuracy experiments run in seconds while exercising every
    layer type of the full network.
    """
    rng = rng or np.random.default_rng()
    w2 = width * 2
    return Sequential(
        Conv2d(3, width, 3, padding=1, rng=rng),
        ReLU(),
        Conv2d(width, width, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        BlockCirculantConv2d(width, w2, 3, block_size=block_size, padding=1, rng=rng),
        ReLU(),
        BlockCirculantConv2d(w2, w2, 3, block_size=block_size, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        BlockCirculantLinear(w2 * 8 * 8, 128, block_size * 4, rng=rng),
        ReLU(),
        BlockCirculantLinear(128, 128, block_size * 4, rng=rng),
        ReLU(),
        Linear(128, 10, rng=rng),
    )


# ----------------------------------------------------------------------
# Name-keyed architecture registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZooEntry:
    """One registered architecture: builder plus the facts a declarative
    caller (``PipelineConfig``, the CLI) needs to use it without importing
    the builder function.

    ``input_shape`` is the per-sample shape the built model consumes
    (``(features,)`` for FC nets, ``(channels, h, w)`` for CONV nets);
    ``dataset`` names the synthetic dataset the architecture is evaluated
    on in the paper (``"synthetic_mnist"`` / ``"synthetic_cifar"``).
    """

    name: str
    builder: Callable[..., Sequential]
    input_shape: tuple[int, ...]
    dataset: str
    description: str

    def build(self, **kwargs) -> Sequential:
        return self.builder(**kwargs)


_REGISTRY: dict[str, ZooEntry] = {}


def register(
    name: str,
    builder: Callable[..., Sequential],
    input_shape: tuple[int, ...],
    dataset: str,
    description: str = "",
) -> ZooEntry:
    """Register an architecture under ``name`` (returned as a ZooEntry).

    Registration is idempotent for identical entries; re-registering a
    name with a different builder raises.
    """
    new = ZooEntry(name, builder, tuple(input_shape), dataset, description)
    existing = _REGISTRY.get(name)
    if existing is not None and existing != new:
        raise ConfigurationError(
            f"architecture {name!r} is already registered"
        )
    _REGISTRY[name] = new
    return new


def names() -> tuple[str, ...]:
    """Registered architecture names, registration order."""
    return tuple(_REGISTRY)


def entry(name: str) -> ZooEntry:
    """The registry entry for ``name`` (ConfigurationError if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown architecture {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def get(name: str, **kwargs) -> Sequential:
    """Build a registered architecture by name.

    Keyword arguments pass through to the builder (``block_size``,
    ``width``, ``rng``, ...), so ``zoo.get("arch1", block_size=32)`` is
    the declarative spelling of ``build_arch1(block_size=32)``.
    """
    return entry(name).build(**kwargs)


def build_fftnet(
    channels: int = 32,
    depth: int = 4,
    classes: int = 16,
    in_channels: int = 1,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """FFTNet-style causal dilated sequence classifier (streaming arch).

    ``depth`` two-tap :class:`~repro.nn.FFTLayer1d` stages with dilations
    ``2^(depth-1), ..., 2, 1`` (receptive field ``2^depth`` samples),
    each followed by ReLU, then a ReLU'd :class:`~repro.nn.Pointwise1d`
    hidden projection and a pointwise classifier over the waveform
    quantization bins.  Time-major ``(batch, T, in_channels)`` in,
    ``(batch, T, classes)`` logits out — the architecture
    ``repro.streaming`` serves incrementally, one suffix push at a time.
    """
    if depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth}")
    rng = rng or np.random.default_rng()
    layers: list = []
    width = in_channels
    for level in range(depth):
        dilation = 2 ** (depth - 1 - level)
        layers += [FFTLayer1d(width, channels, dilation, rng=rng), ReLU()]
        width = channels
    layers += [
        Pointwise1d(width, channels, rng=rng),
        ReLU(),
        Pointwise1d(channels, classes, rng=rng),
    ]
    return Sequential(*layers)


register(
    "arch1", build_arch1, (256,), "synthetic_mnist",
    "Paper Arch. 1: 256 -> 128 (BC) -> 128 (BC) -> 10, MNIST 16x16",
)
register(
    "arch2", build_arch2, (121,), "synthetic_mnist",
    "Paper Arch. 2: 121 -> 64 (BC) -> 64 (BC) -> 10, MNIST 11x11",
)
register(
    "arch3", build_arch3, (3, 32, 32), "synthetic_cifar",
    "Paper Arch. 3: CIFAR-10 CONV network, full width",
)
register(
    "arch3_reduced", build_arch3_reduced, (3, 32, 32), "synthetic_cifar",
    "Width-reduced Arch. 3 for CI-scale training on synthetic CIFAR",
)
register(
    "fftnet", build_fftnet, (None, 1), "synthetic_wave",
    "FFTNet-style causal dilated sequence net (streaming), "
    "time-major (T, 1) waveform in, per-sample class logits out",
)
