"""Memory-footprint model for deployment (paper challenges (i) and (ii)).

The paper's introduction names two embedded constraints: the *download
size* of the model (communication bandwidth, challenge (i)) and the
*memory requirement* at inference time (challenge (ii)); its Java-vs-C++
discussion further blames Android's per-app Java heap limits for part of
the Java slowdown.  This module quantifies all three:

* download/storage size of the deployed artifact,
* peak working-set during one inference: resident weights plus the two
  largest adjacent activation buffers (layers execute sequentially, so
  only consecutive input/output activations coexist),
* a check against a platform's RAM and against a Java-heap-style cap.

Estimates are precision-aware: ``precision`` selects the
:class:`~repro.precision.PrecisionPolicy` the frozen runtime would run
at.  The default (``None`` or ``"fp32"``) prices the deployed artifact's
own dtypes — complex64 spectra and float32 activations, exactly what an
fp32 :class:`~repro.runtime.InferenceSession` keeps resident.  ``"fp64"``
prices the widened session (complex128 spectra, float64 activations):
twice every buffer, which is precisely why the fp32 inference mode
exists for RAM-constrained targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..nn.module import Sequential
from ..precision import PrecisionPolicy
from .cost_model import _FLOAT_BYTES, count_model
from .platform import PlatformSpec, get_platform

__all__ = ["MemoryFootprint", "estimate_memory", "fits_on_platform"]

#: Default Android per-app Java heap cap of the paper's device era (MB).
DEFAULT_JAVA_HEAP_MB = 192.0


@dataclass(frozen=True)
class MemoryFootprint:
    """Memory accounting for one deployed model."""

    weight_bytes: int
    peak_activation_bytes: int
    activation_bytes_per_layer: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        """Weights + peak pair of adjacent activation buffers."""
        return self.weight_bytes + self.peak_activation_bytes

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def estimate_memory(
    model: Sequential,
    input_shape: tuple[int, ...],
    batch_size: int = 1,
    precision: str | PrecisionPolicy | None = None,
) -> MemoryFootprint:
    """Estimate the inference working set of ``model`` at ``precision``.

    Activation sizes are traced through the cost model's shape
    propagation, which raises :class:`~repro.exceptions.ShapeError` when
    a layer's input does not fit it; the peak is the largest sum of two
    consecutive buffers (input of a layer + its output), times
    ``batch_size``.  The cost model prices weights at the artifact
    dtypes (complex64 spectra / float32 dense); an fp64 session widens
    every resident buffer, so ``precision="fp64"`` doubles both terms
    while the default fp32 numbers match the stored artifact — the
    complex64 spectra are half the fp64 spectrum footprint.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    policy = PrecisionPolicy.resolve(precision if precision is not None else "fp32")
    # Artifact dtypes are single precision; fp64 sessions widen 2x.
    scale = policy.real_itemsize // _FLOAT_BYTES
    element_bytes = _FLOAT_BYTES * scale
    cost = count_model(model, tuple(input_shape))
    activation_sizes = [math.prod(input_shape) * element_bytes * batch_size]
    for layer in cost.layers:
        activation_sizes.append(
            math.prod(layer.output_shape) * element_bytes * batch_size
        )
    peak = max(
        activation_sizes[i] + activation_sizes[i + 1]
        for i in range(len(activation_sizes) - 1)
    )
    return MemoryFootprint(
        weight_bytes=cost.weight_bytes * scale,
        peak_activation_bytes=peak,
        activation_bytes_per_layer=tuple(activation_sizes),
    )


def fits_on_platform(
    footprint: MemoryFootprint,
    platform: str | PlatformSpec,
    java: bool = False,
    java_heap_mb: float = DEFAULT_JAVA_HEAP_MB,
) -> bool:
    """Whether the working set fits the device (and the Java heap cap).

    The C++ path is limited only by device RAM ("applications written in
    C++ have an unlimited heap size", paper section V-B); the Java path
    must additionally fit the per-app heap cap.
    """
    if isinstance(platform, str):
        platform = get_platform(platform)
    ram_bytes = platform.ram_gb * 1024**3
    if footprint.total_bytes > ram_bytes:
        return False
    if java and footprint.total_mb > java_heap_mb:
        return False
    return True
