"""Analytical runtime model for the paper's two software implementations.

The paper ships the same inference engine twice: through OpenCV's Java API
and through native C++ with the Android NDK (section V).  Each layer's
latency is modeled with a saturating-throughput law:

    time(layer) = flops / (peak * eff),   eff = flops / (flops + ramp)

equivalently ``time = (flops + ramp) / peak``: every kernel launch pays a
fixed ramp-up cost (JNI crossing, Mat allocation, cache warm-up) worth
``ramp`` flop-equivalents, and only layers much larger than ``ramp``
approach the platform's peak throughput.  ``peak`` is
``clock * relative_ipc * SIMD_LANES * peak_factor`` giga-ops/s, where the
``peak_factor`` separates the two software stacks: the C++/NDK build
reaches ~2.4x the sustained throughput of the Java binding (managed heap,
no NEON auto-vectorization across the JNI boundary).

This two-regime behavior is exactly what the paper's tables show: the
MNIST networks are launch-dominated (Arch. 1 is only 2-9% slower than the
half-size Arch. 2) while the CIFAR-10 network is throughput-dominated
(~60x slower despite ~6000x the arithmetic).

Calibration: the five free constants (two peak factors, the shared ramp,
two platform IPC ratios in :mod:`repro.embedded.platform`) were fit by
least squares to the 16 runtime measurements of paper Tables II and III;
the residuals are all within 11%.  The battery penalty reproduces the
section V-B observation: unplugged, Java degrades ~14% while C++ is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost_model import ModelCost
from .platform import PlatformSpec

__all__ = [
    "ImplementationProfile",
    "JAVA",
    "CPP",
    "IMPLEMENTATIONS",
    "SIMD_LANES",
    "estimate_runtime_us",
]

#: Effective NEON fp32 operations per cycle at full issue (4-wide FMA = 8
#: flops/cycle per core, times the 4 primary cores OpenCV parallelizes
#: across).
SIMD_LANES = 32.0


@dataclass(frozen=True)
class ImplementationProfile:
    """Software-stack efficiency parameters (see module docstring)."""

    name: str
    peak_factor: float  # fraction of SIMD peak the stack sustains
    ramp_flops: float  # per-kernel-launch overhead, in flop-equivalents
    battery_penalty: float  # latency multiplier when unplugged

    def __post_init__(self):
        if not 0.0 < self.peak_factor <= 1.0:
            raise ValueError(f"peak_factor must be in (0, 1], got {self.peak_factor}")
        if self.ramp_flops < 0:
            raise ValueError(f"ramp_flops must be >= 0, got {self.ramp_flops}")
        if self.battery_penalty < 1.0:
            raise ValueError(f"battery_penalty must be >= 1, got {self.battery_penalty}")


#: OpenCV through the Java API (JNI per call, managed heap).
JAVA = ImplementationProfile(
    name="Java",
    peak_factor=0.050,
    ramp_flops=2.5e5,
    battery_penalty=1.14,
)

#: OpenCV through native C++ (Android NDK).
CPP = ImplementationProfile(
    name="C++",
    peak_factor=0.122,
    ramp_flops=2.5e5,
    battery_penalty=1.0,
)

IMPLEMENTATIONS: dict[str, ImplementationProfile] = {"java": JAVA, "cpp": CPP}


def estimate_runtime_us(
    cost: ModelCost,
    platform: PlatformSpec,
    implementation: ImplementationProfile,
    battery: bool = False,
) -> float:
    """Predicted per-image inference latency in microseconds."""
    peak_gops = (
        platform.effective_gops * SIMD_LANES * implementation.peak_factor
    )
    total_us = 0.0
    for layer in cost.layers:
        if layer.flops <= 0.0:
            continue  # reshapes and inference no-ops launch no kernel
        total_us += (layer.flops + implementation.ramp_flops) / (peak_gops * 1e3)
    if battery:
        total_us *= implementation.battery_penalty
    return total_us
