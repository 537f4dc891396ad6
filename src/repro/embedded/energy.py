"""Energy model for the Table I platforms.

The paper's introduction motivates embedded deployment with "portability,
versatility, and energy efficiency", and its TrueNorth comparison is
implicitly an energy story (TrueNorth's selling point is mW-scale
inference).  This module extends the runtime simulator with a
first-order race-to-idle energy estimate:

    energy = P_active * t_inference

with per-platform active (and, for reference, idle) power for the
primary cluster.  The power
numbers are representative publicly-documented figures for each SoC
generation (big-core cluster under NEON load), good to tens of percent —
enough for the cross-platform and Java-vs-C++ *ratios*, which is what an
energy comparison needs.

A slower implementation on the same device costs proportionally more
energy (race-to-idle): the Java path burns ~2.4x the Joules of the C++
path for the same prediction, which is the deployment-relevant
conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.module import Sequential
from .platform import PlatformSpec, get_platform
from .profiler import InferenceProfiler
from .runtime_model import IMPLEMENTATIONS, ImplementationProfile

__all__ = ["PowerProfile", "POWER_PROFILES", "EnergyEstimate", "EnergyModel"]


@dataclass(frozen=True)
class PowerProfile:
    """Cluster power under sustained NEON load and at idle, in watts."""

    active_watts: float
    idle_watts: float

    def __post_init__(self):
        if self.active_watts <= 0:
            raise ValueError(f"active_watts must be positive, got {self.active_watts}")
        if not 0 <= self.idle_watts < self.active_watts:
            raise ValueError(
                f"idle_watts must be in [0, active): {self.idle_watts} "
                f"vs {self.active_watts}"
            )


#: Representative big-cluster power figures per device (4 cores loaded).
POWER_PROFILES: dict[str, PowerProfile] = {
    # Krait 400 @ 2.3 GHz (28 nm HPM): ~3.5 W cluster under NEON load.
    "nexus5": PowerProfile(active_watts=3.5, idle_watts=0.35),
    # Cortex-A15 @ 2.1 GHz (28 nm): the classically power-hungry big core.
    "xu3": PowerProfile(active_watts=4.5, idle_watts=0.45),
    # Cortex-A53 @ 2.1 GHz (16 nm): the efficiency-oriented ARMv8 core.
    "honor6x": PowerProfile(active_watts=1.8, idle_watts=0.20),
}


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy accounting for one inference."""

    platform: str
    implementation: str
    runtime_us: float
    energy_uj: float

    @property
    def images_per_joule(self) -> float:
        return 1e6 / self.energy_uj


class EnergyModel:
    """Per-inference energy estimates for a model on the paper's devices.

    >>> model = build_arch1()
    >>> EnergyModel(model, (256,)).estimate("honor6x", "cpp").energy_uj
    """

    def __init__(self, model: Sequential, input_shape: tuple[int, ...]):
        self.profiler = InferenceProfiler(model, input_shape)
        self.cost = self.profiler.cost

    def estimate(
        self,
        platform: str | PlatformSpec,
        implementation: str | ImplementationProfile,
        battery: bool = False,
    ) -> EnergyEstimate:
        """Energy of one inference in microjoules."""
        platform_key = (
            platform if isinstance(platform, str) else _key_for(platform)
        )
        power = POWER_PROFILES.get(platform_key)
        if power is None:
            raise KeyError(
                f"no power profile for platform {platform_key!r}; "
                f"available: {sorted(POWER_PROFILES)}"
            )
        impl_key = (
            implementation
            if isinstance(implementation, str)
            else implementation.name.lower().replace("+", "p")
        )
        runtime_us = self.profiler.runtime_us(platform, implementation, battery)
        energy_uj = power.active_watts * runtime_us  # W * us = uJ
        return EnergyEstimate(
            platform=platform_key,
            implementation=impl_key,
            runtime_us=runtime_us,
            energy_uj=energy_uj,
        )

    def sweep(self, battery: bool = False) -> list[EnergyEstimate]:
        """Estimates for every (platform, implementation) pair."""
        return [
            self.estimate(platform, impl, battery)
            for impl in sorted(IMPLEMENTATIONS)
            for platform in sorted(POWER_PROFILES)
        ]

    def most_efficient(self, battery: bool = False) -> EnergyEstimate:
        """The (platform, implementation) pair with the lowest energy."""
        return min(self.sweep(battery), key=lambda e: e.energy_uj)


def _key_for(platform: PlatformSpec) -> str:
    for key in POWER_PROFILES:
        if get_platform(key) is platform:
            return key
    raise KeyError(f"platform {platform.name!r} is not in the power registry")
