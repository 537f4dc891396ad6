"""Embedded-platform simulation and deployment (paper sections V, Fig. 4).

* :data:`PLATFORMS` — the devices of paper Table I,
* :func:`count_model` — per-layer operation counts of a live model or a
  deployed artifact, read off its layer records by one table that
  :func:`estimate_memory`, the profiler, the energy model and
  :func:`~repro.analysis.storage_report` are views over,
* :class:`InferenceProfiler` — predicted per-image latency per platform
  and implementation (Java / C++), calibrated against Tables II-III,
* :class:`DeployedModel` — the standalone FFT-domain inference engine.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "..analysis.complexity": ["complex_fft_ops", "real_fft_ops"],
        ".cost_model": ["LayerCost", "ModelCost", "count_model"],
        ".deploy": ["DeployedModel"],
        ".energy": [
            "POWER_PROFILES", "EnergyEstimate", "EnergyModel", "PowerProfile",
        ],
        ".memory": ["MemoryFootprint", "estimate_memory", "fits_on_platform"],
        ".platform": [
            "PLATFORMS", "CpuCluster", "PlatformSpec", "get_platform",
        ],
        ".profiler": ["InferenceProfiler", "ProfileEntry"],
        ".runtime_model": [
            "CPP", "IMPLEMENTATIONS", "JAVA", "ImplementationProfile",
            "estimate_runtime_us",
        ],
    },
)
