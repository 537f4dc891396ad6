"""IBM TrueNorth reference points and the Fig. 5 comparison.

The paper's Fig. 5 plots accuracy against per-image latency for its own
MNIST / CIFAR-10 deployments and for IBM TrueNorth, whose numbers the
paper quotes from Esser et al. [31] (2016, CIFAR-10) and [32] (2015,
MNIST).  TrueNorth hardware is obviously not available; the published
numbers are encoded here as data together with helpers that assemble
the full Fig. 5 point set from our measured results.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ComparisonPoint",
    "TRUENORTH_MNIST",
    "TRUENORTH_CIFAR10",
    "TRUENORTH_REFERENCES",
    "fig5_points",
]


@dataclass(frozen=True)
class ComparisonPoint:
    """One point of the Fig. 5 scatter."""

    system: str
    dataset: str
    accuracy_percent: float
    runtime_us_per_image: float
    cores: int
    source: str

    def __post_init__(self):
        if not 0.0 <= self.accuracy_percent <= 100.0:
            raise ValueError(
                f"accuracy must be a percentage, got {self.accuracy_percent}"
            )
        if self.runtime_us_per_image <= 0:
            raise ValueError(
                f"runtime must be positive, got {self.runtime_us_per_image}"
            )
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")


#: MNIST on TrueNorth (paper section V-D, quoting Esser et al. 2015 [32]).
TRUENORTH_MNIST = ComparisonPoint(
    system="IBM TrueNorth",
    dataset="MNIST",
    accuracy_percent=95.0,
    runtime_us_per_image=1000.0,
    cores=4096,
    source="Esser et al., NIPS 2015 [32]",
)

#: CIFAR-10 on TrueNorth (paper section V-D, quoting Esser et al. 2016 [31]).
TRUENORTH_CIFAR10 = ComparisonPoint(
    system="IBM TrueNorth",
    dataset="CIFAR-10",
    accuracy_percent=83.41,
    runtime_us_per_image=800.0,
    cores=4096,
    source="Esser et al., PNAS 2016 [31]",
)

TRUENORTH_REFERENCES = (TRUENORTH_MNIST, TRUENORTH_CIFAR10)

#: Core count of the paper's test platforms (one or two quad-core ARM
#: clusters; the paper contrasts this with TrueNorth's 4096 ASIC cores).
ARM_CORES = 8


def fig5_points(
    mnist_accuracy_percent: float,
    mnist_runtime_us: float,
    cifar_accuracy_percent: float,
    cifar_runtime_us: float,
) -> list[ComparisonPoint]:
    """Assemble the four Fig. 5 points: our method + TrueNorth, both datasets."""
    ours = [
        ComparisonPoint(
            system="Our Method",
            dataset="MNIST",
            accuracy_percent=mnist_accuracy_percent,
            runtime_us_per_image=mnist_runtime_us,
            cores=ARM_CORES,
            source="this reproduction (best device, C++)",
        ),
        ComparisonPoint(
            system="Our Method",
            dataset="CIFAR-10",
            accuracy_percent=cifar_accuracy_percent,
            runtime_us_per_image=cifar_runtime_us,
            cores=ARM_CORES,
            source="this reproduction (best device, C++)",
        ),
    ]
    return ours + list(TRUENORTH_REFERENCES)


def speedup_vs_truenorth(dataset: str, runtime_us: float) -> float:
    """TrueNorth-over-ours latency ratio (>1 means we are faster).

    The paper reports ~10x faster on MNIST and ~10x slower on CIFAR-10.
    """
    reference = {
        "MNIST": TRUENORTH_MNIST,
        "CIFAR-10": TRUENORTH_CIFAR10,
    }.get(dataset)
    if reference is None:
        raise KeyError(f"no TrueNorth reference for dataset {dataset!r}")
    if runtime_us <= 0:
        raise ValueError(f"runtime must be positive, got {runtime_us}")
    return reference.runtime_us_per_image / runtime_us
