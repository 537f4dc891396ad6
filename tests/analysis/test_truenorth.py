"""Tests for the TrueNorth reference data and Fig. 5 helpers."""

import numpy as np
import pytest

from repro.analysis import (
    ARM_CORES,
    TRUENORTH_CIFAR10,
    TRUENORTH_MNIST,
    ComparisonPoint,
    fig5_points,
    speedup_vs_truenorth,
)
from repro.embedded import InferenceProfiler
from repro.zoo import ARCH1_INPUT_SIDE, build_arch1, build_arch3


class TestReferencePoints:
    def test_mnist_numbers_match_paper(self):
        # Section V-D: 95% accuracy, 1000 us/image.
        assert TRUENORTH_MNIST.accuracy_percent == 95.0
        assert TRUENORTH_MNIST.runtime_us_per_image == 1000.0
        assert TRUENORTH_MNIST.cores == 4096

    def test_cifar_numbers_match_paper(self):
        # Section V-D: 83.41% accuracy, 800 us/image.
        assert TRUENORTH_CIFAR10.accuracy_percent == 83.41
        assert TRUENORTH_CIFAR10.runtime_us_per_image == 800.0

    def test_core_ratio_claim(self):
        # "4,096 ASIC cores ... around 500-1000 times more than our
        # testing platform".
        ratio = TRUENORTH_MNIST.cores / ARM_CORES
        assert 400 <= ratio <= 1100

    def test_point_validation(self):
        with pytest.raises(ValueError):
            ComparisonPoint("x", "d", 120.0, 10.0, 1, "s")
        with pytest.raises(ValueError):
            ComparisonPoint("x", "d", 50.0, -1.0, 1, "s")
        with pytest.raises(ValueError):
            ComparisonPoint("x", "d", 50.0, 10.0, 0, "s")


class TestFig5:
    def test_four_points(self):
        points = fig5_points(95.5, 101.0, 80.2, 8244.0)
        assert len(points) == 4
        systems = {(p.system, p.dataset) for p in points}
        assert ("Our Method", "MNIST") in systems
        assert ("IBM TrueNorth", "CIFAR-10") in systems

    def test_paper_headline_speedups(self):
        # Paper: ~10x faster than TrueNorth on MNIST at ~100 us.
        assert speedup_vs_truenorth("MNIST", 101.0) == pytest.approx(9.9, rel=0.1)
        # Paper: ~10x slower on CIFAR-10 at ~8000+ us.
        assert speedup_vs_truenorth("CIFAR-10", 8244.0) < 0.2

    def test_profiled_speedups_within_paper_bands(self):
        # Fig. 5 from the profiler's best-device C++ runtimes (architecture
        # only, no training): ~10x faster on MNIST, ~10x slower on CIFAR-10.
        rng = np.random.default_rng(0)
        mnist_us = InferenceProfiler(
            build_arch1(rng=rng), (ARCH1_INPUT_SIDE**2,)
        ).runtime_us("honor6x", "cpp")
        cifar_us = InferenceProfiler(
            build_arch3(rng=rng), (3, 32, 32)
        ).runtime_us("honor6x", "cpp")
        assert 5.0 < speedup_vs_truenorth("MNIST", mnist_us) < 20.0
        assert 0.05 < speedup_vs_truenorth("CIFAR-10", cifar_us) < 0.2

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            speedup_vs_truenorth("ImageNet", 100.0)

    def test_invalid_runtime_raises(self):
        with pytest.raises(ValueError):
            speedup_vs_truenorth("MNIST", 0.0)
