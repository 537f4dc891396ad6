"""Tests for the calibrated runtime model (paper Tables II-III shapes)."""

import numpy as np
import pytest

from repro.embedded import (
    CPP,
    JAVA,
    ImplementationProfile,
    InferenceProfiler,
)
from repro.zoo import build_arch1, build_arch2, build_arch3

#: Paper Table II / III measurements: (profiler args, impl, platform) -> us.
PAPER_RUNTIMES = {
    ("arch1", "java", "nexus5"): 359.6,
    ("arch1", "java", "xu3"): 294.1,
    ("arch1", "java", "honor6x"): 256.7,
    ("arch1", "cpp", "nexus5"): 140.0,
    ("arch1", "cpp", "xu3"): 122.0,
    ("arch1", "cpp", "honor6x"): 101.0,
    ("arch2", "java", "nexus5"): 350.9,
    ("arch2", "java", "xu3"): 278.2,
    ("arch2", "java", "honor6x"): 221.7,
    ("arch2", "cpp", "nexus5"): 128.5,
    ("arch2", "cpp", "xu3"): 119.1,
    ("arch2", "cpp", "honor6x"): 98.5,
    ("arch3", "java", "xu3"): 21032.0,
    ("arch3", "java", "honor6x"): 19785.0,
    ("arch3", "cpp", "xu3"): 8912.0,
    ("arch3", "cpp", "honor6x"): 8244.0,
}


@pytest.fixture(scope="module")
def profilers():
    rng = np.random.default_rng(0)
    return {
        "arch1": InferenceProfiler(build_arch1(rng=rng), (256,)),
        "arch2": InferenceProfiler(build_arch2(rng=rng), (121,)),
        "arch3": InferenceProfiler(build_arch3(rng=rng), (3, 32, 32)),
    }


class TestCalibrationAccuracy:
    @pytest.mark.parametrize("key", sorted(PAPER_RUNTIMES))
    def test_within_15_percent_of_paper(self, profilers, key):
        arch, impl, platform = key
        predicted = profilers[arch].runtime_us(platform, impl)
        paper = PAPER_RUNTIMES[key]
        assert predicted == pytest.approx(paper, rel=0.15)


class TestShapeClaims:
    def test_cpp_faster_than_java_everywhere(self, profilers):
        for arch in ("arch1", "arch2", "arch3"):
            for platform in ("nexus5", "xu3", "honor6x"):
                ratio = profilers[arch].speedup(platform)
                # Paper: C++ 60-160% faster; ratio in (1.6, 3.0).
                assert 1.6 < ratio < 3.0, (arch, platform, ratio)

    @pytest.mark.parametrize(
        "arch,platform,low,high",
        [(a, p, 1.8, 3.2) for a in ("arch1", "arch2")
         for p in ("nexus5", "xu3", "honor6x")]
        + [("arch3", p, 2.0, 2.9) for p in ("xu3", "honor6x")],
    )
    def test_java_cpp_ratio_in_paper_band(self, profilers, arch, platform,
                                          low, high):
        # Table II: C++ 1.8-3.2x faster per cell; Table III: 2.0-2.9x.
        java = profilers[arch].runtime_us(platform, "java")
        cpp = profilers[arch].runtime_us(platform, "cpp")
        assert low < java / cpp < high

    def test_device_ordering(self, profilers):
        # Honor 6X < XU3 < Nexus 5 in latency (paper Tables II).
        for arch in ("arch1", "arch2"):
            for impl in ("java", "cpp"):
                runtimes = [
                    profilers[arch].runtime_us(p, impl)
                    for p in ("honor6x", "xu3", "nexus5")
                ]
                assert runtimes[0] < runtimes[1] < runtimes[2]

    def test_arch1_slower_than_arch2(self, profilers):
        # Bigger network => more time, but only slightly (launch-dominated).
        for impl in ("java", "cpp"):
            t1 = profilers["arch1"].runtime_us("nexus5", impl)
            t2 = profilers["arch2"].runtime_us("nexus5", impl)
            assert t1 > t2
            assert (t1 - t2) / t2 < 0.35

    def test_cifar_much_slower_than_mnist(self, profilers):
        t3 = profilers["arch3"].runtime_us("xu3", "cpp")
        t1 = profilers["arch1"].runtime_us("xu3", "cpp")
        assert t3 / t1 > 25

    def test_battery_mode_java_only(self, profilers):
        # Paper: Java degrades ~14% on battery, C++ unchanged.
        p = profilers["arch1"]
        assert p.runtime_us("nexus5", "java", battery=True) == pytest.approx(
            1.14 * p.runtime_us("nexus5", "java")
        )
        assert p.runtime_us("nexus5", "cpp", battery=True) == pytest.approx(
            p.runtime_us("nexus5", "cpp")
        )

    @pytest.mark.parametrize("platform", ("nexus5", "xu3", "honor6x"))
    @pytest.mark.parametrize("impl,penalty", (("java", 0.14), ("cpp", 0.0)))
    @pytest.mark.parametrize("arch", ("arch1", "arch2"))
    def test_battery_penalty_every_cell(self, profilers, arch, impl, penalty,
                                        platform):
        # Section V-B, every MNIST cell: Java +14% on battery, C++ unchanged.
        plugged = profilers[arch].runtime_us(platform, impl)
        battery = profilers[arch].runtime_us(platform, impl, battery=True)
        assert battery / plugged - 1.0 == pytest.approx(penalty, abs=1e-9)


class TestProfilerApi:
    def test_sweep_covers_grid(self, profilers):
        entries = profilers["arch1"].sweep()
        assert len(entries) == 6  # 3 platforms x 2 implementations
        assert all(e.runtime_us > 0 for e in entries)

    def test_sweep_subset(self, profilers):
        entries = profilers["arch3"].sweep(
            platforms=["xu3", "honor6x"], implementations=["cpp"]
        )
        assert len(entries) == 2

    def test_unknown_platform_raises(self, profilers):
        with pytest.raises(KeyError):
            profilers["arch1"].runtime_us("pixel", "cpp")

    def test_unknown_implementation_raises(self, profilers):
        with pytest.raises(KeyError):
            profilers["arch1"].runtime_us("xu3", "rust")

    def test_profile_accepts_objects(self, profilers):
        from repro.embedded import get_platform

        value = profilers["arch1"].runtime_us(get_platform("xu3"), CPP)
        assert value == profilers["arch1"].runtime_us("xu3", "cpp")


class TestImplementationProfiles:
    def test_java_slower_constants(self):
        assert JAVA.peak_factor < CPP.peak_factor
        assert JAVA.battery_penalty > CPP.battery_penalty

    def test_validation(self):
        with pytest.raises(ValueError):
            ImplementationProfile("x", 0.0, 1e5, 1.0)
        with pytest.raises(ValueError):
            ImplementationProfile("x", 0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            ImplementationProfile("x", 0.5, 1e5, 0.9)
