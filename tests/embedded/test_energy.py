"""Tests for the energy model."""

import numpy as np
import pytest

from repro.embedded import (
    POWER_PROFILES,
    EnergyModel,
    PowerProfile,
    get_platform,
)
from repro.zoo import build_arch1, build_arch3


@pytest.fixture(scope="module")
def arch1_energy():
    return EnergyModel(build_arch1(rng=np.random.default_rng(0)), (256,))


@pytest.fixture(scope="module")
def arch3_energy():
    return EnergyModel(build_arch3(rng=np.random.default_rng(0)), (3, 32, 32))


class TestPowerProfiles:
    def test_all_platforms_covered(self):
        from repro.embedded import PLATFORMS

        assert set(POWER_PROFILES) == set(PLATFORMS)

    def test_a53_most_efficient_core(self):
        # 16 nm A53 draws less than 28 nm Krait/A15 at similar clocks.
        assert POWER_PROFILES["honor6x"].active_watts < min(
            POWER_PROFILES["nexus5"].active_watts,
            POWER_PROFILES["xu3"].active_watts,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerProfile(active_watts=0.0, idle_watts=0.0)
        with pytest.raises(ValueError):
            PowerProfile(active_watts=1.0, idle_watts=2.0)


class TestEnergyModel:
    def test_energy_is_power_times_time(self, arch1_energy):
        estimate = arch1_energy.estimate("xu3", "cpp")
        expected = POWER_PROFILES["xu3"].active_watts * estimate.runtime_us
        assert estimate.energy_uj == pytest.approx(expected)

    @pytest.mark.parametrize("energy", ["arch1_energy", "arch3_energy"])
    def test_java_costs_more_energy(self, energy, request):
        model = request.getfixturevalue(energy)
        for platform in POWER_PROFILES:
            java = model.estimate(platform, "java").energy_uj
            cpp = model.estimate(platform, "cpp").energy_uj
            assert java > 1.5 * cpp, platform

    def test_most_efficient_is_honor6x_cpp(self, arch1_energy):
        best = arch1_energy.most_efficient()
        assert best.platform == "honor6x"
        assert best.implementation == "cpp"

    def test_sweep_covers_grid(self, arch1_energy):
        estimates = arch1_energy.sweep()
        assert len(estimates) == 6
        assert all(e.energy_uj > 0 for e in estimates)

    def test_battery_raises_java_energy(self, arch1_energy):
        plugged = arch1_energy.estimate("nexus5", "java").energy_uj
        battery = arch1_energy.estimate("nexus5", "java", battery=True).energy_uj
        assert battery == pytest.approx(1.14 * plugged)

    def test_images_per_joule(self, arch1_energy):
        estimate = arch1_energy.estimate("honor6x", "cpp")
        assert estimate.images_per_joule == pytest.approx(
            1e6 / estimate.energy_uj
        )

    def test_accepts_platform_object(self, arch1_energy):
        by_key = arch1_energy.estimate("xu3", "cpp").energy_uj
        by_obj = arch1_energy.estimate(get_platform("xu3"), "cpp").energy_uj
        assert by_key == pytest.approx(by_obj)

    def test_unknown_platform_raises(self, arch1_energy):
        with pytest.raises(KeyError):
            arch1_energy.estimate("pixel", "cpp")

    def test_cifar_costs_more_than_mnist(self, arch1_energy, arch3_energy):
        mnist = arch1_energy.estimate("honor6x", "cpp").energy_uj
        cifar = arch3_energy.estimate("honor6x", "cpp").energy_uj
        assert cifar > 20 * mnist
