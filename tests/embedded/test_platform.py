"""Tests for platform specifications (paper Table I)."""

import pytest

from repro.embedded import PLATFORMS, CpuCluster, PlatformSpec, get_platform


#: Paper Table I, verbatim.
PAPER_TABLE1 = [
    ("LG Nexus 5", "6 (Marshmallow)", "4 x 2.3GHz Krait 400", "-",
     "ARMv7-A", "Adreno 330", "2"),
    ("Odroid XU3", "7 (Nougat)", "4 x 2.1GHz Cortex-A15",
     "4 x 1.5GHz Cortex-A7", "ARMv7-A", "Mali T628", "2"),
    ("Huawei Honor 6X", "7 (Nougat)", "4 x 2.1GHz Cortex-A53",
     "4 x 1.7GHz Cortex-A53", "ARMv8-A", "Mali T830", "3"),
]


class TestTableI:
    def test_all_three_devices_present(self):
        assert set(PLATFORMS) == {"nexus5", "xu3", "honor6x"}

    def test_nexus5_spec(self):
        spec = PLATFORMS["nexus5"]
        assert spec.name == "LG Nexus 5"
        assert spec.primary_cpu.clock_ghz == 2.3
        assert spec.primary_cpu.cores == 4
        assert spec.primary_cpu.microarchitecture == "Krait 400"
        assert spec.companion_cpu is None
        assert spec.cpu_architecture == "ARMv7-A"
        assert spec.gpu == "Adreno 330"
        assert spec.ram_gb == 2

    def test_xu3_spec(self):
        spec = PLATFORMS["xu3"]
        assert spec.primary_cpu.describe() == "4 x 2.1GHz Cortex-A15"
        assert spec.companion_cpu.describe() == "4 x 1.5GHz Cortex-A7"
        assert spec.android_version == "7 (Nougat)"

    def test_honor6x_spec(self):
        spec = PLATFORMS["honor6x"]
        assert spec.cpu_architecture == "ARMv8-A"
        assert spec.ram_gb == 3
        assert spec.companion_cpu.clock_ghz == 1.7

    def test_table_rows_have_seven_columns(self):
        for spec in PLATFORMS.values():
            assert len(spec.table_row()) == 7

    def test_registry_reproduces_paper_table(self):
        rows = [spec.table_row() for spec in PLATFORMS.values()]
        assert sorted(rows) == sorted(PAPER_TABLE1)

    def test_device_speed_ordering(self):
        # The paper's measured ordering: Honor 6X fastest, Nexus 5 slowest.
        gops = {k: p.effective_gops for k, p in PLATFORMS.items()}
        assert gops["honor6x"] > gops["xu3"] > gops["nexus5"]


class TestLookup:
    def test_get_platform(self):
        assert get_platform("xu3") is PLATFORMS["xu3"]

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_platform("pixel9")


class TestValidation:
    def test_cluster_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CpuCluster(0, 2.0, "X")
        with pytest.raises(ValueError):
            CpuCluster(4, 0.0, "X")

    def test_spec_rejects_bad_values(self):
        cluster = CpuCluster(4, 2.0, "X")
        with pytest.raises(ValueError):
            PlatformSpec("n", "a", cluster, None, "v7", "gpu", 0, 1.0)
        with pytest.raises(ValueError):
            PlatformSpec("n", "a", cluster, None, "v7", "gpu", 2, 0.0)

    def test_specs_frozen(self):
        with pytest.raises(AttributeError):
            PLATFORMS["xu3"].ram_gb = 8
