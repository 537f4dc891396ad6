"""Tests for the storage analysis (paper's O(n) storage claim)."""

import numpy as np
import pytest

from repro.analysis import storage_report
from repro.nn import (
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Linear,
    ReLU,
    Sequential,
)
from repro.zoo import build_arch1, build_arch2, build_arch3


class TestStorageReport:
    def test_dense_linear_row(self, rng):
        report = storage_report(Sequential(Linear(10, 5, rng=rng)))
        row = report.rows[0]
        assert row.dense_params == 10 * 5 + 5
        assert row.stored_params == row.dense_params
        assert row.compression == 1.0

    def test_bc_linear_compression(self, rng):
        report = storage_report(
            Sequential(BlockCirculantLinear(256, 128, 64, bias=False, rng=rng))
        )
        row = report.rows[0]
        assert row.dense_params == 256 * 128
        assert row.stored_params == 2 * 4 * 64
        assert row.compression == pytest.approx(64.0)

    def test_bc_conv_row(self, rng):
        report = storage_report(
            Sequential(BlockCirculantConv2d(8, 8, 3, block_size=4, bias=False,
                                            rng=rng))
        )
        row = report.rows[0]
        assert row.dense_params == 8 * 8 * 9
        assert row.compression == pytest.approx(4.0)

    def test_activation_layers_skipped(self, rng):
        report = storage_report(
            Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        )
        assert len(report.rows) == 2

    def test_totals_sum_rows(self, rng):
        model = Sequential(
            BlockCirculantLinear(64, 64, 16, rng=rng), ReLU(),
            Linear(64, 10, rng=rng)
        )
        report = storage_report(model)
        assert report.dense_params == sum(r.dense_params for r in report.rows)
        assert report.stored_params == sum(r.stored_params for r in report.rows)

    def test_arch1_compresses(self, rng):
        report = storage_report(build_arch1(rng=rng))
        # Two BC layers dominate; total compression must be substantial.
        assert report.compression > 5.0
        assert report.deployed_bytes < report.dense_bytes

    @pytest.mark.parametrize(
        "builder", (build_arch1, build_arch2, build_arch3),
        ids=("arch1", "arch2", "arch3"),
    )
    def test_paper_architectures_compress(self, rng, builder):
        # Section IV-A: every paper network stores > 3x fewer parameters.
        assert storage_report(builder(rng=rng)).compression > 3.0

    def test_block_size_sweep_is_the_compression_knob(self):
        # Bigger blocks store strictly fewer Arch. 1 parameters, up to the
        # whole-circulant extreme (block 128).
        reports = [
            storage_report(build_arch1(block_size=b, rng=np.random.default_rng(0)))
            for b in (8, 16, 32, 64, 128)
        ]
        stored = [r.stored_params for r in reports]
        compression = [r.compression for r in reports]
        assert all(a > b for a, b in zip(stored, stored[1:]))
        assert all(a < b for a, b in zip(compression, compression[1:]))

    def test_stored_params_match_model(self, rng):
        model = build_arch1(rng=rng)
        report = storage_report(model)
        assert report.stored_params == model.parameter_count()

    def test_no_weight_layers_raises(self):
        with pytest.raises(ValueError):
            storage_report(Sequential(ReLU()))

    def test_requires_sequential(self, rng):
        with pytest.raises(TypeError):
            storage_report(Linear(4, 2, rng=rng))

    def test_conv_row(self, rng):
        report = storage_report(Sequential(Conv2d(3, 8, 3, rng=rng)))
        assert report.rows[0].dense_params == 8 * 3 * 9 + 8
