"""Tests for the theoretical complexity formulas."""

import math

import pytest

from repro.analysis import (
    bc_conv_ops,
    bc_fc_ops,
    conv_speedup,
    crossover_block_size,
    dense_conv_ops,
    dense_fc_ops,
    fc_speedup,
)


class TestDenseFormulas:
    def test_dense_fc(self):
        assert dense_fc_ops(128, 256) == 2 * 128 * 256

    def test_dense_conv(self):
        # 30x30 positions, 64 filters, 3 channels, 3x3 kernels.
        assert dense_conv_ops(32, 32, 3, 3, 64) == 2 * 900 * 64 * 3 * 9

    def test_validation(self):
        with pytest.raises(ValueError):
            dense_fc_ops(0, 4)
        with pytest.raises(ValueError):
            dense_conv_ops(8, 8, 0, 3, 4)


class TestBlockCirculantFormulas:
    def test_block_one_no_fft(self):
        # b=1: no FFT terms, p*q products + accumulation.
        value = bc_fc_ops(4, 4, 1)
        assert value == 4 * 4 * 6 * 1 + 4 * 3 * 2 * 1

    def test_matches_cost_model(self, rng):
        # The closed form must agree with the per-layer cost model.
        from repro.embedded import count_model
        from repro.nn import BlockCirculantLinear, Sequential

        layer = BlockCirculantLinear(256, 128, 64, bias=False, rng=rng)
        counted = count_model(Sequential(layer), (256,)).flops
        assert bc_fc_ops(128, 256, 64) == pytest.approx(counted)

    def test_asymptotic_scaling(self):
        # Doubling n at fixed full-size block scales as ~4 n log n vs 4 n^2:
        # the BC growth factor must be well below the dense factor of 4.
        small = bc_fc_ops(512, 512, 512)
        large = bc_fc_ops(1024, 1024, 1024)
        assert large / small < 2.6  # ~2 * log ratio
        assert dense_fc_ops(1024, 1024) / dense_fc_ops(512, 512) == 4.0


class TestSpeedups:
    def test_fc_speedup_grows_with_size(self):
        speedups = [fc_speedup(n, n, n) for n in (64, 256, 1024, 4096)]
        assert all(a < b for a, b in zip(speedups, speedups[1:]))

    def test_fc_speedup_large_layer(self):
        # Paper's motivating case: big FC layers gain order-of-magnitude.
        assert fc_speedup(1024, 1024, 1024) > 20

    def test_conv_speedup_positive(self):
        assert conv_speedup(32, 32, 3, 64, 128, 32) > 1

    def test_conv_matches_positions_times_fc(self):
        positions = (16 - 3 + 1) ** 2
        assert bc_conv_ops(16, 16, 3, 8, 8, 4) == pytest.approx(
            positions * bc_fc_ops(8, 8 * 9, 4)
        )

    @pytest.mark.parametrize(
        "channels, filters, kernel, block",
        [(3, 16, 3, 8), (6, 8, 3, 4), (8, 8, 3, 4), (5, 12, 1, 4)],
    )
    def test_conv_counts_the_grid_the_layer_runs(
        self, rng, channels, filters, kernel, block
    ):
        # Each kernel position pads C up to ceil(C/b) blocks, so the
        # closed form must count q = k^2 ceil(C/b), as the layer does.
        from repro.embedded import count_model
        from repro.nn import BlockCirculantConv2d, Sequential

        layer = BlockCirculantConv2d(
            channels, filters, kernel, block_size=block, bias=False, rng=rng
        )
        counted = count_model(Sequential(layer), (channels, 12, 12)).flops
        assert bc_conv_ops(12, 12, kernel, channels, filters, block) == counted


class TestCrossover:
    def test_large_layer_has_crossover(self):
        block = crossover_block_size(512, 512)
        assert block is not None
        assert 2 <= block <= 512

    def test_tiny_layer_may_not_cross(self):
        result = crossover_block_size(2, 2)
        assert result is None or result <= 2

    def test_beyond_crossover_wins(self):
        block = crossover_block_size(256, 256)
        assert fc_speedup(256, 256, 256) > fc_speedup(256, 256, block) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            crossover_block_size(0, 4)
