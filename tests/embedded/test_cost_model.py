"""Tests for per-layer operation counting."""

import numpy as np
import pytest

from repro.embedded import (
    DeployedModel,
    complex_fft_ops,
    count_model,
    estimate_memory,
    real_fft_ops,
)
from repro.exceptions import ShapeError
from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
)
from repro.zoo import build_arch1, build_arch3_reduced, build_fftnet


class TestFftOps:
    def test_complex_cost_formula(self):
        assert complex_fft_ops(8) == pytest.approx(5 * 8 * 3)

    def test_real_is_half(self):
        assert real_fft_ops(16) == pytest.approx(complex_fft_ops(16) / 2)

    def test_length_one_free(self):
        assert complex_fft_ops(1) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            complex_fft_ops(0)


class TestLinearCosts:
    def test_dense_fc_flops(self, rng):
        model = Sequential(Linear(100, 50, rng=rng))
        cost = count_model(model, (100,))
        assert cost.flops == pytest.approx(2 * 50 * 100 + 50)
        assert cost.weight_bytes == (100 * 50 + 50) * 4

    def test_bc_fc_cheaper_than_dense_at_scale(self, rng):
        dense = count_model(Sequential(Linear(1024, 1024, rng=rng)), (1024,))
        bc = count_model(
            Sequential(BlockCirculantLinear(1024, 1024, 256, rng=rng)), (1024,)
        )
        assert bc.flops < dense.flops / 5
        assert bc.weight_bytes < dense.weight_bytes / 5

    def test_bc_fc_flop_structure(self, rng):
        layer = BlockCirculantLinear(8, 8, 4, rng=rng)
        cost = count_model(Sequential(layer), (8,))
        bins = 3
        expected = (
            2 * real_fft_ops(4)  # q FFTs
            + 2 * 2 * 6 * bins  # products
            + 2 * 1 * 2 * bins  # accumulation
            + 2 * real_fft_ops(4)  # p IFFTs
            + 8  # bias
        )
        assert cost.flops == pytest.approx(expected)

    def test_output_shape_tracking(self, rng):
        model = Sequential(Linear(12, 5, rng=rng), ReLU(), Linear(5, 3, rng=rng))
        cost = count_model(model, (12,))
        assert cost.output_shape == (3,)


class TestConvCosts:
    def test_dense_conv_flops(self, rng):
        model = Sequential(Conv2d(3, 8, 3, rng=rng))
        cost = count_model(model, (3, 10, 10))
        positions = 8 * 8
        assert cost.flops == pytest.approx(
            2 * positions * 8 * 3 * 9 + positions * 8
        )
        assert cost.output_shape == (8, 8, 8)

    def test_bc_conv_cheaper_than_dense(self, rng):
        dense = count_model(
            Sequential(Conv2d(64, 64, 3, rng=rng)), (64, 16, 16)
        )
        bc = count_model(
            Sequential(BlockCirculantConv2d(64, 64, 3, block_size=32, rng=rng)),
            (64, 16, 16),
        )
        assert bc.flops < dense.flops

    def test_pooling_shape_and_cost(self, rng):
        model = Sequential(MaxPool2d(2))
        cost = count_model(model, (4, 8, 8))
        assert cost.output_shape == (4, 4, 4)
        assert cost.flops == pytest.approx(4 * 16 * 4)

    def test_avgpool(self, rng):
        cost = count_model(Sequential(AvgPool2d(2)), (2, 4, 4))
        assert cost.output_shape == (2, 2, 2)


class TestAuxiliaryLayers:
    def test_relu_cost(self, rng):
        cost = count_model(Sequential(ReLU()), (100,))
        assert cost.flops == 100

    def test_softmax_cost(self):
        cost = count_model(Sequential(Softmax()), (10,))
        assert cost.flops == 50

    def test_dropout_free_at_inference(self):
        cost = count_model(Sequential(Dropout(0.5)), (64,))
        assert cost.flops == 0
        assert cost.library_calls == 0

    def test_flatten_free_and_reshapes(self):
        cost = count_model(Sequential(Flatten()), (3, 4, 4))
        assert cost.flops == 0
        assert cost.output_shape == (48,)

    def test_batchnorm_folded_cost(self):
        cost = count_model(Sequential(BatchNorm1d(32)), (32,))
        assert cost.flops == 64
        assert cost.weight_bytes == 2 * 32 * 4

    def test_unknown_layer_raises(self):
        from repro.nn import Module

        class Custom(Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError):
            count_model(Sequential(Custom()), (4,))

    def test_requires_sequential(self, rng):
        with pytest.raises(TypeError):
            count_model(Linear(4, 2, rng=rng), (4,))

    def test_empty_model_output_shape_raises(self):
        from repro.embedded import ModelCost

        with pytest.raises(ValueError):
            ModelCost().output_shape


class TestInputShapeChecks:
    def test_linear_rejects_wrong_feature_count(self, rng):
        with pytest.raises(ShapeError, match=r"layer 0 .*\(100,\).*\(10,\)"):
            count_model(Sequential(Linear(100, 50, rng=rng)), (10,))

    def test_conv_rejects_wrong_channel_count(self, rng):
        model = Sequential(Conv2d(3, 8, 3, rng=rng))
        with pytest.raises(ShapeError, match=r"layer 0 .*\(3, H, W\).*\(1, 10, 10\)"):
            count_model(model, (1, 10, 10))

    def test_bc_conv_rejects_flat_input(self, rng):
        model = Sequential(BlockCirculantConv2d(8, 8, 3, block_size=4, rng=rng))
        with pytest.raises(ShapeError, match="layer 0"):
            count_model(model, (8 * 10 * 10,))

    def test_names_the_failing_layer(self, rng):
        model = Sequential(
            Linear(12, 6, rng=rng), ReLU(),
            BlockCirculantLinear(8, 8, 4, rng=rng),
        )
        with pytest.raises(ShapeError, match=r"layer 2 .*\(8,\).*\(6,\)"):
            count_model(model, (12,))

    def test_memory_estimate_checks_too(self, rng):
        with pytest.raises(ShapeError, match="layer 0"):
            estimate_memory(Sequential(Linear(100, 50, rng=rng)), (10,))


class TestDeployedArtifacts:
    @pytest.mark.parametrize("quantize_bits", [None, 12])
    @pytest.mark.parametrize(
        "builder, shape",
        [(build_arch1, (256,)), (build_arch3_reduced, (3, 32, 32))],
        ids=("arch1", "arch3_reduced"),
    )
    def test_artifact_costs_like_its_model(
        self, tmp_path, builder, shape, quantize_bits
    ):
        model = builder(rng=np.random.default_rng(0))
        deployed = DeployedModel.from_model(model, quantize_bits=quantize_bits)
        path = tmp_path / "model.npz"
        deployed.save(path)
        live = count_model(model, shape)
        for artifact in (deployed, DeployedModel.load(path)):
            assert count_model(artifact, shape) == live

    def test_unsupported_kind_raises_type_error(self):
        model = build_fftnet(channels=4, depth=2, classes=3,
                             rng=np.random.default_rng(0))
        with pytest.raises(TypeError, match="fft1d"):
            count_model(model, (16, 1))
