"""Tests for building models from architecture specs."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.io import build_model_from_string, parse_architecture, build_model
from repro.nn import (
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Tensor,
)


class TestBuildModel:
    def test_fc_chain_layers(self, rng):
        model = build_model_from_string("256-128CFb64-128CFb64-10F", rng=rng)
        kinds = [type(layer) for layer in model]
        assert kinds == [
            BlockCirculantLinear, ReLU, BlockCirculantLinear, ReLU, Linear
        ]

    def test_final_layer_has_no_relu(self, rng):
        model = build_model_from_string("8-4F-2F", rng=rng)
        assert not isinstance(model[-1], ReLU)

    def test_conv_chain_with_flatten(self, rng):
        model = build_model_from_string("3x16x16-8Conv3-MP2-16CFb8-10F", rng=rng)
        kinds = [type(layer) for layer in model]
        assert Flatten in kinds
        assert kinds.index(Flatten) > kinds.index(MaxPool2d)

    def test_forward_shapes(self, rng):
        model = build_model_from_string(
            "3x16x16-8Conv3-MP2-4CConv3b2-16F-10F", rng=rng
        )
        out = model(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 10)

    def test_arch1_equivalent_string(self, rng):
        # Paper Arch. 1 expressed in the extended notation.
        model = build_model_from_string("256-128CFb64-128CFb64-10F", rng=rng)
        out = model(Tensor(rng.normal(size=(4, 256))))
        assert out.shape == (4, 10)

    def test_arch2_equivalent_string(self, rng):
        model = build_model_from_string("121-64CFb32-64CFb32-10F", rng=rng)
        out = model(Tensor(rng.normal(size=(4, 121))))
        assert out.shape == (4, 10)

    def test_conv_geometry_validation(self, rng):
        with pytest.raises(ConfigurationError):
            build_model_from_string("3x4x4-8Conv5-10F", rng=rng)

    def test_pool_geometry_validation(self, rng):
        with pytest.raises(ConfigurationError):
            build_model_from_string("3x4x4-8Conv3-MP4-10F", rng=rng)

    @pytest.mark.parametrize(
        "arch,index",
        [
            ("16-8CFb64-4F", 0),  # block larger than both FC dimensions
            ("16-8F-4CFb32", 1),
            ("3x8x8-4CConv3b16-10F", 0),  # block larger than both channels
            ("3x8x8-4Conv9-10F", 0),  # kernel does not fit
        ],
    )
    def test_layer_errors_name_the_layer(self, rng, arch, index):
        with pytest.raises(ConfigurationError, match=f"^layer {index}: "):
            build_model_from_string(arch, rng=rng)

    def test_bc_conv_built_with_block(self, rng):
        model = build_model_from_string("4x8x8-8CConv3b4-10F", rng=rng)
        assert isinstance(model[0], BlockCirculantConv2d)
        assert model[0].block_size == 4

    def test_dense_conv_built(self, rng):
        model = build_model_from_string("3x8x8-8Conv3-10F", rng=rng)
        assert isinstance(model[0], Conv2d)

    def test_deterministic_with_seed(self):
        a = build_model_from_string("16-8F-2F", rng=np.random.default_rng(0))
        b = build_model_from_string("16-8F-2F", rng=np.random.default_rng(0))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_build_from_spec_object(self, rng):
        spec = parse_architecture("8-4F-2F")
        model = build_model(spec, rng=rng)
        assert model(Tensor(rng.normal(size=(1, 8)))).shape == (1, 2)
