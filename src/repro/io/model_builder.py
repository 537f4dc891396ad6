"""Build trainable models from parsed architecture specs (Fig. 4, module 1).

Turns an :class:`~repro.io.arch_parser.ArchitectureSpec` into a
:class:`~repro.nn.module.Sequential`: ReLU after every hidden weight
layer, an automatic :class:`Flatten` at the CONV -> FC transition, and the
final FC producing logits (softmax lives in the loss / deployment engine).
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ConfigurationError
from ..nn import (
    AvgPool2d,
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from .arch_parser import ArchitectureSpec, parse_architecture

__all__ = ["build_model", "build_model_from_string"]


def build_model(
    spec: ArchitectureSpec,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Instantiate the network described by ``spec``.

    Raises :class:`ConfigurationError` naming the offending layer's
    index when a layer cannot be built — inconsistent geometry (e.g. a
    kernel no longer fits after pooling) or a layer constructor's
    rejection (e.g. a block larger than both of its dimensions).
    """
    rng = rng or np.random.default_rng()
    layers: list = []
    shape: tuple[int, ...] = spec.input_shape
    total = len(spec.layers)
    for index, layer_spec in enumerate(spec.layers):
        try:
            shape = _append_layer(
                layers, layer_spec, shape, index == total - 1, rng
            )
        except ValueError as exc:  # ConfigurationError included
            raise ConfigurationError(f"layer {index}: {exc}") from exc
    return Sequential(*layers)


def _append_layer(layers: list, layer_spec, shape, is_last: bool, rng):
    """Append one spec'd layer (plus its ReLU / Flatten) to ``layers``
    and return the activation shape after it."""
    if layer_spec.kind in ("conv", "bc_conv"):
        channels, height, width = shape
        if height < layer_spec.kernel or width < layer_spec.kernel:
            raise ConfigurationError(
                f"kernel {layer_spec.kernel} does not fit "
                f"spatial size ({height}, {width})"
            )
        if layer_spec.kind == "conv":
            conv = Conv2d(channels, layer_spec.units, layer_spec.kernel, rng=rng)
        else:
            conv = BlockCirculantConv2d(
                channels,
                layer_spec.units,
                layer_spec.kernel,
                block_size=layer_spec.block,
                rng=rng,
            )
        layers.append(conv)
        layers.append(ReLU())
        return conv.output_shape(height, width)
    if layer_spec.kind in ("maxpool", "avgpool"):
        channels, height, width = shape
        k = layer_spec.kernel
        if height < k or width < k:
            raise ConfigurationError(
                f"pool window {k} does not fit spatial size ({height}, {width})"
            )
        pool_cls = MaxPool2d if layer_spec.kind == "maxpool" else AvgPool2d
        layers.append(pool_cls(k))
        return (channels, height // k, width // k)
    # fc / bc_fc
    if len(shape) == 3:
        layers.append(Flatten())
        shape = (math.prod(shape),)
    (in_features,) = shape
    if layer_spec.kind == "fc":
        layers.append(Linear(in_features, layer_spec.units, rng=rng))
    else:
        layers.append(
            BlockCirculantLinear(
                in_features, layer_spec.units, layer_spec.block, rng=rng
            )
        )
    if not is_last:
        layers.append(ReLU())
    return (layer_spec.units,)


def build_model_from_string(
    text: str, rng: np.random.Generator | None = None
) -> Sequential:
    """Parse an architecture string and build the model in one step."""
    return build_model(parse_architecture(text), rng=rng)
