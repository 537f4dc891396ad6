"""Per-inference operation counts: one table over layer records.

The runtime simulator needs, for each layer, how many arithmetic
operations one forward pass costs and how many library calls it issues
(the per-call overhead of OpenCV through Java/JNI vs native C++ turns out
to dominate at the paper's network sizes — see
:mod:`repro.embedded.runtime_model`).

The counts are read off layer *records* — the
:func:`~repro.runtime.plan.model_records` walk of a live model (the one
the frozen runtime compiles) or a :class:`~repro.embedded.DeployedModel`'s
own records — by one table keyed by record kind, so an artifact is
costed without its training model.  Every compute record is a matrix
applied at one or more output positions, dense or block-circulant; its
operation count is :func:`~repro.analysis.complexity.dense_fc_ops` or
:func:`~repro.analysis.complexity.bc_fc_ops` (paper Algorithm 1, over
the ``q = k^2 ceil(C/b)`` grid a conv runs) and its deployed bytes are
the float32 weights or the complex64 ``rfft`` weight spectra (section
IV-A).  :func:`count_model`, :func:`~repro.analysis.storage_report`,
:func:`~repro.embedded.estimate_memory`, the profiler and the energy
model are views over this table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..analysis.complexity import bc_fc_ops, dense_fc_ops
from ..exceptions import DeploymentError, ShapeError
from ..nn.functional import conv_output_size
from ..nn.module import Sequential
from ..runtime.plan import model_records
from .deploy import DeployedModel

__all__ = ["LayerCost", "ModelCost", "count_model", "model_weights"]

_FLOAT_BYTES = 4  # deployed weights are float32 (section V: OpenCV Mats)


@dataclass
class LayerCost:
    """Cost of one layer's forward pass for a single input sample."""

    name: str
    flops: float  # arithmetic real operations
    library_calls: int  # coarse-grained kernel invocations (OpenCV-style)
    weight_bytes: int  # parameter storage read per inference (float32)
    output_shape: tuple[int, ...]


@dataclass
class ModelCost:
    """Aggregate cost over all layers."""

    layers: list[LayerCost] = field(default_factory=list)

    @property
    def flops(self) -> float:
        return sum(layer.flops for layer in self.layers)

    @property
    def library_calls(self) -> int:
        return sum(layer.library_calls for layer in self.layers)

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def output_shape(self) -> tuple[int, ...]:
        if not self.layers:
            raise ValueError("model produced no layers")
        return self.layers[-1].output_shape


class _Matrix(NamedTuple):
    """A compute record's weight matrix: ``out`` rows applied to ``inputs``
    features (FC) or, at every output position, to an ``inputs``-channel
    ``kernel x kernel`` patch (conv) — and what it costs."""

    name: str
    out: int
    inputs: int
    kernel: int
    conv: bool
    bias: int  # bias parameters: 0 or ``out``
    dense_params: int
    stored_params: int
    nbytes: int  # deployed: float32 weights or complex64 spectra, + bias
    ops: float  # per output position, bias excluded
    calls: int  # per inference


def _matrix(record: dict) -> _Matrix | None:
    kind = record["kind"]
    if kind in ("linear", "conv"):
        out, inputs, *kernel = record["weight"].shape
        kernel, block = (kernel[0] if kernel else 1), 0
    elif kind == "bc_linear":
        out, inputs, kernel = record["out_features"], record["in_features"], 1
        block = record["block_size"]
    elif kind == "bc_conv":
        out, inputs = record["out_channels"], record["in_channels"]
        kernel, block = record["kernel_size"], record["block_size"]
    else:
        return None
    conv = kind.endswith("conv")
    bias = out if record["bias"] is not None else 0
    dense = out * inputs * kernel * kernel + bias
    if block:
        # Block grid: no block straddles two kernel positions.  Calls:
        # (im2col,) one FFT per input block, one fused multiply-
        # accumulate pass and one inverse FFT per output block, bias add.
        p, q = -(-out // block), kernel * kernel * -(-inputs // block)
        stored = p * q * block + bias
        nbytes = (p * q * (block // 2 + 1) * 2 + bias) * _FLOAT_BYTES
        ops, calls = bc_fc_ops(out, q * block, block), conv + q + 2 * p + 1
    else:  # (im2col,) gemm, bias add
        stored, nbytes = dense, dense * _FLOAT_BYTES
        ops, calls = dense_fc_ops(out, inputs * kernel * kernel), conv + 2
    name = f"{kind}({inputs}->{out}"
    if conv:
        name += f",k={kernel}"
    if block:
        name += f",b={block}"
    return _Matrix(name + ")", out, inputs, kernel, conv, bias, dense,
                   stored, nbytes, ops, calls)


def _name(record: dict) -> str:
    matrix = _matrix(record)
    return record["kind"] if matrix is None else matrix.name


def _shape_error(index: int, record: dict, expected: str, shape) -> ShapeError:
    return ShapeError(
        f"layer {index} ({_name(record)}) expects input shape {expected}, "
        f"got {tuple(shape)}"
    )


def _compute(index, record, shape):
    matrix = _matrix(record)
    if matrix.conv:
        if len(shape) != 3 or shape[0] != matrix.inputs:
            expected = f"({matrix.inputs}, H, W)"
            raise _shape_error(index, record, expected, shape)
        out_shape = (matrix.out, *conv_output_size(
            shape[1], shape[2], matrix.kernel, record["stride"],
            record["padding"],
        ))
    elif tuple(shape) != (matrix.inputs,):
        raise _shape_error(index, record, f"({matrix.inputs},)", shape)
    else:
        out_shape = (matrix.out,)
    positions = math.prod(out_shape[1:])
    flops = positions * matrix.ops + positions * matrix.bias
    return flops, matrix.calls, matrix.nbytes, out_shape


def _elementwise(ops_per_element: float):
    def cost(index, record, shape):
        return ops_per_element * math.prod(shape), 1, 0, shape

    return cost


def _affine(index, record, shape):
    # Batch-norm folded to one scale and one shift per feature.
    features = len(record["scale"])
    if record["per_channel"]:
        given, expected = shape[0], f"({features}, H, W)"
    else:
        given, expected = math.prod(shape), f"({features},)"
    if given != features:
        raise _shape_error(index, record, expected, shape)
    return 2.0 * math.prod(shape), 1, 2 * features * _FLOAT_BYTES, shape


def _pool(index, record, shape):
    if len(shape) != 3:
        raise _shape_error(index, record, "(C, H, W)", shape)
    k = record["kernel"]
    out_shape = (shape[0], *conv_output_size(
        shape[1], shape[2], k, record["stride"]
    ))
    return float(math.prod(out_shape) * k * k), 1, 0, out_shape


def _flatten(index, record, shape):
    return 0.0, 0, 0, (math.prod(shape),)


#: kind -> cost(index, record, input shape)
#:      -> (flops, library_calls, weight_bytes, output shape).
_COSTS = {
    "linear": _compute,
    "bc_linear": _compute,
    "conv": _compute,
    "bc_conv": _compute,
    "relu": _elementwise(1.0),
    "leaky_relu": _elementwise(1.0),
    "sigmoid": _elementwise(4.0),
    "tanh": _elementwise(4.0),
    "softmax": _elementwise(5.0),
    "affine": _affine,
    "maxpool": _pool,
    "avgpool": _pool,
    "flatten": _flatten,
}


def _records(model: Sequential | DeployedModel) -> list[dict]:
    if isinstance(model, DeployedModel):
        return model.records
    if not isinstance(model, Sequential):
        raise TypeError(
            "operation counts need a Sequential model or a DeployedModel; "
            "wrap custom modules"
        )
    try:
        return model_records(model)
    except DeploymentError as exc:
        raise TypeError(f"no cost model: {exc}") from exc


def count_model(
    model: Sequential | DeployedModel, input_shape: tuple[int, ...]
) -> ModelCost:
    """Per-layer and total single-image inference cost of ``model``.

    ``input_shape`` excludes the batch axis: ``(features,)`` for FC models,
    ``(channels, H, W)`` for CONV models.  One row per inference-time
    layer: dropout vanishes and batch-norm is its folded affine, as in the
    deployed artifact.  Raises :class:`~repro.exceptions.ShapeError` when a
    layer's input does not match its weights, and :class:`TypeError` for a
    layer kind with no cost model.
    """
    cost = ModelCost()
    shape = tuple(input_shape)
    for index, record in enumerate(_records(model)):
        kind = record["kind"]
        if kind not in _COSTS:
            raise TypeError(f"no cost model for layer kind {kind!r}")
        *counts, shape = _COSTS[kind](index, record, shape)
        cost.layers.append(LayerCost(_name(record), *counts, tuple(shape)))
    return cost


def model_weights(
    model: Sequential | DeployedModel,
) -> list[tuple[str, int, int, int]]:
    """``(name, dense_params, stored_params, deployed_bytes)`` per weight
    layer (dense or block-circulant, FC or conv) of ``model``."""
    rows = []
    for record in _records(model):
        matrix = _matrix(record)
        if matrix is not None:
            rows.append((matrix.name, matrix.dense_params,
                         matrix.stored_params, matrix.nbytes))
    return rows
