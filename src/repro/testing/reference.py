"""A record interpreter for tests: the oracle the frozen plan is checked against.

:func:`reference_forward` runs :class:`~repro.embedded.deploy.DeployedModel`
layer records (or :func:`~repro.runtime.plan.model_records`) one by one
in float64, the plain way: every block-circulant record is expanded from
its half-spectra to the dense matrix it stands for
(:func:`~repro.structured.ops.block_circulant_to_dense`) and applied as
one GEMM, so the oracle shares no code with the spectral kernel
(:func:`~repro.structured.ops.spectral_product`) that training and the
plan run.  It agrees with both to round-off (1e-10 at fp64), never
bitwise.  Nothing in the product calls it; serving and prediction go
through :class:`~repro.runtime.session.InferenceSession`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DeploymentError
from ..nn.functional import im2col
from ..nn.layers import seq_matmul, shift_right
from ..runtime.plan import pool_windows, softmax
from ..structured.ops import block_circulant_to_dense

__all__ = ["reference_forward", "reference_proba"]


def _dense_from_spectra(record: dict) -> np.ndarray:
    """The ``(p*b, q*b)`` dense matrix a block-circulant record encodes."""
    spectra = np.asarray(record["spectra"], dtype=np.complex128)
    weights = np.fft.irfft(spectra, n=record["block_size"], axis=-1)
    return block_circulant_to_dense(weights)


def _conv(x: np.ndarray, weight: np.ndarray, k: int, record: dict) -> np.ndarray:
    """Dense conv by im2col: ``weight`` is ``(out_c, in_c * k * k)``."""
    out_c = weight.shape[0]
    stride, padding = record["stride"], record["padding"]
    batch, _, height, width = x.shape
    out_h = (height + 2 * padding - k) // stride + 1
    out_w = (width + 2 * padding - k) // stride + 1
    out = im2col(x, k, stride, padding) @ weight.T
    out = out.transpose(0, 2, 1).reshape(batch, out_c, out_h, out_w)
    if record["bias"] is not None:
        out = out + record["bias"].astype(np.float64)[None, :, None, None]
    return out


def _run_record(record: dict, x: np.ndarray) -> np.ndarray:
    kind = record["kind"]
    if kind == "bc_linear":
        dense = _dense_from_spectra(record)
        dense = dense[: record["out_features"], : record["in_features"]]
        out = x @ dense.T
        if record["bias"] is not None:
            out = out + record["bias"]
        return out
    if kind == "linear":
        out = x @ record["weight"].astype(np.float64).T
        if record["bias"] is not None:
            out = out + record["bias"]
        return out
    if kind == "fft1d":
        weight = record["weight"].astype(np.float64)
        in_c, out_c = record["in_channels"], record["out_channels"]
        batch, steps, _ = x.shape
        xl = shift_right(x, record["dilation"])
        out = seq_matmul(x.reshape(-1, in_c), np.ascontiguousarray(weight[1].T))
        out += seq_matmul(xl.reshape(-1, in_c), np.ascontiguousarray(weight[0].T))
        if record["bias"] is not None:
            out += record["bias"].astype(np.float64)
        return out.reshape(batch, steps, out_c)
    if kind == "pointwise1d":
        weight = record["weight"].astype(np.float64)
        in_c, out_c = record["in_channels"], record["out_channels"]
        batch, steps, _ = x.shape
        out = seq_matmul(x.reshape(-1, in_c), np.ascontiguousarray(weight.T))
        if record["bias"] is not None:
            out += record["bias"].astype(np.float64)
        return out.reshape(batch, steps, out_c)
    if kind == "conv":
        weight = record["weight"].astype(np.float64)
        out_c, _, k, _ = weight.shape
        return _conv(x, weight.reshape(out_c, -1), k, record)
    if kind == "bc_conv":
        # Dense rows are filters, columns (k*k positions) x (padded
        # channels); im2col's columns are channel-major.
        k, in_c, out_c = (
            record["kernel_size"], record["in_channels"], record["out_channels"]
        )
        dense = _dense_from_spectra(record)[:out_c]
        dense = dense.reshape(out_c, k * k, -1)[:, :, :in_c]
        return _conv(x, dense.transpose(0, 2, 1).reshape(out_c, -1), k, record)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        return np.where(x > 0.0, x, record["slope"] * x)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if kind == "tanh":
        return np.tanh(x)
    if kind == "softmax":
        return softmax(x)
    if kind == "flatten":
        return x.reshape(x.shape[0], -1)
    if kind in ("maxpool", "avgpool"):
        windows, out_h, out_w = pool_windows(x, record["kernel"], record["stride"])
        pooled = windows.max(axis=-1) if kind == "maxpool" else windows.mean(axis=-1)
        return pooled.reshape(x.shape[0], x.shape[1], out_h, out_w)
    if kind == "affine":
        scale = record["scale"].astype(np.float64)
        shift = record["shift"].astype(np.float64)
        if record["per_channel"]:
            return x * scale[None, :, None, None] + shift[None, :, None, None]
        return x * scale + shift
    raise DeploymentError(f"unknown layer kind {kind!r}")


def reference_forward(records: Sequence[dict], x: np.ndarray) -> np.ndarray:
    """Run layer ``records`` on a batch ``x`` in float64, record by record.

    Returns the last record's output (logits, or probabilities after a
    ``softmax`` record); a 1-D ``x`` is one sample.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None]
    for record in records:
        x = _run_record(record, x)
    return x


def reference_proba(records: Sequence[dict], x: np.ndarray) -> np.ndarray:
    """Class probabilities: :func:`reference_forward`, then a softmax
    unless the records already end with one (training-time models
    output logits)."""
    out = reference_forward(records, x)
    return out if records[-1]["kind"] == "softmax" else softmax(out)
