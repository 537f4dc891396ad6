"""Freeze a model (or deployment artifact) into a flat, precision-aware op plan.

This module is the *compiler* half of the frozen runtime: it walks a
trained :class:`~repro.nn.module.Sequential` (or the layer records of a
:class:`~repro.embedded.deploy.DeployedModel`) once and emits a flat list
of :class:`PlanOp` closures.  Executing the plan is the job of
:mod:`repro.runtime.executors`; the user-facing façade is
:class:`repro.runtime.session.InferenceSession`.

Three compile-time choices shape the emitted ops:

* **Precision** — every weight, bias, spectrum and work buffer is
  materialized at the dtypes of a
  :class:`~repro.precision.PrecisionPolicy`.  Under ``"fp32"`` the whole
  hot path (unfold, GEMM or rfft -> complex GEMM -> irfft, bias,
  activation) runs in float32/complex64 with no silent upcast anywhere.
* **Which kernel runs a block-circulant conv** — :func:`bc_conv_kernel`
  turns the paper's section IV operation counts
  (:mod:`repro.analysis.complexity`) into the decision: the op either
  keeps the stored half-spectra and runs rfft -> frequency-major GEMM ->
  irfft, or is expanded once, here, to the equivalent dense real matrix
  and runs one GEMM.  The rule is a pure function of the block grid and
  the dtype (two module constants, no timing, no host probe), so every
  host freezes the same plan; the op name carries the choice
  (``bc_conv(16->32,k=3,b=8,dense)``).  Expansion is RAM-only and
  capped per op: artifact bytes and the ``embedded/memory.py`` estimates
  are what they were, and :attr:`PlanOp.expanded_nbytes` reports what a
  plan holds beyond them.
* **Overlap-add conv tiling** (``conv_tile``) — block-circulant conv ops
  are emitted as streaming tiles of ``conv_tile`` output rows: each tile
  gathers only its own (overlapping) input slab, so peak memory is
  bounded by the tile size instead of the full patch matrix (the
  ROADMAP's overlap-add streaming item).  Tiled ops always run the FFT
  kernel.

**The conv hot path** is *unfold, GEMM or rfft -> GEMM -> irfft, bias,
activation*.  The unfold writes the patch matrix by ``k*k`` strided
slice copies from a zero-bordered image slot straight into the
channel-last ``(batch, positions, k*k, C)`` layout its consumer
contracts over (:func:`~repro.nn.functional.unfold_patches`); dense
conv weights are permuted to that row order once at freeze.

**What "equal" means across kernels.**  A plan equals the training-time
layer and the :class:`~repro.embedded.deploy.DeployedModel` record
interpreter to 1e-10 (fp64) whichever kernel an op froze to — the two
kernels sum the same products in different orders.  *Bitwise* equality
holds only between paths running the same kernel: arena vs fresh,
threaded vs serial at the same ``batch_size``.

Fusion: every elementwise activation is folded into the producing compute
op (``fusable`` ops), so the plan executes one closure per weight layer
instead of one Python dispatch per ``Module``.  :func:`fuse_plan`
generalizes this at the plan level: it folds *every* ``foldable`` op
(affine, flatten, non-softmax activations — and chains of them) into the
preceding producer, so e.g. ``conv -> batchnorm -> relu`` and
``bc_conv+relu -> flatten`` each become a single closure.

**Workspace arenas.**  Every compute op also carries a ``ws_fn`` — the
same computation staged through a
:class:`~repro.runtime.workspace.Workspace` of per-batch-bucket reusable
buffers (``np.matmul(..., out=...)``, in-place bias/activation, zero-once
pad buffers) so steady-state inference stops paying the allocator.
``ws_fn`` is bitwise-identical to ``fn`` by construction: it runs the
same floating-point operations in the same order, only into caller-owned
memory (the conv and max-pool ops are literally one body, run against
either an arena or a fresh-allocating stand-in).  Executors choose the
path; ops with no arena form (conv-tiled) simply leave ``ws_fn`` unset
and keep their fresh path.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from ..analysis.complexity import bc_fc_ops, dense_fc_ops
from ..exceptions import DeploymentError
from ..fft import irfft, rfft
from ..fft.backend import get_backend
from ..nn.functional import conv_output_size, im2col, unfold_patches
from ..nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Dropout,
    FFTLayer1d,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Pointwise1d,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    seq_matmul,
    shift_right,
)
from ..nn.module import Sequential
from ..precision import FP64, PrecisionPolicy
from ..structured import block_circulant_forward_batch, block_circulant_to_dense
from ..structured.spectral import freq_major

__all__ = [
    "DENSE_EXPANSION_CAP_BYTES",
    "GEMM_FLOP_ADVANTAGE",
    "PlanOp",
    "bc_conv_kernel",
    "compile_model_plan",
    "compile_records_plan",
    "fuse_plan",
    "pool_windows",
    "softmax",
]

#: Per-op-instance arena slot prefixes: two ops in one plan (or two
#: plans sharing a worker pool) can never collide on a workspace slot.
_OP_IDS = itertools.count()


#: How many operations of the paper's FFT-path count (section IV-A,
#: :func:`~repro.analysis.complexity.bc_fc_ops`) cost as much as one
#: multiply-add pair of a real GEMM on a CPU BLAS.  Measured: the
#: rfft -> GEMM -> irfft kernel and the dense-expanded GEMM break even
#: where the paper's count ratio is about 1/6 (crossover table in
#: ``docs/performance.md``).
GEMM_FLOP_ADVANTAGE = 6.0

#: A block-circulant conv op never expands to a dense matrix larger
#: than this (at the plan's real dtype), whatever the op counts say:
#: expansion trades the paper's storage saving for speed in RAM only,
#: and this bounds the trade per op.
DENSE_EXPANSION_CAP_BYTES = 1 << 20


def bc_conv_kernel(p: int, q: int, b: int, real_dtype=np.float64) -> str:
    """Which kernel a frozen block-circulant conv runs: ``"dense"`` or ``"fft"``.

    A pure function of the ``(p, q, b)`` block grid and the plan's real
    dtype — no timing, no host probe — so every host compiles the same
    plan.  ``"dense"`` (the layer expanded to a real ``(q*b, p*b)``
    matrix at freeze, one GEMM per call) wins iff the paper's FFT-path
    operation count, weighted by :data:`GEMM_FLOP_ADVANTAGE`, exceeds
    the dense count **and** the expanded matrix fits
    :data:`DENSE_EXPANSION_CAP_BYTES`; otherwise the op keeps the
    rfft -> frequency-major GEMM -> irfft path on the stored spectra.
    """
    rows, cols = p * b, q * b
    if rows * cols * np.dtype(real_dtype).itemsize > DENSE_EXPANSION_CAP_BYTES:
        return "fft"
    if GEMM_FLOP_ADVANTAGE * bc_fc_ops(rows, cols, b) > dense_fc_ops(rows, cols):
        return "dense"
    return "fft"


def _fft_writes_out() -> bool:
    """Whether the active FFT backend writes results into ``out=`` buffers.

    The pure backend's packed real paths target the caller's buffer
    directly, so arena kernels hand them workspace slots; ``numpy.fft``
    owns its result allocation, and routing it through ``out=`` would
    *add* a copy — arena kernels skip it there and let the transform
    result be the one short-lived temporary.
    """
    return get_backend() != "numpy"


def _fast_rfft(
    xb: np.ndarray, single: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """numpy-backend rfft without the dispatch wrapper.

    The arena kernels transform small fixed-shape operands on every
    call, where :func:`repro.fft.rfft`'s size/axis/backend handling
    costs as much as the transform itself.  The plan knows the operand
    is real, the axis is last, and no padding applies, so this calls
    ``numpy.fft`` directly — the exact same call the wrapper would
    make, bitwise.

    At double precision the transform writes straight into the arena
    slot passed as ``out``; single precision computes in double (as
    ``numpy.fft`` always does) and casts, so the double-width
    intermediate stays a short-lived temporary.
    """
    if single:
        return np.fft.rfft(xb, axis=-1).astype(np.complex64)
    return np.fft.rfft(xb, axis=-1, out=out)


def _fast_irfft(
    y_spec: np.ndarray, n: int, single: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """numpy-backend irfft counterpart of :func:`_fast_rfft`."""
    if single:
        return np.fft.irfft(y_spec, n=n, axis=-1).astype(np.float32)
    return np.fft.irfft(y_spec, n=n, axis=-1, out=out)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift stabilization."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def pool_windows(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """Gather ``(batch, C, L, k*k)`` pooling windows plus the output grid."""
    _, _, height, width = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    base_r = np.repeat(np.arange(out_h) * stride, out_w)
    base_c = np.tile(np.arange(out_w) * stride, out_h)
    offset_r = np.repeat(np.arange(kernel), kernel)
    offset_c = np.tile(np.arange(kernel), kernel)
    rows = base_r[:, None] + offset_r[None, :]
    cols = base_c[:, None] + offset_c[None, :]
    return x[:, :, rows, cols], out_h, out_w


class PlanOp:
    """One step of a frozen plan: a name plus a ``ndarray -> ndarray`` fn.

    ``fusable`` marks compute ops (linear, conv) that a following
    elementwise activation may be folded into.  ``foldable`` marks the
    other direction: ops cheap enough that :func:`fuse_plan` folds them
    *into* their producer (affine, flatten, non-softmax activations).

    ``ws_fn`` is the op's arena form — the same computation, bitwise,
    staged through a :class:`~repro.runtime.workspace.Workspace` instead
    of fresh allocations; :meth:`run` dispatches to it when the executor
    supplies a workspace.  ``fresh_out`` records whether the op owns its
    output buffer (a fresh allocation or an op-private arena slot) — the
    condition under which a folded successor may run its ``inplace_fn``
    (an in-place variant, bitwise-equal to ``fn``) on it.  ``flatten``
    is the one op with ``fresh_out=False``: its output is a view of its
    *input*, which the op does not own.  ``expanded_nbytes`` is the RAM
    the op holds in weights expanded beyond what the artifact stores (a
    dense-kernel ``bc_conv``); zero for every other op.
    """

    __slots__ = (
        "name",
        "fn",
        "fusable",
        "ws_fn",
        "foldable",
        "inplace_fn",
        "fresh_out",
        "expanded_nbytes",
    )

    def __init__(
        self,
        name: str,
        fn: Callable[[np.ndarray], np.ndarray],
        fusable: bool = False,
        ws_fn: Callable[[np.ndarray, object], np.ndarray] | None = None,
        foldable: bool = False,
        inplace_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        fresh_out: bool = True,
    ):
        self.name = name
        self.fn = fn
        self.fusable = fusable
        self.ws_fn = ws_fn
        self.foldable = foldable
        self.inplace_fn = inplace_fn
        self.fresh_out = fresh_out
        self.expanded_nbytes = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    def run(self, x: np.ndarray, ws=None) -> np.ndarray:
        """Execute via the arena path when ``ws`` is given and supported."""
        if ws is not None and self.ws_fn is not None:
            return self.ws_fn(x, ws)
        return self.fn(x)

    def fold(self, op: "PlanOp") -> "PlanOp":
        """Fold a ``foldable`` successor into this op (one closure).

        The fresh path composes out-of-place — exactly the two ops run
        back to back, so reference numerics are untouched.  The arena
        path runs the successor's ``inplace_fn`` directly on this op's
        output when this op owns that buffer (``fresh_out``), which is
        bitwise-equal by the in-place ufunc contract.
        """
        inner, post = self.fn, op.fn

        def folded_fn(x: np.ndarray) -> np.ndarray:
            return post(inner(x))

        folded = PlanOp(
            f"{self.name}+{op.name}",
            folded_fn,
            fusable=self.fusable,
            foldable=self.foldable and op.foldable,
            fresh_out=self.fresh_out or op.fresh_out,
        )
        folded.expanded_nbytes = self.expanded_nbytes + op.expanded_nbytes
        if self.ws_fn is not None:
            inner_ws = self.ws_fn
            if op.inplace_fn is not None and self.fresh_out:
                post_ws = op.inplace_fn
            else:
                post_ws = post
            folded.ws_fn = lambda x, ws: post_ws(inner_ws(x, ws))
        if self.inplace_fn is not None and op.inplace_fn is not None:
            self_ip, op_ip = self.inplace_fn, op.inplace_fn
            folded.inplace_fn = lambda x: op_ip(self_ip(x))
        return folded

    def fuse(self, name: str, activation: Callable[[np.ndarray], np.ndarray]) -> "PlanOp":
        """A new op applying ``activation`` after this op's computation."""
        return self.fold(
            PlanOp(
                name,
                activation,
                foldable=True,
                inplace_fn=_ACTIVATIONS_INPLACE.get(name),
            )
        )

    def __repr__(self) -> str:
        return f"PlanOp({self.name!r})"


_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
    "softmax": softmax,
}


def _sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    # Same ufunc sequence as 1 / (1 + exp(-x)); float addition is
    # commutative bit-for-bit, so exp(-x) + 1 matches 1 + exp(-x).
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)
    return x


#: In-place forms of the foldable activations, bitwise-equal to the
#: out-of-place forms in ``_ACTIVATIONS``.  Only applied by the arena
#: path to buffers the producing op owns (``fresh_out``).  leaky_relu
#: has no allocation-free in-place form (``np.where`` needs a fresh
#: destination) and softmax is never folded, so neither appears here.
_ACTIVATIONS_INPLACE: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda x: np.maximum(x, 0.0, out=x),
    "sigmoid": _sigmoid_inplace,
    "tanh": lambda x: np.tanh(x, out=x),
}


# ----------------------------------------------------------------------
# Op builders (shared by compile_model_plan and compile_records_plan)
# ----------------------------------------------------------------------
def _bc_linear_op(
    spectra: np.ndarray,
    bias: np.ndarray | None,
    in_features: int,
    out_features: int,
    block_size: int,
    spectra_fm: np.ndarray | None = None,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    cdtype = policy.complex_dtype
    rdtype = policy.real_dtype
    spectra = np.asarray(spectra, dtype=cdtype)
    if spectra_fm is None or np.asarray(spectra_fm).dtype != cdtype:
        spectra_fm = freq_major(spectra)
    p, q = spectra.shape[0], spectra.shape[1]
    b = block_size
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)

    def blocks_of(x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        if x.shape[-1] != in_features:
            raise ValueError(
                f"expected input with {in_features} features, got shape {x.shape}"
            )
        if in_features == q * b:
            return x.reshape(batch, q, b)
        padded = np.zeros((batch, q * b), dtype=rdtype)
        padded[:, :in_features] = x
        return padded.reshape(batch, q, b)

    def finish(out_blocks: np.ndarray) -> np.ndarray:
        out = out_blocks.reshape(out_blocks.shape[0], -1)[:, :out_features]
        if bias is not None:
            out = out + bias
        return out

    name = f"bc_linear({in_features}->{out_features},b={b})"

    def fn(x: np.ndarray) -> np.ndarray:
        out = block_circulant_forward_batch(
            spectra, blocks_of(x), weight_fm=spectra_fm
        )
        return finish(out)

    # Arena form: same FFT -> GEMM -> IFFT -> bias pipeline, staged
    # through per-bucket workspace slots.  The explicit copy into the
    # contiguous frequency-major operand replaces the re-buffering
    # matmul would do internally per call; matmul writes straight into
    # its slot; bias adds in place on the op-owned result.  Each step is
    # bitwise-equal to its fresh counterpart (tests/runtime/test_arena).
    nb = spectra.shape[2]
    tag = f"op{next(_OP_IDS)}.bcl"
    k_pad, k_spec, k_xsfm, k_yfm, k_ysp, k_blk = (
        tag + ".pad", tag + ".spec", tag + ".xsfm",
        tag + ".yfm", tag + ".ysp", tag + ".blk",
    )
    single = np.dtype(cdtype) == np.complex64

    def ws_fn(x: np.ndarray, ws) -> np.ndarray:
        batch = x.shape[0]
        if x.shape[-1] != in_features:
            raise ValueError(
                f"expected input with {in_features} features, got shape {x.shape}"
            )
        m = ws.bucket(batch)
        if in_features == q * b:
            xb = x.reshape(batch, q, b)
        else:
            # Zero-once pad slot: columns past in_features are zeroed at
            # allocation and never written again.
            padded = ws.zeros(k_pad, (m, q * b), rdtype)[:batch]
            padded[:, :in_features] = x
            xb = padded.reshape(batch, q, b)
        if _fft_writes_out():
            x_spec = rfft(
                xb, out=ws.get(k_spec, (m, q, nb), cdtype)[:batch]
            )
        elif single:
            x_spec = _fast_rfft(xb, True)
        else:
            x_spec = _fast_rfft(
                xb, False, out=ws.get(k_spec, (m, q, nb), cdtype)[:batch]
            )
        xs_fm = ws.get(k_xsfm, (nb, q, m), cdtype)[..., :batch]
        np.copyto(xs_fm, x_spec.transpose(2, 1, 0))
        y_fm = np.matmul(
            spectra_fm,
            xs_fm,
            out=ws.get(k_yfm, (nb, p, m), cdtype)[..., :batch],
        )
        y_spec = y_fm.transpose(2, 1, 0)
        if _fft_writes_out():
            out_blocks = irfft(
                y_spec,
                n=b,
                out=ws.get(k_blk, (m, p, b), rdtype)[:batch],
            )
        elif single:
            out_blocks = _fast_irfft(y_spec, b, True)
        else:
            # numpy's irfft hits a slow path when both ``out=`` and a
            # strided input are given; stage the transposed spectrum
            # contiguously first (a plain copy) so the transform runs on
            # its fast path and still writes into the arena.
            y_stage = ws.get(k_ysp, (m, p, nb), cdtype)[:batch]
            np.copyto(y_stage, y_spec)
            out_blocks = _fast_irfft(
                y_stage, b, False, out=ws.get(k_blk, (m, p, b), rdtype)[:batch]
            )
        out = out_blocks.reshape(batch, -1)[:, :out_features]
        if bias is not None:
            out += bias
        return out

    return PlanOp(name, fn, fusable=True, ws_fn=ws_fn)


def _linear_op(
    weight: np.ndarray,
    bias: np.ndarray | None,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    rdtype = policy.real_dtype
    weight_t = np.ascontiguousarray(np.asarray(weight, dtype=rdtype).T)
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    out_f, in_f = weight.shape

    def fn(x: np.ndarray) -> np.ndarray:
        out = x @ weight_t
        if bias is not None:
            out = out + bias
        return out

    tag = f"op{next(_OP_IDS)}.lin"

    def ws_fn(x: np.ndarray, ws) -> np.ndarray:
        batch = x.shape[0]
        m = ws.bucket(batch)
        out = np.matmul(
            x, weight_t, out=ws.get(f"{tag}.out", (m, out_f), rdtype)[:batch]
        )
        if bias is not None:
            out += bias
        return out

    return PlanOp(f"linear({in_f}->{out_f})", fn, fusable=True, ws_fn=ws_fn)


def _fft1d_op(
    weight_l: np.ndarray,
    weight_r: np.ndarray,
    bias: np.ndarray | None,
    dilation: int,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    """Two-tap causal dilated sequence layer on time-major input.

    ``y[t] = W_r x[t] + W_l x[t-d] + b`` over ``(batch, T, C)``.  Both
    GEMMs go through :func:`~repro.nn.layers.fftnet1d.seq_matmul` — the
    row-count-stable kernel — and the adds are elementwise, so any
    row-chunking of the timeline (the incremental stream plan pushing K
    samples at a time) reproduces this op's outputs bitwise.
    """
    rdtype = policy.real_dtype
    wl_t = np.ascontiguousarray(np.asarray(weight_l, dtype=rdtype).T)
    wr_t = np.ascontiguousarray(np.asarray(weight_r, dtype=rdtype).T)
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    in_c, out_c = wr_t.shape

    def fn(x: np.ndarray) -> np.ndarray:
        batch, steps, _ = x.shape
        xl = shift_right(x, dilation)
        out = seq_matmul(x.reshape(-1, in_c), wr_t)
        out += seq_matmul(xl.reshape(-1, in_c), wl_t)
        if bias is not None:
            out += bias
        return out.reshape(batch, steps, out_c)

    return PlanOp(f"fft1d({in_c}->{out_c},d={dilation})", fn, fusable=True)


def _pointwise1d_op(
    weight: np.ndarray,
    bias: np.ndarray | None,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    """Per-timestep projection on time-major input (1x1 conv).

    Shares :func:`seq_matmul` with the stream plan for bitwise
    row-chunking stability (see :func:`_fft1d_op`).
    """
    rdtype = policy.real_dtype
    weight_t = np.ascontiguousarray(np.asarray(weight, dtype=rdtype).T)
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    in_c, out_c = weight_t.shape

    def fn(x: np.ndarray) -> np.ndarray:
        batch, steps, _ = x.shape
        out = seq_matmul(x.reshape(-1, in_c), weight_t)
        if bias is not None:
            out += bias
        return out.reshape(batch, steps, out_c)

    return PlanOp(f"pointwise1d({in_c}->{out_c})", fn, fusable=True)


class _FreshBuffers:
    """Workspace stand-in for the fresh path: every slot is a new array.

    The unfold-based kernels are written once against the
    :class:`~repro.runtime.workspace.Workspace` slot interface; run with
    this stand-in they are the op's ``fn``, run with a real arena they
    are its ``ws_fn`` — the same floating-point operations in the same
    order by construction, only into different memory.
    """

    @staticmethod
    def bucket(n: int) -> int:
        return n

    @staticmethod
    def get(slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    @staticmethod
    def zeros(slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)


_FRESH = _FreshBuffers()


def _check_channels(x: np.ndarray, in_channels: int) -> None:
    if x.ndim != 4 or x.shape[1] != in_channels:
        raise ValueError(
            f"expected input with {in_channels} channels, got shape {x.shape}"
        )


def _unfold(
    x: np.ndarray,
    ws,
    tag: str,
    in_channels: int,
    padded_c: int,
    k: int,
    stride: int,
    padding: int,
    rdtype,
) -> tuple[np.ndarray, int, int]:
    """Patch matrix ``(batch, positions, k*k*padded_c)`` plus the output grid.

    Rows are ``(k, k, channel)``-major with the channel axis padded to
    ``padded_c`` — the block layout the block-circulant contraction
    consumes, and (with ``padded_c == in_channels``) the row order the
    dense weight matrices are permuted to at freeze — written by
    :func:`~repro.nn.functional.unfold_patches` straight from a
    zero-bordered image slot.  Both zero regions (image border, channel
    pad) live in zero-once slots whose single writer only ever writes
    the data region.
    """
    _check_channels(x, in_channels)
    batch, _, height, width = x.shape
    out_h, out_w = conv_output_size(height, width, k, stride, padding)
    m = ws.bucket(batch)
    if padding:
        image = ws.zeros(
            tag + ".img",
            (m, in_channels, height + 2 * padding, width + 2 * padding),
            rdtype,
        )[:batch]
        image[:, :, padding : padding + height, padding : padding + width] = x
    else:
        image = x
    slot = ws.get if padded_c == in_channels else ws.zeros
    cols = slot(tag + ".cols", (m, out_h, out_w, k, k, padded_c), rdtype)[:batch]
    unfold_patches(cols, image, k, stride)
    return cols.reshape(batch, out_h * out_w, k * k * padded_c), out_h, out_w


def _unfold_gemm_op(
    name: str,
    weight_t: np.ndarray,
    bias: np.ndarray | None,
    in_channels: int,
    k: int,
    stride: int,
    padding: int,
    rdtype,
) -> PlanOp:
    """unfold -> one real GEMM -> channels-first -> bias.

    ``weight_t`` is ``(k*k*in_channels, out_channels)`` with rows in the
    unfold's ``(k, k, channel)`` order.  Serves the dense conv and the
    dense-expanded block-circulant conv alike.
    """
    out_c = weight_t.shape[1]
    tag = f"op{next(_OP_IDS)}.conv"

    def run(x: np.ndarray, ws) -> np.ndarray:
        cols, out_h, out_w = _unfold(
            x, ws, tag, in_channels, in_channels, k, stride, padding, rdtype
        )
        batch = x.shape[0]
        gemm = np.matmul(
            cols,
            weight_t,
            out=ws.get(
                tag + ".gemm", (ws.bucket(batch), out_h * out_w, out_c), rdtype
            )[:batch],
        )
        # Channels-first: a copy, or (one image) a view of the op-private
        # GEMM slot — op-owned either way, so bias adds in place.
        out = gemm.transpose(0, 2, 1).reshape(batch, out_c, out_h, out_w)
        if bias is not None:
            out += bias[None, :, None, None]
        return out

    return PlanOp(name, lambda x: run(x, _FRESH), fusable=True, ws_fn=run)


def _conv_op(
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    rdtype = policy.real_dtype
    weight = np.asarray(weight, dtype=rdtype)
    out_c, in_c, k, _ = weight.shape
    # Rows permuted once to the unfold's (k, k, channel) order.
    weight_t = np.ascontiguousarray(
        weight.transpose(2, 3, 1, 0).reshape(k * k * in_c, out_c)
    )
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    return _unfold_gemm_op(
        f"conv({in_c}->{out_c},k={k})",
        weight_t, bias, in_c, k, stride, padding, rdtype,
    )


def _expand_bc_conv(
    spectra: np.ndarray,
    in_channels: int,
    out_channels: int,
    k: int,
    b: int,
    rdtype,
) -> np.ndarray:
    """Half-spectra -> the equivalent real ``(k*k*C, P)`` GEMM operand.

    ``irfft`` recovers the ``(p, q, b)`` defining vectors, the circulant
    index gather expands them to ``(p*b, q*b)``, and the padding is
    dropped: filter rows past ``out_channels`` and the columns that only
    ever meet zero-padded channels.
    """
    weights = np.fft.irfft(spectra.astype(np.complex128), n=b, axis=-1)
    dense = block_circulant_to_dense(weights)
    dense = dense[:out_channels].reshape(out_channels, k * k, -1)
    dense = dense[:, :, :in_channels].reshape(out_channels, -1)
    return np.ascontiguousarray(dense.T, dtype=rdtype)


def _bc_conv_op(
    spectra: np.ndarray,
    bias: np.ndarray | None,
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    block_size: int,
    stride: int,
    padding: int,
    channel_blocks: int,
    spectra_fm: np.ndarray | None = None,
    policy: PrecisionPolicy = FP64,
    conv_tile: int | None = None,
) -> PlanOp:
    """The one place a block-circulant conv picks its kernel.

    Un-tiled ops run whichever of the two kernels
    :func:`bc_conv_kernel` names; ``conv_tile`` ops always stream the
    FFT kernel over input slabs.
    """
    cdtype = policy.complex_dtype
    rdtype = policy.real_dtype
    spectra = np.asarray(spectra, dtype=cdtype)
    b = block_size
    k = kernel_size
    padded_c = channel_blocks * b
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    p, q, nb = spectra.shape
    label = f"bc_conv({in_channels}->{out_channels},k={k},b={b}"

    if conv_tile is None and bc_conv_kernel(p, q, b, rdtype) == "dense":
        weight_t = _expand_bc_conv(
            spectra, in_channels, out_channels, k, b, rdtype
        )
        op = _unfold_gemm_op(
            label + ",dense)",
            weight_t, bias, in_channels, k, stride, padding, rdtype,
        )
        op.expanded_nbytes = weight_t.nbytes
        return op

    if spectra_fm is None or np.asarray(spectra_fm).dtype != cdtype:
        spectra_fm = freq_major(spectra)

    if conv_tile is not None:
        # Overlap-add streaming: each tile of `conv_tile` output rows
        # gathers only its own input slab (slabs overlap by k - stride
        # rows), bounding peak patch-matrix memory by the tile size.
        # Tiled ops keep the fresh path: the tile loop is already the
        # memory-bounding strategy, and its slab geometry varies per
        # call position — no stable buffer set to preallocate.
        def tiled_fn(x: np.ndarray) -> np.ndarray:
            _check_channels(x, in_channels)
            batch, _, height, width = x.shape
            out_h, out_w = conv_output_size(height, width, k, stride, padding)
            padded = (
                np.pad(
                    x,
                    ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                )
                if padding
                else x
            )
            out = np.empty((batch, out_channels, out_h, out_w), dtype=rdtype)
            for r0 in range(0, out_h, conv_tile):
                r1 = min(r0 + conv_tile, out_h)
                positions = (r1 - r0) * out_w
                slab = padded[:, :, r0 * stride : (r1 - 1) * stride + k, :]
                by_pos = (
                    im2col(slab, k, stride, 0)
                    .reshape(batch, positions, in_channels, k * k)
                    .transpose(0, 1, 3, 2)
                )
                if padded_c != in_channels:
                    wide = np.zeros(
                        (batch, positions, k * k, padded_c), dtype=rdtype
                    )
                    wide[..., :in_channels] = by_pos
                    by_pos = wide
                tile = block_circulant_forward_batch(
                    spectra,
                    by_pos.reshape(batch * positions, q, b),
                    weight_fm=spectra_fm,
                )
                tile = tile.reshape(batch, positions, -1)[..., :out_channels]
                out[:, :, r0:r1, :] = tile.transpose(0, 2, 1).reshape(
                    batch, out_channels, r1 - r0, out_w
                )
            if bias is not None:
                out = out + bias[None, :, None, None]
            return out

        return PlanOp(label + f",fft,tile={conv_tile})", tiled_fn, fusable=True)

    tag = f"op{next(_OP_IDS)}.bcc"
    k_spec, k_xsfm, k_yfm, k_ysp, k_blk = (
        tag + ".spec", tag + ".xsfm", tag + ".yfm", tag + ".ysp", tag + ".blk",
    )
    single = np.dtype(cdtype) == np.complex64

    def run(x: np.ndarray, ws) -> np.ndarray:
        cols, out_h, out_w = _unfold(
            x, ws, tag, in_channels, padded_c, k, stride, padding, rdtype
        )
        batch = x.shape[0]
        positions = out_h * out_w
        blocks = cols.reshape(batch * positions, q, b)
        rows = blocks.shape[0]
        mrows = ws.bucket(batch) * positions
        if _fft_writes_out():
            x_spec = rfft(
                blocks,
                out=ws.get(k_spec, (mrows, q, nb), cdtype)[:rows],
            )
        elif single:
            x_spec = _fast_rfft(blocks, True)
        else:
            x_spec = _fast_rfft(
                blocks,
                False,
                out=ws.get(k_spec, (mrows, q, nb), cdtype)[:rows],
            )
        xs_fm = ws.get(k_xsfm, (nb, q, mrows), cdtype)[..., :rows]
        np.copyto(xs_fm, x_spec.transpose(2, 1, 0))
        y_fm = np.matmul(
            spectra_fm,
            xs_fm,
            out=ws.get(k_yfm, (nb, p, mrows), cdtype)[..., :rows],
        )
        y_spec = y_fm.transpose(2, 1, 0)
        if _fft_writes_out():
            out_blocks = irfft(
                y_spec,
                n=b,
                out=ws.get(k_blk, (mrows, p, b), rdtype)[:rows],
            )
        elif single:
            out_blocks = _fast_irfft(y_spec, b, True)
        else:
            # Same strided-input + out= slow path as the linear kernel:
            # stage the spectrum contiguously before transforming.
            y_stage = ws.get(k_ysp, (mrows, p, nb), cdtype)[:rows]
            np.copyto(y_stage, y_spec)
            out_blocks = _fast_irfft(
                y_stage,
                b,
                False,
                out=ws.get(k_blk, (mrows, p, b), rdtype)[:rows],
            )
        out = out_blocks.reshape(batch, positions, -1)[..., :out_channels]
        out = out.transpose(0, 2, 1).reshape(batch, out_channels, out_h, out_w)
        if bias is not None:
            out += bias[None, :, None, None]
        return out

    return PlanOp(
        label + ",fft)", lambda x: run(x, _FRESH), fusable=True, ws_fn=run
    )


def _affine_op(
    scale: np.ndarray,
    shift: np.ndarray,
    per_channel: bool,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    scale = np.asarray(scale, dtype=policy.real_dtype)
    shift = np.asarray(shift, dtype=policy.real_dtype)

    def fn(x: np.ndarray) -> np.ndarray:
        if per_channel:
            return x * scale[None, :, None, None] + shift[None, :, None, None]
        return x * scale + shift

    def inplace_fn(x: np.ndarray) -> np.ndarray:
        if per_channel:
            x *= scale[None, :, None, None]
            x += shift[None, :, None, None]
        else:
            x *= scale
            x += shift
        return x

    tag = f"op{next(_OP_IDS)}.aff"

    def ws_fn(x: np.ndarray, ws) -> np.ndarray:
        batch = x.shape[0]
        m = ws.bucket(batch)
        out = ws.get(f"{tag}.out", (m,) + x.shape[1:], x.dtype)[:batch]
        if per_channel:
            np.multiply(x, scale[None, :, None, None], out=out)
            out += shift[None, :, None, None]
        else:
            np.multiply(x, scale, out=out)
            out += shift
        return out

    return PlanOp(
        "affine",
        fn,
        fusable=True,
        ws_fn=ws_fn,
        foldable=True,
        inplace_fn=inplace_fn,
    )


def _maxpool_op(kernel: int, stride: int) -> PlanOp:
    tag = f"op{next(_OP_IDS)}.maxp"

    def run(x: np.ndarray, ws) -> np.ndarray:
        batch, chans, height, width = x.shape
        m = ws.bucket(batch)
        if kernel == stride and height % kernel == 0 and width % kernel == 0:
            # Non-overlapping windows tiling the image: the k*k window
            # members are strided views of one reshape, and their
            # elementwise max is the gather's max (order-independent).
            out_h, out_w = height // kernel, width // kernel
            tiles = x.reshape(batch, chans, out_h, kernel, out_w, kernel)
            buf = ws.get(f"{tag}.out", (m, chans, out_h, out_w), x.dtype)[:batch]
            np.copyto(buf, tiles[:, :, :, 0, :, 0])
            for i, j in itertools.product(range(kernel), repeat=2):
                if i or j:
                    np.maximum(buf, tiles[:, :, :, i, :, j], out=buf)
            return buf
        windows, out_h, out_w = pool_windows(x, kernel, stride)
        buf = ws.get(f"{tag}.out", (m, chans, out_h * out_w), x.dtype)[:batch]
        windows.max(axis=-1, out=buf)
        return buf.reshape(batch, chans, out_h, out_w)

    # fusable: a pool owns its output buffer, so a folded successor
    # (flatten, activation) may reshape or mutate it freely.
    return PlanOp(
        f"maxpool(k={kernel})", lambda x: run(x, _FRESH), fusable=True, ws_fn=run
    )


def _avgpool_op(kernel: int, stride: int) -> PlanOp:
    def fn(x: np.ndarray) -> np.ndarray:
        windows, out_h, out_w = pool_windows(x, kernel, stride)
        return windows.mean(axis=-1).reshape(x.shape[0], x.shape[1], out_h, out_w)

    tag = f"op{next(_OP_IDS)}.avgp"

    def ws_fn(x: np.ndarray, ws) -> np.ndarray:
        windows, out_h, out_w = pool_windows(x, kernel, stride)
        batch, chans = x.shape[0], x.shape[1]
        m = ws.bucket(batch)
        buf = ws.get(f"{tag}.out", (m, chans, out_h * out_w), x.dtype)[:batch]
        windows.mean(axis=-1, out=buf)
        return buf.reshape(batch, chans, out_h, out_w)

    return PlanOp(f"avgpool(k={kernel})", fn, fusable=True, ws_fn=ws_fn)


def _flatten_op() -> PlanOp:
    # The output is a view of the op's *input*, so a folded successor
    # must not mutate it (fresh_out=False); the reshape itself is
    # allocation-free, so it doubles as its own in-place form.
    fn = lambda x: x.reshape(x.shape[0], -1)  # noqa: E731
    return PlanOp(
        "flatten", fn, foldable=True, inplace_fn=fn, fresh_out=False
    )


def _activation_op(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> PlanOp:
    return PlanOp(
        name,
        fn,
        foldable=name != "softmax",
        inplace_fn=_ACTIVATIONS_INPLACE.get(name),
    )


def _append_activation(
    ops: list[PlanOp], name: str, fn: Callable[[np.ndarray], np.ndarray]
) -> None:
    """Fuse the activation into the previous compute op when possible."""
    if ops and ops[-1].fusable and name != "softmax":
        ops[-1] = ops[-1].fold(_activation_op(name, fn))
    else:
        ops.append(_activation_op(name, fn))


def fuse_plan(ops: Sequence[PlanOp]) -> list[PlanOp]:
    """Compile pass: fold every foldable op into its producer.

    Generalizes the per-activation fusion the compilers already do into
    a pass over the whole op list: affine (folded batch-norm /
    dequantize), flatten and non-softmax activation ops — and chains of
    them — merge into the preceding compute op, so e.g.
    ``conv -> affine+relu -> ... -> bc_conv+relu -> flatten`` executes
    as ``conv+affine+relu -> ... -> bc_conv+relu+flatten``.  The first
    op never folds into anything, so user input is never mutated; the
    fresh path of a folded op is the exact out-of-place composition of
    its parts, so reference numerics are untouched (bitwise).
    """
    fused: list[PlanOp] = []
    for op in ops:
        prev = fused[-1] if fused else None
        if prev is not None and op.foldable and (prev.fusable or prev.foldable):
            fused[-1] = prev.fold(op)
        else:
            fused.append(op)
    return fused


# ----------------------------------------------------------------------
# Plan compilers
# ----------------------------------------------------------------------
def compile_model_plan(
    model: Sequential,
    policy: PrecisionPolicy = FP64,
    conv_tile: int | None = None,
) -> list[PlanOp]:
    """Snapshot a trained ``model`` into a flat op plan.

    Block-circulant weights are captured as their dtype-keyed cached
    half-spectra (shared with the layer's
    :class:`~repro.structured.spectral.SpectrumCache`); dense weights are
    cast to the policy's real dtype; dropout disappears; batch-norm folds
    into a per-feature affine op; activations fuse into the producing op.
    """
    spectrum_dtype = policy.complex_dtype
    ops: list[PlanOp] = []
    for layer in model:
        if isinstance(layer, BlockCirculantLinear):
            spectra, spectra_fm = layer.weight_spectra(spectrum_dtype)
            ops.append(
                _bc_linear_op(
                    spectra,
                    None if layer.bias is None else layer.bias.data,
                    layer.in_features,
                    layer.out_features,
                    layer.block_size,
                    spectra_fm=spectra_fm,
                    policy=policy,
                ),
            )
        elif isinstance(layer, Linear):
            ops.append(
                _linear_op(
                    layer.weight.data,
                    None if layer.bias is None else layer.bias.data,
                    policy=policy,
                ),
            )
        elif isinstance(layer, FFTLayer1d):
            ops.append(
                _fft1d_op(
                    layer.weight_l.data,
                    layer.weight_r.data,
                    None if layer.bias is None else layer.bias.data,
                    layer.dilation,
                    policy=policy,
                ),
            )
        elif isinstance(layer, Pointwise1d):
            ops.append(
                _pointwise1d_op(
                    layer.weight.data,
                    None if layer.bias is None else layer.bias.data,
                    policy=policy,
                ),
            )
        elif isinstance(layer, BlockCirculantConv2d):
            spectra, spectra_fm = layer.weight_spectra(spectrum_dtype)
            ops.append(
                _bc_conv_op(
                    spectra,
                    None if layer.bias is None else layer.bias.data,
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    layer.block_size,
                    layer.stride,
                    layer.padding,
                    layer.channel_blocks,
                    spectra_fm=spectra_fm,
                    policy=policy,
                    conv_tile=conv_tile,
                ),
            )
        elif isinstance(layer, Conv2d):
            ops.append(
                _conv_op(
                    layer.weight.data,
                    None if layer.bias is None else layer.bias.data,
                    layer.stride,
                    layer.padding,
                    policy=policy,
                ),
            )
        elif isinstance(layer, ReLU):
            _append_activation(ops, "relu", _ACTIVATIONS["relu"])
        elif isinstance(layer, LeakyReLU):
            slope = layer.negative_slope
            _append_activation(
                ops,
                "leaky_relu",
                lambda x, s=slope: np.where(x > 0.0, x, s * x),
            )
        elif isinstance(layer, Sigmoid):
            _append_activation(ops, "sigmoid", _ACTIVATIONS["sigmoid"])
        elif isinstance(layer, Tanh):
            _append_activation(ops, "tanh", _ACTIVATIONS["tanh"])
        elif isinstance(layer, Softmax):
            ops.append(_activation_op("softmax", softmax))
        elif isinstance(layer, Flatten):
            ops.append(_flatten_op())
        elif isinstance(layer, MaxPool2d):
            ops.append(_maxpool_op(layer.kernel_size, layer.stride))
        elif isinstance(layer, AvgPool2d):
            ops.append(_avgpool_op(layer.kernel_size, layer.stride))
        elif isinstance(layer, Dropout):
            continue  # identity at inference
        elif isinstance(layer, (BatchNorm1d, BatchNorm2d)):
            std = np.sqrt(layer.running_var + layer.eps)
            scale = layer.gamma.data / std
            shift = layer.beta.data - layer.running_mean * scale
            ops.append(
                _affine_op(
                    scale, shift, isinstance(layer, BatchNorm2d), policy=policy
                )
            )
        else:
            raise DeploymentError(
                f"cannot freeze layer type {type(layer).__name__}"
            )
    return ops


def compile_records_plan(
    records: Sequence[dict],
    policy: PrecisionPolicy = FP64,
    conv_tile: int | None = None,
) -> list[PlanOp]:
    """Compile deployment-artifact layer records into a flat op plan.

    ``records`` is the list of dicts in the
    :class:`~repro.embedded.deploy.DeployedModel` format.  The complex64
    artifact spectra are widened (fp64) or used as stored (fp32) once
    here, instead of on every call as the record interpreter does.
    """
    ops: list[PlanOp] = []
    for record in records:
        kind = record["kind"]
        if kind == "bc_linear":
            ops.append(
                _bc_linear_op(
                    record["spectra"],
                    record["bias"],
                    record["in_features"],
                    record["out_features"],
                    record["block_size"],
                    policy=policy,
                ),
            )
        elif kind == "linear":
            ops.append(_linear_op(record["weight"], record["bias"], policy=policy))
        elif kind == "fft1d":
            stacked = np.asarray(record["weight"])
            ops.append(
                _fft1d_op(
                    stacked[0],
                    stacked[1],
                    record["bias"],
                    record["dilation"],
                    policy=policy,
                ),
            )
        elif kind == "pointwise1d":
            ops.append(
                _pointwise1d_op(record["weight"], record["bias"], policy=policy)
            )
        elif kind == "bc_conv":
            ops.append(
                _bc_conv_op(
                    record["spectra"],
                    record["bias"],
                    record["in_channels"],
                    record["out_channels"],
                    record["kernel_size"],
                    record["block_size"],
                    record["stride"],
                    record["padding"],
                    record["channel_blocks"],
                    policy=policy,
                    conv_tile=conv_tile,
                ),
            )
        elif kind == "conv":
            ops.append(
                _conv_op(
                    record["weight"],
                    record["bias"],
                    record["stride"],
                    record["padding"],
                    policy=policy,
                ),
            )
        elif kind in ("relu", "sigmoid", "tanh"):
            _append_activation(ops, kind, _ACTIVATIONS[kind])
        elif kind == "leaky_relu":
            slope = record["slope"]
            _append_activation(
                ops,
                "leaky_relu",
                lambda x, s=slope: np.where(x > 0.0, x, s * x),
            )
        elif kind == "softmax":
            ops.append(_activation_op("softmax", softmax))
        elif kind == "flatten":
            ops.append(_flatten_op())
        elif kind == "maxpool":
            ops.append(_maxpool_op(record["kernel"], record["stride"]))
        elif kind == "avgpool":
            ops.append(_avgpool_op(record["kernel"], record["stride"]))
        elif kind == "affine":
            ops.append(
                _affine_op(
                    record["scale"],
                    record["shift"],
                    record["per_channel"],
                    policy=policy,
                ),
            )
        else:
            raise DeploymentError(f"unknown layer kind {kind!r}")
    return ops
