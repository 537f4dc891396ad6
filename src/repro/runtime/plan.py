"""Freeze a model (or deployment artifact) into a flat, precision-aware op plan.

This module is the *compiler* half of the frozen runtime, and it has
one path, the paper's Fig. 4 flow: :func:`model_records` — the one walk
over a trained :class:`~repro.nn.module.Sequential` — reduces the
network to one record per layer in the
:class:`~repro.embedded.deploy.DeployedModel` format, and
:func:`compile_records_plan` turns records (walked from a live model or
loaded from an artifact) into a flat list of :class:`PlanOp` steps.
Executing the plan is the job of :mod:`repro.runtime.executors`; the
user-facing façade is :class:`repro.runtime.session.InferenceSession`.

Two compile-time choices shape the emitted ops:

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

**The conv hot path** is *unfold, GEMM or rfft -> GEMM -> irfft, bias,
activation*.  The unfold writes the patch matrix by ``k*k`` strided
slice copies from a zero-bordered image slot straight into the
channel-last ``(batch, positions, k*k, C)`` layout its consumer
contracts over (:func:`~repro.nn.functional.unfold_patches`); dense
conv weights are permuted to that row order once at freeze.

**What "equal" means across kernels.**  ``bc_linear`` and the FFT
kernel of ``bc_conv`` call the training layers' own spectral kernel,
:func:`~repro.structured.ops.spectral_product` (paper Algorithm 1), so at
a given precision they equal the training-time layer *bitwise*; a
``bc_conv`` frozen to the dense kernel sums the same products in a
different order and equals it to 1e-10 (fp64).  *Bitwise* equality
holds between any two paths running the same kernel: training vs plan,
arena vs a direct ``op(x)`` call, threaded vs serial at the same
``batch_size``.  The tests' oracle,
:func:`~repro.testing.reference.reference_forward`, computes through
dense matrices and agrees with every kernel to 1e-10.

**Fusion** is one rule, :func:`fuse_plan`, run on every plan a session
builds: it folds every ``foldable`` op (affine, flatten, non-softmax
activations — and chains of them) into the preceding producer, so e.g.
``conv -> batchnorm -> relu`` and ``bc_conv+relu -> flatten`` each
become a single step and the plan executes one Python dispatch per
weight layer instead of one per ``Module``.

**One body per op.**  Every op is one callable, ``run(x, ws)``, staged
through a :class:`~repro.runtime.workspace.Workspace` of per-batch-bucket
reusable buffers (``np.matmul(..., out=...)``, in-place
bias/activation, zero-once pad buffers) so steady-state inference stops
paying the allocator.  Calling an op directly, ``op(x)``, runs that same
body against a fresh-allocating stand-in for the arena — the same
floating-point operations in the same order, only into new memory —
which is what tests use as the reference.  A session's stream push
(:meth:`~repro.runtime.session.InferenceSession.push_many`) runs the
same fused ops on ``(rows, channels)`` suffix chunks; the one stateful
op, ``fft1d``, asks its memory for its dilated left-tap rows
(``ws.left_taps``), which a workspace answers with the causal zero
history and a push answers from each stream's history buffer.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from ..analysis.complexity import bc_fc_ops, dense_fc_ops
from ..exceptions import DeploymentError
from ..nn.functional import conv_output_size, unfold_patches
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
from ..structured import block_circulant_to_dense
from ..structured.ops import FreshBuffers, spectral_product
from ..structured.spectral import freq_major

__all__ = [
    "DENSE_EXPANSION_CAP_BYTES",
    "GEMM_FLOP_ADVANTAGE",
    "PlanOp",
    "bc_conv_kernel",
    "compile_records_plan",
    "fuse_plan",
    "model_records",
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
    """One step of a frozen plan: a name plus one body, ``run(x, ws)``.

    ``run`` executes the op with ``ws`` — a
    :class:`~repro.runtime.workspace.Workspace` — as the memory for
    every intermediate and (for compute ops) the output; executors hand
    each thread its own.  ``op(x)`` runs the same body against fresh
    allocations instead, the reference the tests compare against.

    ``fusable`` marks producers (compute ops, pools) that
    :func:`fuse_plan` may fold a successor into; ``foldable`` marks ops
    cheap enough to be folded *into* their producer (affine, flatten,
    non-softmax activations).  ``fresh_out`` records whether the op owns
    its output buffer (a fresh allocation or an op-private arena slot) —
    the condition under which a folded successor may run its
    ``inplace_fn`` (an in-place variant, bitwise-equal to ``run``) on
    it.  ``flatten`` is the one op with ``fresh_out=False``: its output
    is a view of its *input*, which the op does not own.
    ``expanded_nbytes`` is the RAM the op holds in weights expanded
    beyond what the artifact stores (a dense-kernel ``bc_conv``); zero
    for every other op.  ``state_shape`` is the history a stream keeps
    for the op between pushes — ``(dilation, in_channels)`` on
    ``fft1d``, ``None`` on every stateless op.  ``kinds`` are the layer
    record kinds the op runs, in order (a fused op lists its parts);
    ``channels`` is ``(in_channels, out_channels)`` on the two sequence
    ops, ``fft1d`` and ``pointwise1d``, and ``None`` on every other op.
    """

    __slots__ = (
        "name",
        "run",
        "fusable",
        "foldable",
        "inplace_fn",
        "fresh_out",
        "expanded_nbytes",
        "state_shape",
        "kinds",
        "channels",
    )

    def __init__(
        self,
        name: str,
        run: Callable[[np.ndarray, object], np.ndarray],
        fusable: bool = False,
        foldable: bool = False,
        inplace_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        fresh_out: bool = True,
    ):
        self.name = name
        self.run = run
        self.fusable = fusable
        self.foldable = foldable
        self.inplace_fn = inplace_fn
        self.fresh_out = fresh_out
        self.expanded_nbytes = 0
        self.state_shape: tuple[int, int] | None = None
        self.kinds: tuple[str, ...] = ()
        self.channels: tuple[int, int] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run(x, _FRESH)

    def fold(self, op: "PlanOp") -> "PlanOp":
        """Fold a ``foldable`` successor into this op (one step).

        The successor runs its ``inplace_fn`` directly on this op's
        output when this op owns that buffer (``fresh_out``), which is
        bitwise-equal by the in-place ufunc contract; otherwise it runs
        its own body on the same workspace.
        """
        inner = self.run
        if op.inplace_fn is not None and self.fresh_out:
            post = op.inplace_fn

            def run(x: np.ndarray, ws) -> np.ndarray:
                return post(inner(x, ws))

        else:
            outer = op.run

            def run(x: np.ndarray, ws) -> np.ndarray:
                return outer(inner(x, ws), ws)

        folded = PlanOp(
            f"{self.name}+{op.name}",
            run,
            fusable=self.fusable,
            foldable=self.foldable and op.foldable,
            fresh_out=self.fresh_out or op.fresh_out,
        )
        folded.expanded_nbytes = self.expanded_nbytes + op.expanded_nbytes
        folded.state_shape = self.state_shape
        folded.kinds = self.kinds + op.kinds
        folded.channels = self.channels
        return folded

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
#: out-of-place forms in ``_ACTIVATIONS``.  Only applied by a folded op
#: to buffers its producing op owns (``fresh_out``).  leaky_relu
#: has no allocation-free in-place form (``np.where`` needs a fresh
#: destination) and softmax is never folded, so neither appears here.
_ACTIVATIONS_INPLACE: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda x: np.maximum(x, 0.0, out=x),
    "sigmoid": _sigmoid_inplace,
    "tanh": lambda x: np.tanh(x, out=x),
}


class _FreshBuffers(FreshBuffers):
    """Workspace stand-in behind ``op(x)``: every slot is a new array.

    The kernel's fresh-allocating stand-in
    (:class:`~repro.structured.ops.FreshBuffers`) plus the rest of what
    a workspace answers: ``bucket`` (no rounding), ``zeros`` and
    ``left_taps``, the causal zero history of a whole sequence.
    """

    @staticmethod
    def bucket(n: int) -> int:
        return n

    @staticmethod
    def zeros(slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    @staticmethod
    def left_taps(x: np.ndarray, dilation: int) -> np.ndarray:
        return shift_right(x, dilation)


_FRESH = _FreshBuffers()


# ----------------------------------------------------------------------
# Op builders
# ----------------------------------------------------------------------
def _bc_linear_op(
    spectra: np.ndarray,
    bias: np.ndarray | None,
    in_features: int,
    out_features: int,
    block_size: int,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    rdtype = policy.real_dtype
    spectra_fm = freq_major(np.asarray(spectra, dtype=policy.complex_dtype))
    q = spectra_fm.shape[2]
    b = block_size
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    tag = f"op{next(_OP_IDS)}.bcl"

    def run(x: np.ndarray, ws) -> np.ndarray:
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
            padded = ws.zeros(tag + ".pad", (m, q * b), rdtype)[:batch]
            padded[:, :in_features] = x
            xb = padded.reshape(batch, q, b)
        out_blocks, _ = spectral_product(spectra_fm, xb, ws, tag, m)
        out = out_blocks.reshape(batch, -1)[:, :out_features]
        if bias is not None:
            out += bias
        return out

    return PlanOp(
        f"bc_linear({in_features}->{out_features},b={b})", run, fusable=True
    )


def _linear_op(
    weight: np.ndarray,
    bias: np.ndarray | None,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    rdtype = policy.real_dtype
    weight_t = np.ascontiguousarray(np.asarray(weight, dtype=rdtype).T)
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    out_f, in_f = weight.shape
    tag = f"op{next(_OP_IDS)}.lin"

    def run(x: np.ndarray, ws) -> np.ndarray:
        batch = x.shape[0]
        m = ws.bucket(batch)
        out = np.matmul(
            x, weight_t, out=ws.get(f"{tag}.out", (m, out_f), rdtype)[:batch]
        )
        if bias is not None:
            out += bias
        return out

    return PlanOp(f"linear({in_f}->{out_f})", run, fusable=True)


def _fft1d_op(
    weight_l: np.ndarray,
    weight_r: np.ndarray,
    bias: np.ndarray | None,
    dilation: int,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    """Two-tap causal dilated sequence layer, the plan's one stateful op.

    ``y[t] = W_r x[t] + W_l x[t-d] + b`` over ``(batch, T, C)`` or
    ``(rows, C)``.  The body asks its memory for the left-tap rows
    ``x[t-d]``: a session's workspace (or ``op(x)``'s fresh stand-in)
    answers with the causal zero history, and a session's stream push
    answers from each stream's history buffer (``state_shape`` rows of
    it).  Both GEMMs go
    through :func:`~repro.nn.layers.fftnet1d.seq_matmul` — the
    row-count-stable kernel — and the adds are elementwise, so a push of
    any ``K`` new rows reproduces this op's batch outputs bitwise at
    the same precision.  It allocates its output fresh.
    """
    rdtype = policy.real_dtype
    wl_t = np.ascontiguousarray(np.asarray(weight_l, dtype=rdtype).T)
    wr_t = np.ascontiguousarray(np.asarray(weight_r, dtype=rdtype).T)
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    in_c, out_c = wr_t.shape
    dilation = int(dilation)
    if dilation < 1:
        raise DeploymentError(f"dilation must be >= 1, got {dilation}")

    def run(x: np.ndarray, ws) -> np.ndarray:
        xl = ws.left_taps(x, dilation)
        out = seq_matmul(x.reshape(-1, in_c), wr_t)
        out += seq_matmul(xl.reshape(-1, in_c), wl_t)
        if bias is not None:
            out += bias
        return out.reshape(*x.shape[:-1], out_c)

    op = PlanOp(f"fft1d({in_c}->{out_c},d={dilation})", run, fusable=True)
    op.state_shape = (dilation, in_c)
    op.channels = (in_c, out_c)
    return op


def _pointwise1d_op(
    weight: np.ndarray,
    bias: np.ndarray | None,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    """Per-timestep projection (1x1 conv) over ``(batch, T, C)`` or
    ``(rows, C)``: stateless, and row-stable through :func:`seq_matmul`
    like :func:`_fft1d_op`, so stream pushes run this same op.
    """
    rdtype = policy.real_dtype
    weight_t = np.ascontiguousarray(np.asarray(weight, dtype=rdtype).T)
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    in_c, out_c = weight_t.shape

    def run(x: np.ndarray, ws) -> np.ndarray:
        out = seq_matmul(x.reshape(-1, in_c), weight_t)
        if bias is not None:
            out += bias
        return out.reshape(*x.shape[:-1], out_c)

    op = PlanOp(f"pointwise1d({in_c}->{out_c})", run, fusable=True)
    op.channels = (in_c, out_c)
    return op


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

    return PlanOp(name, run, fusable=True)


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
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    """The one place a block-circulant conv picks its kernel: whichever
    of the two :func:`bc_conv_kernel` names."""
    rdtype = policy.real_dtype
    spectra = np.asarray(spectra, dtype=policy.complex_dtype)
    b = block_size
    k = kernel_size
    padded_c = channel_blocks * b
    bias = None if bias is None else np.asarray(bias, dtype=rdtype)
    p, q, _ = spectra.shape
    label = f"bc_conv({in_channels}->{out_channels},k={k},b={b}"

    if bc_conv_kernel(p, q, b, rdtype) == "dense":
        weight_t = _expand_bc_conv(
            spectra, in_channels, out_channels, k, b, rdtype
        )
        op = _unfold_gemm_op(
            label + ",dense)",
            weight_t, bias, in_channels, k, stride, padding, rdtype,
        )
        op.expanded_nbytes = weight_t.nbytes
        return op

    tag = f"op{next(_OP_IDS)}.bcc"
    spectra_fm = freq_major(spectra)

    def run(x: np.ndarray, ws) -> np.ndarray:
        cols, out_h, out_w = _unfold(
            x, ws, tag, in_channels, padded_c, k, stride, padding, rdtype
        )
        batch = x.shape[0]
        positions = out_h * out_w
        blocks = cols.reshape(batch * positions, q, b)
        out_blocks, _ = spectral_product(
            spectra_fm, blocks, ws, tag, ws.bucket(batch) * positions
        )
        out = out_blocks.reshape(batch, positions, -1)[..., :out_channels]
        out = out.transpose(0, 2, 1).reshape(batch, out_channels, out_h, out_w)
        if bias is not None:
            out += bias[None, :, None, None]
        return out

    return PlanOp(label + ",fft)", run, fusable=True)


def _affine_op(
    scale: np.ndarray,
    shift: np.ndarray,
    per_channel: bool,
    policy: PrecisionPolicy = FP64,
) -> PlanOp:
    scale = np.asarray(scale, dtype=policy.real_dtype)
    shift = np.asarray(shift, dtype=policy.real_dtype)

    def inplace_fn(x: np.ndarray) -> np.ndarray:
        if per_channel:
            x *= scale[None, :, None, None]
            x += shift[None, :, None, None]
        else:
            x *= scale
            x += shift
        return x

    tag = f"op{next(_OP_IDS)}.aff"

    def run(x: np.ndarray, ws) -> np.ndarray:
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
        run,
        fusable=True,
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
    return PlanOp(f"maxpool(k={kernel})", run, fusable=True)


def _avgpool_op(kernel: int, stride: int) -> PlanOp:
    tag = f"op{next(_OP_IDS)}.avgp"

    def run(x: np.ndarray, ws) -> np.ndarray:
        windows, out_h, out_w = pool_windows(x, kernel, stride)
        batch, chans = x.shape[0], x.shape[1]
        m = ws.bucket(batch)
        buf = ws.get(f"{tag}.out", (m, chans, out_h * out_w), x.dtype)[:batch]
        windows.mean(axis=-1, out=buf)
        return buf.reshape(batch, chans, out_h, out_w)

    return PlanOp(f"avgpool(k={kernel})", run, fusable=True)


def _flatten_op() -> PlanOp:
    # The output is a view of the op's *input*, so a folded successor
    # must not mutate it (fresh_out=False); the reshape itself is
    # allocation-free, so it doubles as its own in-place form.
    fn = lambda x: x.reshape(x.shape[0], -1)  # noqa: E731
    return PlanOp(
        "flatten",
        lambda x, ws: fn(x),
        foldable=True,
        inplace_fn=fn,
        fresh_out=False,
    )


def _activation_op(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> PlanOp:
    """An elementwise op; standalone it allocates its output fresh."""
    return PlanOp(
        name,
        lambda x, ws: fn(x),
        foldable=name != "softmax",
        inplace_fn=_ACTIVATIONS_INPLACE.get(name),
    )


def fuse_plan(ops: Sequence[PlanOp]) -> list[PlanOp]:
    """Compile pass: fold every foldable op into its producer.

    Affine (folded batch-norm / dequantize), flatten and non-softmax
    activation ops — and chains of them — merge into the preceding op,
    so e.g. ``conv -> affine -> relu -> ... -> bc_conv -> relu ->
    flatten`` executes as ``conv+affine+relu -> ... ->
    bc_conv+relu+flatten``.  The first op never folds into anything, so
    user input is never mutated; a folded op runs the same operations
    as its parts back to back, so outputs are untouched (bitwise).
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
# The layer walker and the record compiler
# ----------------------------------------------------------------------
def model_records(model: Sequential) -> list[dict]:
    """Walk a trained model into layer records — the one freezing ladder.

    One record per inference-time layer, in the
    :class:`~repro.embedded.deploy.DeployedModel` format but at the
    model's native precision: compute layers carry their ``weight`` and
    ``bias`` arrays as they are (``fft1d`` stacks its left and right
    taps into one ``(2, out, in)`` weight), and block-circulant layers
    add ``spectra`` — their ``rfft`` half-spectra, taken from the
    layer's :class:`~repro.structured.spectral.SpectrumCache`, so a
    model that has already run inference pays no transform here.
    Dropout disappears; batch-norm folds into a per-feature ``affine``
    record.

    :meth:`InferenceSession.freeze
    <repro.runtime.session.InferenceSession.freeze>` compiles these
    records directly; :meth:`DeployedModel.from_model
    <repro.embedded.deploy.DeployedModel.from_model>` casts them to the
    artifact's storage dtypes (optionally quantizing) first.
    """
    records: list[dict] = []
    for layer in model:
        bias = getattr(layer, "bias", None)
        bias = None if bias is None else bias.data
        if isinstance(layer, BlockCirculantLinear):
            records.append(
                {
                    "kind": "bc_linear",
                    "weight": layer.weight.data,
                    "spectra": layer.weight_spectra()[0],
                    "bias": bias,
                    "in_features": layer.in_features,
                    "out_features": layer.out_features,
                    "block_size": layer.block_size,
                }
            )
        elif isinstance(layer, Linear):
            records.append(
                {"kind": "linear", "weight": layer.weight.data, "bias": bias}
            )
        elif isinstance(layer, BlockCirculantConv2d):
            records.append(
                {
                    "kind": "bc_conv",
                    "weight": layer.weight.data,
                    "spectra": layer.weight_spectra()[0],
                    "bias": bias,
                    "in_channels": layer.in_channels,
                    "out_channels": layer.out_channels,
                    "kernel_size": layer.kernel_size,
                    "block_size": layer.block_size,
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "channel_blocks": layer.channel_blocks,
                }
            )
        elif isinstance(layer, Conv2d):
            records.append(
                {
                    "kind": "conv",
                    "weight": layer.weight.data,
                    "bias": bias,
                    "stride": layer.stride,
                    "padding": layer.padding,
                }
            )
        elif isinstance(layer, FFTLayer1d):
            # [0] is the dilated left tap, [1] the current-sample right
            # tap: one weight, so quantization covers both taps with a
            # single per-tensor Q-format.
            records.append(
                {
                    "kind": "fft1d",
                    "weight": np.stack([layer.weight_l.data, layer.weight_r.data]),
                    "bias": bias,
                    "in_channels": layer.in_channels,
                    "out_channels": layer.out_channels,
                    "dilation": layer.dilation,
                }
            )
        elif isinstance(layer, Pointwise1d):
            records.append(
                {
                    "kind": "pointwise1d",
                    "weight": layer.weight.data,
                    "bias": bias,
                    "in_channels": layer.in_channels,
                    "out_channels": layer.out_channels,
                }
            )
        elif isinstance(layer, ReLU):
            records.append({"kind": "relu"})
        elif isinstance(layer, LeakyReLU):
            records.append({"kind": "leaky_relu", "slope": layer.negative_slope})
        elif isinstance(layer, Sigmoid):
            records.append({"kind": "sigmoid"})
        elif isinstance(layer, Tanh):
            records.append({"kind": "tanh"})
        elif isinstance(layer, Softmax):
            records.append({"kind": "softmax"})
        elif isinstance(layer, Flatten):
            records.append({"kind": "flatten"})
        elif isinstance(layer, MaxPool2d):
            records.append(
                {"kind": "maxpool", "kernel": layer.kernel_size, "stride": layer.stride}
            )
        elif isinstance(layer, AvgPool2d):
            records.append(
                {"kind": "avgpool", "kernel": layer.kernel_size, "stride": layer.stride}
            )
        elif isinstance(layer, Dropout):
            continue  # identity at inference
        elif isinstance(layer, (BatchNorm1d, BatchNorm2d)):
            std = np.sqrt(layer.running_var + layer.eps)
            scale = layer.gamma.data / std
            records.append(
                {
                    "kind": "affine",
                    "scale": scale,
                    "shift": layer.beta.data - layer.running_mean * scale,
                    "per_channel": isinstance(layer, BatchNorm2d),
                }
            )
        else:
            raise DeploymentError(
                f"cannot freeze layer type {type(layer).__name__}"
            )
    return records


def compile_records_plan(
    records: Sequence[dict],
    policy: PrecisionPolicy = FP64,
) -> list[PlanOp]:
    """Compile layer records into a flat, unfused op plan.

    ``records`` is a list of dicts in the
    :class:`~repro.embedded.deploy.DeployedModel` format — walked from a
    live model by :func:`model_records` or loaded from an artifact.
    Every array is cast once here to the policy's dtypes (the artifact's
    complex64 spectra widen under fp64), not on every call.
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
        elif kind in _ACTIVATIONS:
            ops.append(_activation_op(kind, _ACTIVATIONS[kind]))
        elif kind == "leaky_relu":
            slope = record["slope"]
            ops.append(
                _activation_op(
                    "leaky_relu", lambda x, s=slope: np.where(x > 0.0, x, s * x)
                )
            )
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
        ops[-1].kinds = (kind,)
    return ops
