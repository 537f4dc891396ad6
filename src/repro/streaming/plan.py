"""The incremental stream plan: suffix pushes, bitwise batch parity.

:func:`compile_stream_plan` freezes a sequence model (a live
:class:`~repro.nn.module.Sequential` or a deployment artifact's records)
into a :class:`StreamPlan` — the streaming twin of
:func:`~repro.runtime.plan.compile_records_plan`.  Where the batch plan
consumes a whole ``(batch, T, channels)`` timeline at once, the stream
plan consumes it in arbitrary suffix chunks: push ``K`` new samples and
get exactly the ``K`` new output rows, with all cross-sample memory held
in a per-conversation :class:`~repro.streaming.state.StreamState`.

Parity is the contract, and it is structural rather than approximate.
Every weight application in both plans routes through
:func:`~repro.nn.layers.fftnet1d.seq_matmul`, whose per-row results are
independent of how many rows share the call, and every step replicates
the batch op's exact accumulation order (right tap, ``+=`` left tap,
``+=`` bias, activation — all elementwise past the GEMMs).  A timestep's
output therefore depends only on that timestep's row values, never on
its neighbours in the call, so any chunking of the timeline — one
sample at a time, ragged pushes, or many streams' chunks fused into a
single call by the server's micro-batcher — is bitwise identical to the
batch plan over the concatenated sequence (fp64 and fp32 alike).

Fusion across streams falls out of the same property:
:meth:`StreamPlan.push_many` stacks all streams' new rows into one
matrix per step, runs each GEMM once, and scatters the rows back, so
``N`` concurrent single-sample pushes cost one fused step instead of
``N`` tiny ones — without perturbing a single bit of any stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..exceptions import DeploymentError, ShapeError
from ..nn.layers import seq_matmul
from ..nn.module import Sequential
from ..precision import FP64, PrecisionPolicy
from ..runtime.plan import _ACTIVATIONS, model_records, softmax
from .state import StreamState

__all__ = ["StreamPlan", "compile_stream_plan"]


class _TapStep:
    """One two-tap causal layer ``y[t] = W_r x[t] + W_l x[t-d] + b``.

    Holds ``dilation`` rows of per-stream input history (in the
    :class:`StreamState`, not here); the step itself is shared and
    immutable apart from the foldable ``activation`` slot filled during
    compilation.
    """

    __slots__ = ("name", "wl_t", "wr_t", "bias", "dilation", "in_c", "out_c", "activation")

    def __init__(self, weight_l, weight_r, bias, dilation, rdtype):
        self.wl_t = np.ascontiguousarray(np.asarray(weight_l, dtype=rdtype).T)
        self.wr_t = np.ascontiguousarray(np.asarray(weight_r, dtype=rdtype).T)
        self.bias = None if bias is None else np.asarray(bias, dtype=rdtype)
        self.dilation = int(dilation)
        self.in_c, self.out_c = self.wr_t.shape
        self.activation: Callable[[np.ndarray], np.ndarray] | None = None
        self.name = f"fft1d({self.in_c}->{self.out_c},d={self.dilation})"
        if self.dilation < 1:
            raise DeploymentError(f"dilation must be >= 1, got {dilation}")

    @property
    def state_shape(self) -> tuple[int, int]:
        return (self.dilation, self.in_c)

    def run(self, x, states, offsets, index):
        lefts = []
        for i, state in enumerate(states):
            new = x[offsets[i] : offsets[i + 1]]
            ctx = np.concatenate([state.buffers[index], new], axis=0)
            # ctx is the last ``dilation`` inputs followed by the new
            # rows: ctx[k] is x[t - dilation] for the k-th new position.
            lefts.append(ctx[: new.shape[0]])
            state.buffers[index] = ctx[ctx.shape[0] - self.dilation :].copy()
        xl = lefts[0] if len(lefts) == 1 else np.concatenate(lefts, axis=0)
        out = seq_matmul(x, self.wr_t)
        out += seq_matmul(xl, self.wl_t)
        if self.bias is not None:
            out += self.bias
        if self.activation is not None:
            out = self.activation(out)
        return out


class _DenseStep:
    """Per-timestep projection (``Pointwise1d``): stateless."""

    __slots__ = ("name", "weight_t", "bias", "in_c", "out_c", "activation")

    def __init__(self, weight, bias, rdtype):
        self.weight_t = np.ascontiguousarray(np.asarray(weight, dtype=rdtype).T)
        self.bias = None if bias is None else np.asarray(bias, dtype=rdtype)
        self.in_c, self.out_c = self.weight_t.shape
        self.activation: Callable[[np.ndarray], np.ndarray] | None = None
        self.name = f"pointwise1d({self.in_c}->{self.out_c})"

    state_shape = None

    def run(self, x, states, offsets, index):
        out = seq_matmul(x, self.weight_t)
        if self.bias is not None:
            out += self.bias
        if self.activation is not None:
            out = self.activation(out)
        return out


class _ElementwiseStep:
    """A bare per-row function (softmax, or an unfoldable activation)."""

    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    state_shape = None

    def run(self, x, states, offsets, index):
        return self.fn(x)


class StreamPlan:
    """A frozen incremental plan: shared weights, per-stream state.

    Thread-compatibility contract: the plan itself is immutable after
    compilation and may be shared freely; a :class:`StreamState` is
    mutated by pushes and must not appear in two concurrent calls (the
    server enforces this with a per-stream busy flag).
    """

    def __init__(self, steps: Sequence, policy: PrecisionPolicy):
        steps = list(steps)
        matmuls = [s for s in steps if isinstance(s, (_TapStep, _DenseStep))]
        if not matmuls:
            raise DeploymentError(
                "model has no streamable weight layers (FFTLayer1d / Pointwise1d)"
            )
        self.steps = steps
        self.policy = policy
        self.in_channels = matmuls[0].in_c
        self.out_channels = matmuls[-1].out_c
        #: one entry per step: ``(dilation, in_channels)`` or ``None``.
        self.state_shapes = tuple(s.state_shape for s in steps)
        self.ends_with_softmax = bool(steps) and steps[-1].name == "softmax"
        #: output of sample ``t`` depends on inputs ``t-rf+1 .. t``.
        self.receptive_field = 1 + sum(
            s.dilation for s in steps if isinstance(s, _TapStep)
        )
        itemsize = np.dtype(policy.real_dtype).itemsize
        #: history bytes per stream — fixed, known before any data.
        self.state_bytes = sum(
            shape[0] * shape[1] * itemsize
            for shape in self.state_shapes
            if shape is not None
        )

    def describe(self) -> list[str]:
        """Step names, mirroring the batch plan's fused op names."""
        return [s.name for s in self.steps]

    def open(self) -> StreamState:
        """A fresh stream positioned at sample zero."""
        return StreamState(self)

    def push(self, state: StreamState, chunk, proba: bool = False) -> np.ndarray:
        """Feed ``chunk`` new samples to one stream; return its new rows."""
        return self.push_many([state], [chunk], proba=proba)[0]

    def push_many(
        self,
        states: Sequence[StreamState],
        chunks: Sequence,
        proba: bool = False,
    ) -> list[np.ndarray]:
        """One fused step over many streams' new samples.

        ``chunks[i]`` is stream ``i``'s suffix — ``(K_i, in_channels)``
        (or ``(K_i,)`` when ``in_channels == 1``); the return value is
        the matching ``(K_i, out_channels)`` output rows per stream,
        bitwise equal to what the batch plan produces for those
        positions of the full sequence.  With ``proba=True`` the rows
        are passed through softmax unless the plan already ends in one
        (the :meth:`~repro.runtime.session.InferenceSession.predict_proba`
        convention).  All streams advance atomically from the caller's
        view: validation happens before any state is touched.
        """
        if len(states) != len(chunks):
            raise ShapeError(
                f"{len(states)} states but {len(chunks)} chunks in fused push"
            )
        if not states:
            return []
        seen: set[int] = set()
        for state in states:
            if state.plan is not self:
                raise DeploymentError("StreamState belongs to a different plan")
            if id(state) in seen:
                raise DeploymentError("the same StreamState appears twice in a fused push")
            seen.add(id(state))
        rdtype = self.policy.real_dtype
        rows: list[np.ndarray] = []
        sizes: list[int] = []
        for chunk in chunks:
            arr = np.asarray(chunk, dtype=rdtype)
            if arr.ndim == 1 and self.in_channels == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[1] != self.in_channels:
                raise ShapeError(
                    f"stream chunk must be (samples, {self.in_channels}), "
                    f"got shape {np.asarray(chunk).shape}"
                )
            rows.append(arr)
            sizes.append(arr.shape[0])
        x = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=0)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for index, step in enumerate(self.steps):
            x = step.run(x, states, offsets, index)
        if proba and not self.ends_with_softmax:
            x = softmax(x)
        for state, size in zip(states, sizes):
            state.samples += size
            state.pushes += 1
        if len(states) == 1:
            return [x]
        return [
            np.ascontiguousarray(x[offsets[i] : offsets[i + 1]])
            for i in range(len(states))
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamPlan({len(self.steps)} steps, rf={self.receptive_field}, "
            f"state_bytes={self.state_bytes})"
        )


def _attach_activation(steps: list, name: str, fn) -> None:
    """Fold an activation into the producing step (batch-plan fusion twin)."""
    if (
        steps
        and isinstance(steps[-1], (_TapStep, _DenseStep))
        and steps[-1].activation is None
        and name != "softmax"
    ):
        steps[-1].activation = fn
        steps[-1].name += f"+{name}"
    else:
        steps.append(_ElementwiseStep(name, fn))


def _steps_from_records(records: Sequence[dict], rdtype) -> list:
    steps: list = []
    for record in records:
        kind = record["kind"]
        if kind == "fft1d":
            stacked = np.asarray(record["weight"])
            steps.append(
                _TapStep(
                    stacked[0], stacked[1], record["bias"], record["dilation"], rdtype
                )
            )
        elif kind == "pointwise1d":
            steps.append(_DenseStep(record["weight"], record["bias"], rdtype))
        elif kind in ("relu", "sigmoid", "tanh"):
            _attach_activation(steps, kind, _ACTIVATIONS[kind])
        elif kind == "leaky_relu":
            slope = record["slope"]
            _attach_activation(
                steps,
                "leaky_relu",
                lambda x, s=slope: np.where(x > 0.0, x, s * x),
            )
        elif kind == "softmax":
            steps.append(_ElementwiseStep("softmax", softmax))
        else:
            raise DeploymentError(
                f"record kind {kind!r} is not streamable; stream plans "
                "support fft1d / pointwise1d plus elementwise activations"
            )
    return steps


def compile_stream_plan(
    source, policy: PrecisionPolicy = FP64
) -> StreamPlan:
    """Freeze ``source`` into a :class:`StreamPlan`.

    ``source`` is a live :class:`~repro.nn.module.Sequential` (walked
    into records by :func:`~repro.runtime.plan.model_records`, the batch
    plan's own walker), a :class:`~repro.embedded.deploy.DeployedModel`,
    or its raw record list — so any model or artifact the engine can
    serve in batch mode can also be served incrementally if its layers
    are streamable.
    """
    if isinstance(source, Sequential):
        records = model_records(source)
    else:
        records = getattr(source, "records", source)
    return StreamPlan(_steps_from_records(records, policy.real_dtype), policy)
