"""The incremental stream plan: the batch plan's own ops, pushed in suffixes.

:func:`compile_stream_plan` freezes a sequence model (a live
:class:`~repro.nn.module.Sequential` or a deployment artifact's records)
into a :class:`StreamPlan` whose op list *is* the frozen batch plan —
``fuse_plan(compile_records_plan(records, policy))``, the ops an
:class:`~repro.runtime.session.InferenceSession` runs.  Where a session
feeds those ops a whole ``(batch, T, channels)`` timeline, a push feeds
them ``(rows, channels)`` suffix chunks: push ``K`` new samples and get
exactly the ``K`` new output rows, with all cross-sample memory held in
a per-conversation :class:`~repro.streaming.state.StreamState`.

Parity is structural: a stream plan runs the batch plan's own ops.  The
one stateful op, ``fft1d``, asks the memory it runs against for its
dilated left-tap rows — a session's workspace answers with the causal
zero history, a push answers from the streams' history buffers — and
the rest of its body, like every other op, is shared code.  The answer
is bitwise rather than close because every weight application goes
through :func:`~repro.nn.layers.fftnet1d.seq_matmul`, whose per-row
results do not depend on how many rows share the call, and everything
past the GEMMs is elementwise.  So at the same precision (fp64 or fp32)
any chunking of the timeline — one sample at a time, ragged pushes, or
many streams' chunks fused into a single call by the server's
micro-batcher — is bitwise identical to the batch plan over the
concatenated sequence.

Fusion across streams falls out of the same property:
:meth:`StreamPlan.push_many` stacks all streams' new rows into one
matrix, runs each op once, and scatters the rows back, so ``N``
concurrent single-sample pushes cost one fused step instead of ``N``
tiny ones — without perturbing a single bit of any stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DeploymentError, ShapeError
from ..nn.module import Sequential
from ..precision import FP64, PrecisionPolicy
from ..runtime.plan import (
    PlanOp,
    compile_records_plan,
    fuse_plan,
    model_records,
    softmax,
)
from .state import StreamState

__all__ = ["StreamPlan", "compile_stream_plan"]

#: Record kinds whose ops are row-wise over ``(rows, channels)``: the
#: two sequence layers and the elementwise activations.
_STREAMABLE = frozenset(
    {"fft1d", "pointwise1d", "relu", "leaky_relu", "sigmoid", "tanh", "softmax"}
)


class _PushMemory:
    """The memory a push runs the plan's ops against.

    Streamable ops ask it for one thing, ``fft1d``'s left-tap rows; it
    answers from each stream's history buffer for plan op ``step`` (set
    by the push loop) and rolls that buffer on to the newest
    ``dilation`` input rows.
    """

    __slots__ = ("states", "bounds", "step")

    def __init__(self, states: Sequence[StreamState], bounds: list):
        self.states = states
        self.bounds = bounds
        self.step = 0

    def left_taps(self, x: np.ndarray, dilation: int) -> np.ndarray:
        step = self.step
        lefts = []
        for state, (start, stop) in zip(self.states, self.bounds):
            ctx = np.concatenate([state.buffers[step], x[start:stop]])
            # ctx is the last ``dilation`` inputs followed by the new
            # rows: ctx[k] is x[t - dilation] for the k-th new row.
            lefts.append(ctx[: stop - start])
            state.buffers[step] = ctx[ctx.shape[0] - dilation :].copy()
        return lefts[0] if len(lefts) == 1 else np.concatenate(lefts)


class StreamPlan:
    """A frozen incremental plan: shared ops, per-stream state.

    ``ops`` is the fused batch plan of the same records.
    Thread-compatibility contract: the plan itself is immutable after
    compilation and may be shared freely; a :class:`StreamState` is
    mutated by pushes and must not appear in two concurrent calls (the
    server enforces this with a per-stream busy flag).
    """

    def __init__(
        self,
        ops: Sequence[PlanOp],
        policy: PrecisionPolicy,
        in_channels: int,
        out_channels: int,
    ):
        self.ops = list(ops)
        self.policy = policy
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        #: one entry per op: ``(dilation, in_channels)`` or ``None``.
        self.state_shapes = tuple(op.state_shape for op in self.ops)
        self.ends_with_softmax = self.ops[-1].name == "softmax"
        shapes = [shape for shape in self.state_shapes if shape is not None]
        #: output of sample ``t`` depends on inputs ``t-rf+1 .. t``.
        self.receptive_field = 1 + sum(dilation for dilation, _ in shapes)
        itemsize = np.dtype(policy.real_dtype).itemsize
        #: history bytes per stream — fixed, known before any data.
        self.state_bytes = sum(rows * cols * itemsize for rows, cols in shapes)

    def describe(self) -> list[str]:
        """Op names, in the session's format (fused ops show as ``a+b``)."""
        return [op.name for op in self.ops]

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
        bitwise equal to what the batch plan produces at the same
        precision for those positions of the full sequence.  With
        ``proba=True`` the rows are passed through softmax unless the
        plan already ends in one (the
        :meth:`~repro.runtime.session.InferenceSession.predict_proba`
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
        bounds: list[tuple[int, int]] = []
        start = 0
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
            bounds.append((start, start + arr.shape[0]))
            start += arr.shape[0]
        x = rows[0] if len(rows) == 1 else np.concatenate(rows)
        memory = _PushMemory(states, bounds)
        for memory.step, op in enumerate(self.ops):
            x = op.run(x, memory)
        if proba and not self.ends_with_softmax:
            x = softmax(x)
        for state, (start, stop) in zip(states, bounds):
            state.samples += stop - start
            state.pushes += 1
        if len(states) == 1:
            return [x]
        return [np.ascontiguousarray(x[start:stop]) for start, stop in bounds]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamPlan({len(self.ops)} ops, rf={self.receptive_field}, "
            f"state_bytes={self.state_bytes})"
        )


def compile_stream_plan(
    source, policy: PrecisionPolicy = FP64
) -> StreamPlan:
    """Freeze ``source`` into a :class:`StreamPlan`.

    ``source`` is a live :class:`~repro.nn.module.Sequential` (walked
    into records by :func:`~repro.runtime.plan.model_records`, the batch
    plan's own walker), a :class:`~repro.embedded.deploy.DeployedModel`,
    or its raw record list — so any model or artifact the engine can
    serve in batch mode can also be served incrementally if its layers
    are streamable.  The plan's ops are the batch compiler's, fused.
    """
    if isinstance(source, Sequential):
        records = model_records(source)
    else:
        records = getattr(source, "records", source)
    for record in records:
        if record["kind"] not in _STREAMABLE:
            raise DeploymentError(
                f"record kind {record['kind']!r} is not streamable; stream "
                "plans support fft1d / pointwise1d plus elementwise activations"
            )
    weights = [np.shape(record["weight"]) for record in records if "weight" in record]
    if not weights:
        raise DeploymentError(
            "model has no streamable weight layers (FFTLayer1d / Pointwise1d)"
        )
    ops = fuse_plan(compile_records_plan(records, policy))
    return StreamPlan(ops, policy, weights[0][-1], weights[-1][-2])
