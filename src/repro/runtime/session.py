"""The frozen inference session: the runtime primitive under the engine.

:class:`InferenceSession` binds one compiled plan to one executor.  It
is the low-level building block — application code should normally go
through :class:`repro.engine.Engine`, which pools sessions per
(model, precision) and adds the registry, typed requests, and serving;
this module stays the documented seam for tests, benchmarks, and the
engine itself.

**Freeze/predict contract.**  There is one way to freeze a plan:
:meth:`InferenceSession.freeze` walks a trained
:class:`~repro.nn.module.Sequential` into layer records with
:func:`~repro.runtime.plan.model_records` — the same walk
:meth:`~repro.embedded.deploy.DeployedModel.from_model` packages — and
compiles them exactly as :meth:`InferenceSession.from_deployed`
compiles an artifact's records (see :mod:`repro.runtime.plan`).  The
snapshot is immutable:

* block-circulant weights are captured as their precomputed ``rfft``
  half-spectra (taken from the layer's version-keyed
  :class:`~repro.structured.spectral.SpectrumCache`, so freezing a model
  that has already run inference costs no extra transforms),
* dense weights are captured at the session's precision (training after
  freezing a session and expecting the session to follow is **not**
  supported — freeze again after updating weights),
* dropout disappears, batch-norm folds its running statistics into a
  per-feature affine op,
* every elementwise activation, affine and flatten is fused into the
  producing op, so the plan executes one step per weight layer instead
  of one Python dispatch per ``Module``.

**Precision.**  ``precision="fp32"`` compiles the whole plan at
float32/complex64 (half the spectrum memory and memory traffic, ~1e-6
accuracy — plenty for the paper's embedded targets); the default
``"fp64"`` preserves the reference numerics.  Inputs are cast once at
the session boundary; nothing on the hot path silently upcasts.

**Execution.**  The session hands its plan to a
:class:`~repro.runtime.executors.PlanExecutor` instead of executing
itself: :class:`~repro.runtime.executors.SerialExecutor` (default) runs
every chunk on the calling thread;
:class:`~repro.runtime.executors.ThreadedExecutor` fans the chunks of a
``predict`` whole across an in-process thread pool (the GIL-releasing
numpy kernels overlap on real cores with zero serialization).  The
compiled plan is the same either way, and threaded output is
bitwise-identical to serial output at the same ``batch_size`` by
construction.

**Allocation-free hot path.**  This is how every plan runs, not an
option: the session runs the :func:`~repro.runtime.plan.fuse_plan`
compile pass (folding affine / flatten / activation chains into their
producing op), and the executor gives every executing thread a
workspace arena (:class:`~repro.runtime.workspace.Workspace`) of
buffers keyed by op and bucketed batch size
(:attr:`InferenceSession.arena_buckets`), so steady-state calls
allocate only the returned output array.  Both are bitwise-neutral:
``op(x)`` over the unfused ops returns the same bits.

``predict`` / ``predict_proba`` stream arbitrarily large input arrays
through the plan in ``batch_size`` chunks, bounding peak memory by the
chunk size rather than the dataset size; ``batch_size=None`` runs one
shot.  No autograd graph is built anywhere on this path.

**Streams.**  A session whose ops are all row-wise over
``(rows, channels)`` — the sequence layers ``fft1d`` and
``pointwise1d`` plus elementwise activations, decided once when the
session is built — also serves live streams: :meth:`open` a
:class:`~repro.streaming.state.StreamState`, then :meth:`push` suffix
chunks and get exactly the new output rows.  A push runs the session's
own ops; the one stateful op, ``fft1d``, asks the memory it runs
against for its dilated left-tap rows, which a workspace answers with
the causal zero history and a push answers from each stream's history
buffer.  The answer is bitwise rather than close because every weight
application goes through :func:`~repro.nn.layers.fftnet1d.seq_matmul`,
whose per-row results do not depend on how many rows share the call,
and everything past the GEMMs is elementwise.  So at the same
precision any chunking of a timeline — one sample at a time, ragged
pushes, or many streams' chunks fused into one :meth:`push_many` call
by the server's micro-batcher — is bitwise identical to
:meth:`predict_proba` over the concatenated sequence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DeploymentError, ShapeError
from ..nn.module import Sequential
from ..precision import FP64, PrecisionPolicy
from ..streaming.state import StreamState
from .executors import PlanExecutor, SerialExecutor, ThreadedExecutor
from .plan import (
    PlanOp,
    compile_records_plan,
    fuse_plan,
    model_records,
    softmax,
)
from .workspace import DEFAULT_BATCH_BUCKETS, Workspace

__all__ = [
    "InferenceSession",
    "PlanOp",
    "Workspace",
    "compile_stream_plan",
    "iter_batches",
    "softmax",
]

#: Record kinds whose ops are row-wise over ``(rows, channels)``: the
#: two sequence layers and the elementwise activations.  A session
#: serves streams only when every op it runs is built from these.
_STREAMABLE = frozenset(
    {"fft1d", "pointwise1d", "relu", "leaky_relu", "sigmoid", "tanh", "softmax"}
)


def iter_batches(x: np.ndarray, batch_size: int | None):
    """THE ``batch_size`` contract, defined once for every predict path.

    ``None`` yields the whole array as one batch; a positive value
    yields ``batch_size``-row chunks; zero or negative raises
    :class:`ValueError` ("no batching" is spelled ``None``, not ``0``).
    :class:`InferenceSession`, :class:`~repro.engine.Engine` and
    :class:`~repro.embedded.deploy.DeployedModel` all stream through
    this helper, so the semantics cannot drift between them.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size is None or x.shape[0] <= batch_size:
        yield x
        return
    for start in range(0, x.shape[0], batch_size):
        yield x[start : start + batch_size]


def _stream_refusal(ops: Sequence[PlanOp]) -> str | None:
    """Why a session of ``ops`` cannot serve streams (``None``: it can)."""
    for op in ops:
        for kind in op.kinds:
            if kind not in _STREAMABLE:
                return (
                    f"record kind {kind!r} is not streamable; streams "
                    "support fft1d / pointwise1d plus elementwise activations"
                )
    if not any(op.channels for op in ops):
        return "model has no streamable weight layers (FFTLayer1d / Pointwise1d)"
    return None


class _PushMemory:
    """The memory a push runs the session's ops against.

    Streamable ops ask it for one thing, ``fft1d``'s left-tap rows; it
    answers from each stream's history buffer for op ``step`` (set by
    the push loop) and rolls that buffer on to the newest ``dilation``
    input rows.
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


def _resolve_executor(spec) -> PlanExecutor:
    """Normalize an executor spec: None/name/instance -> PlanExecutor."""
    if spec is None or isinstance(spec, PlanExecutor):
        return spec or SerialExecutor()
    if spec == "serial":
        return SerialExecutor()
    if spec == "threaded":
        return ThreadedExecutor()
    raise ValueError(
        f"unknown executor {spec!r}; expected 'serial', 'threaded', "
        "or a PlanExecutor instance"
    )


class InferenceSession:
    """A trained model frozen into a flat plan of numpy ops.

    Construct with :meth:`freeze` (from a live :class:`Sequential`) or
    :meth:`from_deployed` (from a
    :class:`~repro.embedded.deploy.DeployedModel` artifact).  The session
    holds no autograd state and never touches the source model again;
    see the module docstring for the full freeze/predict contract.

    ``precision`` is a :class:`~repro.precision.PrecisionPolicy` or its
    name; ``executor`` is a
    :class:`~repro.runtime.executors.PlanExecutor`, ``"serial"``,
    ``"threaded"``, or ``None`` (serial).  The session fuses ``ops``
    and binds the executor to the result; call :meth:`close` (or use
    the session as a context manager) to release a threaded executor's
    private pool.

    Stream geometry is fixed at construction: ``receptive_field`` (the
    output of sample ``t`` depends on inputs ``t-rf+1 .. t``),
    ``state_bytes`` (the history one stream holds, known before any
    data) and, on a streamable session, ``in_channels`` and
    ``out_channels`` (``None`` otherwise).  The session is immutable
    and may be shared; a :class:`~repro.streaming.state.StreamState` is
    mutated by pushes and must not appear in two concurrent calls (the
    server enforces this with a per-stream busy flag).
    """

    #: The batch sizes every executor thread's workspace arena rounds
    #: up to (see :class:`~repro.runtime.workspace.Workspace`).
    arena_buckets: tuple[int, ...] = DEFAULT_BATCH_BUCKETS

    def __init__(
        self,
        ops: Sequence[PlanOp],
        precision: str | PrecisionPolicy | None = None,
        executor: PlanExecutor | str | None = None,
    ):
        if not ops:
            raise DeploymentError("inference session has no ops")
        self.ops = fuse_plan(ops)
        self.policy = PrecisionPolicy.resolve(precision)
        self.executor = _resolve_executor(executor).bind(self.ops)
        self.ends_with_softmax = self.ops[-1].name == "softmax"
        shapes = [op.state_shape for op in self.ops if op.state_shape]
        self.receptive_field = 1 + sum(dilation for dilation, _ in shapes)
        itemsize = np.dtype(self.policy.real_dtype).itemsize
        self.state_bytes = sum(rows * cols * itemsize for rows, cols in shapes)
        self._stream_refusal = _stream_refusal(self.ops)
        widths = [op.channels for op in self.ops if op.channels]
        streamable = self._stream_refusal is None
        self.in_channels = widths[0][0] if streamable else None
        self.out_channels = widths[-1][1] if streamable else None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls,
        model: Sequential,
        precision: str | PrecisionPolicy | None = None,
        executor: PlanExecutor | str | None = None,
    ) -> "InferenceSession":
        """Snapshot ``model`` into a session (see module docstring):
        the records of :func:`~repro.runtime.plan.model_records`,
        compiled at ``precision``."""
        policy = PrecisionPolicy.resolve(precision)
        ops = compile_records_plan(model_records(model), policy=policy)
        return cls(ops, precision=policy, executor=executor)

    @classmethod
    def from_deployed(
        cls,
        deployed,
        precision: str | PrecisionPolicy | None = None,
        executor: PlanExecutor | str | None = None,
    ) -> "InferenceSession":
        """Build a session from a deployment artifact's layer records.

        ``deployed`` is anything with a ``records`` list in the
        :class:`~repro.embedded.deploy.DeployedModel` format.  The
        complex64 artifact spectra are widened (fp64) or used as stored
        (fp32) once here, not on every call.
        """
        policy = PrecisionPolicy.resolve(precision)
        ops = compile_records_plan(deployed.records, policy=policy)
        return cls(ops, precision=policy, executor=executor)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def precision(self) -> str:
        """The session's precision name (``"fp64"`` or ``"fp32"``)."""
        return self.policy.name

    def cast(self, inputs) -> np.ndarray:
        """``inputs`` as an array at the session's real dtype.

        The one input rule of :meth:`forward`, :meth:`predict_proba`
        and :meth:`push_many` (and of the server's front door): any
        real dtype (bool, int, uint, float) casts; every other kind
        raises :class:`TypeError`, since a cast would drop a complex
        input's imaginary part, parse strings as numbers and read
        datetimes as day counts.
        """
        x = np.asarray(inputs)
        if x.dtype.kind not in "biuf":
            raise TypeError(
                f"input must be real-valued (bool, int, uint or float), "
                f"got dtype {x.dtype}"
            )
        return x.astype(self.policy.real_dtype, copy=False)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run one batch through the plan; returns the final op's output."""
        x = self.cast(inputs)
        if x.ndim == 1:
            x = x[None]
        return self.executor.run(x)

    def predict_proba(
        self, inputs: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Class probabilities, streamed in ``batch_size`` chunks.

        ``batch_size`` semantics (shared verbatim by the engine
        facade): ``None`` (default) runs one shot; a positive
        value streams that many rows per chunk; zero or negative raises
        :class:`ValueError` — "no batching" is spelled ``None``, not
        ``0``.

        With a :class:`ThreadedExecutor`, chunks run concurrently on the
        thread pool; results are identical to serial streaming.
        """
        x = self.cast(inputs)
        if x.ndim == 1:
            x = x[None]
        outputs = self.executor.map_batches(list(iter_batches(x, batch_size)))
        if not self.ends_with_softmax:
            outputs = [softmax(out) for out in outputs]
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def predict(
        self, inputs: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Predicted integer labels, streamed in ``batch_size`` chunks."""
        return self.predict_proba(inputs, batch_size=batch_size).argmax(axis=-1)

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def require_streamable(self) -> "InferenceSession":
        """``self``, or :class:`~repro.exceptions.DeploymentError` naming
        the record kind that keeps this session from serving streams."""
        if self._stream_refusal is not None:
            raise DeploymentError(self._stream_refusal)
        return self

    def open(self) -> StreamState:
        """A fresh stream positioned at sample zero."""
        return StreamState(self.require_streamable())

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
        bitwise equal to what :meth:`predict_proba` (``proba=True``) or
        :meth:`forward` produce for those positions of the full
        sequence.  All streams advance atomically from the caller's
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
            if state.session is not self:
                raise DeploymentError("StreamState belongs to a different session")
            if id(state) in seen:
                raise DeploymentError("the same StreamState appears twice in a fused push")
            seen.add(id(state))
        rows: list[np.ndarray] = []
        bounds: list[tuple[int, int]] = []
        start = 0
        for chunk in chunks:
            arr = self.cast(chunk)
            if arr.ndim == 1 and self.in_channels == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[1] != self.in_channels:
                raise ShapeError(
                    f"stream chunk must be (samples, {self.in_channels}), "
                    f"got shape {arr.shape}"
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

    def warm_up(self) -> "InferenceSession":
        """Pre-start executor resources (a threaded executor's pool);
        a no-op for executors without startup cost."""
        ensure = getattr(self.executor, "ensure_started", None)
        if ensure is not None:
            ensure()
        return self

    def close(self) -> None:
        """Release executor resources (a threaded executor's own pool)."""
        self.executor.close()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> list[str]:
        """The flat plan as readable op names (fused ops show as `a+b`;
        a ``bc_conv`` carries the kernel it froze to, ``dense`` or ``fft``)."""
        return [op.name for op in self.ops]

    @property
    def expanded_weight_nbytes(self) -> int:
        """RAM held in weights expanded at freeze beyond what the artifact
        stores (dense-kernel ``bc_conv`` ops); reported beside the arena."""
        return sum(op.expanded_nbytes for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (
            f"InferenceSession(precision={self.precision!r}, "
            f"executor={self.executor!r}, ops={self.describe()})"
        )


def compile_stream_plan(
    source, policy: str | PrecisionPolicy = FP64
) -> InferenceSession:
    """Freeze ``source`` into a session that serves streams.

    ``source`` is a live :class:`~repro.nn.module.Sequential` or a
    :class:`~repro.embedded.deploy.DeployedModel`, frozen exactly as
    :meth:`InferenceSession.freeze` / :meth:`~InferenceSession.from_deployed`
    freeze it.  Raises :class:`~repro.exceptions.DeploymentError` when
    the session cannot serve streams.
    """
    if isinstance(source, Sequential):
        session = InferenceSession.freeze(source, precision=policy)
    else:
        session = InferenceSession.from_deployed(source, precision=policy)
    return session.require_streamable()
