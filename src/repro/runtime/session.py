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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DeploymentError
from ..nn.module import Sequential
from ..precision import PrecisionPolicy
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
    "iter_batches",
    "softmax",
]


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
        (fp32) once here, instead of on every call as the record
        interpreter does.
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

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run one batch through the plan; returns the final op's output."""
        x = np.asarray(inputs, dtype=self.policy.real_dtype)
        if x.ndim == 1:
            x = x[None]
        return self.executor.run(x)

    def _chunks(self, x: np.ndarray, batch_size: int | None):
        return iter_batches(x, batch_size)

    def predict_proba(
        self, inputs: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Class probabilities, streamed in ``batch_size`` chunks.

        ``batch_size`` semantics (shared verbatim by
        :meth:`~repro.embedded.deploy.DeployedModel.predict_proba` and
        the engine facade): ``None`` (default) runs one shot; a positive
        value streams that many rows per chunk; zero or negative raises
        :class:`ValueError` — "no batching" is spelled ``None``, not
        ``0``.

        With a :class:`ThreadedExecutor`, chunks run concurrently on the
        thread pool; results are identical to serial streaming.
        """
        x = np.asarray(inputs, dtype=self.policy.real_dtype)
        if x.ndim == 1:
            x = x[None]
        ends_with_softmax = "softmax" in self.ops[-1].name
        outputs = self.executor.map_batches(list(self._chunks(x, batch_size)))
        if not ends_with_softmax:
            outputs = [softmax(out) for out in outputs]
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def predict(
        self, inputs: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Predicted integer labels, streamed in ``batch_size`` chunks."""
        return self.predict_proba(inputs, batch_size=batch_size).argmax(axis=-1)

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
