"""Frozen inference runtime (the paper's section IV-A engine, flattened).

A trained :class:`~repro.nn.module.Sequential` pays three taxes at
inference time that training needs but deployment does not: autograd
graph construction, per-call weight FFTs, and one Python dispatch per
layer object.  The runtime strips all three, split across four modules:

* :mod:`repro.runtime.plan` — the compiler, one path: the one layer
  walker :func:`model_records` reduces a model to the layer records a
  deployment artifact stores, and :func:`compile_records_plan` turns
  records into a flat plan of ops with precomputed weight spectra, each
  op one body ``run(x, ws)``, fused by the :func:`fuse_plan` pass
  (affine / flatten / activation chains fold into their producer) — all
  at the dtypes of a :class:`~repro.precision.PrecisionPolicy`
  (``"fp32"`` halves spectrum memory; ``"fp64"`` is the reference
  numerics),
* :mod:`repro.runtime.workspace` — :class:`Workspace`, the per-thread
  arena of reusable batch-bucketed buffers every plan runs on, which
  makes the steady-state hot path allocation-free,
* :mod:`repro.runtime.executors` — the two ways to run a plan:
  :class:`SerialExecutor` (the calling thread) and
  :class:`ThreadedExecutor` (whole ``predict`` chunks fanned across one
  shared in-process :class:`ThreadWorkerPool`; the numpy kernels
  release the GIL) — the same compiled plan and bitwise-identical
  results at the same ``batch_size`` either way,
* :mod:`repro.runtime.session` — :class:`InferenceSession`, the
  user-facing façade binding one plan to one executor with chunked
  ``predict``, and serving live streams (``open`` / ``push`` /
  ``push_many``) over the same ops when they are all row-wise;
  :func:`compile_stream_plan` freezes such a session and refuses any
  other.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "..precision": ["PrecisionPolicy"],
        ".executors": [
            "PlanExecutor", "SerialExecutor", "ThreadWorkerPool",
            "ThreadedExecutor", "effective_cpu_count",
        ],
        ".plan": [
            "PlanOp", "compile_records_plan", "fuse_plan", "model_records",
        ],
        ".session": ["InferenceSession", "compile_stream_plan"],
        "..streaming": ["StreamState"],
        ".workspace": ["DEFAULT_BATCH_BUCKETS", "Workspace"],
    },
)
