"""``repro.engine`` — the declarative inference facade.

One public API for everything the frozen runtime can do:

* :class:`EngineConfig` — *what to run*: a validated, declarative
  description (model registry, pooled precisions, executor policy,
  batching limits, priority classes),
* :class:`Engine` — *how it runs*: a per-precision
  :class:`~repro.engine.pool.SessionPool` of lazily-frozen
  :class:`~repro.runtime.session.InferenceSession`\\ s behind a
  multi-model registry, with typed
  :class:`InferenceRequest` / :class:`InferenceResult` calls, direct
  ``predict`` / ``predict_proba`` convenience, and a blocking
  :meth:`~Engine.serve` that exposes the whole registry over TCP with
  per-request model/precision routing, priorities and deadlines.

``docs/engine.md`` has the migration table from the pre-engine entry
points.
"""

from .config import DEFAULT_MODEL_NAME, EngineConfig
from .core import Engine
from .pool import SessionPool
from .types import InferenceRequest, InferenceResult

__all__ = [
    "DEFAULT_MODEL_NAME",
    "Engine",
    "EngineConfig",
    "InferenceRequest",
    "InferenceResult",
    "SessionPool",
]
