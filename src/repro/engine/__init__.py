"""``repro.engine`` — the declarative inference facade.

One public API for everything the frozen runtime can do:

* :class:`EngineConfig` — *what to run*: a validated, declarative
  description (model registry, pooled precisions, executor policy,
  batching and admission limits),
* :class:`Engine` — *how it runs*: one route table of lazily-built
  frozen :class:`~repro.runtime.session.InferenceSession`\\ s and
  stream plans, keyed by (model, precision), behind direct
  ``predict`` / ``predict_proba`` calls and a blocking
  :meth:`~Engine.serve` that exposes the whole registry over TCP with
  per-request model/precision routing and deadlines.

``docs/engine.md`` has the migration table from the pre-engine entry
points.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".config": ["DEFAULT_MODEL_NAME", "EngineConfig"],
        ".core": ["Engine"],
    },
)
