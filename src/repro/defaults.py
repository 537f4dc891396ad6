"""Defaults shared by the engine and by processes that never load it.

``repro route`` reads these without importing numpy or the engine
stack; :mod:`repro.engine.config` re-exports them.
"""

__all__ = ["DEFAULT_MODEL_NAME"]

#: Registry key used when a single anonymous model source is configured
#: (``repro serve model.npz``, a bare ``--model PATH``,
#: ``EngineConfig(model=...)``).
DEFAULT_MODEL_NAME = "default"
