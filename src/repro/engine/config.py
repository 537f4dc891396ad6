"""Declarative, validated configuration for the :class:`Engine` facade.

An :class:`EngineConfig` says *what to run* — which models, at which
precisions, under which executor and batching policy — while the
:class:`~repro.engine.core.Engine` decides *how* (one route table,
lazy freezing, per-request routing).  Every field is validated at
construction, so a typo'd precision or an unknown executor fails at
config time instead of on the first request.

Model sources are deliberately permissive: a registry value may be

* a path (``str`` / :class:`~pathlib.Path`) to a deployment artifact —
  format v2 as ``repro deploy`` and ``repro build`` write it (possibly
  quantized with fixed-point weight storage; see ``docs/pipeline.md``),
  or a legacy v1 file — loaded lazily, once, and shared across all
  precisions,
* a :class:`~repro.embedded.deploy.DeployedModel` instance,
* a live (trained) :class:`~repro.nn.module.Sequential` — frozen
  directly, sharing the layers' dtype-keyed spectrum caches across the
  per-precision sessions.

Admission is one row bound per route (``max_queue_rows``) plus one
budget for open streams (``max_streams``, ``max_stream_state_bytes``);
requests are served in arrival order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ..defaults import DEFAULT_MODEL_NAME
from ..exceptions import ConfigurationError
from ..precision import PrecisionPolicy
from ..runtime.executors import effective_cpu_count

__all__ = ["EngineConfig", "DEFAULT_MODEL_NAME"]

_EXECUTORS = ("auto", "serial", "threaded")


def _resolve_precision_name(spec) -> str:
    """Precision spec -> name, as a :class:`ConfigurationError` on junk.

    :meth:`PrecisionPolicy.resolve` raises a plain :class:`ValueError`;
    the engine's contract is that every invalid request/config field
    surfaces as ``ConfigurationError`` (which the serving front-end
    answers as a clean error frame, not an "internal error").
    """
    try:
        return PrecisionPolicy.resolve(spec).name
    except ConfigurationError:
        raise
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def _is_model_source(source) -> bool:
    """A path, a records-holder (DeployedModel), or a live Sequential."""
    if isinstance(source, (str, Path)):
        return True
    if hasattr(source, "records"):  # DeployedModel duck type
        return True
    return callable(getattr(source, "parameters", None))  # Sequential


@dataclass(frozen=True)
class EngineConfig:
    """One declarative description of an inference engine.

    Parameters
    ----------
    model:
        Shorthand for ``models={"default": model}``; mutually exclusive
        with ``models``.
    models:
        Mapping of model name -> source (artifact path,
        :class:`~repro.embedded.deploy.DeployedModel`, or trained
        :class:`~repro.nn.module.Sequential`).
    default_model:
        Name served when a request names no model.  Defaults to the only
        registered model, or ``"default"`` when several are registered
        and one is named that.
    precisions:
        Precision names the engine may freeze (``"fp64"`` /
        ``"fp32"``).  One session per (model, precision) pair exists at
        most; requests asking for a precision outside this tuple are
        rejected.
    precision:
        Default precision for requests that name none; must be a member
        of ``precisions`` (defaults to the first).
    executor:
        ``"serial"`` (the calling thread, op by op), ``"threaded"``
        (whole ``predict`` chunks fanned across an in-process thread
        pool — the GIL-releasing numpy kernels overlap on real cores
        with zero serialization), or ``"auto"`` (threaded on
        multi-core hosts, serial on single-core).  ``None`` (the
        default) reads the ``REPRO_EXECUTOR`` environment variable,
        falling back to ``"serial"``.  **One shared thread pool serves
        every (model, precision) route**, so an engine with M models ×
        P precisions still holds ``threads`` threads, not ``M * P``
        pools.  See
        ``docs/performance.md`` for the selection guide.
    threads:
        Thread count for ``executor="threaded"``/``"auto"``; ``None``
        means the effective core count (``sched_getaffinity``,
        container-aware).
    profile:
        Arm per-op-kind timing on every route's executor; cumulative
        per-kind nanoseconds surface via the serving ``info`` op
        (``routes[...]["op_stats"]``) and ``repro predict --profile``.
    max_batch, max_wait_ms:
        Micro-batching limits for the serving front-end.
    max_payload:
        Per-request wire payload bound for the serving front-end.
    max_queue_rows:
        Admission bound: total rows a route may hold in flight (queued
        plus running) before further requests are shed with a typed
        ``overloaded`` error.
    max_streams:
        Open-stream cap for the serving front-end: ``stream_open``
        beyond it is shed with a typed ``overloaded`` error.  Unlike a
        request, an open stream holds per-layer activation history
        between pushes, so the cap bounds resident memory, not just
        concurrency.
    max_stream_state_bytes:
        Optional total budget for all open streams' resident history
        (``None`` = bounded by ``max_streams`` alone).  A plan's
        per-stream state size is fixed at compile time, so admission is
        exact — no stream is ever admitted that could later exceed the
        budget.
    """

    model: object | None = None
    models: Mapping[str, object] = field(default_factory=dict)
    default_model: str | None = None
    precisions: tuple[str, ...] = ("fp64",)
    precision: str | None = None
    executor: str | None = None
    threads: int | None = None
    profile: bool = False
    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_payload: int = 1 << 28
    max_queue_rows: int = 1024
    max_streams: int = 64
    max_stream_state_bytes: int | None = None

    def __post_init__(self):
        # --- model registry -------------------------------------------
        if self.model is not None and self.models:
            raise ConfigurationError(
                "pass either `model` (single anonymous source) or "
                "`models` (named registry), not both"
            )
        models = dict(self.models)
        if self.model is not None:
            models = {DEFAULT_MODEL_NAME: self.model}
        for name, source in models.items():
            if not isinstance(name, str) or not name:
                raise ConfigurationError(
                    f"model names must be non-empty strings, got {name!r}"
                )
            if not _is_model_source(source):
                raise ConfigurationError(
                    f"model {name!r}: expected an artifact path, a "
                    f"DeployedModel, or a Sequential, got {type(source).__name__}"
                )
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "model", None)
        default_model = self.default_model
        if default_model is None and models:
            default_model = (
                next(iter(models))
                if len(models) == 1
                else DEFAULT_MODEL_NAME if DEFAULT_MODEL_NAME in models else None
            )
            if default_model is None:
                raise ConfigurationError(
                    "several models are registered; set default_model "
                    f"to one of {sorted(models)}"
                )
        if default_model is not None and default_model not in models:
            raise ConfigurationError(
                f"default_model {default_model!r} is not registered "
                f"(have {sorted(models)})"
            )
        object.__setattr__(self, "default_model", default_model)

        # --- precisions -----------------------------------------------
        if not self.precisions:
            raise ConfigurationError("precisions must name at least one policy")
        precisions = tuple(
            _resolve_precision_name(p) for p in self.precisions
        )
        if len(set(precisions)) != len(precisions):
            raise ConfigurationError(
                f"duplicate entries in precisions {precisions}"
            )
        object.__setattr__(self, "precisions", precisions)
        precision = self.precision or precisions[0]
        precision = _resolve_precision_name(precision)
        if precision not in precisions:
            raise ConfigurationError(
                f"default precision {precision!r} is not in the pool "
                f"{precisions}"
            )
        object.__setattr__(self, "precision", precision)

        # --- executor policy ------------------------------------------
        executor = self.executor
        if executor is None:
            executor = os.environ.get("REPRO_EXECUTOR") or "serial"
        if executor not in _EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
            )
        object.__setattr__(self, "executor", executor)
        if self.threads is not None and self.threads < 1:
            raise ConfigurationError(
                f"threads must be >= 1, got {self.threads}"
            )

        # --- batching -------------------------------------------------
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.max_payload < 1:
            raise ConfigurationError(
                f"max_payload must be >= 1, got {self.max_payload}"
            )

        # --- admission policy -----------------------------------------
        if self.max_queue_rows < 1:
            raise ConfigurationError(
                f"max_queue_rows must be >= 1, got {self.max_queue_rows}"
            )
        if self.max_streams < 1:
            raise ConfigurationError(
                f"max_streams must be >= 1, got {self.max_streams}"
            )
        if (
            self.max_stream_state_bytes is not None
            and self.max_stream_state_bytes < 1
        ):
            raise ConfigurationError(
                f"max_stream_state_bytes must be >= 1 or None, "
                f"got {self.max_stream_state_bytes}"
            )

    # ------------------------------------------------------------------
    # Resolution helpers (the single place request fields are validated)
    # ------------------------------------------------------------------
    def resolve_model(self, name: str | None) -> str:
        """Normalize a request's model name against the registry."""
        if name is None:
            if self.default_model is None:
                raise ConfigurationError("engine has no models registered")
            return self.default_model
        if name not in self.models:
            raise ConfigurationError(
                f"unknown model {name!r}; registered: {sorted(self.models)}"
            )
        return name

    def resolve_executor(self) -> str:
        """The concrete executor kind ``"auto"`` resolves to on this host.

        ``"auto"`` picks ``"threaded"`` when the process can schedule
        on more than one core (``sched_getaffinity``-aware, so a 1-CPU
        container resolves serial even on a big host) and ``"serial"``
        otherwise.  Every other kind resolves to itself.
        """
        if self.executor != "auto":
            return self.executor
        return "threaded" if effective_cpu_count() > 1 else "serial"

    def resolve_threads(self) -> int:
        """Thread-pool size for the threaded executor: ``threads``,
        else the effective core count."""
        if self.threads is not None:
            return self.threads
        return effective_cpu_count()

    def resolve_precision(self, spec) -> str:
        """Normalize a request's precision against the pool."""
        if spec is None:
            return self.precision
        name = _resolve_precision_name(spec)
        if name not in self.precisions:
            raise ConfigurationError(
                f"precision {name!r} is not pooled by this engine "
                f"(have {self.precisions})"
            )
        return name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able summary (model sources shown by type, not value)."""
        return {
            "models": {
                name: (
                    str(source)
                    if isinstance(source, (str, Path))
                    else type(source).__name__
                )
                for name, source in self.models.items()
            },
            "default_model": self.default_model,
            "precisions": list(self.precisions),
            "precision": self.precision,
            "executor": self.executor,
            "resolved_executor": self.resolve_executor(),
            "threads": self.threads,
            "profile": self.profile,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_payload": self.max_payload,
            "max_queue_rows": self.max_queue_rows,
            "max_streams": self.max_streams,
            "max_stream_state_bytes": self.max_stream_state_bytes,
        }
