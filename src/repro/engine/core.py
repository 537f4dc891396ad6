"""The :class:`Engine` facade — the one public door to the runtime.

Motivation: the reproduction grew overlapping entry points to the
same frozen block-circulant runtime (``InferenceSession.freeze``, a
session factory on the deployment artifact, and the ``InferenceServer``
constructor), each single-model, single-session, and configured by its
own kwargs.  The engine separates *what to run* (a declarative
:class:`~repro.engine.config.EngineConfig`: model registry, pooled
precisions, executor and batching policy) from
*how it runs* (a lazily-frozen per-precision
:class:`~repro.engine.pool.SessionPool`), and gives every consumer —
direct calls, the serving front-end, the CLI — the same typed
:class:`~repro.engine.types.InferenceRequest` /
:class:`~repro.engine.types.InferenceResult` API.

Quickstart::

    from repro.engine import Engine

    with Engine(model="arch1.npz", precisions=("fp64", "fp32")) as engine:
        labels = engine.predict(rows)                     # default route
        fast = engine.predict(rows, precision="fp32")     # pooled session
        engine.serve(port=0)                              # TCP front door

See ``docs/engine.md`` for the migration table from the legacy entry
points.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np

from ..exceptions import ConfigurationError
from ..runtime.executors import (
    AUTO_MIN_ROWS,
    SerialExecutor,
    ThreadWorkerPool,
    ThreadedExecutor,
)
from ..runtime.session import InferenceSession
from .config import EngineConfig
from .pool import SessionPool
from .types import InferenceRequest, InferenceResult

__all__ = ["Engine"]


class Engine:
    """Multi-model, multi-precision inference facade over pooled sessions.

    Construct from a config, or from config fields directly::

        Engine(EngineConfig(model="arch1.npz"))
        Engine(model="arch1.npz", precisions=("fp64", "fp32"))
        Engine(models={"mnist": "arch1.npz", "cifar": "arch3.npz"},
               default_model="mnist", executor="threaded", threads=4)

    Sessions freeze lazily on first use, one per (model, precision)
    pair, and are reused for every later call (see
    :class:`~repro.engine.pool.SessionPool`).  ``close`` releases every
    pooled session (idempotent); the engine is a context manager.
    """

    def __init__(self, config: EngineConfig | None = None, **fields):
        if config is not None and fields:
            raise ConfigurationError(
                "pass either an EngineConfig or config fields, not both"
            )
        self.config = config if config is not None else EngineConfig(**fields)
        self._pool = SessionPool(self._freeze)
        self._artifacts: dict[str, object] = {}
        self._stream_plans: dict[tuple[str, str], object] = {}
        self._stream_lock = threading.Lock()
        self._closed = False
        # One shared thread pool for the whole route grid: every pooled
        # session's executor submits its chunks here, so M models × P
        # precisions share `threads` threads instead of holding a pool
        # each.  Construction is cheap — no thread starts until the
        # first parallel call.
        self._workpool = (
            ThreadWorkerPool(threads=self.config.resolve_threads())
            if self.config.resolve_executor() == "threaded"
            else None
        )
        # Pre-adopt sources that are already-frozen sessions: the pool
        # serves them, their owner closes them.
        for name, source in self.config.models.items():
            if isinstance(source, InferenceSession):
                self._adopt(name, source)

    def _check_adoptable(self, name: str, session: InferenceSession) -> None:
        """The one adoption rule: the session's precision must be pooled
        (anything else would be unreachable at every route)."""
        if session.precision not in self.config.precisions:
            raise ConfigurationError(
                f"adopted session for {name!r} is {session.precision}; "
                f"pooled precisions are {self.config.precisions}"
            )

    def _adopt(self, name: str, session: InferenceSession) -> None:
        """Seed the pool with an externally-owned session, validated."""
        self._check_adoptable(name, session)
        self._pool.adopt(name, session.precision, session)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_session(
        cls, session: InferenceSession, name: str = "default"
    ) -> "Engine":
        """Wrap one externally-owned bound session as a single-route engine.

        The caller keeps ownership of the session (``engine.close()``
        will not close it).
        """
        return cls(
            models={name: session},
            precisions=(session.precision,),
        )

    def register(self, name: str, source) -> "Engine":
        """Add a model to the registry after construction.

        ``source`` is anything :class:`EngineConfig` accepts (path,
        artifact, live model, or bound session).  Returns ``self`` for
        chaining.
        """
        merged = dict(self.config.models)
        if name in merged:
            raise ConfigurationError(f"model {name!r} is already registered")
        merged[name] = source
        from dataclasses import replace

        # Validate before committing anything: a rejected session must
        # enter neither the registry nor the pool.
        if isinstance(source, InferenceSession):
            self._check_adoptable(name, source)
        self.config = replace(
            self.config,
            models=merged,
            default_model=self.config.default_model or name,
        )
        if isinstance(source, InferenceSession):
            self._adopt(name, source)
        return self

    # ------------------------------------------------------------------
    # Session pool
    # ------------------------------------------------------------------
    def _make_executor(self):
        """A fresh per-route executor attached to the shared pool."""
        if self._workpool is not None:
            return ThreadedExecutor(
                pool=self._workpool,
                min_rows=AUTO_MIN_ROWS if self.config.executor == "auto" else 0,
                profile=self.config.profile,
            )
        return SerialExecutor(profile=self.config.profile)

    def _source(self, name: str):
        """The registry source for ``name``; artifact paths load once."""
        source = self.config.models[name]
        if isinstance(source, (str, Path)):
            artifact = self._artifacts.get(name)
            if artifact is None:
                from ..embedded.deploy import DeployedModel

                artifact = DeployedModel.load(source)
                self._artifacts[name] = artifact
            return artifact
        return source

    def _freeze(self, name: str, precision: str) -> InferenceSession:
        """Pool factory: freeze one (model, precision) session."""
        source = self._source(name)
        if isinstance(source, InferenceSession):
            raise ConfigurationError(
                f"model {name!r} is an adopted {source.precision} session; "
                f"it cannot be re-frozen at {precision}"
            )
        executor = self._make_executor()
        if hasattr(source, "records"):  # DeployedModel artifact
            return InferenceSession.from_deployed(
                source, precision=precision, executor=executor
            )
        return InferenceSession.freeze(
            source, precision=precision, executor=executor
        )

    def session(
        self, model: str | None = None, precision=None
    ) -> InferenceSession:
        """The pooled session for a route (frozen + warmed on first use).

        The engine retains ownership — do not close the returned
        session; close the engine.
        """
        if self._closed:
            raise ConfigurationError("engine is closed")
        return self._pool.get(
            self.config.resolve_model(model),
            self.config.resolve_precision(precision),
        )

    def stream_plan(self, model: str | None = None, precision=None):
        """The pooled :class:`~repro.streaming.StreamPlan` for a route.

        Compiled lazily from the same registry source the batch session
        pool uses, one plan per (model, precision) pair, shared by every
        stream on the route (the plan is immutable; all per-stream state
        lives in the :class:`~repro.streaming.StreamState` objects it
        opens).  Raises :class:`~repro.exceptions.DeploymentError` when
        the model's layers are not streamable and
        :class:`~repro.exceptions.ConfigurationError` for adopted bare
        sessions (a frozen batch plan cannot be re-derived into an
        incremental one).
        """
        if self._closed:
            raise ConfigurationError("engine is closed")
        model = self.config.resolve_model(model)
        precision = self.config.resolve_precision(precision)
        key = (model, precision)
        with self._stream_lock:
            plan = self._stream_plans.get(key)
            if plan is None:
                from ..precision import PrecisionPolicy
                from ..streaming import compile_stream_plan

                source = self._source(model)
                if isinstance(source, InferenceSession):
                    raise ConfigurationError(
                        f"model {model!r} is an adopted frozen session; "
                        "streaming needs the model or its artifact records"
                    )
                plan = compile_stream_plan(
                    source, PrecisionPolicy.resolve(precision)
                )
                self._stream_plans[key] = plan
        return plan

    def load_sources(self) -> "Engine":
        """Resolve every registered source now; fail fast on bad paths.

        Artifact paths are loaded from disk (and cached, so the pooled
        sessions share the arrays); in-memory sources are no-ops.
        Session *freezing* stays lazy — this only front-loads the I/O
        and its errors.  The serving front-end calls this before
        announcing readiness, so a typo'd artifact path kills the
        server at startup instead of leaving a healthy-looking port
        that answers every request with an error frame.
        """
        for name in self.config.models:
            self._source(name)
        return self

    def warm_up(self, model: str | None = None, precision=None) -> "Engine":
        """Freeze + warm sessions ahead of traffic.

        With no arguments warms the full grid (every registered model ×
        every pooled precision).
        """
        models = (
            [self.config.resolve_model(model)]
            if model is not None
            else list(self.config.models)
        )
        precisions = (
            [self.config.resolve_precision(precision)]
            if precision is not None
            else list(self.config.precisions)
        )
        for name in models:
            source = self.config.models.get(name)
            for prec in precisions:
                if isinstance(source, InferenceSession):
                    # Adopted sessions exist at exactly one precision.
                    if prec == source.precision:
                        source.warm_up()
                    continue
                self._pool.get(name, prec)
        return self

    # ------------------------------------------------------------------
    # Typed request API
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> InferenceResult:
        """Run one typed request synchronously through its pooled session.

        Routing fields are resolved against the config (unknown models /
        precisions / priorities raise
        :class:`~repro.exceptions.ConfigurationError`).  ``deadline_ms``
        is advisory on this direct path — the call runs immediately;
        ``result.extra["deadline_exceeded"]`` reports whether it made
        it.  Under the serving front-end the same field is enforced by
        the micro-batcher (expired requests error instead of running).
        """
        model = self.config.resolve_model(request.model)
        precision = self.config.resolve_precision(request.precision)
        priority = self.config.resolve_priority(request.priority)
        session = self.session(model, precision)
        start = time.perf_counter()
        if request.proba:
            output = session.predict_proba(
                request.rows, batch_size=request.batch_size
            )
        else:
            output = session.predict(
                request.rows, batch_size=request.batch_size
            )
        latency_ms = (time.perf_counter() - start) * 1e3
        extra = {}
        if request.deadline_ms is not None:
            extra["deadline_exceeded"] = latency_ms > request.deadline_ms
        return InferenceResult(
            output=output,
            model=model,
            precision=precision,
            priority=priority,
            rows=int(request.rows.shape[0]),
            latency_ms=latency_ms,
            proba=request.proba,
            extra=extra,
        )

    # ------------------------------------------------------------------
    # Convenience calls (thin wrappers over submit's routing)
    # ------------------------------------------------------------------
    def predict_proba(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Class probabilities via the pooled session for the route."""
        return self.session(model, precision).predict_proba(
            rows, batch_size=batch_size
        )

    def predict(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Predicted labels via the pooled session for the route."""
        return self.session(model, precision).predict(
            rows, batch_size=batch_size
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        max_batch: int | None = None,
        max_wait_ms: float | None = None,
        on_ready=None,
    ) -> None:
        """Serve this engine as a micro-batching TCP service (blocking).

        Every registered model × pooled precision is reachable
        per-request (header ``model`` / ``precision`` fields); batching
        limits default to the config's.  The first stdout line is the
        machine-readable ``serving on host:port`` banner;
        ``on_ready(server)`` fires right after it.  Runs until
        interrupted; the engine stays open afterwards (close it
        yourself, or use the engine as a context manager).

        ``SIGTERM`` and ``SIGINT`` trigger a *drain*: the server stops
        admitting work, flushes every in-flight micro-batch and sends
        its responses, then exits cleanly (see
        :meth:`~repro.serving.connection.FrameServer.run`) — so an
        orchestrator's stop signal never discards accepted requests.
        """
        from ..serving import DEFAULT_PORT, InferenceServer

        InferenceServer(
            self,
            host=host,
            port=DEFAULT_PORT if port is None else port,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
        ).run(on_ready)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled session and the shared pool; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        if self._workpool is not None:
            self._workpool.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> dict:
        """Config plus live pool state (JSON-able; the server's ``info``)."""
        return {
            "config": self.config.describe(),
            "pooled": [
                {"model": m, "precision": p}
                for m, p in sorted(self._pool.snapshot())
            ],
            "closed": self._closed,
        }

    def health(self) -> dict:
        """The shared thread pool's summary (JSON-able): ``pool`` is its
        kind, size and started flag, or ``None`` on a serial engine.
        The serving ``info`` op embeds this."""
        pool = self._workpool
        return {"pool": pool.describe() if pool is not None else None}

    def executor_info(self) -> dict:
        """What's actually executing: kind, parallelism, shared pool.

        ``requested`` is the config's executor field (``"auto"`` stays
        ``"auto"``); ``kind`` is what it resolved to on this host.  The
        serving banner and the ``info`` op surface this — before it,
        you couldn't tell what was serving.
        """
        pool = self._workpool
        return {
            "requested": self.config.executor,
            "kind": self.config.resolve_executor(),
            "workers": pool.threads if pool is not None else 1,
            "shared_pool": pool.describe() if pool is not None else None,
            "profile": self.config.profile,
        }

    def describe_routes(self) -> dict:
        """Per pooled route: plan ops, executor, arena, and the bytes of
        weights expanded at freeze (JSON-able).

        Snapshots the pool under its lock, so racing a concurrent
        ``close()`` yields a consistent (possibly empty) view instead
        of an error — the serving ``info`` op relies on this.
        """
        routes: dict = {}
        for (model, precision), session in sorted(
            self._pool.snapshot().items()
        ):
            route = {
                "ops": session.describe(),
                "executor": repr(session.executor),
                "arena": session.executor.arena_info(),
                "expanded_weight_nbytes": session.expanded_weight_nbytes,
            }
            if getattr(session.executor, "profile", False):
                route["op_stats"] = session.executor.op_stats()
            routes[f"{model}/{precision}"] = route
        return routes

    def __repr__(self) -> str:
        return (
            f"Engine(models={sorted(self.config.models)}, "
            f"precisions={self.config.precisions}, "
            f"pooled={len(self._pool)}, closed={self._closed})"
        )
