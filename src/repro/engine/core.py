"""The :class:`Engine` facade — the one public door to the runtime.

Motivation: the reproduction grew overlapping entry points to the
same frozen block-circulant runtime (``InferenceSession.freeze``, a
session factory on the deployment artifact, and the ``InferenceServer``
constructor), each single-model, single-session, and configured by its
own kwargs.  The engine separates *what to run* (a declarative
:class:`~repro.engine.config.EngineConfig`: model registry, pooled
precisions, executor and batching policy) from *how it runs*: one
route table of lazily-built frozen sessions, which every consumer —
direct calls, stream pushes, the serving front-end, the CLI — reads.

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
from pathlib import Path

import numpy as np

from ..exceptions import ConfigurationError
from ..runtime.executors import (
    SerialExecutor,
    ThreadWorkerPool,
    ThreadedExecutor,
)
from ..runtime.session import InferenceSession
from .config import EngineConfig

__all__ = ["Engine"]


class Engine:
    """Multi-model, multi-precision inference facade over one route table.

    Construct from a config, or from config fields directly::

        Engine(EngineConfig(model="arch1.npz"))
        Engine(model="arch1.npz", precisions=("fp64", "fp32"))
        Engine(models={"mnist": "arch1.npz", "cifar": "arch3.npz"},
               default_model="mnist", executor="threaded", threads=4)

    The route table maps ``(model, precision)`` to one frozen
    :class:`~repro.runtime.session.InferenceSession`, which serves both
    predicts and, on a streamable model, stream pushes.  Routes are
    built lazily on first use and reused for every later call;
    freezing the same model at a second precision
    shares the already-computed weight spectra (a live model's
    dtype-keyed spectrum cache, or an artifact loaded from disk once).

    Double-checked locking: the dict lock is held for microseconds, so
    introspection (the serving ``info`` op) never waits out a compile;
    the build lock serialises every compile and every artifact load.
    ``close`` releases every session and the shared thread pool
    (idempotent); the engine is a context manager.
    """

    def __init__(self, config: EngineConfig | None = None, **fields):
        if config is not None and fields:
            raise ConfigurationError(
                "pass either an EngineConfig or config fields, not both"
            )
        self.config = config if config is not None else EngineConfig(**fields)
        self._routes: dict[tuple[str, str], InferenceSession] = {}
        self._artifacts: dict[str, object] = {}  # guarded by _build_lock
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()
        self._closed = False
        # One shared thread pool for the whole route grid: every
        # session's executor submits its chunks here, so M models × P
        # precisions share `threads` threads instead of holding a pool
        # each.  Construction is cheap — no thread starts until the
        # first parallel call.
        self._workpool = (
            ThreadWorkerPool(threads=self.config.resolve_threads())
            if self.config.resolve_executor() == "threaded"
            else None
        )

    # ------------------------------------------------------------------
    # Route table
    # ------------------------------------------------------------------
    def _lookup(self, key: tuple[str, str]):
        with self._lock:
            if self._closed:
                raise ConfigurationError("engine is closed")
            return self._routes.get(key)

    def _route(self, model, precision) -> InferenceSession:
        """The built route for ``(model, precision)``, built on miss."""
        key = (
            self.config.resolve_model(model),
            self.config.resolve_precision(precision),
        )
        route = self._lookup(key)
        if route is not None:
            return route
        with self._build_lock:
            route = self._lookup(key)
            if route is not None:  # another thread built it meanwhile
                return route
            route = self._build(*key)
            with self._lock:
                if not self._closed:
                    # Only constructs the shared pool's executor
                    # (threads spawn on first submit), so it fits
                    # under the dict lock, where close() cannot
                    # shut the pool before it.
                    route.warm_up()
                    self._routes[key] = route
                    return route
        # The engine closed mid-build: release what nobody will serve.
        route.close()
        raise ConfigurationError("engine is closed")

    def _build(self, model: str, precision: str) -> InferenceSession:
        """Compile one route; the caller holds the build lock."""
        source = self._source(model)
        if self._workpool is not None:
            executor = ThreadedExecutor(
                pool=self._workpool, profile=self.config.profile
            )
        else:
            executor = SerialExecutor(profile=self.config.profile)
        if hasattr(source, "records"):  # DeployedModel artifact
            return InferenceSession.from_deployed(
                source, precision=precision, executor=executor
            )
        return InferenceSession.freeze(
            source, precision=precision, executor=executor
        )

    def _source(self, name: str):
        """The registry source for ``name``; artifact paths load once.

        The caller holds the build lock.
        """
        source = self.config.models[name]
        if isinstance(source, (str, Path)):
            artifact = self._artifacts.get(name)
            if artifact is None:
                from ..embedded.deploy import DeployedModel

                artifact = DeployedModel.load(source)
                self._artifacts[name] = artifact
            return artifact
        return source

    def _snapshot(self) -> dict:
        """``{(model, precision): session}``, copied under the dict lock
        — a concurrent build or ``close()`` cannot tear it."""
        with self._lock:
            return dict(self._routes)

    def session(
        self, model: str | None = None, precision=None
    ) -> InferenceSession:
        """The route's frozen session (frozen + warmed on first use).

        The same session serves the route's predicts and its streams
        (``session.open()`` / ``push``; all per-stream state lives in
        the :class:`~repro.streaming.StreamState` objects it opens).
        The engine retains ownership — do not close the returned
        session; close the engine.
        """
        return self._route(model, precision)

    def load_sources(self) -> "Engine":
        """Resolve every registered source now; fail fast on bad paths.

        Artifact paths are loaded from disk (and cached, so the routes
        share the arrays); in-memory sources are no-ops.  Session
        *freezing* stays lazy — this only front-loads the I/O and its
        errors.  The serving front-end calls this before announcing
        readiness, so a typo'd artifact path kills the server at
        startup instead of leaving a healthy-looking port that answers
        every request with an error frame.
        """
        with self._build_lock:
            for name in self.config.models:
                self._source(name)
        return self

    def warm_up(self, model: str | None = None, precision=None) -> "Engine":
        """Freeze + warm sessions ahead of traffic.

        With no arguments warms the full grid (every registered model ×
        every pooled precision).
        """
        models = [model] if model is not None else list(self.config.models)
        precisions = (
            [precision]
            if precision is not None
            else list(self.config.precisions)
        )
        for name in models:
            for prec in precisions:
                self.session(name, prec)
        return self

    # ------------------------------------------------------------------
    # Convenience calls
    # ------------------------------------------------------------------
    def predict_proba(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Class probabilities via the route's session."""
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
        """Predicted labels via the route's session."""
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
        on_ready=None,
    ) -> None:
        """Serve this engine as a micro-batching TCP service (blocking).

        Every registered model × pooled precision is reachable
        per-request (header ``model`` / ``precision`` fields); batching
        limits are the config's.  The first stdout line is the
        machine-readable ``serving on host:port`` banner;
        ``on_ready(server)`` fires right after it.  Runs until
        interrupted; the engine stays open afterwards (close it
        yourself, or use the engine as a context manager).

        ``SIGTERM`` and ``SIGINT`` trigger a *drain*: the server stops
        admitting work, runs every in-flight micro-batch and sends
        its responses, then exits cleanly (see
        :meth:`~repro.serving.connection.FrameServer.run`) — so an
        orchestrator's stop signal never discards accepted requests.
        """
        from ..serving import DEFAULT_PORT, InferenceServer

        InferenceServer(
            self, host=host, port=DEFAULT_PORT if port is None else port
        ).run(on_ready)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every session and the shared pool; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            routes, self._routes = self._routes, {}
        for route in routes.values():
            route.close()
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
        """Config plus the frozen sessions (JSON-able; feeds ``info``)."""
        return {
            "config": self.config.describe(),
            "pooled": [
                {"model": m, "precision": p}
                for m, p in sorted(self._snapshot())
            ],
            "closed": self._closed,
        }

    def executor_info(self) -> dict:
        """What's actually executing: kind, parallelism, shared pool.

        ``requested`` is the config's executor field (``"auto"`` stays
        ``"auto"``); ``kind`` is what it resolved to on this host;
        ``shared_pool`` is the pool's kind, size and started flag, or
        ``None`` on a serial engine.  The serving banner and the
        ``info`` op surface this.
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
        """Per frozen session: plan ops, executor, arena, and the bytes
        of weights expanded at freeze (JSON-able).

        Reads a snapshot of the route table, so racing a build or a
        ``close()`` yields a consistent (possibly empty) view instead of
        an error or a wait — the serving ``info`` op relies on this.
        """
        routes: dict = {}
        for (model, precision), session in sorted(self._snapshot().items()):
            route = {
                "ops": session.describe(),
                "executor": repr(session.executor),
                "arena": session.executor.arena_info(),
                "expanded_weight_nbytes": session.expanded_weight_nbytes,
            }
            if session.executor.profile:
                route["op_stats"] = session.executor.op_stats()
            routes[f"{model}/{precision}"] = route
        return routes

    def __repr__(self) -> str:
        return (
            f"Engine(models={sorted(self.config.models)}, "
            f"precisions={self.config.precisions}, "
            f"pooled={len(self._snapshot())}, closed={self._closed})"
        )
