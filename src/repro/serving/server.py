"""The asyncio micro-batching inference server.

:class:`InferenceServer` is the front door of a
:class:`~repro.engine.Engine`: every model in the engine's registry, at
every pooled precision, served from one TCP port.  Per connection it
speaks the length-prefixed frame protocol of
:mod:`repro.serving.protocol`; per request it reads the optional
routing fields (``model``, ``precision``, ``deadline_ms`` — a frame
without them gets the engine's defaults) and funnels the rows
through the route's :class:`~repro.serving.batcher.MicroBatcher`, so
concurrent clients of the same (model, precision) pair amortize the
engine's per-call cost while requests for different routes never fuse.

Threading model: ``start()`` creates the single inference thread that
all batches of all routes run on (keeping the event loop responsive
while numpy works, and serializing access to the sessions), then starts
accepting connections.  Sessions freeze lazily, on that thread, as
routes are first requested; a threaded engine's executors fan each
fused batch's chunks from it onto the engine's shared thread pool.

Responses stream zero-copy: the result array's buffer goes to the
socket writer as a :func:`~repro.serving.protocol.pack_array_views`
chunk list, never re-serialized to intermediate bytes.

The op dispatch, the refusals every op shares, the connection loop,
drain and lifecycle are :class:`~repro.serving.connection.FrameServer`'s
(shared with the router); this module registers the op handlers on top
of it.
"""

from __future__ import annotations

import asyncio
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..exceptions import (
    DeadlineExpired,
    DeploymentError,
    Overloaded,
    ServingError,
)
from ..runtime.executors import ThreadedExecutor
from ..testing import faults
from .batcher import MicroBatcher
from .connection import FrameServer
from .protocol import (
    DEFAULT_PORT,
    pack_array_views,
    string_field,
    unpack_array,
)

__all__ = ["InferenceServer"]


def _real_rows(session, rows: np.ndarray) -> np.ndarray:
    """The front-door cast of a ``predict`` or ``stream_push`` payload.

    The route session's own input rule
    (:meth:`~repro.runtime.session.InferenceSession.cast`): any real
    dtype casts to the session's, so requests fuse into one
    micro-batch bucket with identical results; any other kind is
    refused as a clean error frame.
    """
    try:
        return session.cast(rows)
    except TypeError as exc:
        raise ServingError(str(exc)) from exc


class InferenceServer(FrameServer):
    """Serve an engine's model registry over TCP with micro-batching.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.Engine`; the server drives its pooled
        sessions from exactly one thread and routes each request by its
        header fields.  The caller keeps ownership (close the engine
        after :meth:`stop`).
    host, port:
        Listen address; ``port=0`` binds an ephemeral port, readable
        from :attr:`port` after :meth:`start`.

    The micro-batch bound (``max_batch``; see
    :class:`~repro.serving.batcher.MicroBatcher`), the per-frame
    payload bound, the per-route row bound (``max_queue_rows``) and the
    open-stream budget (``max_streams``, ``max_stream_state_bytes``)
    are the engine config's.
    A fused batch runs one-shot on a serial executor and in
    ``ceil(rows / workers)``-row chunks on a threaded one, so the
    chunks fan across its pool.
    """

    def __init__(
        self, engine, host: str = "127.0.0.1", port: int = DEFAULT_PORT
    ):
        from ..engine import Engine

        if not isinstance(engine, Engine):
            raise TypeError(
                f"InferenceServer serves an Engine, got "
                f"{type(engine).__name__}; build one with "
                "repro.engine.Engine(model=...)"
            )
        self.engine = engine
        config = engine.config
        super().__init__(host, port, config.max_payload, {
            "info": self._op_info,
            "predict": self._op_predict,
            "predict_proba": self._op_predict,
            "stream_open": self._op_stream_open,
            "stream_push": self._op_stream_push,
            "stream_close": self._op_stream_close,
        })
        self._batchers: dict[tuple[str, str], MicroBatcher] = {}
        self._route_sessions: dict[tuple[str, str], object] = {}
        self._infer_thread: ThreadPoolExecutor | None = None
        # Stream accounting, aggregated over every connection's registry
        # (the registries themselves are per-connection, so an abrupt
        # disconnect frees its streams by construction — these totals
        # are decremented in the connection's cleanup path).
        self._stream_seq = 0
        self._streams_open = 0
        self._stream_state_bytes = 0
        self._push_mark: tuple[float, int] = (time.monotonic(), 0)
        self._push_rate = 0.0
        self.stats = {
            "connections": 0,
            "requests": 0,
            "errors": 0,
            "expired": 0,
            "shed": 0,
            # Always 0; kept because benchmarks/e2e/ladder.py reads it.
            "rate_limited": 0,
            "disconnects": 0,
            "stream_opens": 0,
            "stream_pushes": 0,
            "stream_rows": 0,
            "stream_closes": 0,
        }

    # ------------------------------------------------------------------
    # Inference (runs on the single inference thread)
    # ------------------------------------------------------------------
    def _auto_chunk(self, session, rows: int) -> int | None:
        executor = session.executor
        if isinstance(executor, ThreadedExecutor) and executor.workers > 1:
            if rows >= 2 * executor.workers:
                return -(-rows // executor.workers)  # ceil division
        return None

    def _batcher_for(self, model: str, precision: str, session) -> MicroBatcher:
        """The route's batcher over its ``session``, created on first use.

        One batcher per (model, precision) pair: requests for different
        routes must never fuse (they run different plans), but they all
        share the single inference thread, so the sessions still see
        one caller at a time.
        """
        key = (model, precision)
        batcher = self._batchers.get(key)
        if batcher is None:

            def run_batch(batch: np.ndarray) -> np.ndarray:
                return session.predict_proba(
                    batch, batch_size=self._auto_chunk(session, batch.shape[0])
                )

            def run_streams(states, chunks):
                # proba=True mirrors predict_proba.
                return session.push_many(states, chunks, proba=True)

            config = self.engine.config
            batcher = MicroBatcher(
                run_batch,
                max_batch=config.max_batch,
                executor=self._infer_thread,
                max_queue_rows=config.max_queue_rows,
                stream_runner=run_streams,
            )
            self._batchers[key] = batcher
        return batcher

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "InferenceServer":
        """Load the sources, start the inference thread, bind the port."""
        if self._server is not None:
            raise ServingError("server is already started")
        # Fail fast on unloadable model sources (bad artifact paths)
        # before any thread, port, or ready banner exists.
        self.engine.load_sources()
        self._infer_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-infer"
        )
        await self._listen()
        return self

    async def stop(self) -> None:
        """Stop accepting, drain in-flight batches, join the thread."""
        await self._unlisten()
        batchers, self._batchers = self._batchers, {}
        self._route_sessions = {}
        for batcher in batchers.values():
            await batcher.aclose()
        if self._infer_thread is not None:
            self._infer_thread.shutdown(wait=True)
            self._infer_thread = None

    # ------------------------------------------------------------------
    # Connection hooks (the loop itself is FrameServer's)
    # ------------------------------------------------------------------
    def _open_context(self) -> dict[str, dict]:
        # The connection's stream registry: handle -> entry.  Scoping it
        # to the connection makes the zero-leak guarantee structural —
        # when the connection's coroutine exits, the registry dies with
        # it and _close_context returns every stream's bytes to the
        # server totals.
        return {}

    def _close_context(self, streams: dict) -> None:
        for entry in streams.values():
            self._free_stream(entry)

    def _count_error(self, exc: Exception) -> None:
        if isinstance(exc, DeadlineExpired):
            self.stats["expired"] += 1
        # Shed, not failed: the client must back off and retry.
        self.stats["shed" if isinstance(exc, Overloaded) else "errors"] += 1

    async def _fault_reply(self) -> bool:
        delay = faults.take("server.delay_response", seconds=0.05)
        if delay is not None:
            await asyncio.sleep(float(delay["seconds"]))
        # True: hang up instead of responding.
        return faults.take("server.drop_connection") is not None

    def _resolve_route(self, header: dict) -> tuple[str, str]:
        """Header routing fields -> (model, precision).

        Every field is optional; a pre-engine frame (none of them set)
        resolves to the engine's defaults.  Unknown values raise
        :class:`~repro.exceptions.ConfigurationError`, which the
        connection loop answers as an error frame without dropping the
        connection.
        """
        config = self.engine.config
        return (
            config.resolve_model(string_field(header, "model")),
            config.resolve_precision(string_field(header, "precision")),
        )

    async def _session(self, model: str, precision: str):
        """The route's session, cached per route for predicts and streams.

        The first request for a route freezes its session — on the
        inference thread, so plan compilation never stalls the event
        loop.  Later requests must enter the batcher's queue without a
        hop through the (possibly busy) inference thread, or batch N+1
        could not accumulate while batch N computes.
        """
        session = self._route_sessions.get((model, precision))
        if session is None:
            session = await asyncio.get_running_loop().run_in_executor(
                self._infer_thread, self.engine.session, model, precision
            )
            self._route_sessions[(model, precision)] = session
        return session

    def _free_stream(self, entry: dict) -> None:
        """Return one stream's budget to the server totals."""
        self._streams_open -= 1
        self._stream_state_bytes -= entry["state"].session.state_bytes

    def _stream_push_rate(self) -> float:
        """Pushes/second since the last ``info`` call (lazy rate).

        Computed from the monotonic push counter between observations,
        so the hot path pays one integer increment per push and the
        rate costs nothing until someone asks.
        """
        now = time.monotonic()
        mark_t, mark_n = self._push_mark
        dt = now - mark_t
        if dt >= 0.05:
            pushes = self.stats["stream_pushes"]
            self._push_rate = (pushes - mark_n) / dt
            self._push_mark = (now, pushes)
        return self._push_rate

    def _admit(self) -> None:
        """Raise an injected ``admission.shed``; the route's row bound
        is enforced by the batcher at submit."""
        if faults.enabled:
            shed = faults.take("admission.shed", retry_after_ms=50.0)
            if shed is not None:
                raise Overloaded(
                    "request shed by injected fault",
                    retry_after_ms=float(shed["retry_after_ms"]),
                )

    def _deadline_ms(self, header: dict):
        deadline_ms = header.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not 0 <= deadline_ms <= sys.float_info.max
        ):
            # Type-check before comparing: a JSON string here must
            # be a clean protocol error, not an "internal error".  The
            # range test also refuses the NaN and Infinity that JSON
            # parses, and integers too large for a float.
            raise ServingError(
                f"deadline_ms must be a finite non-negative number, "
                f"got {deadline_ms!r}"
            )
        return deadline_ms

    def _rows(self, payload: bytes) -> np.ndarray:
        """Decode a request's array payload (``server.corrupt_payload``
        flips its leading bytes first, while armed)."""
        if (
            faults.enabled
            and faults.take("server.corrupt_payload") is not None
        ):
            payload = bytes(b ^ 0xFF for b in payload[:8]) + payload[8:]
        return unpack_array(payload)

    # ------------------------------------------------------------------
    # Op handlers (FrameServer dispatches and refuses what all ops share)
    # ------------------------------------------------------------------
    async def _op_info(self, header, payload, streams):
        config = self.engine.config
        executor = self.engine.executor_info()
        batchers = self._batchers
        return {
            "status": "ok",
            "op": "info",
            "engine": self.engine.describe(),
            "models": sorted(config.models),
            "precisions": list(config.precisions),
            "precision": config.precision,
            "max_batch": config.max_batch,
            "stats": dict(self.stats),
            "batchers": {
                f"{model}/{precision}": dict(batcher.stats)
                for (model, precision), batcher in batchers.items()
            },
            "routes": self.engine.describe_routes(),
            "executor": executor,
            "health": {
                "draining": self._draining,
                "pool": executor["shared_pool"],
                "inflight_requests": self._inflight,
                "queues": {
                    f"{model}/{precision}": batcher.queue_depth()
                    for (model, precision), batcher in batchers.items()
                },
                # Aggregates a router can read without walking the
                # per-route queue map: total admitted-but-unresolved
                # rows and the slowest route's fused-batch latency.
                "queued_rows": sum(
                    b.queue_depth()["inflight_rows"] for b in batchers.values()
                ),
                "batch_ms_ema": max(
                    (b.batch_ms_ema for b in batchers.values()), default=0.0
                ),
                "max_queue_rows": config.max_queue_rows,
                "shed": self.stats["shed"],
                # The streaming posture: how many conversations are
                # resident, how much history they hold, and how hot the
                # push path is.  A router aggregates this block across
                # its fleet.
                "streams": {
                    "open": self._streams_open,
                    "state_bytes": self._stream_state_bytes,
                    "max_streams": config.max_streams,
                    "max_state_bytes": config.max_stream_state_bytes,
                    "opened": self.stats["stream_opens"],
                    "closed": self.stats["stream_closes"],
                    "pushes": self.stats["stream_pushes"],
                    "pushed_rows": self.stats["stream_rows"],
                    "pushes_per_s": self._stream_push_rate(),
                },
            },
        }, b""

    async def _op_stream_open(self, header, payload, streams):
        model, precision = self._resolve_route(header)
        session = await self._session(model, precision)
        # A non-streamable model answers with a typed error frame; the
        # connection stays up.
        try:
            session.require_streamable()
        except DeploymentError as exc:
            raise ServingError(str(exc)) from exc
        config = self.engine.config
        budget = config.max_stream_state_bytes
        if budget is not None and session.state_bytes > budget:
            # Not a shed: no amount of waiting admits it.
            raise ServingError(
                f"a stream on {model}/{precision} holds "
                f"{session.state_bytes} bytes of state, over the "
                f"server's budget of {budget} bytes"
            )
        if self._streams_open >= config.max_streams or (
            budget is not None
            and self._stream_state_bytes + session.state_bytes > budget
        ):
            raise Overloaded(
                f"stream budget exhausted: {self._streams_open} "
                f"streams, {self._stream_state_bytes} bytes resident "
                f"(limits {config.max_streams} streams, {budget} bytes)"
            )
        self._stream_seq += 1
        handle = f"s{self._stream_seq}"
        streams[handle] = {
            "state": session.open(),
            "model": model,
            "precision": precision,
            "busy": False,
        }
        self._streams_open += 1
        self._stream_state_bytes += session.state_bytes
        self.stats["stream_opens"] += 1
        return {
            "status": "ok",
            "op": "stream_open",
            "stream": handle,
            "model": model,
            "precision": precision,
            "in_channels": session.in_channels,
            "classes": session.out_channels,
            "receptive_field": session.receptive_field,
            "state_bytes": session.state_bytes,
        }, b""

    async def _op_stream_push(self, header, payload, streams):
        handle = string_field(header, "stream")
        entry = streams.get(handle)
        if entry is None:
            raise ServingError(f"unknown stream {handle!r} on this connection")
        if not payload:
            raise ServingError("stream_push requires an array payload")
        if entry["busy"]:
            # Per-connection sequencing makes this unreachable for
            # well-behaved clients; defend anyway so a pipelining client
            # cannot corrupt its own stream's ordering.
            raise ServingError(
                f"stream {handle!r} already has a push in flight"
            )
        self._admit()
        deadline_ms = self._deadline_ms(header)
        session = entry["state"].session
        chunk = self._rows(payload)
        if chunk.ndim == 1 and session.in_channels == 1:
            chunk = chunk[:, None]
        if chunk.ndim != 2 or chunk.shape[1] != session.in_channels:
            raise ServingError(
                f"stream chunk must be (samples, {session.in_channels}), "
                f"got shape {chunk.shape}"
            )
        if chunk.shape[0] < 1:
            raise ServingError("stream_push needs at least one sample")
        chunk = _real_rows(session, chunk)
        start = time.perf_counter()
        entry["busy"] = True
        try:
            out = await self._batcher_for(
                entry["model"], entry["precision"], session
            ).submit_stream(entry["state"], chunk, deadline_ms=deadline_ms)
        finally:
            entry["busy"] = False
        latency_ms = (time.perf_counter() - start) * 1e3
        self.stats["stream_pushes"] += 1
        self.stats["stream_rows"] += int(chunk.shape[0])
        return {
            "status": "ok",
            "op": "stream_push",
            "stream": handle,
            "rows": int(chunk.shape[0]),
            "samples": int(entry["state"].samples),
            "latency_ms": latency_ms,
        }, pack_array_views(out)

    async def _op_stream_close(self, header, payload, streams):
        handle = string_field(header, "stream")
        entry = streams.pop(handle, None)
        if entry is None:
            raise ServingError(f"unknown stream {handle!r} on this connection")
        self._free_stream(entry)
        self.stats["stream_closes"] += 1
        return {
            "status": "ok",
            "op": "stream_close",
            "stream": handle,
            "samples": int(entry["state"].samples),
            "pushes": int(entry["state"].pushes),
        }, b""

    async def _op_predict(self, header, payload, streams):
        op = header["op"]  # predict or predict_proba
        if not payload:
            raise ServingError(f"{op} requires an array payload")
        self._admit()
        model, precision = self._resolve_route(header)
        deadline_ms = self._deadline_ms(header)
        rows = self._rows(payload)
        if rows.ndim == 1:
            rows = rows[None]
        session = await self._session(model, precision)
        # Cast once at the front door, with the session's own rule.
        rows = _real_rows(session, rows)
        self.stats["requests"] += 1
        start = time.perf_counter()
        proba = await self._batcher_for(model, precision, session).submit(
            rows, deadline_ms=deadline_ms
        )
        latency_ms = (time.perf_counter() - start) * 1e3
        out = proba.argmax(axis=-1) if op == "predict" else proba
        return {
            "status": "ok",
            "op": op,
            "model": model,
            "precision": precision,
            "rows": int(rows.shape[0]),
            "latency_ms": latency_ms,
        }, pack_array_views(out)  # zero-copy: npy header + memoryview

    def __repr__(self) -> str:
        return (
            f"InferenceServer({self.host}:{self.port}, "
            f"engine={self.engine!r})"
        )
