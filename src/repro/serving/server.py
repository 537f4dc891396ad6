"""The asyncio micro-batching inference server.

:class:`InferenceServer` is the front door of a
:class:`~repro.engine.Engine`: every model in the engine's registry, at
every pooled precision, served from one TCP port.  Per connection it
speaks the length-prefixed frame protocol of
:mod:`repro.serving.protocol`; per request it reads the optional
routing fields (``model``, ``precision``, ``priority``,
``deadline_ms`` — all backward compatible: a frame without them gets
the engine's defaults and today's behavior) and funnels the rows
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

Constructing the server with a bare
:class:`~repro.runtime.session.InferenceSession` (the pre-engine
signature) still works but is deprecated — it wraps the session via
:meth:`~repro.engine.Engine.from_session`; the caller keeps session
ownership exactly as before.
"""

from __future__ import annotations

import asyncio
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DeploymentError,
    Overloaded,
    ServerUnavailable,
    ServingError,
)
from ..runtime.executors import ThreadedExecutor
from ..testing import faults
from .batcher import DeadlineExpired, MicroBatcher
from .protocol import (
    DEFAULT_PORT,
    pack_array_views,
    read_frame,
    send_frame,
    unpack_array,
)
from .resilience import QueueLimits, TokenBucket

__all__ = ["InferenceServer"]


class InferenceServer:
    """Serve an engine's model registry over TCP with micro-batching.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.Engine`; the server drives its pooled
        sessions from exactly one thread and routes each request by its
        header fields.  The caller keeps ownership (close the engine
        after :meth:`stop`).  Passing a bare
        :class:`~repro.runtime.session.InferenceSession` is deprecated
        (it is wrapped via :meth:`~repro.engine.Engine.from_session`).
    host, port:
        Listen address; ``port=0`` binds an ephemeral port, readable
        from :attr:`port` after :meth:`start`.
    max_batch, max_wait_ms:
        Micro-batching knobs (``None`` = the engine config's values);
        see :class:`~repro.serving.batcher.MicroBatcher`.
    chunk_size:
        Streaming chunk size passed to ``predict_proba``; the default
        ``None`` picks ``ceil(rows / workers)`` for a threaded executor
        (so the chunks fan across its pool) and one-shot otherwise.
    max_payload:
        Per-frame payload bound (``None`` = the engine config's value).
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_batch: int | None = None,
        max_wait_ms: float | None = None,
        chunk_size: int | None = None,
        max_payload: int | None = None,
    ):
        from ..engine import Engine

        if not isinstance(engine, Engine):
            warnings.warn(
                "InferenceServer(session) is deprecated; build an "
                "Engine (repro.engine.Engine.from_session(session) or "
                "Engine(model=...)) and pass that instead",
                DeprecationWarning,
                stacklevel=2,
            )
            engine = Engine.from_session(engine)
        self.engine = engine
        config = engine.config
        self.host = host
        self.port = port
        self.max_batch = config.max_batch if max_batch is None else max_batch
        self.max_wait_ms = (
            config.max_wait_ms if max_wait_ms is None else max_wait_ms
        )
        self.chunk_size = chunk_size
        self.max_payload = (
            config.max_payload if max_payload is None else max_payload
        )
        self._server: asyncio.AbstractServer | None = None
        self._batchers: dict[tuple[str, str], MicroBatcher] = {}
        self._route_sessions: dict[tuple[str, str], object] = {}
        self._infer_thread: ThreadPoolExecutor | None = None
        self._limits = QueueLimits.from_config(config)
        self._bucket = (
            None
            if config.rate_limit_rps is None
            else TokenBucket(config.rate_limit_rps, config.rate_burst)
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._inflight = 0  # requests read but not yet fully responded
        # Stream accounting, aggregated over every connection's registry
        # (the registries themselves are per-connection, so an abrupt
        # disconnect frees its streams by construction — these totals
        # are decremented in the connection's cleanup path).
        self._stream_seq = 0
        self._streams_open = 0
        self._stream_state_bytes = 0
        self._stream_pushes = 0  # monotonic; feeds the pushes/s rate
        self._push_mark: tuple[float, int] = (time.monotonic(), 0)
        self._push_rate = 0.0
        self.stats = {
            "connections": 0,
            "requests": 0,
            "errors": 0,
            "expired": 0,
            "shed": 0,
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
        if self.chunk_size is not None:
            return self.chunk_size
        executor = session.executor
        if isinstance(executor, ThreadedExecutor) and executor.workers > 1:
            if rows >= 2 * executor.workers:
                return -(-rows // executor.workers)  # ceil division
        return None

    def _batcher_for(self, model: str, precision: str) -> MicroBatcher:
        """The route's batcher, created on first use.

        One batcher per (model, precision) pair: requests for different
        routes must never fuse (they run different plans), but they all
        share the single inference thread, so the sessions still see
        one caller at a time.
        """
        key = (model, precision)
        batcher = self._batchers.get(key)
        if batcher is None:

            def run_batch(batch: np.ndarray) -> np.ndarray:
                session = self.engine.session(model, precision)
                return session.predict_proba(
                    batch, batch_size=self._auto_chunk(session, batch.shape[0])
                )

            def run_streams(states, chunks):
                # The plan is pooled by the engine; resolving it here
                # (on the inference thread) keeps non-streamable routes
                # from ever paying for — or failing on — stream
                # compilation.  proba=True mirrors predict_proba.
                plan = self.engine.stream_plan(model, precision)
                return plan.push_many(states, chunks, proba=True)

            batcher = MicroBatcher(
                run_batch,
                max_batch=self.max_batch,
                max_wait_ms=self.max_wait_ms,
                executor=self._infer_thread,
                limits=self._limits,
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
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def draining(self) -> bool:
        """True once a drain has begun (new work is being refused)."""
        return self._draining

    def begin_drain(self) -> None:
        """Start a graceful drain; safe to call from a signal handler.

        Flips the server into draining mode — new predict requests are
        refused with a typed ``server_unavailable`` error — and
        schedules :meth:`_drain`, which waits for every in-flight
        request to be answered (responses flushed to their sockets,
        bitwise intact), drains the batchers, and then closes the
        listener so :meth:`serve_forever` returns.  Idempotent.
        """
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        # Flush inside the wait loop: a request sitting in a batcher's
        # pending window would otherwise hold drain hostage for the
        # full max_wait_ms timer.  Draining mode blocks new admissions,
        # so the loop strictly empties.
        while self._inflight > 0:
            for batcher in tuple(self._batchers.values()):
                await batcher.drain()
            await asyncio.sleep(0.005)
        for batcher in tuple(self._batchers.values()):
            await batcher.drain()
        if self._server is not None:
            self._server.close()

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled or :meth:`stop`."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting, drain in-flight batches, join the thread."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        batchers, self._batchers = self._batchers, {}
        self._route_sessions = {}
        for batcher in batchers.values():
            await batcher.aclose()
        if self._infer_thread is not None:
            self._infer_thread.shutdown(wait=True)
            self._infer_thread = None

    async def __aenter__(self) -> "InferenceServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self.stats["connections"] += 1
        # The connection's stream registry: handle -> entry.  Scoping it
        # to the connection makes the zero-leak guarantee structural —
        # when this coroutine exits (clean close, abrupt disconnect, a
        # cut cable), the registry dies with it and the cleanup below
        # returns every stream's bytes to the server totals.
        streams: dict[str, dict] = {}
        try:
            while True:
                try:
                    header, payload = await read_frame(
                        reader, max_payload=self.max_payload
                    )
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        # Died mid-frame (a killed client, a cut cable):
                        # this connection is unrecoverable, every other
                        # connection is unaffected.
                        self.stats["disconnects"] += 1
                    break  # clean EOF between frames: peer hung up
                except ConnectionError:
                    self.stats["disconnects"] += 1
                    break
                except ServingError as exc:
                    # Malformed or oversized frame: the stream offset is
                    # unrecoverable, so answer once and hang up.
                    self.stats["errors"] += 1
                    try:
                        await send_frame(
                            writer,
                            {"status": "error", "message": str(exc)},
                        )
                    except Exception:
                        pass
                    break
                if faults.enabled and payload:
                    corrupt = faults.take("server.corrupt_payload")
                    if corrupt is not None:
                        head = bytes(payload[:8])
                        payload = (
                            bytes(b ^ 0xFF for b in head) + payload[8:]
                        )
                self._inflight += 1
                try:
                    try:
                        response, out_payload = await self._dispatch(
                            header, payload, streams
                        )
                    except Overloaded as exc:
                        # Shed, not failed: the client must back off and
                        # retry, so the frame carries the typed code and
                        # the server's retry hint.
                        self.stats["shed"] += 1
                        response = {
                            "status": "error",
                            "code": "overloaded",
                            "message": str(exc),
                        }
                        if exc.retry_after_ms is not None:
                            response["retry_after_ms"] = float(
                                exc.retry_after_ms
                            )
                        out_payload = b""
                    except ServerUnavailable as exc:
                        self.stats["errors"] += 1
                        response = {
                            "status": "error",
                            "code": "server_unavailable",
                            "message": str(exc),
                        }
                        out_payload = b""
                    except (ServingError, ConfigurationError) as exc:
                        self.stats["errors"] += 1
                        response = {"status": "error", "message": str(exc)}
                        if isinstance(exc, DeadlineExpired):
                            # Machine-readable: retry loops must be able
                            # to tell expiry from real inference failure
                            # without string-matching the message.
                            response["code"] = "deadline_expired"
                        out_payload = b""
                    except Exception as exc:  # never kill the connection loop
                        self.stats["errors"] += 1
                        response, out_payload = (
                            {"status": "error",
                             "message": f"internal error: {exc}"},
                            b"",
                        )
                    if "id" in header:
                        response["id"] = header["id"]
                    if faults.enabled:
                        delay = faults.take(
                            "server.delay_response", seconds=0.05
                        )
                        if delay is not None:
                            await asyncio.sleep(float(delay["seconds"]))
                        if faults.take("server.drop_connection") is not None:
                            break  # hang up instead of responding
                    try:
                        await send_frame(writer, response, out_payload)
                    except (ConnectionError, asyncio.IncompleteReadError):
                        # Peer vanished while we wrote its response;
                        # close this connection, touch nothing else.
                        self.stats["disconnects"] += 1
                        break
                finally:
                    self._inflight -= 1
        finally:
            for entry in streams.values():
                self._free_stream(entry)
            streams.clear()
            writer.close()
            try:
                await writer.wait_closed()
            except BaseException:
                # Includes CancelledError: the loop may tear this task
                # down while it drains the close — the socket is closed
                # either way, and there is nothing after this line.
                pass

    def _resolve_route(self, header: dict) -> tuple[str, str, int]:
        """Header routing fields -> (model, precision, priority level).

        Every field is optional; a pre-engine frame (none of them set)
        resolves to the engine's defaults.  Unknown values raise
        :class:`~repro.exceptions.ConfigurationError`, which the
        connection loop answers as an error frame without dropping the
        connection.
        """
        config = self.engine.config
        return (
            config.resolve_model(header.get("model")),
            config.resolve_precision(header.get("precision")),
            config.resolve_priority(header.get("priority")),
        )

    def _free_stream(self, entry: dict) -> None:
        """Return one stream's budget to the server totals."""
        self._streams_open -= 1
        self._stream_state_bytes -= entry["plan"].state_bytes

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
            self._push_rate = (self._stream_pushes - mark_n) / dt
            self._push_mark = (now, self._stream_pushes)
        return self._push_rate

    def _check_deadline(self, deadline_ms) -> None:
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or deadline_ms < 0
        ):
            # Type-check before comparing: a JSON string here must
            # be a clean protocol error, not an "internal error".
            raise ServingError(
                f"deadline_ms must be a non-negative number, "
                f"got {deadline_ms!r}"
            )

    async def _dispatch(
        self, header: dict, payload: bytes, streams: dict | None = None
    ) -> tuple[dict, object]:
        op = header.get("op")
        streams = {} if streams is None else streams
        if op == "ping":
            return {"status": "ok", "op": "ping"}, b""
        if op == "drain":
            # Graceful shutdown over the wire: in-flight requests are
            # answered, then the listener closes and the process exits.
            self.begin_drain()
            return {"status": "ok", "op": "drain", "draining": True}, b""
        if op == "info":
            info = {
                "status": "ok",
                "op": "info",
                "engine": self.engine.describe(),
                "models": sorted(self.engine.config.models),
                "precisions": list(self.engine.config.precisions),
                "precision": self.engine.config.precision,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait_ms,
                "stats": dict(self.stats),
                "batchers": {
                    f"{model}/{precision}": dict(batcher.stats)
                    for (model, precision), batcher in self._batchers.items()
                },
                "routes": self.engine.describe_routes(),
                "executor": self.engine.executor_info(),
                "health": {
                    "draining": self._draining,
                    "pool": self.engine.health()["pool"],
                    "inflight_requests": self._inflight,
                    "queues": {
                        f"{model}/{precision}": batcher.queue_depth()
                        for (model, precision), batcher
                        in self._batchers.items()
                    },
                    # Aggregates a router can read without walking the
                    # per-route queue map: total admitted-but-unresolved
                    # rows and the slowest route's fused-batch latency.
                    "queued_rows": sum(
                        b.queue_depth()["inflight_rows"]
                        for b in self._batchers.values()
                    ),
                    "batch_ms_ema": max(
                        (b.batch_ms_ema for b in self._batchers.values()),
                        default=0.0,
                    ),
                    "max_queue_rows": self._limits.max_rows,
                    "shed": self.stats["shed"],
                    "rate_limited": self.stats["rate_limited"],
                    # The streaming posture: how many conversations are
                    # resident, how much history they hold, and how hot
                    # the push path is.  A router aggregates this block
                    # across its fleet.
                    "streams": {
                        "open": self._streams_open,
                        "state_bytes": self._stream_state_bytes,
                        "max_streams": self._limits.max_streams,
                        "max_state_bytes": (
                            self._limits.max_stream_state_bytes
                        ),
                        "opened": self.stats["stream_opens"],
                        "closed": self.stats["stream_closes"],
                        "pushes": self.stats["stream_pushes"],
                        "pushed_rows": self.stats["stream_rows"],
                        "pushes_per_s": self._stream_push_rate(),
                    },
                },
            }
            return info, b""
        if op == "stream_open":
            if self._draining:
                raise ServerUnavailable(
                    "server is draining and accepts no new streams"
                )
            model, precision, priority = self._resolve_route(header)
            if not self._limits.admits_stream(
                self._streams_open, self._stream_state_bytes, 0
            ):
                raise Overloaded(
                    f"stream capacity exhausted: {self._streams_open} "
                    f"streams open (limit {self._limits.max_streams})"
                )
            # Plan compilation happens on the inference thread (like
            # session freezing); a non-streamable model answers with a
            # typed error frame, the connection stays up.
            try:
                plan = await asyncio.get_running_loop().run_in_executor(
                    self._infer_thread,
                    self.engine.stream_plan,
                    model,
                    precision,
                )
            except DeploymentError as exc:
                raise ServingError(str(exc)) from exc
            if not self._limits.admits_stream(
                self._streams_open, self._stream_state_bytes, plan.state_bytes
            ):
                raise Overloaded(
                    f"stream state budget exhausted: "
                    f"{self._stream_state_bytes} bytes resident "
                    f"(limit {self._limits.max_stream_state_bytes})"
                )
            self._stream_seq += 1
            handle = f"s{self._stream_seq}"
            streams[handle] = {
                "plan": plan,
                "state": plan.open(),
                "model": model,
                "precision": precision,
                "priority": priority,
                "busy": False,
            }
            self._streams_open += 1
            self._stream_state_bytes += plan.state_bytes
            self.stats["stream_opens"] += 1
            return (
                {
                    "status": "ok",
                    "op": "stream_open",
                    "stream": handle,
                    "model": model,
                    "precision": precision,
                    "in_channels": plan.in_channels,
                    "classes": plan.out_channels,
                    "receptive_field": plan.receptive_field,
                    "state_bytes": plan.state_bytes,
                },
                b"",
            )
        if op == "stream_push":
            if self._draining:
                # Typed as unavailable, NOT retryable-in-place: the
                # client surfaces this as a broken stream (the server
                # is going away; its state goes with it).
                raise ServerUnavailable(
                    "server is draining; open streams are broken"
                )
            entry = streams.get(header.get("stream"))
            if entry is None:
                raise ServingError(
                    f"unknown stream {header.get('stream')!r} on this "
                    "connection"
                )
            if not payload:
                raise ServingError("stream_push requires an array payload")
            if entry["busy"]:
                # Per-connection sequencing makes this unreachable for
                # well-behaved clients; defend anyway so a pipelining
                # client cannot corrupt its own stream's ordering.
                raise ServingError(
                    f"stream {header.get('stream')!r} already has a push "
                    "in flight"
                )
            if faults.enabled:
                shed = faults.take("admission.shed", retry_after_ms=50.0)
                if shed is not None:
                    raise Overloaded(
                        "request shed by injected fault",
                        retry_after_ms=float(shed["retry_after_ms"]),
                    )
            if self._bucket is not None:
                wait_s = self._bucket.try_acquire()
                if wait_s > 0.0:
                    self.stats["rate_limited"] += 1
                    raise Overloaded(
                        f"rate limit exceeded "
                        f"({self._bucket.rate:g} requests/s)",
                        retry_after_ms=wait_s * 1e3,
                    )
            deadline_ms = header.get("deadline_ms")
            self._check_deadline(deadline_ms)
            plan = entry["plan"]
            chunk = unpack_array(payload)
            if chunk.ndim == 1 and plan.in_channels == 1:
                chunk = chunk[:, None]
            if chunk.ndim != 2 or chunk.shape[1] != plan.in_channels:
                raise ServingError(
                    f"stream chunk must be (samples, {plan.in_channels}), "
                    f"got shape {chunk.shape}"
                )
            if chunk.shape[0] < 1:
                raise ServingError("stream_push needs at least one sample")
            # Same front-door cast as predict: any input dtype fuses
            # into the same stream bucket with identical results.
            chunk = np.asarray(chunk, dtype=plan.policy.real_dtype)
            priority = (
                entry["priority"]
                if header.get("priority") is None
                else self.engine.config.resolve_priority(header["priority"])
            )
            start = time.perf_counter()
            entry["busy"] = True
            try:
                out = await self._batcher_for(
                    entry["model"], entry["precision"]
                ).submit_stream(
                    entry["state"],
                    chunk,
                    priority=priority,
                    deadline_ms=deadline_ms,
                )
            except DeadlineExpired:
                self.stats["expired"] += 1
                raise
            finally:
                entry["busy"] = False
            latency_ms = (time.perf_counter() - start) * 1e3
            self._stream_pushes += 1
            self.stats["stream_pushes"] += 1
            self.stats["stream_rows"] += int(chunk.shape[0])
            return (
                {
                    "status": "ok",
                    "op": "stream_push",
                    "stream": header.get("stream"),
                    "rows": int(chunk.shape[0]),
                    "samples": int(entry["state"].samples),
                    "latency_ms": latency_ms,
                },
                pack_array_views(out),
            )
        if op == "stream_close":
            entry = streams.pop(header.get("stream"), None)
            if entry is None:
                raise ServingError(
                    f"unknown stream {header.get('stream')!r} on this "
                    "connection"
                )
            self._free_stream(entry)
            self.stats["stream_closes"] += 1
            return (
                {
                    "status": "ok",
                    "op": "stream_close",
                    "stream": header.get("stream"),
                    "samples": int(entry["state"].samples),
                    "pushes": int(entry["state"].pushes),
                },
                b"",
            )
        if op in ("predict", "predict_proba"):
            if self._draining:
                raise ServerUnavailable(
                    "server is draining and accepts no new requests"
                )
            if not payload:
                raise ServingError(f"{op} requires an array payload")
            # Admission, cheapest checks first: an injected shed, then
            # the global rate bucket; the per-route queue bounds are
            # enforced by the batcher at submit.
            if faults.enabled:
                shed = faults.take("admission.shed", retry_after_ms=50.0)
                if shed is not None:
                    raise Overloaded(
                        "request shed by injected fault",
                        retry_after_ms=float(shed["retry_after_ms"]),
                    )
            if self._bucket is not None:
                wait_s = self._bucket.try_acquire()
                if wait_s > 0.0:
                    self.stats["rate_limited"] += 1
                    raise Overloaded(
                        f"rate limit exceeded "
                        f"({self._bucket.rate:g} requests/s)",
                        retry_after_ms=wait_s * 1e3,
                    )
            model, precision, priority = self._resolve_route(header)
            deadline_ms = header.get("deadline_ms")
            if deadline_ms is not None and (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms < 0
            ):
                # Type-check before comparing: a JSON string here must
                # be a clean protocol error, not an "internal error".
                raise ServingError(
                    f"deadline_ms must be a non-negative number, "
                    f"got {deadline_ms!r}"
                )
            rows = unpack_array(payload)
            if rows.ndim == 1:
                rows = rows[None]
            # First request for a route freezes its session — on the
            # inference thread, so plan compilation never stalls the
            # event loop.  The resolved session is cached per route:
            # later requests must enter the batcher's pending window
            # without a hop through the (possibly busy) inference
            # thread, or batch N+1 could not accumulate while batch N
            # computes.
            session = self._route_sessions.get((model, precision))
            if session is None:
                session = await asyncio.get_running_loop().run_in_executor(
                    self._infer_thread, self.engine.session, model, precision
                )
                self._route_sessions[(model, precision)] = session
            # Cast once at the front door — the same cast the session
            # applies at its boundary — so requests of any input dtype
            # fuse into one micro-batch bucket with identical results.
            rows = np.asarray(rows, dtype=session.policy.real_dtype)
            self.stats["requests"] += 1
            start = time.perf_counter()
            try:
                proba = await self._batcher_for(model, precision).submit(
                    rows, priority=priority, deadline_ms=deadline_ms
                )
            except DeadlineExpired:
                self.stats["expired"] += 1
                raise
            latency_ms = (time.perf_counter() - start) * 1e3
            out = proba.argmax(axis=-1) if op == "predict" else proba
            return (
                {
                    "status": "ok",
                    "op": op,
                    "model": model,
                    "precision": precision,
                    "priority": priority,
                    "rows": int(rows.shape[0]),
                    "latency_ms": latency_ms,
                },
                # Zero-copy: the result buffer streams into the socket
                # writer as-is (npy header + memoryview of `out`).
                pack_array_views(out),
            )
        raise ServingError(f"unknown op {op!r}")

    def __repr__(self) -> str:
        return (
            f"InferenceServer({self.host}:{self.port}, "
            f"engine={self.engine!r}, max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait_ms})"
        )
