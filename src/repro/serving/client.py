"""Clients for the serving front-end: blocking and asyncio flavors.

Both speak the frame protocol of :mod:`repro.serving.protocol` and
expose the same calls — ``ping``, ``info``, ``drain``, ``predict``,
``predict_proba``, ``stream``.  :class:`ServeClient` wraps a blocking
socket (for scripts and the CLI); :class:`AsyncServeClient` wraps
asyncio streams so many clients can share one event loop (see
``examples/serve_client.py`` for a concurrent-client demo).  Every rule
below is written once, in :class:`_ClientCore` / :class:`_StreamCore`,
as *generators of steps*: where a call needs I/O it yields ``(verb,
*args)`` — ``(self._roundtrip, header, payload)`` to exchange a frame,
``(self._sleep, seconds)`` to wait — and gets the verb's result, or the
exception it raised, back at the ``yield``.  A flavor is just the verbs
plus a ``_run`` that drives a generator by calling each yielded verb,
blocking or awaiting.

One connection carries any number of sequential requests; neither
client pipelines concurrently on a single connection — open one client
per concurrent caller instead (connections are cheap, and the server
micro-batches across them anyway).

**Resilience.**  Both clients retry transient failures with bounded,
jittered exponential backoff:

* :class:`~repro.exceptions.Overloaded` (the server shed the request)
  — retried on the same connection, waiting at least the server's
  ``retry_after_ms`` hint;
* :class:`~repro.exceptions.ServerUnavailable`, connection resets, and
  read/connect timeouts — a failed round trip leaves the connection
  closed (a reply that failed its framing checks does too: the byte
  stream is desynchronized), so the replay goes out on a fresh one.

Every predict request carries a stable ``request_id`` header (kept
across retries of the same call), so a future deduplicating server can
make replays idempotent.  Deliberate errors — deadline expiry, unknown
models, malformed frames — are **never** retried: repeating them cannot
succeed.  After the retry budget the last typed error is raised.
``retries=0`` restores the old fail-fast behavior exactly.

Reconnect-and-replay is only safe for ops on the
:data:`IDEMPOTENT_OPS` whitelist.  A ``stream_push`` is *not* on it:
the server applies a push to the stream's history buffers, so replaying
one that may or may not have been applied would silently corrupt the
stream's position.  When the connection dies with a stream open, both
clients raise :class:`~repro.exceptions.StreamBroken` — carrying how
many samples were definitely applied — and the caller decides whether
to re-open and re-feed.  See :class:`Stream` / :class:`AsyncStream` and
``docs/streaming.md``.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
import uuid

import numpy as np

from ..exceptions import (
    Overloaded,
    ServerUnavailable,
    ServingError,
    StreamBroken,
)
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    DEFAULT_PORT,
    check_reply,
    open_connection,
    pack_array,
    roundtrip,
    roundtrip_sync,
    unpack_array,
)

__all__ = ["ServeClient", "AsyncServeClient", "Stream", "AsyncStream",
           "IDEMPOTENT_OPS"]

#: Default connect timeout: distinct from (and much tighter than) the
#: read timeout — an unreachable host should fail in seconds, while a
#: slow batch may legitimately take the full read timeout.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Ops safe to replay on a fresh connection after the old one died
#: mid-request.  Everything here either reads state (``ping``,
#: ``info``), is level-triggered (``drain``), is applied exactly once
#: per *response* the caller observes (``predict`` — a replayed predict
#: recomputes the same pure function), or allocates a resource the
#: caller only learns about from the response (``stream_open`` — a
#: half-applied open leaks nothing: the dead connection's registry
#: freed it).  ``stream_push``/``stream_close`` are deliberately
#: absent — they mutate per-connection stream state that the fresh
#: connection does not have.
IDEMPOTENT_OPS = frozenset(
    {"ping", "info", "drain", "predict", "predict_proba", "stream_open"}
)


def _predict_header(op: str, model, precision, deadline_ms) -> dict:
    """Request header with only the routing fields the caller set.

    Omitted fields are omitted from the wire too — an old server (or a
    new server with an old client) sees exactly the pre-engine frames.
    """
    header = {"op": op}
    if model is not None:
        header["model"] = model
    if precision is not None:
        header["precision"] = str(precision)
    if deadline_ms is not None:
        header["deadline_ms"] = deadline_ms
    return header


class _RetryPolicy:
    """Shared retry arithmetic: full-jitter exponential backoff.

    The wait before attempt ``attempt`` (0-based) is uniform in
    ``[0, min(backoff_ms * 2**attempt, backoff_max_ms)]``, floored at
    the server's ``retry_after_ms`` hint when one was offered —
    randomness decorrelates a thundering herd, the floor honors the
    server's own drain estimate.
    """

    def __init__(self, retries: int, backoff_ms: float, backoff_max_ms: float):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_ms < 0 or backoff_max_ms < backoff_ms:
            raise ValueError(
                f"need 0 <= backoff_ms <= backoff_max_ms, got "
                f"{backoff_ms}/{backoff_max_ms}"
            )
        self.retries = retries
        self.backoff_ms = backoff_ms
        self.backoff_max_ms = backoff_max_ms

    def delay_s(self, attempt: int, retry_after_ms: float | None) -> float:
        ceiling = min(self.backoff_ms * (2 ** attempt), self.backoff_max_ms)
        delay_ms = random.uniform(0.0, ceiling)
        if retry_after_ms is not None:
            delay_ms = max(delay_ms, float(retry_after_ms))
        return delay_ms / 1e3


class _ClientCore:
    """Every rule both clients follow, as step generators with no I/O
    (see the module docstring); a flavor adds the verbs ``_connect``,
    ``_connected``, ``_roundtrip``, ``_sleep`` and the driver ``_run``."""

    def __init__(self, host, port, timeout, connect_timeout, max_payload,
                 retries, backoff_ms, backoff_max_ms):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._max_payload = max_payload
        self._policy = _RetryPolicy(retries, backoff_ms, backoff_max_ms)
        # Bumped on every (re)connect; a stream records the epoch it was
        # opened under, so it can detect that its server-side state died
        # with the old connection.
        self._conn_epoch = 0

    def _request(self, header: dict, payload=b""):
        """One logical request, retried; returns ``(header, payload)``."""
        # One id for every attempt of this logical request: a server
        # that deduplicates can treat the replay as the same request.
        if "request_id" not in header:  # a stream push stamps its own
            header["request_id"] = uuid.uuid4().hex
        attempt = 0
        while True:
            try:
                if not self._connected():
                    # A failed round trip closed it (or the caller did):
                    # reconnect-before-replay is just how an attempt starts.
                    yield (self._connect,)
                reply, out = yield (self._roundtrip, header, payload)
                return check_reply(reply), out
            except Overloaded as exc:
                # Connection is intact (the server answered); back off
                # at least as long as it asked, then resend.
                hint = exc.retry_after_ms
                if attempt >= self._policy.retries:
                    raise
            except ServerUnavailable:
                # The connection is gone, so a retry replays on a fresh
                # one — which is only sound for ops documented
                # idempotent.  Anything else (a stream_push above all)
                # may already have been applied; replaying it would
                # corrupt server state, so it fails here and the caller
                # decides.
                hint = None
                if (
                    header.get("op") not in IDEMPOTENT_OPS
                    or attempt >= self._policy.retries
                ):
                    raise
            yield (self._sleep, self._policy.delay_s(attempt, hint))
            attempt += 1

    def _predict(self, op, rows, model, precision, deadline_ms):
        _, payload = yield from self._request(
            _predict_header(op, model, precision, deadline_ms),
            pack_array(np.asarray(rows)),
        )
        return unpack_array(payload)

    def _stream(self, kind, model, precision):
        header, _ = yield from self._request(
            _predict_header("stream_open", model, precision, None)
        )
        return kind(self, header)


class _StreamCore:
    """The stream state machine, shared by :class:`Stream` and
    :class:`AsyncStream`; calls are step generators like the client's."""

    def __init__(self, client: _ClientCore, opened: dict):
        self._client = client
        self._epoch = client._conn_epoch
        self.stream_id = opened["stream"]
        self.model = opened.get("model")
        self.precision = opened.get("precision")
        self.in_channels = opened.get("in_channels")
        self.classes = opened.get("classes")
        self.receptive_field = opened.get("receptive_field")
        self.state_bytes = opened.get("state_bytes")
        self.samples = 0
        self.pushes = 0
        self.closed = False
        self.broken = False

    def _orphaned(self) -> bool:
        """Is the connection this stream's server-side state lived on gone?"""
        client = self._client
        return client._conn_epoch != self._epoch or not client._connected()

    def _guard(self) -> None:
        if self.closed:
            raise ServingError(f"stream {self.stream_id} is closed")
        if self.broken:
            raise StreamBroken(self._why, pushed=self.samples)
        if self._orphaned():
            # The client lost or replaced its connection underneath us
            # (a retried predict on the same client object, say): the
            # server-side state is gone even though no push of *ours*
            # failed.
            self._break("client reconnected; stream state was lost")

    def _break(self, why: str) -> None:
        self.broken = True
        self._why = (
            f"stream {self.stream_id} broken after {self.samples} "
            f"samples: {why}"
        )
        raise StreamBroken(self._why, pushed=self.samples)

    def _push(self, chunk: np.ndarray, deadline_ms: float | None):
        self._guard()
        header = {"op": "stream_push", "stream": self.stream_id,
                  "request_id": uuid.uuid4().hex}
        if deadline_ms is not None:
            header["deadline_ms"] = deadline_ms
        try:
            # stream_push is off the idempotent whitelist, so _request
            # retries it only when shed: state untouched, connection
            # intact (the server answered) — same-connection resend is
            # the one replay that is always safe.  DeadlineExpired
            # (expired in the queue, never applied) and protocol errors
            # (fatal for this call, not the stream) propagate, stream intact.
            response, out = yield from self._client._request(
                header, pack_array(np.asarray(chunk))
            )
        except ServerUnavailable as exc:
            self._break(str(exc))
        self.samples = int(response.get("samples", self.samples))
        self.pushes += 1
        return unpack_array(out)

    def _close(self):
        if self.closed:
            return
        self.closed = True
        if self.broken or self._orphaned():
            return  # state died with its connection; nothing to free
        try:
            # One attempt, reply ignored: server gone or handle unknown,
            # the state is free anyway.
            yield (self._client._roundtrip,
                   {"op": "stream_close", "stream": self.stream_id}, b"")
        except ServingError:
            pass

    def __repr__(self) -> str:
        state = "broken" if self.broken else "closed" if self.closed else "open"
        return (
            f"{type(self).__name__}({self.stream_id}, {state}, "
            f"samples={self.samples})"
        )


class ServeClient(_ClientCore):
    """Blocking client: one TCP connection, sequential requests.

    Parameters
    ----------
    host, port:
        Server address; the constructor connects immediately (an
        unreachable server raises
        :class:`~repro.exceptions.ServerUnavailable`).
    timeout:
        Read timeout per response, seconds.
    connect_timeout:
        Timeout for establishing the TCP connection (also used by retry
        reconnects).
    max_payload:
        Inbound frame payload bound.
    retries:
        Retry budget per request for *transient* failures (shed
        requests, dropped connections, timeouts).  ``0`` disables
        retrying.
    backoff_ms, backoff_max_ms:
        Jittered exponential backoff range between attempts; an
        ``Overloaded`` response's ``retry_after_ms`` raises the floor.
    """

    _sock: socket.socket | None = None  # until the first _connect

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        retries: int = 2,
        backoff_ms: float = 25.0,
        backoff_max_ms: float = 2000.0,
    ):
        super().__init__(host, port, timeout, connect_timeout, max_payload,
                         retries, backoff_ms, backoff_max_ms)
        self._connect()

    def _connect(self) -> None:
        self.close()
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._connect_timeout
            )
        except OSError as exc:
            raise ServerUnavailable(
                f"cannot connect to {self._host}:{self._port}: {exc}"
            ) from exc
        # Requests are whole frames written at once; waiting to coalesce
        # them with a next write that never comes only adds latency.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self._timeout)
        self._sock = sock
        self._conn_epoch += 1

    def _connected(self) -> bool:
        # A failed round trip closes the socket under us: fileno() < 0.
        return self._sock is not None and self._sock.fileno() >= 0

    def _roundtrip(self, header: dict, payload) -> tuple[dict, bytes]:
        return roundtrip_sync(self._sock, header, payload, self._max_payload)

    _sleep = staticmethod(time.sleep)

    def _run(self, steps):
        """Drive one core generator to its result with blocking I/O."""
        try:
            verb, *args = next(steps)
            while True:
                try:
                    result = verb(*args)
                except ServingError as exc:
                    verb, *args = steps.throw(exc)
                else:
                    verb, *args = steps.send(result)
        except StopIteration as done:
            return done.value

    def ping(self) -> bool:
        self._run(self._request({"op": "ping"}))
        return True

    def info(self) -> dict:
        return self._run(self._request({"op": "info"}))[0]

    def drain(self) -> dict:
        """Ask the server to drain and shut down gracefully."""
        return self._run(self._request({"op": "drain"}))[0]

    def predict_proba(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        return self._run(self._predict(
            "predict_proba", rows, model, precision, deadline_ms
        ))

    def predict(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        return self._run(self._predict(
            "predict", rows, model, precision, deadline_ms
        ))

    def stream(
        self,
        model: str | None = None,
        precision=None,
    ) -> "Stream":
        """Open a server-side stream; returns a :class:`Stream`.

        Use as a context manager so the server's state is released even
        on error paths::

            with client.stream() as s:
                for chunk in chunks:
                    proba = s.push(chunk)

        The open itself is idempotent (retried like a predict); every
        subsequent :meth:`Stream.push` is pinned to this connection and
        never replayed.
        """
        return self._run(self._stream(Stream, model, precision))

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Stream(_StreamCore):
    """A server-side incremental inference stream, bound to one client.

    Created by :meth:`ServeClient.stream`.  :meth:`push` sends new
    samples and returns their class probabilities — bitwise identical
    to what a full-sequence ``predict_proba`` over everything pushed so
    far would have produced for those rows.

    Failure semantics (the part that differs from predicts):

    * ``Overloaded`` — the push was *shed before touching stream
      state*, so it is retried on the same connection with backoff.
    * ``DeadlineExpired`` — the push expired in the queue, also before
      touching state; the exception propagates but the stream stays
      usable (resend the same chunk if you still want it).
    * ``ServerUnavailable`` / connection death — the server may or may
      not have applied the push, and its state died with the
      connection either way: the stream is **broken**, and every later
      call raises :class:`~repro.exceptions.StreamBroken` whose
      ``pushed`` counts the samples definitely applied.  Re-feeding is
      the caller's decision; nothing is replayed implicitly.

    Attributes ``stream_id``, ``samples`` (server-confirmed applied
    samples), ``receptive_field``, ``classes``, ``state_bytes`` mirror
    the server's open/push responses.
    """

    def push(
        self, chunk: np.ndarray, deadline_ms: float | None = None
    ) -> np.ndarray:
        """Push ``chunk`` (samples, channels); probabilities for them."""
        return self._client._run(self._push(chunk, deadline_ms))

    def close(self) -> None:
        """Release the server-side state; idempotent, never raises."""
        self._client._run(self._close())

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncServeClient(_ClientCore):
    """asyncio client: construct with :meth:`connect`; parameters and
    retry semantics are :class:`ServeClient`'s."""

    _writer: asyncio.StreamWriter | None = None  # until the first _connect

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        timeout: float = 60.0,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        retries: int = 2,
        backoff_ms: float = 25.0,
        backoff_max_ms: float = 2000.0,
    ) -> "AsyncServeClient":
        client = cls(host, port, timeout, connect_timeout, max_payload,
                     retries, backoff_ms, backoff_max_ms)
        await client._connect()
        return client

    async def _connect(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader, self._writer = await open_connection(
            self._host, self._port, self._connect_timeout
        )
        self._conn_epoch += 1

    def _connected(self) -> bool:
        # A failed round trip closes the writer under us.
        return self._writer is not None and not self._writer.is_closing()

    def _roundtrip(self, header: dict, payload):
        return roundtrip(  # the awaitable itself: no extra coroutine frame
            self._reader, self._writer, header, payload,
            self._max_payload, self._timeout,
        )

    _sleep = staticmethod(asyncio.sleep)

    async def _run(self, steps):
        """Drive one core generator to its result, awaiting its I/O."""
        try:
            verb, *args = next(steps)
            while True:
                try:
                    result = await verb(*args)
                except ServingError as exc:
                    verb, *args = steps.throw(exc)
                else:
                    verb, *args = steps.send(result)
        except StopIteration as done:
            return done.value

    async def ping(self) -> bool:
        await self._run(self._request({"op": "ping"}))
        return True

    async def info(self) -> dict:
        return (await self._run(self._request({"op": "info"})))[0]

    async def drain(self) -> dict:
        """Ask the server to drain and shut down gracefully."""
        return (await self._run(self._request({"op": "drain"})))[0]

    async def predict_proba(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        return await self._run(self._predict(
            "predict_proba", rows, model, precision, deadline_ms
        ))

    async def predict(
        self,
        rows: np.ndarray,
        model: str | None = None,
        precision=None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        return await self._run(self._predict(
            "predict", rows, model, precision, deadline_ms
        ))

    async def stream(
        self,
        model: str | None = None,
        precision=None,
    ) -> "AsyncStream":
        """Open a server-side stream; returns an :class:`AsyncStream`.

        Usage (note the ``await`` — the open is a round trip)::

            async with await client.stream() as s:
                proba = await s.push(chunk)
        """
        return await self._run(
            self._stream(AsyncStream, model, precision)
        )

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class AsyncStream(_StreamCore):
    """Asyncio twin of :class:`Stream`; same failure semantics."""

    async def push(
        self, chunk: np.ndarray, deadline_ms: float | None = None
    ) -> np.ndarray:
        """Push ``chunk`` (samples, channels); probabilities for them."""
        return await self._client._run(self._push(chunk, deadline_ms))

    async def close(self) -> None:
        """Release the server-side state; idempotent, never raises."""
        await self._client._run(self._close())

    async def __aenter__(self) -> "AsyncStream":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
