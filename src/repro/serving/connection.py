"""The server side of the frame protocol: one connection loop, one lifecycle.

:class:`FrameServer` is what :class:`~repro.serving.InferenceServer` and
:class:`~repro.router.RouterServer` do identically because they speak
the same wire: read a frame, dispatch it through one ``{op: handler}``
table, answer, clean up; count what is in flight; drain on request or
signal; block until drained.  The rules every op shares live here once:
the unknown-op error, the ``priority`` refusal, and the draining refusal
of the ops that start work (``_WORK_OPS``).  A subclass passes
``__init__`` its handlers, ``handler(header, payload, ctx) -> (response,
out)``, which report failure by *raising* (the loop answers through
:func:`~repro.serving.protocol.error_header`).  It also supplies
``start``/``stop``, what a connection owns
(``_open_context``/``_close_context``), what a drain waits for once no
request is in flight (``_drain_owned``), and ``stats`` with
``connections``/``errors``/``disconnects``.
"""

from __future__ import annotations

import asyncio
import signal
from contextlib import suppress

from ..exceptions import ConfigurationError, ServerUnavailable, ServingError
from ..testing import faults
from .protocol import error_header, format_banner, read_frame, send_frame

__all__ = ["FrameServer"]

# The ops that start work: once draining, a server refuses these (and
# only these) as ``server_unavailable``, so a client reconnects
# elsewhere and an open stream breaks instead of retrying in place.
_WORK_OPS = {"predict", "predict_proba", "stream_open", "stream_push"}


class FrameServer:
    """Op dispatch, connection loop, in-flight accounting, drain and run."""

    def __init__(self, host: str, port: int, max_payload: int, handlers):
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._handlers = {
            "ping": self._op_ping,
            "drain": self._op_drain,
            **handlers,
        }
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._inflight = 0  # requests read but not yet fully responded

    async def _listen(self) -> None:
        """Bind the port (``port=0``: ephemeral, read back into ``port``)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _unlisten(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def draining(self) -> bool:
        """True once a drain has begun (new work is being refused)."""
        return self._draining

    def begin_drain(self) -> None:
        """Start a graceful drain; safe from a signal handler, idempotent.

        From here :meth:`_dispatch` refuses the ops that start work
        (``server_unavailable``) while :meth:`_drain` waits for every
        in-flight request to be answered, then closes the listener so
        :meth:`serve_forever` ends.
        """
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        # Work in flight strictly empties: every batcher works until its
        # queue is empty, and no op that starts work is admitted.
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        await self._drain_owned()
        if self._server is not None:
            self._server.close()

    async def _drain_owned(self) -> None:
        """What a drain also waits for once no request is in flight."""

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled, drained or stopped."""
        if self._server is None:
            await self.start()
        with suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def run(self, on_ready=None) -> None:
        """Serve until drained (blocking): the body of a serving process.

        ``SIGTERM``/``SIGINT`` begin a drain; the first stdout line is
        the ready banner, then ``on_ready(self)`` fires.
        """

        async def main() -> None:
            async with self:  # start() ... stop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        self._loop.add_signal_handler(sig, self.begin_drain)
                    except (NotImplementedError, RuntimeError):
                        break  # no signal support here: Ctrl-C path
                print(format_banner(self.host, self.port), flush=True)
                if on_ready is not None:
                    on_ready(self)
                await self.serve_forever()

        with suppress(KeyboardInterrupt):
            asyncio.run(main())

    def _dispatch(self, header: dict, payload: bytes, ctx):
        """The handler's awaitable for one frame; a refusal is raised."""
        if "priority" in header:
            raise ConfigurationError(
                "the priority field is not supported; requests are "
                "served in arrival order"
            )
        op = header.get("op")
        handler = self._handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            raise ServingError(f"unknown op {op!r}")
        if self._draining and op in _WORK_OPS:
            raise ServerUnavailable(f"{op} refused: the server is draining")
        return handler(header, payload, ctx)

    async def _op_ping(self, header, payload, ctx):
        return {"status": "ok", "op": "ping"}, b""

    async def _op_drain(self, header, payload, ctx):
        # Graceful shutdown over the wire: in-flight requests are
        # answered, then the listener closes and the process exits.
        self.begin_drain()
        return {"status": "ok", "op": "drain", "draining": True}, b""

    def _count_error(self, exc: Exception) -> None:
        self.stats["errors"] += 1

    async def _fault_reply(self) -> bool:
        """Reply fault points, awaited only while armed: True = hang up."""
        return False

    async def _handle_connection(self, reader, writer) -> None:
        self.stats["connections"] += 1
        # Whatever the connection owns is scoped to this coroutine, so
        # every exit — clean close, abrupt disconnect, a cut cable —
        # releases it in the ``finally`` below, by construction.
        ctx = self._open_context()
        try:
            while True:
                try:
                    header, payload = await read_frame(
                        reader, self.max_payload
                    )
                except (asyncio.IncompleteReadError, ConnectionError) as exc:
                    # EOF between frames is the peer hanging up; anything
                    # else died mid-frame (a killed client, a cut cable):
                    # this connection is unrecoverable, every other
                    # connection is unaffected.
                    if getattr(exc, "partial", True):
                        self.stats["disconnects"] += 1
                    break
                except ServingError as exc:
                    # Malformed or oversized frame: the stream offset is
                    # unrecoverable, so answer once and hang up.
                    self.stats["errors"] += 1
                    with suppress(Exception):
                        await send_frame(writer, error_header(exc))
                    break
                self._inflight += 1
                try:
                    try:
                        response, out = await self._dispatch(
                            header, payload, ctx
                        )
                    except Exception as exc:  # never kill the connection loop
                        self._count_error(exc)
                        response, out = error_header(exc), b""
                    if "id" in header:
                        response["id"] = header["id"]
                    if faults.enabled and await self._fault_reply():
                        break
                    try:
                        await send_frame(writer, response, out)
                    except ConnectionError:
                        # Peer vanished while we wrote its response;
                        # close this connection, touch nothing else.
                        self.stats["disconnects"] += 1
                        break
                finally:
                    self._inflight -= 1
        finally:
            self._close_context(ctx)
            writer.close()
            # BaseException includes CancelledError: the loop may tear
            # this task down while it drains the close — the socket is
            # closed either way, and there is nothing after this line.
            with suppress(BaseException):
                await writer.wait_closed()
