"""Per-backend state for the front-tier router.

A :class:`BackendHandle` is the router's whole view of one engine
process: a small pool of persistent frame-protocol connections, a
health state machine fed by periodic ``info`` probes, and the capacity
numbers the placement policy steers by (queued-row depth, shed
counters, fused-batch-latency EMA — exactly the fields the single-node
admission layer already maintains and exposes through ``info.health``).

States
------

========== ==========================================================
healthy    last probe answered and not draining — the one routable
           state
draining   answering, but refusing new work (``health.draining``) —
           never routed to
down       probe or forward failed (connect refused, timeout, died
           mid-frame) — never routed to, revived by the next
           successful probe
========== ==========================================================

Forward-path failures flip the state to ``down`` immediately (the
probe loop would take up to a probe interval to notice); a successful
probe — or a successful forward — flips it back.
"""

from __future__ import annotations

import asyncio

from ..exceptions import ServerUnavailable
from ..serving.protocol import (
    DEFAULT_MAX_PAYLOAD,
    open_connection,
    roundtrip,
)
from .config import parse_address

__all__ = ["BackendHandle", "HEALTHY", "DRAINING", "DOWN"]

HEALTHY = "healthy"
DRAINING = "draining"
DOWN = "down"


class BackendHandle:
    """One backend engine process: connections, health, capacity.

    Parameters
    ----------
    address:
        ``"host:port"`` of the backend's ``repro serve`` listener.
    pool_size:
        Idle connections kept warm; forwarding opens extra connections
        under burst and closes them back down to this bound.
    connect_timeout_s, request_timeout_s, probe_timeout_s:
        Transport bounds (see :class:`~repro.router.RouterConfig`).
    max_payload:
        Response frame payload bound.
    process:
        The :class:`subprocess.Popen` of a *spawned* backend; ``None``
        for static backends.  Spawned backends get drain fan-out and
        exit reaping from the router's lifecycle.
    """

    def __init__(
        self,
        address: str,
        pool_size: int = 2,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 60.0,
        probe_timeout_s: float = 2.0,
        max_payload: int | None = None,
        process=None,
    ):
        self.address = address
        self.host, self.port = parse_address(address)
        self.pool_size = pool_size
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.probe_timeout_s = probe_timeout_s
        self.max_payload = (
            DEFAULT_MAX_PAYLOAD if max_payload is None else max_payload
        )
        self.process = process
        self.state = DOWN  # unknown until the first probe succeeds
        self.last_error: str | None = None
        #: Routing surface from the last successful probe.
        self.models: tuple[str, ...] = ()
        self.precisions: tuple[str, ...] = ()
        #: Capacity snapshot from the last successful probe.
        self.queued_rows = 0
        self.batch_ms_ema = 0.0
        self.shed = 0
        self.probes = 0
        #: Streaming posture from the last successful probe
        #: (``health.streams`` of the backend's ``info``); empty until a
        #: streaming-aware backend answers.
        self.streams: dict = {}
        #: Rows forwarded by this router and not yet answered — the
        #: fresh half of the load signal (probe numbers go stale
        #: between probe intervals; local in-flight never does).
        self.inflight_rows = 0
        self.stats = {"forwards": 0, "failures": 0, "probes_failed": 0}
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def open_connection(self):
        """A fresh, caller-owned connection, outside the pool.

        The router's stream relays use this: a pinned stream must keep
        one backend connection for its whole life (the backend's stream
        registry is per-connection), which the shared forward pool
        cannot promise.
        """
        return await open_connection(
            self.host, self.port, self.connect_timeout_s
        )

    async def _acquire(self):
        if self._idle:
            return self._idle.pop()
        return await self.open_connection()

    def _release(self, conn) -> None:
        reader, writer = conn
        if len(self._idle) < self.pool_size and not reader.at_eof():
            self._idle.append(conn)
        else:
            writer.close()

    def close_connections(self) -> None:
        """Drop every idle pooled connection (state is untouched)."""
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()

    async def aclose_connections(self) -> None:
        """Close the pool and wait for each close handshake to flush.

        Fire-and-forget ``writer.close()`` is fine mid-flight (the
        backend sees EOF on its next loop tick), but at teardown the
        event loop may die before the FIN is even sent — leaving the
        backend's handler task to be cancelled inside ``readexactly``,
        which Python 3.11's streams log as a spurious traceback.
        Awaiting ``wait_closed`` keeps shutdown silent.
        """
        idle, self._idle = self._idle, []
        for _, writer in idle:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def request(
        self, header: dict, payload=b"", timeout_s: float | None = None
    ) -> tuple[dict, bytes]:
        """One frame round-trip on a pooled connection.

        Returns the raw response ``(header, payload)`` — error frames
        are *not* raised here; the router's failover logic interprets
        them (it must forward deliberate errors verbatim and only
        retry the retryable ones).  Transport failures raise
        :class:`~repro.exceptions.ServerUnavailable` after marking the
        backend down; a reply that fails the framing checks raises
        :class:`~repro.exceptions.ServingError`.  Either way
        :func:`~repro.serving.protocol.roundtrip` has closed the
        connection — only one that completed a round trip goes back to
        the pool.
        """
        timeout = self.request_timeout_s if timeout_s is None else timeout_s
        conn = await self._acquire()
        try:
            response = await roundtrip(
                *conn, header, payload, self.max_payload, timeout
            )
        except ServerUnavailable as exc:
            self.mark_down(f"request failed: {exc}")
            raise ServerUnavailable(
                f"backend {self.address} failed mid-request: {exc}"
            ) from exc
        self._release(conn)
        return response

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def mark_down(self, reason: str) -> None:
        """Forward-path failure: stop routing here until a probe revives."""
        self.state = DOWN
        self.last_error = reason
        self.stats["failures"] += 1
        self.close_connections()

    async def probe(self) -> str:
        """One ``info`` round-trip; updates state + capacity; returns state."""
        self.probes += 1
        try:
            header, _ = await self.request(
                {"op": "info"}, timeout_s=self.probe_timeout_s
            )
        except ServerUnavailable:
            # request() already marked us down and recorded the reason.
            self.stats["probes_failed"] += 1
            return self.state
        if header.get("status") != "ok":
            self.stats["probes_failed"] += 1
            self.mark_down(f"info answered {header.get('message', header)!r}")
            return self.state
        self.last_error = None
        self.models = tuple(header.get("models", ()))
        self.precisions = tuple(header.get("precisions", ()))
        health = header.get("health", {})
        self.queued_rows = int(health.get("queued_rows", 0))
        self.batch_ms_ema = float(health.get("batch_ms_ema", 0.0))
        self.shed = int(health.get("shed", 0))
        streams = health.get("streams")
        self.streams = dict(streams) if isinstance(streams, dict) else {}
        self.state = DRAINING if health.get("draining") else HEALTHY
        return self.state

    # ------------------------------------------------------------------
    # Placement surface
    # ------------------------------------------------------------------
    @property
    def routable(self) -> bool:
        return self.state == HEALTHY

    def advertises(self, model: str | None, precision: str | None) -> bool:
        """Does this backend serve the requested route?

        ``None`` matches (the backend applies its own default); a named
        model/precision must appear in the last probe's advertisement.
        A backend that was never successfully probed advertises
        nothing, so it is only reachable once its health is known.
        """
        if model is not None and model not in self.models:
            return False
        if precision is not None and precision not in self.precisions:
            return False
        return True

    def load(self) -> float:
        """The placement metric: rows ahead of a new request, in rows.

        Local in-flight rows (always fresh) plus the probe's queued-row
        snapshot, weighted so a backend with a slower fused-batch EMA
        looks proportionally fuller than one draining the same depth
        faster.
        """
        depth = self.inflight_rows + self.queued_rows
        # 1 + ema/100: a 0 ms EMA (unmeasured) weighs depth alone; a
        # 100 ms-per-batch backend counts its depth double.
        return depth * (1.0 + self.batch_ms_ema / 100.0)

    def describe(self) -> dict:
        """JSON-able snapshot for the router's aggregated ``info`` op."""
        info = {
            "address": self.address,
            "state": self.state,
            "models": list(self.models),
            "precisions": list(self.precisions),
            "queued_rows": self.queued_rows,
            "inflight_rows": self.inflight_rows,
            "batch_ms_ema": self.batch_ms_ema,
            "shed": self.shed,
            "streams": dict(self.streams),
            "load": self.load(),
            "probes": self.probes,
            "stats": dict(self.stats),
            "last_error": self.last_error,
            "spawned": self.process is not None,
        }
        if self.process is not None:
            info["pid"] = self.process.pid
            info["exited"] = self.process.poll()
        return info

    def __repr__(self) -> str:
        return (
            f"BackendHandle({self.address}, state={self.state}, "
            f"load={self.load():.1f})"
        )
