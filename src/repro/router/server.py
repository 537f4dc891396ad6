"""The asyncio front-tier router: many engine processes, one port.

:class:`RouterServer` speaks the exact frame protocol of
:mod:`repro.serving.protocol` to clients — the existing
:class:`~repro.serving.ServeClient` / :class:`~repro.serving.AsyncServeClient`
work against it unchanged — and multiplexes predict traffic over a
fleet of backend ``repro serve`` processes (static addresses, spawned
children, or both).  It registers its op handlers on the same
:class:`~repro.serving.connection.FrameServer` dispatch and connection
loop as :class:`~repro.serving.InferenceServer` — the refusals every op
shares are FrameServer's, its own are *raised* and answered through the
one error-code table — and it talks to
backends through the same :func:`~repro.serving.protocol.roundtrip` the
async client uses.  Per request it:

1. resolves the routing fields (``model`` / ``precision``) from the
   request header — the payload stays opaque bytes end to end, never
   re-serialized,
2. asks the :class:`~repro.router.placement.PlacementPolicy` for a
   backend (healthy candidates advertising the route,
   least-loaded-of-two, sticky tie-break),
3. forwards the frame and relays the response verbatim,
4. **fails over** (one loop, ``_place``, for predicts and stream opens
   alike) on transport death: predicts are idempotent (pure
   functions of their rows), so a request whose backend dies
   mid-flight replays bitwise-identically on a survivor.  Shed
   responses (``overloaded``) try the other candidates and — only when
   *every* candidate shed — propagate with the **max** backend
   ``retry_after_ms`` (the honest wait for capacity anywhere).
   Deliberate errors (``deadline_expired``, unknown models, malformed
   frames) are relayed verbatim and never retried: repeating them
   cannot succeed, and a deadline that expired on one backend is no
   less expired on the next.

Health is probed over the same wire (the ``info`` op) on a fixed
interval per backend; see :mod:`repro.router.backend` for the state
machine and :mod:`repro.router.placement` for how the capacity numbers
(queued rows, shed counters, fused-batch EMA) become placement.

Drain (the ``drain`` op, or SIGTERM under ``repro route``) refuses new
predicts, lets in-flight forwards complete and flush, fans ``drain``
out to every *spawned* child (static backends belong to someone else),
waits for the children to exit, then closes the listener.

**Streams are pinned, never failed over.**  A ``stream_open`` is placed
like a predict (and may try other candidates while nothing is at
stake), but once open the stream's state lives in *one* backend's
per-connection registry, so every ``stream_push`` must travel down the
same backend connection — the router keeps a dedicated relay connection
per (client connection, backend) pair, outside the probe/forward pools.
When that backend dies mid-stream the router does **not** replay the
push on a survivor (the push may already have been applied; a replay
would corrupt the stream's position): it marks the backend down, drops
every stream pinned to it, and relays ``server_unavailable``, which the
client surfaces as :class:`~repro.exceptions.StreamBroken`.  Stream
handles are rewritten at the boundary (router-issued ids map to
backend-issued ids) so concurrent client connections never collide.
See ``docs/streaming.md``.
"""

from __future__ import annotations

import asyncio

from ..exceptions import Overloaded, ServerUnavailable, ServingError
from ..serving.connection import FrameServer
from ..serving.protocol import roundtrip, string_field
from ..testing import faults
from .backend import BackendHandle
from .config import RouterConfig
from .placement import PlacementPolicy
from .spawn import SpawnedBackend, spawn_backends

__all__ = ["RouterServer"]


class RouterServer(FrameServer):
    """Route the frame protocol over a fleet of engine backends.

    Parameters
    ----------
    config:
        A validated :class:`~repro.router.RouterConfig`; alternatively
        pass its fields as keyword arguments.
    policy:
        Placement override (defaults to a fresh
        :class:`~repro.router.placement.PlacementPolicy`); tests inject
        seeded policies here.
    """

    def __init__(
        self,
        config: RouterConfig | None = None,
        policy: PlacementPolicy | None = None,
        **fields,
    ):
        if config is not None and fields:
            raise ServingError(
                "pass either a RouterConfig or config fields, not both"
            )
        self.config = config if config is not None else RouterConfig(**fields)
        self.policy = policy if policy is not None else PlacementPolicy()
        config = self.config
        super().__init__(config.host, config.port, config.max_payload, {
            "info": self._op_info,
            "predict": self._op_predict,
            "predict_proba": self._op_predict,
            "stream_open": self._op_stream_open,
            "stream_push": self._op_stream_relay,
            "stream_close": self._op_stream_relay,
        })
        self.backends: list[BackendHandle] = []
        self.spawned: list[SpawnedBackend] = []
        self._probe_tasks: list[asyncio.Task] = []
        self._pins_open = 0  # streams currently pinned, all connections
        self.stats = {
            "connections": 0,
            "requests": 0,
            "forwards": 0,
            "replays": 0,
            "shed_all": 0,
            "no_backend": 0,
            "errors": 0,
            "disconnects": 0,
            "backends_killed": 0,  # router.backend_down firings
            "stream_opens": 0,
            "stream_pushes": 0,
            "streams_broken": 0,  # pins dropped by backend death
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _handle_for(self, address: str, process=None) -> BackendHandle:
        config = self.config
        return BackendHandle(
            address,
            pool_size=config.pool_size,
            connect_timeout_s=config.connect_timeout_s,
            request_timeout_s=config.request_timeout_s,
            probe_timeout_s=config.probe_timeout_s,
            max_payload=config.max_payload,
            process=process,
        )

    async def start(self) -> "RouterServer":
        """Spawn the local fleet, probe everyone once, open the port."""
        if self._server is not None:
            raise ServingError("router is already started")
        if self.config.spawn:
            # Blocking on purpose: the listener is not open yet, and the
            # children must be up (banner printed) before the router can
            # honestly announce readiness itself.
            self.spawned = spawn_backends(self.config)
        self.backends = [
            self._handle_for(address) for address in self.config.backends
        ] + [
            self._handle_for(child.address, process=child.process)
            for child in self.spawned
        ]
        # One synchronous probe round so placement knows the fleet's
        # models/health before the first client request arrives.
        await asyncio.gather(
            *(backend.probe() for backend in self.backends),
            return_exceptions=True,
        )
        self._probe_tasks = [
            asyncio.get_running_loop().create_task(self._probe_loop(backend))
            for backend in self.backends
        ]
        await self._listen()
        return self

    async def _probe_loop(self, backend: BackendHandle) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            try:
                await backend.probe()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: a probe bug must not
                backend.mark_down(f"probe crashed: {exc}")  # kill the loop

    async def _drain_owned(self) -> None:
        # In-flight forwards are answered; now drain the fleet we own.
        # Static backends are someone else's lifecycle — never drained.
        for backend in self.backends:
            if backend.process is None:
                continue
            try:
                await backend.request(
                    {"op": "drain"}, timeout_s=self.config.probe_timeout_s
                )
            except ServingError:
                pass  # already down/dead: reaping below still applies
        loop = asyncio.get_running_loop()
        for child in self.spawned:
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(None, child.process.wait), 30.0
                )
            except asyncio.TimeoutError:
                child.terminate()

    async def stop(self) -> None:
        """Tear everything down: listener, probes, pools, children."""
        await self._unlisten()
        for task in self._probe_tasks:
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
        self._probe_tasks = []
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except (asyncio.CancelledError, Exception):
                pass
            self._drain_task = None
        for backend in self.backends:
            await backend.aclose_connections()
        for child in self.spawned:
            child.terminate()

    # ------------------------------------------------------------------
    # Connection hooks (the loop itself is FrameServer's)
    # ------------------------------------------------------------------
    def _open_context(self) -> dict:
        # Per-connection streaming context: ``pins`` maps router-issued
        # stream ids to their backend + backend-issued id; ``conns``
        # holds one dedicated relay connection per pinned backend
        # (stream state lives in the *backend's* per-connection
        # registry, so pushes must keep using the same backend
        # connection — the shared forward pools would scatter them).
        return {"pins": {}, "conns": {}, "seq": 0}

    def _close_context(self, ctx: dict) -> None:
        # Closing the relay connections is all the cleanup streams
        # need: each backend's own per-connection registry frees the
        # state when it sees EOF.  The client vanishing mid-stream
        # therefore leaks nothing anywhere.
        self._pins_open -= len(ctx["pins"])
        for conn in ctx["conns"].values():
            conn[1].close()

    # ------------------------------------------------------------------
    # Op handlers (FrameServer dispatches and refuses what all ops share)
    # ------------------------------------------------------------------
    async def _op_ping(self, header, payload, ctx):
        return {"status": "ok", "op": "ping", "router": True}, b""

    async def _op_stream_open(self, header, payload, ctx):
        # Retrying other candidates is safe here and only here: until
        # the open succeeds the stream has no state anywhere.
        backend, response, out = await self._place(
            header, lambda backend: self._relay(ctx, backend, header)
        )
        if backend is not None:
            # The backend's stream id is rewritten to a router-issued one
            # so ids stay unique per client connection regardless of
            # which backend minted them.
            ctx["seq"] += 1
            rid = f"r{ctx['seq']}"
            ctx["pins"][rid] = {
                "backend": backend,
                "sid": response.get("stream"),
            }
            self._pins_open += 1
            self.stats["stream_opens"] += 1
            response["stream"] = rid
        return response, out

    async def _op_stream_relay(self, header, payload, ctx):
        """``stream_push`` and ``stream_close``: down the pinned relay."""
        push = header["op"] == "stream_push"
        rid = string_field(header, "stream")
        pin = ctx["pins"].get(rid)
        if pin is None:
            raise ServingError(f"unknown stream {rid!r} on this connection")
        if push:
            self._maybe_kill_backend()
        else:
            del ctx["pins"][rid]
            self._pins_open -= 1
        forwarded = dict(header)
        forwarded["stream"] = pin["sid"]
        # A ServerUnavailable from here means the pinned backend died
        # with the frame in flight.  A push may or may not have been
        # applied, so replaying it elsewhere is forbidden — and the
        # stream's state died with the backend connection anyway
        # (_relay already dropped every pin on that backend); for a
        # close, the backend's registry freed the state when the relay
        # connection died, so the close is moot.
        response, out = await self._relay(
            ctx, pin["backend"], forwarded, payload
        )
        if push and response.get("status") == "ok":
            self.stats["stream_pushes"] += 1
            pin["backend"].stats["forwards"] += 1
        if "stream" in response:
            response["stream"] = rid
        return response, out

    async def _op_predict(self, header, payload, ctx):
        if not payload:
            raise ServingError(f"{header['op']} requires an array payload")
        self.stats["requests"] += 1
        self._maybe_kill_backend()
        # Predicts are idempotent (pure functions of their rows), so
        # replaying on a survivor after a transport failure is safe and
        # bitwise-equivalent; the client's stable ``request_id`` rides
        # along unchanged on every attempt.
        backend, response, out = await self._place(
            header, lambda backend: backend.request(header, payload)
        )
        if backend is not None:
            self.stats["forwards"] += 1
        return response, out

    def _maybe_kill_backend(self) -> None:
        """The ``router.backend_down`` fault point: drop one child."""
        if not faults.enabled:
            return
        if faults.take("router.backend_down") is None:
            return
        for child in self.spawned:
            if child.process.poll() is None:
                child.kill()
                self.stats["backends_killed"] += 1
                return

    async def _place(self, header: dict, attempt):
        """The failover loop: place, try, classify, next candidate.

        ``attempt(backend)`` is one round trip (a pooled
        ``backend.request`` for predicts, this connection's ``_relay``
        for a stream open).  Returns ``(backend, response, payload)``
        when a backend answered ok, ``(None, response, payload)`` for a
        backend's deliberate error — relayed verbatim, never retried —
        and raises when no candidate accepted the request.
        """
        model = string_field(header, "model")
        precision = string_field(header, "precision")
        tried: set[str] = set()
        sheds: list[float | None] = []
        budget = (
            len(self.backends)
            if self.config.max_attempts is None
            else self.config.max_attempts
        )
        while len(tried) < budget:
            candidates = self.policy.candidates(
                self.backends, model, precision, exclude=tried
            )
            if not candidates:
                break
            backend = self.policy.choose(candidates, model, precision)
            tried.add(backend.address)
            if len(tried) > 1:
                self.stats["replays"] += 1
            rows = _payload_rows_hint(header)
            backend.inflight_rows += rows
            try:
                response, out = await attempt(backend)
            except ServingError:
                # The attempt marked the backend down (or dropped a
                # connection that answered garbage); its sticky routes
                # must re-place instead of chasing a corpse.
                self.policy.forget(backend.address)
                continue
            finally:
                backend.inflight_rows = max(0, backend.inflight_rows - rows)
            if response.get("status") == "ok":
                backend.stats["forwards"] += 1
                return backend, response, out
            code = response.get("code")
            if code == "overloaded":
                sheds.append(response.get("retry_after_ms"))
                continue
            if code == "server_unavailable":
                # Draining (or mid-drain refusal): not an error, just
                # not *this* backend; the probe loop will reclassify it.
                continue
            # Deliberate error (deadline_expired, unknown model, bad
            # frame): relay verbatim, never retry — repeating it on
            # another backend cannot succeed.
            self.stats["errors"] += 1
            return None, response, out
        if sheds:
            # Every candidate shed: overloaded fleet-wide.  The honest
            # retry hint is the *max* — capacity returns somewhere only
            # once the slowest-draining backend has drained.
            self.stats["shed_all"] += 1
            hints = [h for h in sheds if h is not None]
            raise Overloaded(
                f"all {len(sheds)} candidate backend(s) shed the request",
                retry_after_ms=max(hints) if hints else None,
            )
        self.stats["no_backend"] += 1
        if any(b.routable for b in self.backends):
            raise ServingError(
                f"no backend serves model={model!r} precision={precision!r}"
            )
        raise ServerUnavailable(
            "no healthy backend available "
            f"({len(self.backends)} known, all down or draining)"
        )

    # ------------------------------------------------------------------
    # Streams: pinned relays, no failover
    # ------------------------------------------------------------------
    async def _relay(
        self, ctx: dict, backend, header: dict, payload=b""
    ) -> tuple[dict, bytes]:
        """One round-trip on this connection's dedicated relay.

        Opens the relay connection on first use (one per backend per
        client connection; a client's streams on the same backend share
        it, since the client side is sequential anyway).  A transport
        failure marks the backend down, drops **every** stream this
        connection had pinned there — their state died with the
        backend — and raises
        :class:`~repro.exceptions.ServerUnavailable`.
        """
        conn = ctx["conns"].get(backend.address)
        try:
            if conn is None:
                conn = await backend.open_connection()
                ctx["conns"][backend.address] = conn
            return await roundtrip(
                *conn,
                header,
                payload,
                self.max_payload,
                self.config.request_timeout_s,
            )
        except ServingError as exc:
            # Refused, died mid-frame or answered garbage: this relay
            # is closed, and whatever was pinned over it is gone.
            self._drop_backend_pins(ctx, backend.address)
            if not isinstance(exc, ServerUnavailable):
                raise
            backend.mark_down(f"stream relay failed: {exc}")
            raise ServerUnavailable(
                f"backend {backend.address} died mid-stream: {exc}"
            ) from exc

    def _drop_backend_pins(self, ctx: dict, address: str) -> None:
        """Forget every stream this connection pinned to ``address``."""
        conn = ctx["conns"].pop(address, None)
        if conn is not None:
            try:
                conn[1].close()
            except Exception:
                pass
        dead = [
            rid
            for rid, pin in ctx["pins"].items()
            if pin["backend"].address == address
        ]
        for rid in dead:
            del ctx["pins"][rid]
        if dead:
            self._pins_open -= len(dead)
            self.stats["streams_broken"] += len(dead)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def _op_info(self, header, payload, ctx):
        backends = {b.address: b.describe() for b in self.backends}
        states = [b.state for b in self.backends]
        return {
            "status": "ok",
            "op": "info",
            "router": True,
            "config": self.config.describe(),
            "stats": dict(self.stats),
            "health": {
                "draining": self._draining,
                "inflight_requests": self._inflight,
                "backends_total": len(self.backends),
                "backends_routable": sum(
                    1 for b in self.backends if b.routable
                ),
                "states": {
                    state: states.count(state) for state in set(states)
                },
                # Fleet-wide streaming posture: sums over each
                # backend's last-probed ``health.streams`` block, plus
                # the router's own live pin count (fresher than any
                # probe, and the only number that sees streams the
                # router itself is carrying).
                "streams": {
                    "pinned": self._pins_open,
                    "open": sum(
                        int(b.streams.get("open", 0)) for b in self.backends
                    ),
                    "state_bytes": sum(
                        int(b.streams.get("state_bytes", 0))
                        for b in self.backends
                    ),
                    "pushes_per_s": sum(
                        float(b.streams.get("pushes_per_s", 0.0))
                        for b in self.backends
                    ),
                    "opened": self.stats["stream_opens"],
                    "pushes": self.stats["stream_pushes"],
                    "broken": self.stats["streams_broken"],
                },
            },
            "backends": backends,
            # The union routing surface, so a client can discover what
            # the fleet serves without probing backends itself.
            "models": sorted(
                {name for b in self.backends for name in b.models}
            ),
            "precisions": sorted(
                {prec for b in self.backends for prec in b.precisions}
            ),
        }, b""

    def __repr__(self) -> str:
        return (
            f"RouterServer({self.host}:{self.port}, "
            f"backends={len(self.backends)}, draining={self._draining})"
        )


def _payload_rows_hint(header: dict) -> int:
    """Local in-flight load unit: one request ~ its row count when the
    client declared one, else 1 (enough for least-loaded-of-two)."""
    rows = header.get("rows")
    if isinstance(rows, int) and not isinstance(rows, bool) and rows > 0:
        return rows
    return 1
