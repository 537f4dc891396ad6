"""Wire conformance: a router answers a raw frame as a backend does.

Every case runs twice through the ``endpoint`` fixture — against an
:class:`~repro.serving.InferenceServer` and against a
:class:`~repro.router.RouterServer` fronting one — because both sit on
the same connection loop (:mod:`repro.serving.connection`) and the same
error-code table (:mod:`repro.serving.protocol`): whatever a hostile or
sloppy client sends, both answer an error frame, keep (or deliberately
close) the connection, and never let an exception escape the loop.
"""

import asyncio
import logging
import struct

import numpy as np
import pytest

from repro.engine import Engine
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.router import RouterConfig, RouterServer
from repro.serving import InferenceServer
from repro.serving.protocol import (
    encode_frame,
    pack_array,
    read_frame,
    send_frame,
    unpack_array,
)
from repro.testing import faults


def small_model():
    rng = np.random.default_rng(0)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


@pytest.fixture(autouse=True)
def nothing_escapes_the_loop(caplog):
    """No case may reach asyncio's last-resort exception handler (the
    ``Unhandled exception in client_connected_cb`` log line)."""
    faults.reset()
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        yield
    escaped = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert escaped == []


@pytest.fixture(params=["server", "router"])
def endpoint(request):
    """``run(scenario, **server_kw)``: drive ``scenario(port)`` against
    the parametrised endpoint; ``max_payload`` applies to whichever
    endpoint the client is talking to, and ``model`` (default
    :func:`small_model`) is what the backend serves."""

    def run(scenario, max_payload=None, model=None):
        async def main():
            bound = {} if max_payload is None else {"max_payload": max_payload}
            served = small_model() if model is None else model
            with Engine(model=served, **bound) as engine:
                async with InferenceServer(engine, port=0) as server:
                    if request.param == "server":
                        return await scenario(server.port)
                    config = RouterConfig(
                        backends=(f"127.0.0.1:{server.port}",),
                        probe_interval_s=0.05,
                        **bound,
                    )
                    async with RouterServer(config) as router:
                        return await scenario(router.port)

        return asyncio.run(main())

    return run


class Raw:
    """One raw connection: send a frame, read a frame."""

    def __init__(self, port):
        self.port = port

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass

    async def ask(self, header, payload=b""):
        await send_frame(self.writer, header, payload)
        return await read_frame(self.reader)

    async def alive(self):
        reply, _ = await self.ask({"op": "ping"})
        return reply["status"] == "ok"


def is_clean_error(reply):
    return reply["status"] == "error" and "internal error" not in reply["message"]


class TestConnectionSurvives:
    def test_unknown_op_and_missing_payload(self, endpoint, rng):
        x = rng.normal(size=(2, 96))

        async def scenario(port):
            async with Raw(port) as raw:
                unknown, _ = await raw.ask({"op": "teleport"})
                missing, _ = await raw.ask({"op": "predict"})
                ok, payload = await raw.ask({"op": "predict"}, pack_array(x))
                return unknown, missing, ok, payload

        unknown, missing, ok, payload = endpoint(scenario)
        assert is_clean_error(unknown) and "teleport" in unknown["message"]
        assert is_clean_error(missing) and "payload" in missing["message"]
        assert ok["status"] == "ok"
        assert unpack_array(payload).shape == (2,)

    @pytest.mark.parametrize(
        "header",
        [
            {"op": "stream_push", "stream": [1]},
            {"op": "stream_close", "stream": {"a": 1}},
            {"op": "predict", "model": ["default"]},
            {"op": "predict", "precision": 64},
            {"op": "stream_open", "model": 7},
        ],
        ids=lambda header: "-".join(header),
    )
    def test_non_string_field_is_a_clean_error(self, endpoint, header, rng):
        payload = pack_array(rng.normal(size=(2, 96)))

        async def scenario(port):
            async with Raw(port) as raw:
                reply, _ = await raw.ask(header, payload)
                return reply, await raw.alive()

        reply, alive = endpoint(scenario)
        assert is_clean_error(reply)
        assert "code" not in reply
        assert alive

    @pytest.mark.parametrize(
        "deadline_ms", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_non_finite_deadline_is_a_clean_error(
        self, endpoint, deadline_ms, rng
    ):
        # JSON parses NaN and Infinity; neither is a deadline.
        x = rng.normal(size=(2, 96))

        async def scenario(port):
            async with Raw(port) as raw:
                reply, _ = await raw.ask(
                    {"op": "predict_proba", "deadline_ms": deadline_ms},
                    pack_array(x),
                )
                ok, payload = await raw.ask(
                    {"op": "predict_proba"}, pack_array(x)
                )
                return reply, ok, payload

        reply, ok, payload = endpoint(scenario)
        assert reply == {
            "status": "error",
            "message": "deadline_ms must be a finite non-negative number, "
            f"got {deadline_ms!r}",
        }
        assert ok["status"] == "ok"
        assert unpack_array(payload).shape == (2, 10)

    @pytest.mark.parametrize(
        "rows",
        [
            np.full((2, 96), 1.5 + 2.0j),
            np.full((2, 96), "1.5"),
            np.zeros((2, 96), dtype="datetime64[D]"),
        ],
        ids=["complex128", "str", "datetime64"],
    )
    def test_non_real_payload_is_a_clean_error(self, endpoint, rows, rng):
        # A cast would drop the imaginary part, parse the strings and
        # read the dates as day counts: refused, not computed on.
        async def scenario(port):
            async with Raw(port) as raw:
                reply, _ = await raw.ask({"op": "predict"}, pack_array(rows))
                ok, payload = await raw.ask(
                    {"op": "predict"}, pack_array(rng.normal(size=(2, 96)))
                )
                return reply, ok, payload

        reply, ok, payload = endpoint(scenario)
        assert is_clean_error(reply)
        assert "real-valued" in reply["message"]
        assert str(rows.dtype) in reply["message"]
        assert ok["status"] == "ok"
        assert unpack_array(payload).shape == (2,)

    def test_id_echoed_on_ok_and_error_replies(self, endpoint, rng):
        async def scenario(port):
            async with Raw(port) as raw:
                ok, _ = await raw.ask({"op": "ping", "id": 41})
                served, _ = await raw.ask(
                    {"op": "predict", "id": "p-1"},
                    pack_array(rng.normal(size=(2, 96))),
                )
                error, _ = await raw.ask({"op": "teleport", "id": 42})
                return ok, served, error

        ok, served, error = endpoint(scenario)
        assert (ok["status"], ok["id"]) == ("ok", 41)
        assert (served["status"], served["id"]) == ("ok", "p-1")
        assert (error["status"], error["id"]) == ("error", 42)


class TestFramingErrorsHangUp:
    """The byte offset is lost: one error frame, then EOF."""

    def test_oversized_frame(self, endpoint):
        async def scenario(port):
            async with Raw(port) as raw:
                # A header lying about a huge payload must not be
                # allocated (or waited for): 1 GiB declared, 64 B sent.
                frame = encode_frame({"op": "predict"}, b"x" * 64)
                raw.writer.write(
                    frame[:4] + (1 << 30).to_bytes(4, "big") + frame[8:]
                )
                await raw.writer.drain()
                reply, _ = await read_frame(raw.reader)
                return reply, await raw.reader.read(1024)

        reply, eof = endpoint(scenario, max_payload=1 << 20)
        assert is_clean_error(reply) and "too large" in reply["message"]
        assert eof == b""

    @pytest.mark.parametrize(
        "junk", [b"\xff\xfe not json", b"[1, 2, 3]"], ids=["bytes", "array"]
    )
    def test_undecodable_header(self, endpoint, junk):
        async def scenario(port):
            async with Raw(port) as raw:
                raw.writer.write(struct.pack(">II", len(junk), 0) + junk)
                await raw.writer.drain()
                reply, _ = await read_frame(raw.reader)
                eof = await raw.reader.read(1024)
            async with Raw(port) as other:
                return reply, eof, await other.alive()

        reply, eof, alive = endpoint(scenario)
        assert is_clean_error(reply) and "header" in reply["message"]
        assert eof == b""
        assert alive


class TestDisconnectAndDrain:
    def test_mid_frame_disconnect_is_counted_and_contained(self, endpoint):
        async def scenario(port):
            async with Raw(port) as bystander:
                async with Raw(port) as victim:
                    # Declare a frame, send half its header, vanish.
                    victim.writer.write(
                        struct.pack(">II", 64, 1024) + b'{"op": "pre'
                    )
                    await victim.writer.drain()
                await asyncio.sleep(0.05)
                alive = await bystander.alive()
                info, _ = await bystander.ask({"op": "info"})
                return alive, info["stats"]["disconnects"]

        alive, disconnects = endpoint(scenario)
        assert alive
        assert disconnects == 1

    def test_draining_endpoint_answers_server_unavailable(self, endpoint, rng):
        payload = pack_array(rng.normal(size=(2, 96)))

        async def scenario(port):
            async with Raw(port) as raw:
                drain, _ = await raw.ask({"op": "drain"})
                predict, _ = await raw.ask({"op": "predict"}, payload)
                opened, _ = await raw.ask({"op": "stream_open"})
                return drain, predict, opened, await raw.alive()

        drain, predict, opened, alive = endpoint(scenario)
        assert drain["status"] == "ok" and drain["draining"] is True
        for refused in (predict, opened):
            assert refused["status"] == "error"
            assert refused["code"] == "server_unavailable"
        assert alive


def stream_model():
    from repro.zoo import build_fftnet

    return build_fftnet(
        channels=8, depth=3, classes=6, rng=np.random.default_rng(7)
    )


class TestSharedRefusals:
    """The refusals every op goes through, answered alike by both."""

    def test_priority_field_is_refused_on_every_op(self, endpoint, rng):
        payload = pack_array(rng.normal(size=(2, 96)))
        frames = [
            ({"op": "ping", "priority": 1}, b""),
            ({"op": "info", "priority": 1}, b""),
            ({"op": "predict", "priority": 1}, payload),
            ({"op": "stream_open", "priority": "batch"}, b""),
        ]

        async def scenario(port):
            async with Raw(port) as raw:
                replies = [(await raw.ask(*frame))[0] for frame in frames]
                info, _ = await raw.ask({"op": "info"})
                return replies, info["stats"]

        replies, stats = endpoint(scenario)
        for reply in replies:
            assert is_clean_error(reply)
            assert "code" not in reply  # ConfigurationError, not a shed
            assert "priority" in reply["message"]
        # Refused before any handler ran: no request was counted, so a
        # router answered without a backend round trip.
        assert stats["requests"] == 0

    def test_draining_refuses_work_and_serves_the_rest(self, endpoint):
        clip = pack_array(np.zeros((1, 16, 1)))
        chunk = pack_array(np.zeros((4, 1)))

        async def scenario(port):
            async with Raw(port) as raw:
                opened, _ = await raw.ask({"op": "stream_open"})
                handle = opened["stream"]
                drain, _ = await raw.ask({"op": "drain"})
                work = {
                    "predict": ({"op": "predict"}, clip),
                    "predict_proba": ({"op": "predict_proba"}, clip),
                    "stream_open": ({"op": "stream_open"}, b""),
                    "stream_push": (
                        {"op": "stream_push", "stream": handle},
                        chunk,
                    ),
                }
                rest = {
                    "ping": ({"op": "ping"}, b""),
                    "info": ({"op": "info"}, b""),
                    "stream_close": (
                        {"op": "stream_close", "stream": handle},
                        b"",
                    ),
                }
                refused = {
                    op: (await raw.ask(*frame))[0]
                    for op, frame in work.items()
                }
                served = {
                    op: (await raw.ask(*frame))[0]
                    for op, frame in rest.items()
                }
                return opened, drain, refused, served

        opened, drain, refused, served = endpoint(
            scenario, model=stream_model()
        )
        assert opened["status"] == "ok"
        assert drain["status"] == "ok" and drain["draining"] is True
        for op, reply in refused.items():
            assert reply["status"] == "error", op
            assert reply["code"] == "server_unavailable", op
        for op, reply in served.items():
            assert reply["status"] == "ok", (op, reply)
        assert served["info"]["health"]["draining"] is True


# Subtrees keyed by a name (a route, a backend address, a backend
# state), not by a field: their keys are wildcarded as "*".
NAMED = {"batchers", "health/queues", "backends", "health/states"}
# Subtrees another module describes (the engine, its executor, shared
# pool and routes, the router's config): pinned as present, not key by
# key.  ``health/pool`` is ``None`` on a serial engine, a dict on a
# threaded one.
OPAQUE = {"engine", "executor", "health/pool", "routes", "config"}


def key_paths(obj, prefix=""):
    """Every nested key of an ``info`` reply as a ``/``-joined path."""
    paths = set()
    for key, value in obj.items():
        path = (f"{prefix}/" if prefix else "") + (
            "*" if prefix in NAMED else key
        )
        paths.add(path)
        if isinstance(value, dict) and path not in OPAQUE:
            paths |= key_paths(value, path)
    return paths


SERVER_INFO_KEYS = {
    "status", "op", "engine", "models", "precisions", "precision",
    "max_batch", "routes", "executor",
    "stats", "stats/connections", "stats/requests", "stats/errors",
    "stats/expired", "stats/shed", "stats/rate_limited",
    "stats/disconnects", "stats/stream_opens", "stats/stream_pushes",
    "stats/stream_rows", "stats/stream_closes",
    "batchers", "batchers/*", "batchers/*/requests", "batchers/*/rows",
    "batchers/*/batches", "batchers/*/max_batch_rows", "batchers/*/shed",
    "batchers/*/expired", "batchers/*/stream_batches",
    "batchers/*/stream_rows", "batchers/*/fused_streams_max",
    "health", "health/draining", "health/pool", "health/inflight_requests",
    "health/queues", "health/queues/*", "health/queues/*/pending_rows",
    "health/queues/*/inflight_rows", "health/queues/*/batch_ms_ema",
    "health/queues/*/retry_after_ms", "health/queued_rows",
    "health/batch_ms_ema", "health/max_queue_rows", "health/shed",
    "health/streams", "health/streams/open", "health/streams/state_bytes",
    "health/streams/max_streams", "health/streams/max_state_bytes",
    "health/streams/opened", "health/streams/closed",
    "health/streams/pushes", "health/streams/pushed_rows",
    "health/streams/pushes_per_s",
}

ROUTER_INFO_KEYS = {
    "status", "op", "router", "config", "models", "precisions",
    "stats", "stats/connections", "stats/requests", "stats/forwards",
    "stats/replays", "stats/shed_all", "stats/no_backend", "stats/errors",
    "stats/disconnects", "stats/backends_killed", "stats/stream_opens",
    "stats/stream_pushes", "stats/streams_broken",
    "health", "health/draining", "health/inflight_requests",
    "health/backends_total", "health/backends_routable", "health/states",
    "health/states/*", "health/streams", "health/streams/pinned",
    "health/streams/open", "health/streams/state_bytes",
    "health/streams/pushes_per_s", "health/streams/opened",
    "health/streams/pushes", "health/streams/broken",
    "backends", "backends/*", "backends/*/address", "backends/*/state",
    "backends/*/models", "backends/*/precisions", "backends/*/queued_rows",
    "backends/*/inflight_rows", "backends/*/batch_ms_ema",
    "backends/*/shed", "backends/*/load", "backends/*/probes",
    "backends/*/last_error", "backends/*/spawned",
    "backends/*/stats", "backends/*/stats/forwards",
    "backends/*/stats/failures", "backends/*/stats/probes_failed",
    "backends/*/streams", "backends/*/streams/open",
    "backends/*/streams/state_bytes", "backends/*/streams/max_streams",
    "backends/*/streams/max_state_bytes", "backends/*/streams/opened",
    "backends/*/streams/closed", "backends/*/streams/pushes",
    "backends/*/streams/pushed_rows", "backends/*/streams/pushes_per_s",
}

# What readers outside the servers take from ``info``: the router's
# health probe (router/backend.py), the benchmark ladder
# (benchmarks/e2e/ladder.py) and the example clients.  A spawned
# backend's entry also carries ``pid`` and ``exited``
# (examples/router_client.py reads ``pid``); this fixture's backend is
# static.
SERVER_READ = {
    "models", "precisions", "health/queued_rows", "health/batch_ms_ema",
    "health/shed", "health/streams", "health/streams/open",
    "health/streams/state_bytes", "health/streams/opened",
    "health/streams/pushes_per_s", "health/draining", "routes",
    "batchers/*/rows", "batchers/*/batches", "stats/shed",
    "stats/rate_limited",
}
ROUTER_READ = {
    "router", "backends/*", "backends/*/state", "backends/*/spawned",
    "stats/forwards", "stats/replays", "health/backends_routable",
}


def test_info_key_paths_are_pinned(endpoint, rng):
    async def scenario(port):
        async with Raw(port) as raw:
            x = rng.normal(size=(2, 96))
            await raw.ask({"op": "predict"}, pack_array(x))
            info, _ = await raw.ask({"op": "info"})
            return info

    info = endpoint(scenario)
    paths = key_paths(info)
    expected, read = (
        (ROUTER_INFO_KEYS, ROUTER_READ)
        if info.get("router")
        else (SERVER_INFO_KEYS, SERVER_READ)
    )
    assert read <= expected
    assert paths == expected, (
        f"missing {sorted(expected - paths)}, extra {sorted(paths - expected)}"
    )
