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
    endpoint the client is talking to."""

    def run(scenario, max_payload=None):
        async def main():
            bound = {} if max_payload is None else {"max_payload": max_payload}
            with Engine(model=small_model(), **bound) as engine:
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
