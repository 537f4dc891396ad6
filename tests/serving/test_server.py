"""InferenceServer e2e: protocol framing, routing, parity with serial."""

import asyncio
import socket

import numpy as np
import pytest

from repro.engine import Engine
from repro.exceptions import (
    ConfigurationError,
    DeadlineExpired,
    Overloaded,
    ServerUnavailable,
    ServingError,
)
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import InferenceSession
from repro.serving import AsyncServeClient, InferenceServer, ServeClient
from repro.serving.protocol import (
    check_reply,
    encode_frame,
    error_header,
    pack_array,
    pack_array_views,
    send_frame_sync,
    unpack_array,
)
from repro.zoo import build_arch2


def small_model():
    rng = np.random.default_rng(0)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


def small_engine(**config):
    return Engine(model=small_model(), **config)


def serve(engine, scenario):
    """Run an async scenario against an in-process server."""

    async def main():
        server = InferenceServer(engine, port=0)
        async with server:
            return await scenario(server)

    return asyncio.run(main())


class TestProtocol:
    def test_array_roundtrip(self, rng):
        for dtype in (np.float64, np.float32, np.int64):
            arr = (rng.normal(size=(3, 5)) * 10).astype(dtype)
            assert np.array_equal(unpack_array(pack_array(arr)), arr)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ServingError):
            unpack_array(b"not an npy payload")

    def test_pack_array_views_is_zero_copy_and_wire_identical(self, rng):
        arr = np.ascontiguousarray(rng.normal(size=(16, 8)))
        views = pack_array_views(arr)
        # Wire bytes identical to the legacy serializer...
        assert b"".join(bytes(chunk) for chunk in views) == pack_array(arr)
        # ...and the body chunk aliases the array's own buffer (the
        # zero-copy assertion of the ROADMAP item).
        body = views[-1]
        assert isinstance(body, memoryview)
        assert np.shares_memory(np.frombuffer(body, dtype=arr.dtype), arr)

    def test_frame_length_counts_bytes_for_raw_memoryviews(self, rng):
        # An uncast float64 memoryview: len() is the element count, but
        # the frame's length prefix must declare bytes.
        from repro.serving.protocol import frame_chunks

        arr = np.ascontiguousarray(rng.normal(size=(4,)))
        chunks = frame_chunks({"k": 1}, memoryview(arr))
        declared = int.from_bytes(chunks[0][4:8], "big")
        assert declared == arr.nbytes  # 32, not 4
        body = b"".join(bytes(c) for c in chunks[2:])
        assert len(body) == declared

    def test_pack_array_views_roundtrips_noncontiguous(self, rng):
        arr = rng.normal(size=(6, 4)).T  # not C-contiguous: copies once
        views = pack_array_views(arr)
        joined = b"".join(bytes(chunk) for chunk in views)
        assert np.array_equal(unpack_array(joined), arr)


class RecordingSocket:
    """Fake socket: records every ``sendmsg``, taking ``limit`` bytes each."""

    def __init__(self, limit=None):
        self.limit = limit
        self.calls = []

    def sendmsg(self, buffers):
        data = b"".join(bytes(buffer) for buffer in buffers)[: self.limit]
        self.calls.append(data)
        return len(data)


class TestSyncSend:
    """One frame, one send: a header segment the peer's delayed ACK can
    hold the payload behind cost the blocking client 44 ms per call."""

    header = {"op": "predict_proba", "request_id": "0" * 32}

    def test_small_frame_is_one_vectored_send(self, rng):
        arr = rng.normal(size=(8, 96))
        sock = RecordingSocket()
        send_frame_sync(sock, self.header, pack_array_views(arr))
        assert sock.calls == [encode_frame(self.header, pack_array(arr))]

    @pytest.mark.parametrize("limit", [1, 7, 100, 4096])
    def test_partial_sends_resume_where_the_kernel_stopped(self, rng, limit):
        arr = rng.normal(size=(8, 96))
        sock = RecordingSocket(limit)
        send_frame_sync(sock, self.header, pack_array_views(arr))
        assert b"".join(sock.calls) == encode_frame(
            self.header, pack_array(arr)
        )
        assert all(0 < len(call) <= limit for call in sock.calls)

    def test_empty_payload_and_raw_memoryview(self, rng):
        sock = RecordingSocket()
        send_frame_sync(sock, {"op": "ping"})
        assert sock.calls == [encode_frame({"op": "ping"})]
        arr = np.ascontiguousarray(rng.normal(size=(4,)))
        sock = RecordingSocket()
        send_frame_sync(sock, {"k": 1}, memoryview(arr))  # uncast float64
        assert sock.calls == [encode_frame({"k": 1}, arr.tobytes())]

    def test_without_sendmsg_payload_view_is_still_never_joined(self, rng):
        class SendallOnly:
            def __init__(self):
                self.sent = []

            def sendall(self, data):
                self.sent.append(data)

        views = pack_array_views(rng.normal(size=(8, 96)))
        sock = SendallOnly()
        send_frame_sync(sock, self.header, views)
        assert sock.sent[-1] is views[-1]  # the zero-copy body, as given
        assert b"".join(bytes(part) for part in sock.sent) == encode_frame(
            self.header, views
        )


class TestErrorCodeTable:
    """exception -> error header -> the same exception, in one module."""

    @pytest.mark.parametrize(
        "exc, wire",
        [
            (
                Overloaded("full", retry_after_ms=40),
                b'{"status":"error","code":"overloaded","message":"full",'
                b'"retry_after_ms":40.0}',
            ),
            (
                Overloaded("full"),
                b'{"status":"error","code":"overloaded","message":"full"}',
            ),
            (
                ServerUnavailable("draining"),
                b'{"status":"error","code":"server_unavailable",'
                b'"message":"draining"}',
            ),
            (
                DeadlineExpired("late"),
                b'{"status":"error","message":"late",'
                b'"code":"deadline_expired"}',
            ),
            (ServingError("bad op"), b'{"status":"error","message":"bad op"}'),
        ],
        ids=["shed-hint", "shed", "unavailable", "expired", "uncoded"],
    )
    def test_typed_errors_round_trip_with_the_parent_wire_bytes(
        self, exc, wire
    ):
        header = error_header(exc)
        assert encode_frame(header)[8:] == wire
        with pytest.raises(type(exc), match=str(exc)) as raised:
            check_reply(header)
        assert type(raised.value) is type(exc)
        assert getattr(raised.value, "retry_after_ms", None) == getattr(
            exc, "retry_after_ms", None
        )

    def test_config_errors_travel_uncoded_and_bugs_as_internal(self):
        assert error_header(ConfigurationError("unknown model 'x'")) == {
            "status": "error", "message": "unknown model 'x'"
        }
        assert error_header(TypeError("unhashable")) == {
            "status": "error", "message": "internal error: unhashable"
        }

    def test_ok_reply_passes_through(self):
        reply = {"status": "ok", "op": "ping"}
        assert check_reply(reply) is reply

    def test_deadline_expired_is_one_class_under_every_import_path(self):
        import repro.exceptions
        import repro.serving
        import repro.serving.batcher

        assert (
            repro.serving.DeadlineExpired
            is repro.serving.batcher.DeadlineExpired
            is repro.exceptions.DeadlineExpired
        )


class TestServerE2E:
    def test_engine_is_required(self):
        # The pre-engine InferenceServer(session) signature is gone.
        session = InferenceSession.freeze(small_model())
        with pytest.raises(TypeError, match="Engine"):
            InferenceServer(session, port=0)
        session.close()

    def test_predict_proba_bitwise_equals_serial(self, rng, served_reference):
        model = small_model()
        engine = Engine(model=model)
        serial = InferenceSession.freeze(model)
        x = rng.normal(size=(9, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                return await client.predict_proba(x)

        served = serve(engine, scenario)
        assert np.array_equal(served, served_reference(engine, serial, x))
        engine.close()

    def test_predict_labels_and_single_row(self, rng):
        model = small_model()
        engine = Engine(model=model)
        serial = InferenceSession.freeze(model)
        x = rng.normal(size=(6, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                labels = await client.predict(x)
                one = await client.predict_proba(x[0])  # 1-D row promotes
                return labels, one

        labels, one = serve(engine, scenario)
        assert np.array_equal(labels, serial.predict(x))
        assert one.shape == (1, 10)
        assert np.array_equal(one, serial.predict_proba(x[:1]))
        engine.close()

    def test_zoo_model_over_sync_client(self, rng, served_reference):
        model = build_arch2(rng=np.random.default_rng(5)).eval()
        engine = Engine(model=model)
        serial = InferenceSession.freeze(model)
        x = rng.normal(size=(11, 121))

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def sync_calls():
                with ServeClient(port=server.port) as client:
                    assert client.ping()
                    return client.predict_proba(x), client.info()

            return await loop.run_in_executor(None, sync_calls)

        proba, info = serve(engine, scenario)
        assert np.array_equal(proba, served_reference(engine, serial, x))
        assert info["precision"] == "fp64"
        route = info["routes"]["default/fp64"]
        assert any("bc_linear" in op for op in route["ops"])
        engine.close()

    def test_concurrent_clients_micro_batch_and_match_serial(self, rng):
        model = small_model()
        engine = Engine(model=model, max_batch=12)
        serial = InferenceSession.freeze(model)

        async def scenario(server):
            async def one_client(seed):
                rows = np.random.default_rng(seed).normal(size=(3, 96))
                async with await AsyncServeClient.connect(
                    port=server.port
                ) as client:
                    return rows, await client.predict_proba(rows)

            return await asyncio.gather(*[one_client(s) for s in range(8)])

        results = serve(engine, scenario)
        for rows, served in results:
            assert np.allclose(served, serial.predict_proba(rows), atol=1e-9)
        engine.close()

    def test_fp32_engine_close_to_fp64_serial(self, rng):
        model = small_model()
        engine = Engine(model=model, precisions=("fp32",))
        serial64 = InferenceSession.freeze(model)
        x = rng.normal(size=(5, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                return await client.predict_proba(x)

        served = serve(engine, scenario)
        assert served.dtype == np.float32
        assert np.abs(served - serial64.predict_proba(x)).max() <= 1e-5
        engine.close()


class TestRouting:
    """Per-request model/precision routing through one server."""

    def test_mixed_precision_requests_route_to_pooled_sessions(
        self, rng, served_reference
    ):
        model = small_model()
        engine = Engine(model=model, precisions=("fp64", "fp32"))
        serial64 = InferenceSession.freeze(model)
        serial32 = InferenceSession.freeze(model, precision="fp32")
        x = rng.normal(size=(7, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                p64 = await client.predict_proba(x)
                p32 = await client.predict_proba(x, precision="fp32")
                again64 = await client.predict_proba(x, precision="fp64")
                info = await client.info()
            return p64, p32, again64, info

        p64, p32, again64, info = serve(engine, scenario)
        # fp64 route: bitwise vs the serial executor; fp32: <= 1e-5.
        assert np.array_equal(p64, served_reference(engine, serial64, x))
        assert np.array_equal(again64, p64)
        assert p32.dtype == np.float32
        assert np.array_equal(
            p32, served_reference(engine, serial32, x.astype(np.float32))
        )
        assert np.abs(p32 - p64).max() <= 1e-5
        # One pooled session and one batcher per route.
        assert sorted(info["routes"]) == ["default/fp32", "default/fp64"]
        assert sorted(info["batchers"]) == ["default/fp32", "default/fp64"]
        engine.close()

    def test_multi_model_registry_routes_by_name(self, rng, served_reference):
        a, b = small_model(), build_arch2(rng=np.random.default_rng(5)).eval()
        engine = Engine(models={"small": a, "arch2": b},
                        default_model="small")
        serial_a = InferenceSession.freeze(a)
        serial_b = InferenceSession.freeze(b)
        xa = rng.normal(size=(4, 96))
        xb = rng.normal(size=(4, 121))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                pa = await client.predict_proba(xa, model="small")
                pb = await client.predict_proba(xb, model="arch2")
                default = await client.predict_proba(xa)  # -> "small"
            return pa, pb, default

        pa, pb, default = serve(engine, scenario)
        assert np.array_equal(pa, served_reference(engine, serial_a, xa))
        assert np.array_equal(pb, served_reference(engine, serial_b, xb))
        assert np.array_equal(default, pa)
        engine.close()

    def test_unknown_model_and_precision_answer_error_frames(self, rng):
        engine = small_engine()
        x = rng.normal(size=(2, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                with pytest.raises(ServingError, match="unknown model"):
                    await client.predict_proba(x, model="missing")
                with pytest.raises(ServingError, match="not pooled"):
                    await client.predict_proba(x, precision="fp32")
                # A junk precision name is a clean config-error frame
                # too, not an "internal error".
                with pytest.raises(ServingError, match="unknown precision"):
                    await client.predict_proba(x, precision="fp16")
                # The connection survives both error frames.
                return await client.predict_proba(x)

        served = serve(engine, scenario)
        assert served.shape == (2, 10)
        engine.close()

    def test_malformed_routing_fields_answer_clean_error_frames(self, rng):
        engine = small_engine()
        x = rng.normal(size=(2, 96))

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            from repro.serving.protocol import read_frame, send_frame

            # JSON lets a sloppy client send the wrong types; both must
            # come back as protocol errors, never "internal error".
            await send_frame(
                writer,
                {"op": "predict", "deadline_ms": "50"},
                pack_array(x),
            )
            bad_deadline, _ = await read_frame(reader)
            await send_frame(
                writer,
                {"op": "predict", "precision": ["fp64"]},
                pack_array(x),
            )
            bad_precision, _ = await read_frame(reader)
            writer.close()
            return bad_deadline, bad_precision

        bad_deadline, bad_precision = serve(engine, scenario)
        for response in (bad_deadline, bad_precision):
            assert response["status"] == "error"
            assert "internal error" not in response["message"]
        assert "deadline_ms" in bad_deadline["message"]
        assert "precision" in bad_precision["message"]
        engine.close()

    def test_expired_deadline_answers_typed_error_frame(self, rng):
        engine = small_engine()
        x = rng.normal(size=(2, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                # The wire frame carries code=deadline_expired, which
                # the client raises as the typed subclass — retry logic
                # never has to string-match the message.
                with pytest.raises(DeadlineExpired):
                    await client.predict_proba(x, deadline_ms=0)
                ok = await client.predict_proba(x)
                info = await client.info()
            return ok, info

        ok, info = serve(engine, scenario)
        assert ok.shape == (2, 10)
        assert info["stats"]["expired"] == 1
        engine.close()

    def test_unloadable_artifact_fails_at_start_not_first_request(
        self, tmp_path
    ):
        engine = Engine(model=str(tmp_path / "does_not_exist.npz"))

        async def scenario():
            server = InferenceServer(engine, port=0)
            with pytest.raises(FileNotFoundError):
                await server.start()
            assert server._server is None  # no port was ever bound

        asyncio.run(scenario())
        engine.close()


class TestServerRobustness:
    def test_bad_width_request_fails_alone_server_keeps_serving(
        self, rng, served_reference
    ):
        model = small_model()
        engine = Engine(model=model)
        serial = InferenceSession.freeze(model)
        good = rng.normal(size=(4, 96))
        bad = rng.normal(size=(4, 77))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                with pytest.raises(ServingError):
                    await client.predict_proba(bad)
                return await client.predict_proba(good)

        served = serve(engine, scenario)
        assert np.array_equal(
            served, served_reference(engine, serial, good)
        )
        engine.close()

    def test_client_dtype_normalized_to_route_precision(
        self, rng, served_reference
    ):
        model = small_model()
        engine = Engine(model=model)  # fp64 default
        serial = InferenceSession.freeze(model)
        x32 = rng.normal(size=(4, 96)).astype(np.float32)

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                return await client.predict_proba(x32)

        served = serve(engine, scenario)
        # Same cast the session applies at its own boundary.
        assert served.dtype == np.float64
        assert np.array_equal(
            served, served_reference(engine, serial, x32)
        )
        engine.close()

    def test_stats_and_info_expose_routes(self, rng):
        engine = small_engine(executor="threaded", threads=2)

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                await client.predict_proba(rng.normal(size=(4, 96)))
                return await client.info()

        info = serve(engine, scenario)
        assert info["stats"]["requests"] == 1
        assert info["batchers"]["default/fp64"]["batches"] == 1
        route = info["routes"]["default/fp64"]
        assert route["executor"] == "ThreadedExecutor(threads=2)"
        assert route["ops"] and route["arena"]["buffers"] > 0
        engine.close()

    def test_info_health_capacity_fields_move_under_load(self, rng):
        """The router steers by ``health.queued_rows`` / ``batch_ms_ema``:
        both must exist as numbers and move once traffic has flowed."""
        engine = small_engine()

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                before = await client.info()
                for _ in range(4):
                    await client.predict_proba(rng.normal(size=(8, 96)))
                after = await client.info()
                return before, after

        before, after = serve(engine, scenario)
        for info in (before, after):
            assert isinstance(info["health"]["queued_rows"], int)
            assert isinstance(info["health"]["batch_ms_ema"], float)
        # Idle server: nothing queued, nothing measured yet.
        assert before["health"]["queued_rows"] == 0
        assert before["health"]["batch_ms_ema"] == 0.0
        # After fused batches the EMA has a real measurement.
        assert after["health"]["batch_ms_ema"] > 0.0
        # Per-route queues expose the same capacity surface.
        route = after["health"]["queues"]["default/fp64"]
        assert route["pending_rows"] == 0  # drained between requests
        assert isinstance(route["inflight_rows"], int)
        assert route["batch_ms_ema"] > 0.0
        assert route["retry_after_ms"] > 0.0
        engine.close()

    def test_port_zero_binds_ephemeral(self):
        engine = small_engine()

        async def scenario(server):
            assert server.port != 0
            with socket.create_connection(("127.0.0.1", server.port)):
                pass
            return server.port

        serve(engine, scenario)
        engine.close()
