"""Fault injection e2e: every injected fault yields a bitwise-correct
result (after a client retry) or a typed error frame — never a hang or
a silent drop."""

import asyncio
import importlib
import socket
import struct

import numpy as np
import pytest

import repro.serving
from repro.engine import Engine, EngineConfig
from repro.exceptions import Overloaded, ServerUnavailable, ServingError
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import InferenceSession
from repro.serving import (
    AsyncServeClient,
    InferenceServer,
    MicroBatcher,
    ServeClient,
)
from repro.serving.batcher import DeadlineExpired
from repro.serving.protocol import pack_array, read_frame, send_frame
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def small_model():
    rng = np.random.default_rng(0)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


def serve(engine, scenario):
    async def main():
        server = InferenceServer(engine, port=0)
        async with server:
            return await scenario(server)

    return asyncio.run(main())


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
class TestHarness:
    def test_disarmed_take_is_none_and_cheap(self):
        assert faults.enabled is False
        assert faults.take("server.drop_connection") is None

    def test_budget_is_consumed_exactly(self):
        fault = faults.arm("server.delay_response", times=2, seconds=0.1)
        assert faults.take("server.delay_response") == {"seconds": 0.1}
        assert faults.take("server.delay_response", seconds=9.9) == {
            "seconds": 0.1
        }
        assert faults.take("server.delay_response") is None
        assert fault.fired == 2
        assert fault.remaining == 0

    def test_unlimited_budget(self):
        faults.arm("admission.shed", times=None)
        for _ in range(10):
            assert faults.take("admission.shed") is not None
        assert faults.fired("admission.shed") == 10

    def test_defaults_merge_under_armed_params(self):
        faults.arm("server.delay_response", times=1)
        assert faults.take("server.delay_response", seconds=3600.0) == {
            "seconds": 3600.0
        }

    def test_disarm_and_reset_restore_fast_path(self):
        faults.arm("a")
        faults.arm("b")
        faults.disarm("a")
        assert faults.enabled is True
        faults.disarm("b")
        assert faults.enabled is False

    def test_arm_from_env_spec(self):
        armed = faults.arm_from_env(
            "server.drop_connection*3; server.delay_response:seconds=0.02 ;"
            "admission.shed*inf:retry_after_ms=75"
        )
        assert [f.point for f in armed] == [
            "server.drop_connection",
            "server.delay_response",
            "admission.shed",
        ]
        assert faults.describe()["server.drop_connection"]["remaining"] == 3
        assert faults.describe()["admission.shed"]["remaining"] is None
        assert faults.take("server.delay_response") == {"seconds": 0.02}
        assert faults.take("admission.shed")["retry_after_ms"] == 75

    def test_arm_from_env_rejects_junk(self):
        with pytest.raises(ValueError):
            faults.arm_from_env("*3")
        with pytest.raises(ValueError):
            faults.arm_from_env("point:novalue")


# ----------------------------------------------------------------------
# Batcher admission
# ----------------------------------------------------------------------
class TestBatcherShedding:
    def test_sheds_over_row_budget_with_retry_hint(self, rng, gate):
        held = gate()

        async def main():
            batcher = MicroBatcher(
                lambda b: b,
                max_batch=64,
                executor=held.executor,
                max_queue_rows=8,
            )
            first = asyncio.ensure_future(
                batcher.submit(rng.normal(size=(8, 4)))
            )
            await asyncio.sleep(0)  # first request now occupies the queue
            with pytest.raises(Overloaded) as excinfo:
                await batcher.submit(rng.normal(size=(1, 4)))
            assert excinfo.value.retry_after_ms >= 1.0
            assert batcher.stats["shed"] == 1
            assert batcher.queue_depth()["inflight_rows"] == 8
            held.release()
            await batcher.drain()
            await first
            # Budget released after the future resolved: admits again.
            await batcher.submit(rng.normal(size=(8, 4)))
            await batcher.aclose()

        asyncio.run(main())

    def test_bound_admits_exactly_max_queue_rows(self, rng, gate):
        held = gate()

        async def main():
            batcher = MicroBatcher(
                lambda b: b,
                max_batch=64,
                executor=held.executor,
                max_queue_rows=8,
            )
            admitted = [
                asyncio.ensure_future(batcher.submit(rng.normal(size=(n, 4))))
                for n in (3, 5)
            ]
            await asyncio.sleep(0)
            # 8 rows in flight is the bound itself: admitted.
            assert batcher.queue_depth()["inflight_rows"] == 8
            assert batcher.stats["shed"] == 0
            # The 9th row is shed.
            with pytest.raises(Overloaded):
                await batcher.submit(rng.normal(size=(1, 4)))
            assert batcher.stats["shed"] == 1
            held.release()
            await asyncio.gather(*admitted)
            await batcher.aclose()

        asyncio.run(main())

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue_rows"):
            MicroBatcher(lambda b: b, max_queue_rows=0)

    def test_request_over_the_bound_is_refused_not_shed(self, rng):
        # An idle batcher: no backlog to wait out, so more rows than the
        # bound can never be admitted.  A plain error names both sizes.
        async def main():
            batcher = MicroBatcher(lambda b: b, max_batch=64, max_queue_rows=8)
            with pytest.raises(ServingError, match="9 rows.*bound of 8") as excinfo:
                await batcher.submit(rng.normal(size=(9, 4)))
            assert not isinstance(excinfo.value, Overloaded)
            assert batcher.stats["shed"] == 0
            assert batcher.stats["requests"] == 0
            assert batcher.queue_depth()["inflight_rows"] == 0
            # The bound itself is admitted.
            out = await batcher.submit(rng.normal(size=(8, 4)))
            assert out.shape == (8, 4)
            await batcher.aclose()

        asyncio.run(main())


# ----------------------------------------------------------------------
# Server-level faults (shed, corrupt, drop, disconnect, drain)
# ----------------------------------------------------------------------
class TestServerFaults:
    def test_injected_shed_returns_typed_overloaded(
        self, rng, served_reference
    ):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            faults.arm("admission.shed", times=1, retry_after_ms=77.0)
            async with await AsyncServeClient.connect(
                port=server.port, retries=0
            ) as client:
                with pytest.raises(Overloaded) as excinfo:
                    await client.predict_proba(x)
                assert excinfo.value.retry_after_ms == 77.0
                # Budget spent: the same connection now succeeds.
                out = await client.predict_proba(x)
                info = await client.info()
            return out, info

        out, info = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)
        assert info["stats"]["shed"] == 1
        assert info["health"]["shed"] == 1

    def test_client_retries_past_shed_transparently(

        self, rng, served_reference

    ):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            faults.arm("admission.shed", times=2, retry_after_ms=5.0)
            async with await AsyncServeClient.connect(
                port=server.port, retries=3, backoff_ms=1.0
            ) as client:
                return await client.predict_proba(x)

        out = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)

    def test_queue_exhaustion_sheds_not_hangs(
        self, rng, served_reference, gate
    ):
        # A route bounded at 8 rows with its inference thread held: the
        # first request occupies the queue, the second is shed at once.
        engine = Engine(model=small_model(), max_queue_rows=8, max_batch=64)
        x8 = rng.normal(size=(8, 96))
        x1 = rng.normal(size=(1, 96))

        async def scenario(server):
            a = await AsyncServeClient.connect(port=server.port, retries=0)
            b = await AsyncServeClient.connect(port=server.port, retries=0)
            try:
                await b.predict_proba(x1)  # freezes the route's session
                (batcher,) = server._batchers.values()
                held = gate(server._infer_thread)
                big = asyncio.ensure_future(a.predict_proba(x8))
                await held.until(
                    lambda: batcher.queue_depth()["inflight_rows"] == 8
                )
                with pytest.raises(Overloaded):
                    await b.predict_proba(x1)
                held.release()
                out = await big
            finally:
                await a.close()
                await b.close()
            return out

        out = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x8
        )
        assert np.array_equal(out, ref)

    def test_predict_over_the_row_bound_is_refused_once(self, rng):
        # 17 rows against a 16-row bound on an idle server: one plain
        # error, no shed, and the retrying client does not retry it.
        engine = Engine(model=small_model(), max_queue_rows=16)

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port, retries=2, backoff_ms=1.0
            ) as client:
                with pytest.raises(ServingError, match="17 rows") as excinfo:
                    await client.predict_proba(rng.normal(size=(17, 96)))
                out = await client.predict_proba(rng.normal(size=(16, 96)))
                return excinfo.value, out, await client.info()

        error, out, info = serve(engine, scenario)
        assert not isinstance(error, Overloaded)
        assert "16" in str(error)
        assert out.shape == (16, 10)
        assert info["stats"]["shed"] == 0
        assert info["stats"]["errors"] == 1
        assert info["stats"]["requests"] == 2

    def test_corrupt_payload_yields_typed_error_not_crash(

        self, rng, served_reference

    ):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            faults.arm("server.corrupt_payload", times=1)
            async with await AsyncServeClient.connect(
                port=server.port, retries=0
            ) as client:
                with pytest.raises(ServingError):
                    await client.predict_proba(x)
                # Same connection still serves clean requests.
                return await client.predict_proba(x)

        out = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)

    def test_dropped_connection_is_retried_on_fresh_socket(

        self, rng, served_reference

    ):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            faults.arm("server.drop_connection", times=1)
            async with await AsyncServeClient.connect(
                port=server.port, retries=2, backoff_ms=1.0
            ) as client:
                return await client.predict_proba(x)

        out = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)

    def test_dropped_connection_without_retries_is_typed(self, rng):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            faults.arm("server.drop_connection", times=1)
            async with await AsyncServeClient.connect(
                port=server.port, retries=0
            ) as client:
                with pytest.raises(ServerUnavailable):
                    await client.predict_proba(x)

        serve(engine, scenario)

    def test_delayed_response_still_bitwise(self, rng, served_reference):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            faults.arm("server.delay_response", times=1, seconds=0.05)
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                return await client.predict_proba(x)

        out = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)

    def test_mid_payload_disconnect_closes_only_that_connection(

        self, rng, served_reference

    ):
        # Regression: a client killed mid-payload must not take the
        # server (or any other connection) down with it.
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Declare a large frame, send half the header, vanish.
            writer.write(struct.pack(">II", 64, 1024) + b'{"op": "pre')
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            await asyncio.sleep(0.05)
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                out = await client.predict_proba(x)
                info = await client.info()
            return out, info

        out, info = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)
        assert info["stats"]["disconnects"] >= 1

    def test_drain_flushes_inflight_bitwise_then_refuses(

        self, rng, served_reference, gate

    ):
        engine = Engine(model=small_model(), max_batch=64)
        x = rng.normal(size=(6, 96))

        async def scenario(server):
            # The inference thread is held: the request stays in
            # flight until the test releases it, and drain must wait
            # for its answer while refusing new work.
            a = await AsyncServeClient.connect(port=server.port)
            b = await AsyncServeClient.connect(port=server.port, retries=0)
            try:
                await a.predict_proba(x)  # freezes the route's session
                (batcher,) = server._batchers.values()
                held = gate(server._infer_thread)
                pending = asyncio.ensure_future(a.predict_proba(x))
                await held.until(
                    lambda: batcher.queue_depth()["inflight_rows"] == 6
                )
                drain_resp = await b.drain()
                assert drain_resp["draining"] is True
                with pytest.raises(ServerUnavailable):
                    await b.predict_proba(x)
                info = await b.info()
                assert info["health"]["draining"] is True
                assert not pending.done()
                assert not server._drain_task.done()
                held.release()
                out = await asyncio.wait_for(pending, timeout=5.0)
                # Once in-flight work empties, drain closes the
                # listener and serve_forever returns.
                if server._drain_task is not None:
                    await asyncio.wait_for(server._drain_task, timeout=5.0)
                assert server._server is None or not server._server.is_serving()
            finally:
                await a.close()
                await b.close()
            return out

        out = serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(out, ref)

    def test_info_reports_health_block(self, rng):
        engine = Engine(model=small_model())
        x = rng.normal(size=(2, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                await client.predict_proba(x)
                return await client.info()

        info = serve(engine, scenario)
        health = info["health"]
        assert health["draining"] is False
        assert health["inflight_requests"] >= 0
        assert "max_queue_rows" in health
        route = next(iter(health["queues"].values()))
        assert route["inflight_rows"] == 0


# ----------------------------------------------------------------------
# Client resilience details
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_sync_client_connect_refused_is_typed(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServerUnavailable):
            ServeClient(port=free_port, connect_timeout=0.5)

    def test_async_client_connect_refused_is_typed(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]

        async def main():
            with pytest.raises(ServerUnavailable):
                await AsyncServeClient.connect(
                    port=free_port, connect_timeout=0.5
                )

        asyncio.run(main())

    def test_sync_client_retries_and_recovers(self, rng, served_reference):
        engine = Engine(model=small_model())
        x = rng.normal(size=(4, 96))
        result = {}

        async def scenario(server):
            faults.arm("server.drop_connection", times=1)
            loop = asyncio.get_running_loop()

            def blocking():
                with ServeClient(
                    port=server.port, retries=2, backoff_ms=1.0
                ) as client:
                    return client.predict_proba(x)

            result["out"] = await loop.run_in_executor(None, blocking)

        serve(engine, scenario)
        ref = served_reference(
            engine, InferenceSession.freeze(small_model()), x
        )
        assert np.array_equal(result["out"], ref)

    def test_deadline_expired_is_never_retried(self, rng):
        engine = Engine(model=small_model())
        x = rng.normal(size=(2, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port, retries=5, backoff_ms=1.0
            ) as client:
                with pytest.raises(DeadlineExpired):
                    await client.predict_proba(x, deadline_ms=0)
                info = await client.info()
            # Exactly one request reached the server: no retry happened.
            assert info["stats"]["expired"] == 1

        serve(engine, scenario)

    def test_retry_policy_honors_server_hint(self):
        from repro.serving.client import _RetryPolicy

        policy = _RetryPolicy(retries=3, backoff_ms=1.0, backoff_max_ms=8.0)
        # The hint is a floor, even above the backoff ceiling.
        assert policy.delay_s(0, 500.0) >= 0.5
        # Without a hint the delay respects the (tiny) ceiling.
        assert policy.delay_s(0, None) <= 0.001 + 1e-9

    def test_recv_exactly_mid_frame_is_server_unavailable(self):
        server_sock = socket.socket()
        server_sock.bind(("127.0.0.1", 0))
        server_sock.listen(1)
        port = server_sock.getsockname()[1]
        client = socket.create_connection(("127.0.0.1", port), timeout=2.0)
        conn, _ = server_sock.accept()
        conn.sendall(b"\x00\x00")  # half a length prefix, then EOF
        conn.close()
        server_sock.close()
        from repro.serving.protocol import read_frame_sync

        try:
            with pytest.raises(ServerUnavailable):
                read_frame_sync(client)
        finally:
            client.close()


# ----------------------------------------------------------------------
# Removed admission surface
# ----------------------------------------------------------------------
class TestRemovedAdmissionSurface:
    """Priority classes, per-class caps and the token bucket are gone;
    every old spelling is refused, not ignored."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("priority_classes", ("batch", "interactive")),
            ("default_priority", "batch"),
            ("queue_class_caps", {"batch": 4}),
            ("rate_limit_rps", 10.0),
            ("rate_burst", 2),
        ],
    )
    def test_config_fields_removed(self, field, value):
        with pytest.raises(TypeError, match=field):
            EngineConfig(model=small_model(), **{field: value})

    def test_config_has_no_priority_resolver(self):
        assert not hasattr(EngineConfig, "resolve_priority")

    @pytest.mark.parametrize("name", ["QueueLimits", "TokenBucket"])
    def test_policy_classes_removed(self, name):
        with pytest.raises(AttributeError):
            getattr(repro.serving, name)
        assert name not in repro.serving.__all__

    def test_resilience_module_removed(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serving.resilience")

    def test_batcher_submit_takes_no_priority(self, rng):
        async def main():
            batcher = MicroBatcher(lambda b: b)
            with pytest.raises(TypeError, match="priority"):
                await batcher.submit(rng.normal(size=(1, 4)), priority=1)
            await batcher.aclose()

        asyncio.run(main())

    def test_clients_take_no_priority(self, rng):
        engine = Engine(model=small_model())
        x = rng.normal(size=(2, 96))

        async def scenario(server):
            client = ServeClient(port=server.port, retries=0)
            try:
                for call in (client.predict, client.predict_proba):
                    with pytest.raises(TypeError, match="priority"):
                        call(x, priority=1)
                with pytest.raises(TypeError, match="priority"):
                    client.stream(priority=1)
            finally:
                client.close()
            async with await AsyncServeClient.connect(
                port=server.port, retries=0
            ) as aclient:
                for call in (aclient.predict, aclient.predict_proba):
                    with pytest.raises(TypeError, match="priority"):
                        await call(x, priority=1)
                with pytest.raises(TypeError, match="priority"):
                    await aclient.stream(priority=1)

        serve(engine, scenario)
        engine.close()

    def test_priority_header_is_a_typed_error_frame(self):
        from repro.zoo import build_fftnet

        engine = Engine(
            model=build_fftnet(
                channels=8, depth=3, classes=6, rng=np.random.default_rng(7)
            )
        )
        chunk = pack_array(np.zeros((4, 1)))
        clip = pack_array(np.zeros((1, 16, 1)))

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )

            async def ask(header, payload=b""):
                await send_frame(writer, header, payload)
                return (await read_frame(reader))[0]

            try:
                refused = [
                    await ask({"op": "predict", "priority": 1}, clip),
                    await ask({"op": "stream_open", "priority": "batch"}),
                ]
                opened = await ask({"op": "stream_open"})
                handle = opened["stream"]
                refused.append(await ask(
                    {"op": "stream_push", "stream": handle, "priority": 2},
                    chunk,
                ))
                # The connection and the stream are still usable, and
                # the refused push did not advance the stream.
                pushed = await ask(
                    {"op": "stream_push", "stream": handle}, chunk
                )
                served = await ask({"op": "predict"}, clip)
            finally:
                writer.close()
                await writer.wait_closed()
            return refused, pushed, served

        refused, pushed, served = serve(engine, scenario)
        for reply in refused:
            assert reply["status"] == "error"
            assert "code" not in reply  # ConfigurationError, not a shed
            assert "priority" in reply["message"]
            assert "internal error" not in reply["message"]
        assert pushed["status"] == "ok" and pushed["samples"] == 4
        assert served["status"] == "ok" and "priority" not in served
        engine.close()
