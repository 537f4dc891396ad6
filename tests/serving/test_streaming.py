"""Streaming over the wire: fusion, lifecycle, retry semantics, leaks."""

import asyncio
import socket
import sys
import time

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.exceptions import (
    Overloaded,
    ServerUnavailable,
    ServingError,
    StreamBroken,
)
import repro.runtime.plan as plan_module
from repro.runtime import compile_stream_plan
from repro.serving import (
    AsyncServeClient,
    DeadlineExpired,
    InferenceServer,
    MicroBatcher,
    ServeClient,
)
from repro.serving.client import IDEMPOTENT_OPS
from repro.serving.protocol import (
    pack_array,
    read_frame_sync,
    send_frame_sync,
    unpack_array,
)
from repro.testing import faults
from repro.zoo import build_fftnet


def fftnet(seed=7):
    return build_fftnet(
        channels=8, depth=3, classes=6, rng=np.random.default_rng(seed)
    )


def stream_engine(**config):
    return Engine(
        config=EngineConfig(
            models={"fftnet": fftnet()}, default_model="fftnet", **config
        )
    )


def serve(engine, scenario):
    async def main():
        server = InferenceServer(engine, port=0)
        async with server:
            return await scenario(server)

    return asyncio.run(main())


def count_compiles(monkeypatch) -> list:
    """Record every ``compile_records_plan`` call, under every name a
    ``repro`` module imported it as."""
    calls = []
    original = plan_module.compile_records_plan

    def counted(records, *args, **kwargs):
        calls.append(len(records))
        return original(records, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "compile_records_plan", None
        ) is original:
            monkeypatch.setattr(module, "compile_records_plan", counted)
    return calls


def in_thread(fn, *args):
    """Run blocking client code off the server's event loop."""
    return asyncio.get_running_loop().run_in_executor(None, fn, *args)


class TestBatcherStreamFusion:
    def test_concurrent_pushes_fuse_into_one_stream_batch(self, rng):
        plan = compile_stream_plan(fftnet())
        calls = []

        def runner(states, chunks):
            calls.append(len(states))
            return plan.push_many(states, chunks, proba=True)

        async def scenario():
            batcher = MicroBatcher(
                lambda b: b, max_batch=64,
                stream_runner=runner,
            )
            states = [plan.open() for _ in range(3)]
            chunks = [rng.standard_normal((4, 1)) for _ in range(3)]
            outs = await asyncio.gather(*(
                batcher.submit_stream(s, c)
                for s, c in zip(states, chunks)
            ))
            # All three fused into one stream step...
            assert calls == [3]
            assert batcher.stats["stream_batches"] == 1
            assert batcher.stats["fused_streams_max"] == 3
            assert batcher.stats["stream_rows"] == 12
            # ...and each stream's rows match a solo run bitwise.
            for chunk, out in zip(chunks, outs):
                solo = plan.open()
                assert np.array_equal(out, plan.push(solo, chunk, proba=True))

        asyncio.run(scenario())

    def test_streams_never_fuse_with_plain_predicts(self, rng):
        plan = compile_stream_plan(fftnet())
        plain_batches = []

        def run_batch(batch):
            plain_batches.append(batch.shape)
            return batch * 2.0

        async def scenario():
            batcher = MicroBatcher(
                run_batch, max_batch=64,
                stream_runner=lambda s, c: plan.push_many(s, c, proba=True),
            )
            state = plan.open()
            out_stream, out_plain = await asyncio.gather(
                batcher.submit_stream(state, rng.standard_normal((3, 1))),
                batcher.submit(rng.standard_normal((3, 1))),
            )
            assert out_stream.shape == (3, 6)
            assert plain_batches == [(3, 1)]

        asyncio.run(scenario())

    def test_submit_stream_without_runner_rejected(self, rng):
        async def scenario():
            batcher = MicroBatcher(lambda b: b, max_batch=4)
            with pytest.raises(ServingError, match="stream"):
                await batcher.submit_stream(
                    object(), rng.standard_normal((2, 1))
                )

        asyncio.run(scenario())

    def test_expired_push_never_touches_state(self, rng):
        plan = compile_stream_plan(fftnet())

        async def scenario():
            batcher = MicroBatcher(
                lambda b: b, max_batch=1000,
                stream_runner=lambda s, c: plan.push_many(s, c, proba=True),
            )
            state = plan.open()
            with pytest.raises(DeadlineExpired):
                await batcher.submit_stream(
                    state, rng.standard_normal((2, 1)), deadline_ms=0.0
                )
            assert state.samples == 0 and state.pushes == 0
            # The stream is still usable and still at position zero.
            out = await batcher.submit_stream(
                state, rng.standard_normal((2, 1))
            )
            assert state.samples == 2

        asyncio.run(scenario())

    def test_shed_push_never_touches_state(self, rng, gate):
        plan = compile_stream_plan(fftnet())
        held = gate()

        async def scenario():
            batcher = MicroBatcher(
                lambda b: b, max_batch=16,
                executor=held.executor,
                stream_runner=lambda s, c: plan.push_many(s, c, proba=True),
                max_queue_rows=4,
            )
            # An earlier push holds the whole bound in flight.
            first = asyncio.ensure_future(batcher.submit_stream(
                plan.open(), rng.standard_normal((4, 1))
            ))
            await held.until(
                lambda: batcher.queue_depth()["inflight_rows"] == 4
            )
            state = plan.open()
            with pytest.raises(Overloaded):
                await batcher.submit_stream(
                    state, rng.standard_normal((1, 1))
                )
            assert state.samples == 0
            # A push larger than the bound can never be admitted: a
            # plain error, not a retryable shed, and the state is
            # untouched too.
            with pytest.raises(ServingError, match="5 rows") as excinfo:
                await batcher.submit_stream(
                    state, rng.standard_normal((5, 1))
                )
            assert not isinstance(excinfo.value, Overloaded)
            assert state.samples == 0 and state.pushes == 0
            assert batcher.stats["shed"] == 1
            held.release()
            await first

        asyncio.run(scenario())


class TestServerStreaming:
    def test_parity_and_lifecycle_over_the_wire(self, rng):
        engine = stream_engine()
        full = rng.standard_normal((48, 1))
        ref = engine.session().predict_proba(full[None])[0]

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                with client.stream() as s:
                    assert s.receptive_field == 8
                    assert s.classes == 6
                    outs, i = [], 0
                    for k in (1, 5, 2, 17, 3, 20):
                        outs.append(s.push(full[i : i + k]))
                        i += k
                    assert s.samples == 48
                    inc = np.concatenate(outs)
                assert np.array_equal(inc, ref)
                info = client.info()
                streams = info["health"]["streams"]
                assert streams["open"] == 0
                assert streams["state_bytes"] == 0
                assert streams["opened"] == 1 and streams["closed"] == 1
                assert streams["pushes"] == 6
                assert streams["pushed_rows"] == 48
                client.close()

            await in_thread(go)

        serve(engine, scenario)

    def test_concurrent_streams_fuse_and_stay_bitwise(self, rng):
        engine = stream_engine()
        fulls = [rng.standard_normal((24, 1)) for _ in range(4)]
        session = engine.session()
        refs = [session.predict_proba(f[None])[0] for f in fulls]

        async def scenario(server):
            clients = [
                await AsyncServeClient.connect(port=server.port, retries=0)
                for _ in fulls
            ]
            streams = [await c.stream() for c in clients]

            async def drive(stream, full):
                outs = []
                for start in range(0, 24, 6):
                    outs.append(await stream.push(full[start : start + 6]))
                return np.concatenate(outs)

            incs = await asyncio.gather(*(
                drive(s, f) for s, f in zip(streams, fulls)
            ))
            for inc, ref in zip(incs, refs):
                assert np.array_equal(inc, ref)
            for stream, client in zip(streams, clients):
                await stream.close()
                await client.close()
            # Concurrent pushes from 4 connections shared fused steps.
            fused_max = max(
                b.stats["fused_streams_max"]
                for b in server._batchers.values()
            )
            assert fused_max >= 2

        serve(engine, scenario)

    def test_one_compile_serves_pushes_and_predicts(self, rng, monkeypatch):
        engine = stream_engine()
        compiles = count_compiles(monkeypatch)
        full = rng.standard_normal((12, 1))

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                with client.stream() as s:
                    pushed = np.concatenate([s.push(full[:5]), s.push(full[5:])])
                # After pushes alone the route is pooled and described.
                info = client.info()
                predicted = client.predict_proba(full[None])
                client.close()
                return pushed, predicted, info

            return await in_thread(go)

        pushed, predicted, info = serve(engine, scenario)
        assert len(compiles) == 1
        assert engine.describe()["pooled"] == [
            {"model": "fftnet", "precision": "fp64"}
        ]
        assert list(info["routes"]) == ["fftnet/fp64"]
        assert info["engine"]["pooled"] == engine.describe()["pooled"]
        assert np.array_equal(pushed, predicted[0])

    def test_abrupt_disconnect_frees_all_state(self, rng):
        engine = stream_engine()

        async def scenario(server):
            def open_and_vanish():
                raw = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5
                )
                send_frame_sync(raw, {"op": "stream_open"})
                opened, _ = read_frame_sync(raw)
                assert opened["status"] == "ok"
                send_frame_sync(
                    raw,
                    {"op": "stream_push", "stream": opened["stream"]},
                    pack_array(rng.standard_normal((4, 1))),
                )
                read_frame_sync(raw)
                raw.close()  # vanish without stream_close

            await in_thread(open_and_vanish)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server._streams_open == 0:
                    break
                await asyncio.sleep(0.01)
            assert server._streams_open == 0
            assert server._stream_state_bytes == 0

        serve(engine, scenario)

    def test_max_streams_sheds_with_overloaded(self):
        engine = stream_engine(max_streams=2)

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                streams = [client.stream(), client.stream()]
                with pytest.raises(Overloaded):
                    client.stream()
                for s in streams:
                    s.close()
                # Capacity returns after close.
                client.stream().close()
                client.close()

            await in_thread(go)

        serve(engine, scenario)

    def test_state_byte_budget_sheds(self):
        plan = compile_stream_plan(fftnet())
        engine = stream_engine(
            max_stream_state_bytes=plan.state_bytes + 1
        )

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                first = client.stream()
                with pytest.raises(Overloaded):
                    client.stream()
                first.close()
                client.close()

            await in_thread(go)

        serve(engine, scenario)

    def test_stream_over_the_whole_budget_is_refused_not_shed(self):
        plan = compile_stream_plan(fftnet())
        engine = stream_engine(max_stream_state_bytes=plan.state_bytes - 1)

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=2)
                with pytest.raises(ServingError, match="budget") as excinfo:
                    client.stream()
                stats = client.info()["stats"]
                client.close()
                return excinfo.value, stats

            return await in_thread(go)

        error, stats = serve(engine, scenario)
        # Named with its size and the bound, and never retried.
        assert not isinstance(error, Overloaded)
        assert str(plan.state_bytes) in str(error)
        assert str(plan.state_bytes - 1) in str(error)
        assert stats["shed"] == 0 and stats["errors"] == 1
        assert stats["stream_opens"] == 0

    def test_push_over_the_row_bound_is_refused_not_shed(self, rng):
        engine = stream_engine(max_queue_rows=4)

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=2)
                with client.stream() as s:
                    with pytest.raises(ServingError, match="5 rows") as excinfo:
                        s.push(rng.standard_normal((5, 1)))
                    assert not isinstance(excinfo.value, Overloaded)
                    # The stream is intact and still at sample zero.
                    assert not s.broken and s.samples == 0
                    s.push(rng.standard_normal((4, 1)))
                    assert s.samples == 4
                stats = client.info()["stats"]
                client.close()
                return stats

            return await in_thread(go)

        stats = serve(engine, scenario)
        assert stats["shed"] == 0 and stats["errors"] == 1

    def test_state_byte_budget_admits_exactly_two_streams(self):
        plan = compile_stream_plan(fftnet())
        engine = stream_engine(max_stream_state_bytes=2 * plan.state_bytes)

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                # Two streams fill the budget exactly: both admitted.
                streams = [client.stream(), client.stream()]
                with pytest.raises(Overloaded, match="budget exhausted"):
                    client.stream()
                info = client.info()["health"]["streams"]
                for s in streams:
                    s.close()
                client.close()
                return info

            return await in_thread(go)

        info = serve(engine, scenario)
        assert info["open"] == 2
        assert info["state_bytes"] == 2 * plan.state_bytes
        assert info["max_state_bytes"] == 2 * plan.state_bytes

    def test_non_streamable_model_is_typed_error(self):
        from repro.nn import Linear, ReLU, Sequential

        dense = Sequential(
            Linear(8, 4, rng=np.random.default_rng(0)), ReLU()
        ).eval()
        engine = Engine(model=dense)

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                with pytest.raises(ServingError, match="streamable"):
                    client.stream()
                # The connection survives the typed error.
                assert client.ping()
                client.close()

            await in_thread(go)

        serve(engine, scenario)

    def test_unknown_stream_and_missing_payload(self, rng):
        engine = stream_engine()

        async def scenario(server):
            def go():
                raw = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5
                )
                send_frame_sync(
                    raw,
                    {"op": "stream_push", "stream": "s999"},
                    pack_array(rng.standard_normal((2, 1))),
                )
                resp, _ = read_frame_sync(raw)
                assert resp["status"] == "error"
                assert "unknown stream" in resp["message"]
                send_frame_sync(raw, {"op": "stream_open"})
                opened, _ = read_frame_sync(raw)
                send_frame_sync(
                    raw, {"op": "stream_push", "stream": opened["stream"]}
                )
                resp, _ = read_frame_sync(raw)
                assert resp["status"] == "error"
                assert "payload" in resp["message"]
                raw.close()

            await in_thread(go)

        serve(engine, scenario)

    @pytest.mark.parametrize(
        "chunk",
        [
            np.full((2, 1), 1.5 + 2.0j),
            np.full((2, 1), "1.5"),
            np.zeros((2, 1), dtype="datetime64[D]"),
        ],
        ids=["complex128", "str", "datetime64"],
    )
    def test_non_real_push_is_refused_and_stream_survives(self, chunk, rng):
        engine = stream_engine()
        model = fftnet()
        full = rng.standard_normal((5, 1))

        async def scenario(server):
            def go():
                raw = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5
                )
                send_frame_sync(raw, {"op": "stream_open"})
                opened, _ = read_frame_sync(raw)
                push = {"op": "stream_push", "stream": opened["stream"]}
                send_frame_sync(raw, push, pack_array(chunk))
                refused, _ = read_frame_sync(raw)
                send_frame_sync(raw, push, pack_array(full))
                ok, payload = read_frame_sync(raw)
                raw.close()
                return refused, ok, payload

            return await in_thread(go)

        refused, ok, payload = serve(engine, scenario)
        assert refused["status"] == "error"
        assert "real-valued" in refused["message"]
        # The refused push never touched the stream: the next push
        # starts at sample zero and matches the offline batch session.
        assert ok["status"] == "ok" and ok["samples"] == 5
        want = Engine(model=model).session().predict_proba(full[None])[0]
        assert np.array_equal(unpack_array(payload), want)

    def test_draining_refuses_streams(self):
        engine = stream_engine()

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                s = client.stream()
                server.begin_drain()
                with pytest.raises(StreamBroken):
                    s.push(np.zeros((2, 1)))
                with pytest.raises(ServerUnavailable):
                    client.stream()
                client.close()

            await in_thread(go)

        serve(engine, scenario)


class TestClientRetrySemantics:
    def test_stream_push_not_in_idempotent_whitelist(self):
        assert "stream_push" not in IDEMPOTENT_OPS
        assert "stream_close" not in IDEMPOTENT_OPS
        assert "stream_open" in IDEMPOTENT_OPS
        assert "predict" in IDEMPOTENT_OPS

    def test_dropped_connection_breaks_stream_without_replay(self, rng):
        engine = stream_engine()
        full = rng.standard_normal((10, 1))

        async def scenario(server):
            def go():
                client = ServeClient(
                    port=server.port, retries=3, backoff_ms=1.0
                )
                s = client.stream()
                s.push(full[:5])
                faults.arm("server.drop_connection", times=1)
                try:
                    with pytest.raises(StreamBroken) as excinfo:
                        s.push(full[5:])
                finally:
                    faults.disarm("server.drop_connection")
                assert excinfo.value.pushed == 5
                assert s.broken
                # Later pushes keep raising; close stays silent.
                with pytest.raises(StreamBroken):
                    s.push(full[5:])
                s.close()
                # The client object itself recovers for idempotent ops.
                assert client.ping()
                client.close()

            await in_thread(go)

        serve(engine, scenario)

    def test_push_applied_exactly_once_around_shed(self, rng):
        # A shed push (admission fault) retries on the same connection
        # and the stream position advances exactly once.
        engine = stream_engine()
        full = rng.standard_normal((8, 1))
        ref = engine.session().predict_proba(full[None])[0]

        async def scenario(server):
            def go():
                client = ServeClient(
                    port=server.port, retries=3, backoff_ms=1.0
                )
                s = client.stream()
                first = s.push(full[:4])
                faults.arm("admission.shed", times=1)
                try:
                    second = s.push(full[4:])
                finally:
                    faults.disarm("admission.shed")
                assert s.samples == 8
                inc = np.concatenate([first, second])
                assert np.array_equal(inc, ref)
                s.close()
                client.close()

            await in_thread(go)

        serve(engine, scenario)

    def test_client_reconnect_invalidates_stream(self, rng):
        engine = stream_engine()

        async def scenario(server):
            def go():
                client = ServeClient(port=server.port, retries=0)
                s = client.stream()
                s.push(rng.standard_normal((3, 1)))
                client._connect()  # what a retried predict would do
                with pytest.raises(StreamBroken) as excinfo:
                    s.push(rng.standard_normal((3, 1)))
                assert excinfo.value.pushed == 3
                s.close()  # silent: old connection freed it already
                client.close()

            await in_thread(go)

        serve(engine, scenario)
