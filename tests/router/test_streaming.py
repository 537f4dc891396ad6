"""Router streaming: pinning, id rewriting, no-replay breakage, health.

Streams are stateful, so the router's contract differs from predict:
a stream is pinned to the backend that opened it, pushes are relayed
on a dedicated connection, and a dead backend *breaks* the stream
(``server_unavailable`` → :class:`StreamBroken` at the client) — the
router never replays a push whose application is ambiguous.
"""

import asyncio
import random
import socket

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.exceptions import ServerUnavailable, ServingError, StreamBroken
from repro.router import PlacementPolicy, RouterConfig, RouterServer
from repro.serving import InferenceServer, ServeClient
from repro.serving.protocol import read_frame_sync, send_frame_sync
from repro.testing import faults
from repro.zoo import build_fftnet


MODEL = build_fftnet(
    channels=8, depth=3, classes=6, rng=np.random.default_rng(7)
)


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def backend_server(max_streams=8):
    config = EngineConfig(
        models={"fftnet": MODEL},
        default_model="fftnet",
        max_streams=max_streams,
    )
    return InferenceServer(Engine(config=config), port=0)


async def start_router(addresses, **config_kw):
    # Slow probes: the death tests arm one-shot faults that a probe
    # must not consume before the client's push does.
    config_kw.setdefault("probe_interval_s", 5.0)
    config = RouterConfig(backends=tuple(addresses), **config_kw)
    router = RouterServer(config, policy=PlacementPolicy(random.Random(0)))
    await router.start()
    return router


def in_thread(fn, *args):
    return asyncio.get_running_loop().run_in_executor(None, fn, *args)


class TestRouterStreaming:
    def test_two_streams_one_connection_pinned_and_rewritten(self, rng):
        full = rng.standard_normal((40, 1))
        ref = None

        async def main():
            async with backend_server() as s1, backend_server() as s2:
                nonlocal ref
                ref = s1.engine.session().predict_proba(full[None])[0]
                addresses = [
                    f"127.0.0.1:{s1.port}", f"127.0.0.1:{s2.port}"
                ]
                router = await start_router(addresses)
                try:
                    def go():
                        client = ServeClient(port=router.port, retries=0)
                        sa = client.stream()
                        sb = client.stream()
                        # Router-issued handles, unique per connection.
                        assert sa.stream_id != sb.stream_id
                        assert sa.stream_id.startswith("r")
                        oa, ob, i = [], [], 0
                        for k in (5, 11, 24):
                            oa.append(sa.push(full[i : i + k]))
                            ob.append(sb.push(full[i : i + k]))
                            i += k
                        assert np.array_equal(np.concatenate(oa), ref)
                        assert np.array_equal(np.concatenate(ob), ref)
                        sb.close()
                        sa.close()
                        streams = client.info()["health"]["streams"]
                        client.close()
                        return streams

                    return await in_thread(go)
                finally:
                    await router.stop()

        streams = asyncio.run(main())
        assert streams["pinned"] == 0
        assert streams["opened"] == 2
        assert streams["pushes"] == 6
        assert streams["broken"] == 0

    def test_backend_death_breaks_stream_without_replay(self, rng):
        full = rng.standard_normal((26, 1))

        async def main():
            async with backend_server() as s1, backend_server() as s2:
                ref = s1.engine.session().predict_proba(full[None])[0]
                router = await start_router(
                    [f"127.0.0.1:{s1.port}", f"127.0.0.1:{s2.port}"]
                )
                try:
                    def go():
                        client = ServeClient(
                            port=router.port, retries=2, backoff_ms=1.0
                        )
                        s = client.stream()
                        first = s.push(full[:5])
                        # The pinned backend applies the next push, then
                        # drops the relay connection: application is
                        # ambiguous, so the router must break — never
                        # replay — the stream.
                        faults.arm("server.drop_connection", times=1)
                        with pytest.raises(StreamBroken) as excinfo:
                            s.push(full[5:10])
                        assert excinfo.value.pushed == 5
                        assert s.broken
                        s.close()  # silent on a broken stream
                        # Stateless predicts still fail over.
                        out = client.predict_proba(full[None])
                        assert np.array_equal(out[0], ref)
                        # A fresh stream pins to the survivor and is
                        # bitwise-correct from row zero.
                        with client.stream() as s2_:
                            inc = np.concatenate(
                                [s2_.push(full[:13]), s2_.push(full[13:])]
                            )
                        assert np.array_equal(inc, ref)
                        streams = client.info()["health"]["streams"]
                        client.close()
                        return first, streams

                    first, streams = await in_thread(go)
                    assert np.array_equal(first, ref[:5])
                    return streams
                finally:
                    await router.stop()

        streams = asyncio.run(main())
        assert streams["broken"] == 1
        assert streams["pinned"] == 0

    def test_abrupt_client_disconnect_drops_pins(self, rng):
        async def main():
            async with backend_server() as s1:
                router = await start_router([f"127.0.0.1:{s1.port}"])
                try:
                    def open_and_vanish():
                        raw = socket.create_connection(
                            ("127.0.0.1", router.port), timeout=5
                        )
                        send_frame_sync(raw, {"op": "stream_open"})
                        opened, _ = read_frame_sync(raw)
                        assert opened["status"] == "ok"
                        raw.close()

                    await in_thread(open_and_vanish)
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while asyncio.get_running_loop().time() < deadline:
                        if router._pins_open == 0:
                            break
                        await asyncio.sleep(0.01)
                    pins = router._pins_open
                    # The backend-side stream must be freed too (the
                    # router closes its relay connection on cleanup).
                    backend_deadline = (
                        asyncio.get_running_loop().time() + 5.0
                    )
                    while (
                        asyncio.get_running_loop().time()
                        < backend_deadline
                    ):
                        if s1._streams_open == 0:
                            break
                        await asyncio.sleep(0.01)
                    return pins, s1._streams_open
                finally:
                    await router.stop()

        pins, backend_open = asyncio.run(main())
        assert pins == 0
        assert backend_open == 0

    def test_unknown_stream_push_is_clean_error(self, rng):
        async def main():
            async with backend_server() as s1:
                router = await start_router([f"127.0.0.1:{s1.port}"])
                try:
                    def go():
                        client = ServeClient(port=router.port, retries=0)
                        s = client.stream()
                        real_id, s.stream_id = s.stream_id, "r999"
                        with pytest.raises(ServingError, match="unknown"):
                            s.push(rng.standard_normal((2, 1)))
                        # A typed error does not break the stream.
                        s.stream_id = real_id
                        s.push(rng.standard_normal((2, 1)))
                        s.close()
                        client.close()

                    await in_thread(go)
                finally:
                    await router.stop()

        asyncio.run(main())

    def test_drain_refuses_opens_and_breaks_pushes(self, rng):
        async def main():
            async with backend_server() as s1:
                router = await start_router([f"127.0.0.1:{s1.port}"])
                try:
                    def open_stream():
                        client = ServeClient(port=router.port, retries=0)
                        s = client.stream()
                        s.push(rng.standard_normal((3, 1)))
                        return client, s

                    client, s = await in_thread(open_stream)
                    router.begin_drain()

                    def after_drain():
                        with pytest.raises(StreamBroken):
                            s.push(rng.standard_normal((3, 1)))
                        with pytest.raises(ServerUnavailable):
                            client.stream()
                        client.close()

                    await in_thread(after_drain)
                finally:
                    await router.stop()

        asyncio.run(main())

    def test_probe_surfaces_backend_stream_stats(self, rng):
        async def main():
            async with backend_server() as s1:
                router = await start_router(
                    [f"127.0.0.1:{s1.port}"], probe_interval_s=0.05
                )
                try:
                    def hold_stream():
                        client = ServeClient(port=router.port, retries=0)
                        s = client.stream()
                        s.push(rng.standard_normal((4, 1)))
                        return client, s

                    client, s = await in_thread(hold_stream)
                    handle = router.backends[0]
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while asyncio.get_running_loop().time() < deadline:
                        if handle.streams.get("open") == 1:
                            break
                        await asyncio.sleep(0.02)
                    described = handle.describe()
                    streams = dict(handle.streams)

                    def fleet_info():
                        info = client.info()
                        s.close()
                        client.close()
                        return info

                    info = await in_thread(fleet_info)
                    return described, streams, info
                finally:
                    await router.stop()

        described, streams, info = asyncio.run(main())
        assert streams["open"] == 1
        assert streams["state_bytes"] > 0
        assert described["streams"]["open"] == 1
        # Fleet-aggregated health sums backend stream gauges.
        health = info["health"]["streams"]
        assert health["open"] == 1
        assert health["state_bytes"] == streams["state_bytes"]
        assert health["pinned"] == 1
