"""Both client flavors over one core: the same rule, the same outcome.

Cases that depend on *how* bytes move (``TCP_NODELAY``, the vectored
send) are blocking-only; every protocol rule is checked through the
``flavor`` fixture against :class:`~repro.serving.ServeClient` and
:class:`~repro.serving.AsyncServeClient` alike.
"""

import asyncio
import socket
import time

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.exceptions import ServingError, StreamBroken
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.serving import AsyncServeClient, InferenceServer, ServeClient
from repro.zoo import build_fftnet


def small_engine():
    rng = np.random.default_rng(0)
    model = Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()
    return Engine(model=model)


def stream_engine():
    net = build_fftnet(
        channels=8, depth=3, classes=6, rng=np.random.default_rng(7)
    )
    return Engine(
        config=EngineConfig(models={"fftnet": net}, default_model="fftnet")
    )


def serve(engine, scenario):
    async def main():
        with engine:
            async with InferenceServer(engine, port=0) as server:
                return await scenario(server)

    return asyncio.run(main())


@pytest.fixture(params=["sync", "async"])
def flavor(request):
    """``drive(port, script, **client_kw)``: run ``script(call, client)``
    with a connected client of the parametrised flavor, where
    ``call(method, *args)`` invokes a client or stream method and
    returns its result whichever flavor it is."""

    async def drive(port, script, **client_kw):
        if request.param == "async":
            client = await AsyncServeClient.connect(port=port, **client_kw)

            async def call(method, *args):
                return await method(*args)

            try:
                return await script(call, client)
            finally:
                await client.close()

        def blocking():
            with ServeClient(port=port, **client_kw) as client:

                async def call(method, *args):
                    return method(*args)

                # A private loop on this worker thread: the script only
                # awaits `call`, which blocks here instead of suspending.
                return asyncio.run(script(call, client))

        return await asyncio.get_running_loop().run_in_executor(
            None, blocking
        )

    return drive


class TestSyncTransport:
    def test_socket_has_tcp_nodelay(self):
        async def scenario(server):
            def go():
                with ServeClient(port=server.port) as client:
                    return client._sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )

            return await asyncio.get_running_loop().run_in_executor(None, go)

        assert serve(small_engine(), scenario) != 0

    def test_twenty_pings_do_not_wait_on_delayed_acks(self):
        # A frame split over several segments without TCP_NODELAY stalls
        # ~44 ms per call on Linux loopback (20 pings: ~880 ms).
        async def scenario(server):
            def go():
                with ServeClient(port=server.port) as client:
                    client.ping()  # warm
                    start = time.perf_counter()
                    for _ in range(20):
                        assert client.ping()
                    return time.perf_counter() - start

            return await asyncio.get_running_loop().run_in_executor(None, go)

        assert serve(small_engine(), scenario) < 0.2


class TestDesynchronisedConnection:
    """A reply that fails its framing checks leaves the byte stream at
    an unknown offset: the connection must never carry another frame."""

    def test_framing_failure_closes_then_next_call_reconnects(
        self, flavor, rng
    ):
        rows = rng.normal(size=(64, 96))  # a 5 KiB reply against 1 KiB

        async def scenario(server):
            async def script(call, client):
                with pytest.raises(ServingError, match="too large") as raised:
                    await call(client.predict_proba, rows)
                epoch = client._conn_epoch
                pinged = await call(client.ping)
                small = await call(client.predict, rows[:2])
                return type(raised.value), epoch, client._conn_epoch, (
                    pinged, small.shape
                )

            return await flavor(server.port, script, max_payload=1024)

        kind, before, after, results = serve(small_engine(), scenario)
        assert kind is ServingError  # deliberate: not a retryable subclass
        assert after == before + 1  # exactly one reconnect, on demand
        assert results == (True, (2,))

    def test_open_stream_breaks_instead_of_pushing_to_a_fresh_connection(
        self, flavor, rng
    ):
        chunk = rng.standard_normal((3, 1))

        async def scenario(server):
            async def script(call, client):
                stream = await call(client.stream)
                await call(stream.push, chunk)
                with pytest.raises(ServingError, match="too large"):
                    # 40 samples x 6 classes of float64 > 1 KiB.
                    await call(stream.push, rng.standard_normal((40, 1)))
                with pytest.raises(StreamBroken) as raised:
                    await call(stream.push, chunk)
                await call(stream.close)  # silent: nothing left to free
                return raised.value.pushed, stream.broken, await call(
                    client.ping
                )

            return await flavor(server.port, script, max_payload=1024)

        pushed, broken, pinged = serve(stream_engine(), scenario)
        assert pushed == 3  # the oversized push's fate is unknown
        assert broken and pinged


class TestStreamRepr:
    def test_stream_repr_names_its_flavor(self, flavor):
        async def scenario(server):
            async def script(call, client):
                stream = await call(client.stream)
                opened = repr(stream)
                await call(stream.close)
                return opened, repr(stream)

            return await flavor(server.port, script)

        opened, closed = serve(stream_engine(), scenario)
        name = opened.split("(")[0]
        assert name in ("Stream", "AsyncStream")
        assert opened == f"{name}(s1, open, samples=0)"
        assert closed == f"{name}(s1, closed, samples=0)"
