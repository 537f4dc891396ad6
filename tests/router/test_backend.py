"""Backend connections after a reply that fails the framing checks.

Such a reply leaves the backend connection's byte stream at an unknown
offset.  The shared round trip closes it before the error propagates,
so neither the forward pool (``BackendHandle.request``) nor a stream
relay (``RouterServer._relay``) can leak it open or hand it to the next
request.
"""

import asyncio

import numpy as np
import pytest

from repro.exceptions import ServerUnavailable, ServingError
from repro.router import BackendHandle, RouterConfig, RouterServer
from repro.router.backend import HEALTHY
from repro.serving import AsyncServeClient
from repro.serving.protocol import pack_array, read_frame, send_frame


class OversizedReplies:
    """Frame-protocol stub: honest ``info``, 8 KiB answers to the rest."""

    def __init__(self):
        self.eofs = 0  # connections the peer closed
        self.served = 0

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self.handle, "127.0.0.1", 0
        )
        port = self.server.sockets[0].getsockname()[1]
        self.address = f"127.0.0.1:{port}"
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()

    async def handle(self, reader, writer):
        try:
            while True:
                try:
                    header, _ = await read_frame(reader)
                except asyncio.IncompleteReadError:
                    self.eofs += 1
                    return
                if header["op"] == "info":
                    reply, payload = {
                        "status": "ok",
                        "models": ["default"],
                        "precisions": ["fp64"],
                        "health": {},
                    }, b""
                else:
                    self.served += 1
                    reply, payload = {"status": "ok"}, b"x" * 8192
                await send_frame(writer, reply, payload)
        finally:
            writer.close()

    async def saw_eofs(self, count):
        for _ in range(100):
            if self.eofs >= count:
                return True
            await asyncio.sleep(0.01)
        return False


class TestFramingFailureDiscardsTheConnection:
    def test_pooled_request(self, rng):
        payload = pack_array(rng.normal(size=(2, 8)))

        async def main():
            async with OversizedReplies() as stub:
                handle = BackendHandle(stub.address, max_payload=1024)
                assert await handle.probe() == HEALTHY
                assert len(handle._idle) == 1  # the probe's, pooled
                with pytest.raises(ServingError, match="too large") as raised:
                    await handle.request({"op": "predict"}, payload)
                # Deliberate, not "the backend died": no failover signal,
                # no health flip — but the connection is gone, not
                # leaked open and not back in the pool.
                assert not isinstance(raised.value, ServerUnavailable)
                assert handle.state == HEALTHY
                assert handle._idle == []
                assert await stub.saw_eofs(1)
                # The next request gets a fresh connection.
                header, _ = await handle.request({"op": "info"})
                assert header["status"] == "ok"
                await handle.aclose_connections()

        asyncio.run(main())

    @pytest.mark.parametrize("op", ["predict", "stream_open"])
    def test_through_the_router(self, rng, op):
        x = rng.normal(size=(2, 8))

        async def main():
            async with OversizedReplies() as stub:
                config = RouterConfig(
                    backends=(stub.address,),
                    probe_interval_s=30.0,
                    max_payload=1024,
                )
                async with RouterServer(config) as router:
                    async with await AsyncServeClient.connect(
                        port=router.port, retries=0
                    ) as client:
                        with pytest.raises(ServingError):
                            if op == "predict":
                                await client.predict(x)
                            else:
                                await client.stream()
                        # The router's own connection loop is unharmed...
                        assert await client.ping()
                    # ...and the backend connection that carried the
                    # bad reply (pooled or relay) was closed, not kept.
                    assert stub.served == 1
                    assert await stub.saw_eofs(1)

        asyncio.run(main())
