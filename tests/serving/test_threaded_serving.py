"""Live-server coverage for the threaded executor and the shared pool."""

import asyncio

import numpy as np
import pytest

from repro.engine import Engine
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import InferenceSession, ThreadWorkerPool
from repro.serving import AsyncServeClient, InferenceServer


def small_model():
    rng = np.random.default_rng(0)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


def serve(engine, scenario):
    """Run an async scenario against an in-process server."""

    async def main():
        server = InferenceServer(engine, port=0)
        async with server:
            return await scenario(server)

    return asyncio.run(main())


def assert_served_parity(served, reference, serial, x):
    """Bitwise at the server's chunk boundaries (``reference``, from the
    ``served_reference`` fixture); the end-to-end checker's 1e-12 against
    a one-shot serial call."""
    assert np.array_equal(served, reference)
    assert np.max(np.abs(served - serial.predict_proba(x))) <= 1e-12


class TestThreadedServing:
    def test_threaded_server_bitwise_equals_serial(
        self, rng, served_reference
    ):
        model = small_model()
        engine = Engine(model=model, executor="threaded", threads=2)
        serial = InferenceSession.freeze(model)
        x = rng.normal(size=(24, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                return await client.predict_proba(x)

        served = serve(engine, scenario)
        assert_served_parity(
            served, served_reference(engine, serial, x), serial, x
        )
        engine.close()

    def test_info_reports_executor_and_shared_pool(self, rng):
        engine = Engine(
            model=small_model(),
            precisions=("fp64", "fp32"),
            executor="threaded",
            threads=2,
            profile=True,
        )
        x = rng.normal(size=(8, 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                await client.predict_proba(x)
                await client.predict_proba(x, precision="fp32")
                return await client.info()

        info = serve(engine, scenario)
        executor = info["executor"]
        assert executor["kind"] == "threaded"
        assert executor["workers"] == 2
        assert executor["profile"] is True
        assert executor["shared_pool"]["kind"] == "thread"
        assert info["health"]["pool"]["kind"] == "thread"
        # Per-op profile stats are visible per route through `info`.
        for route in ("default/fp64", "default/fp32"):
            stats = info["routes"][route]["op_stats"]
            assert stats["bc_linear"]["total_ns"] > 0
        engine.close()

    def test_two_routes_one_thread_pool_interleaved(
        self, rng, served_reference
    ):
        model = small_model()
        engine = Engine(
            model=model,
            precisions=("fp64", "fp32"),
            executor="threaded",
            threads=2,
        )
        serial64 = InferenceSession.freeze(model, precision="fp64")
        serial32 = InferenceSession.freeze(model, precision="fp32")
        x = rng.normal(size=(16, 96))

        async def scenario(server):
            async def route(precision, repeats=4):
                async with await AsyncServeClient.connect(
                    port=server.port
                ) as client:
                    return [
                        await client.predict_proba(x, precision=precision)
                        for _ in range(repeats)
                    ]

            return await asyncio.gather(route("fp64"), route("fp32"))

        got64, got32 = serve(engine, scenario)
        # Both routes shared one ThreadWorkerPool end to end.
        assert isinstance(engine._workpool, ThreadWorkerPool)
        s64 = engine.session(precision="fp64")
        s32 = engine.session(precision="fp32")
        assert s64.executor.pool is s32.executor.pool is engine._workpool
        want64 = served_reference(engine, serial64, x)
        want32 = served_reference(engine, serial32, x)
        for out in got64:
            assert_served_parity(out, want64, serial64, x)
        for out in got32:
            assert np.array_equal(out, want32)
        engine.close()

    def test_auto_executor_serves_correctly(self, rng, served_reference):
        # Whatever auto resolves to on this host, served results must
        # meet the parity contract.  Enough rows that the server chunks
        # them whenever there is more than one worker.
        model = small_model()
        engine = Engine(model=model, executor="auto")
        serial = InferenceSession.freeze(model)
        x = rng.normal(size=(6 * engine.executor_info()["workers"], 96))

        async def scenario(server):
            async with await AsyncServeClient.connect(
                port=server.port
            ) as client:
                out = await client.predict_proba(x)
                info = await client.info()
                return out, info

        served, info = serve(engine, scenario)
        assert_served_parity(
            served, served_reference(engine, serial, x), serial, x
        )
        assert info["executor"]["requested"] == "auto"
        assert info["executor"]["kind"] in ("serial", "threaded")
        engine.close()
