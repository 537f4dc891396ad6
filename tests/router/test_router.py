"""RouterServer e2e: parity, failover semantics, health, drain, faults.

The failover tests drive the router against *stub* backends — tiny
in-process asyncio servers speaking the real frame protocol with
scripted predict behavior (die mid-request, shed with a retry hint,
expire deadlines) — so each semantic case is deterministic.  Parity
tests front real :class:`~repro.serving.InferenceServer`\\ s.
"""

import asyncio
import random

import numpy as np
import pytest

from repro.engine import Engine
from repro.exceptions import Overloaded, ServerUnavailable, ServingError
from repro.serving.batcher import DeadlineExpired
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import InferenceSession
from repro.serving import AsyncServeClient, InferenceServer
from repro.serving.protocol import pack_array, read_frame, send_frame
from repro.router import (
    DOWN,
    PlacementPolicy,
    RouterConfig,
    RouterServer,
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
def clean_faults():
    faults.reset()
    yield
    faults.reset()


class StubBackend:
    """Frame-protocol fake with scripted predict behavior.

    ``behavior``: ``"ok"`` answers a canned array, ``"die"`` closes the
    connection mid-request, ``"overloaded"`` sheds with
    ``retry_after_ms``, ``"deadline"`` answers ``deadline_expired``,
    ``"error"`` answers an untyped error.  ``info`` always answers
    healthy so the stub is routable.
    """

    def __init__(self, behavior="ok", models=("default",),
                 precisions=("fp64",), retry_after_ms=None):
        self.behavior = behavior
        self.models = list(models)
        self.precisions = list(precisions)
        self.retry_after_ms = retry_after_ms
        self.predicts = 0
        self._server = None
        self.port = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    @property
    def address(self):
        return f"127.0.0.1:{self.port}"

    async def _handle(self, reader, writer):
        try:
            while True:
                try:
                    header, _ = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if header.get("op") == "info":
                    await send_frame(writer, {
                        "status": "ok",
                        "op": "info",
                        "models": self.models,
                        "precisions": self.precisions,
                        "health": {
                            "draining": False,
                            "queued_rows": 0,
                            "batch_ms_ema": 0.0,
                            "shed": 0,
                        },
                    })
                    continue
                self.predicts += 1
                if self.behavior == "die":
                    return  # close mid-request: transport failure
                if self.behavior == "overloaded":
                    response = {
                        "status": "error",
                        "code": "overloaded",
                        "message": "stub shed",
                    }
                    if self.retry_after_ms is not None:
                        response["retry_after_ms"] = self.retry_after_ms
                    await send_frame(writer, response)
                elif self.behavior == "deadline":
                    await send_frame(writer, {
                        "status": "error",
                        "code": "deadline_expired",
                        "message": "stub deadline",
                    })
                elif self.behavior == "error":
                    await send_frame(writer, {
                        "status": "error",
                        "message": "stub exploded",
                    })
                else:
                    await send_frame(
                        writer,
                        {"status": "ok", "op": "predict_proba"},
                        pack_array(np.zeros((1, 2))),
                    )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except BaseException:
                pass


async def start_router(addresses, **config_kw):
    config_kw.setdefault("probe_interval_s", 0.05)
    config = RouterConfig(backends=tuple(addresses), **config_kw)
    router = RouterServer(config, policy=PlacementPolicy(random.Random(0)))
    await router.start()
    return router


def make_sticky(router, address, model=None, precision=None):
    """Pin the next placement (ties go sticky) to one backend."""
    handle = next(b for b in router.backends if b.address == address)
    router.policy.choose([handle], model, precision)


class TestRouterE2E:
    def test_parity_two_real_backends_bitwise(self, rng, served_reference):
        model = small_model()
        engine = Engine(model=model)
        x = rng.normal(size=(12, 96))
        # What each backend must answer: the serial plan at the chunk
        # boundaries its executor splits a 12-row batch into.
        expected = served_reference(engine, InferenceSession.freeze(model), x)

        async def main():
            async with InferenceServer(engine, port=0) as s1, \
                    InferenceServer(Engine(model=model), port=0) as s2:
                router = await start_router(
                    [f"127.0.0.1:{s1.port}", f"127.0.0.1:{s2.port}"]
                )
                try:
                    client = await AsyncServeClient.connect("127.0.0.1", router.port)
                    try:
                        results = [
                            await client.predict_proba(x) for _ in range(6)
                        ]
                        labels = await client.predict(x)
                    finally:
                        await client.close()
                    return results, labels
                finally:
                    await router.stop()

        results, labels = asyncio.run(main())
        for proba in results:
            assert np.array_equal(proba, expected)
        assert np.array_equal(labels, expected.argmax(axis=-1))

    def test_info_aggregates_fleet(self, rng):
        model = small_model()

        async def main():
            async with InferenceServer(Engine(model=model), port=0) as s1, \
                    InferenceServer(Engine(model=model), port=0) as s2:
                addresses = [f"127.0.0.1:{s1.port}", f"127.0.0.1:{s2.port}"]
                router = await start_router(addresses)
                try:
                    client = await AsyncServeClient.connect("127.0.0.1", router.port)
                    try:
                        await client.predict_proba(rng.normal(size=(4, 96)))
                        info = await client.info()
                    finally:
                        await client.close()
                    return addresses, info
                finally:
                    await router.stop()

        addresses, info = asyncio.run(main())
        assert info["router"] is True
        assert set(info["backends"]) == set(addresses)
        for desc in info["backends"].values():
            assert desc["state"] == "healthy"
            assert "default" in desc["models"]
        health = info["health"]
        assert health["backends_total"] == 2
        assert health["backends_routable"] == 2
        assert health["draining"] is False
        assert info["stats"]["forwards"] == 1
        assert "default" in info["models"]

    def test_ping(self):
        async def main():
            async with StubBackend() as stub:
                router = await start_router([stub.address])
                try:
                    client = await AsyncServeClient.connect("127.0.0.1", router.port)
                    try:
                        return await client.ping()
                    finally:
                        await client.close()
                finally:
                    await router.stop()

        assert asyncio.run(main()) is True


class TestFailover:
    def test_backend_death_replays_on_survivor_bitwise(self):
        """A backend dying mid-request is invisible to the client."""
        model = small_model()

        async def main():
            rows = np.random.default_rng(12345).normal(size=(8, 96))
            async with StubBackend(behavior="die") as stub, \
                    InferenceServer(Engine(model=model), port=0) as real:
                router = await start_router(
                    [stub.address, f"127.0.0.1:{real.port}"]
                )
                try:
                    make_sticky(router, stub.address)
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        proba = await client.predict_proba(rows)
                    finally:
                        await client.close()
                    stub_handle = next(
                        b for b in router.backends
                        if b.address == stub.address
                    )
                    return (
                        proba,
                        stub.predicts,
                        stub_handle.state,
                        dict(router.stats),
                    )
                finally:
                    await router.stop()

        proba, stub_predicts, stub_state, stats = asyncio.run(main())
        rows = np.random.default_rng(12345).normal(size=(8, 96))
        assert np.array_equal(
            proba, InferenceSession.freeze(model).predict_proba(rows)
        )
        assert stub_predicts == 1  # the doomed attempt
        assert stub_state == DOWN  # marked down on the transport failure
        assert stats["replays"] == 1
        assert stats["forwards"] == 1

    def test_all_backends_shedding_propagates_max_retry_after(self):
        async def main():
            async with StubBackend("overloaded", retry_after_ms=40.0) as a, \
                    StubBackend("overloaded", retry_after_ms=90.0) as b:
                router = await start_router([a.address, b.address])
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        with pytest.raises(Overloaded) as excinfo:
                            await client.predict_proba(np.zeros((2, 4)))
                    finally:
                        await client.close()
                    return (
                        excinfo.value.retry_after_ms,
                        a.predicts + b.predicts,
                        dict(router.stats),
                    )
                finally:
                    await router.stop()

        retry_after_ms, total_predicts, stats = asyncio.run(main())
        # The honest hint is the max across the shedding fleet.
        assert retry_after_ms == 90.0
        assert total_predicts == 2  # both candidates were tried
        assert stats["shed_all"] == 1

    def test_deadline_expired_never_replayed(self):
        async def main():
            async with StubBackend("deadline") as doomed, \
                    StubBackend("ok") as healthy:
                router = await start_router([doomed.address, healthy.address])
                try:
                    make_sticky(router, doomed.address)
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        with pytest.raises(DeadlineExpired):
                            await client.predict_proba(np.zeros((2, 4)))
                    finally:
                        await client.close()
                    return doomed.predicts, healthy.predicts
                finally:
                    await router.stop()

        doomed_predicts, healthy_predicts = asyncio.run(main())
        # Exactly one backend saw the request: an expired deadline is no
        # less expired on the next backend.
        assert doomed_predicts == 1
        assert healthy_predicts == 0

    def test_untyped_error_relayed_without_retry(self):
        async def main():
            async with StubBackend("error") as bad, \
                    StubBackend("ok") as good:
                router = await start_router([bad.address, good.address])
                try:
                    make_sticky(router, bad.address)
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        with pytest.raises(ServingError, match="exploded"):
                            await client.predict_proba(np.zeros((2, 4)))
                    finally:
                        await client.close()
                    return bad.predicts, good.predicts
                finally:
                    await router.stop()

        bad_predicts, good_predicts = asyncio.run(main())
        assert bad_predicts == 1
        assert good_predicts == 0

    def test_request_over_the_row_bound_tried_on_one_backend(self, rng):
        # A request no backend can ever admit is a plain error, not a
        # fleet-wide shed: the router relays it from the first backend.
        model = small_model()

        async def main():
            async with InferenceServer(
                Engine(model=model, max_queue_rows=16), port=0
            ) as s1, InferenceServer(
                Engine(model=model, max_queue_rows=16), port=0
            ) as s2:
                router = await start_router(
                    [f"127.0.0.1:{s1.port}", f"127.0.0.1:{s2.port}"]
                )
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=2, backoff_ms=1.0
                    )
                    try:
                        with pytest.raises(ServingError, match="17 rows") as excinfo:
                            await client.predict_proba(rng.normal(size=(17, 96)))
                    finally:
                        await client.close()
                    return excinfo.value, [s1.stats, s2.stats]
                finally:
                    await router.stop()

        error, stats = asyncio.run(main())
        assert not isinstance(error, Overloaded)
        assert sum(s["errors"] for s in stats) == 1
        assert sum(s["shed"] for s in stats) == 0

    def test_unknown_model_yields_clean_error(self, rng):
        model = small_model()

        async def main():
            async with InferenceServer(Engine(model=model), port=0) as real:
                router = await start_router([f"127.0.0.1:{real.port}"])
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        with pytest.raises(ServingError, match="missing"):
                            await client.predict_proba(
                                rng.normal(size=(2, 96)), model="missing"
                            )
                    finally:
                        await client.close()
                finally:
                    await router.stop()

        asyncio.run(main())

    def test_all_backends_down_yields_server_unavailable(self):
        async def main():
            async with StubBackend("die") as a, StubBackend("die") as b:
                router = await start_router([a.address, b.address])
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        with pytest.raises(ServerUnavailable):
                            await client.predict_proba(np.zeros((2, 4)))
                    finally:
                        await client.close()
                    return a.predicts + b.predicts
                finally:
                    await router.stop()

        assert asyncio.run(main()) == 2  # both were tried before giving up

    def test_probe_revives_downed_backend(self):
        """A backend marked down by a forward failure comes back once a
        probe succeeds (the stub dies on predict but answers info)."""

        async def main():
            async with StubBackend("die") as stub:
                router = await start_router(
                    [stub.address], probe_interval_s=0.05
                )
                try:
                    handle = router.backends[0]
                    handle.mark_down("simulated forward failure")
                    assert handle.state == DOWN
                    for _ in range(100):
                        if handle.routable:
                            break
                        await asyncio.sleep(0.02)
                    return handle.state
                finally:
                    await router.stop()

        assert asyncio.run(main()) == "healthy"


class TestDrain:
    def test_drain_refuses_new_work_then_closes(self, rng):
        model = small_model()

        async def main():
            async with InferenceServer(Engine(model=model), port=0) as real:
                router = await start_router([f"127.0.0.1:{real.port}"])
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        await client.predict_proba(rng.normal(size=(2, 96)))
                        reply = await client.drain()
                        assert reply["draining"] is True
                        with pytest.raises(ServerUnavailable, match="drain"):
                            await client.predict_proba(
                                rng.normal(size=(2, 96))
                            )
                        info = await client.info()
                        return info["health"]["draining"]
                    finally:
                        await client.close()
                finally:
                    await router.stop()

        assert asyncio.run(main()) is True


class TestFaultPoint:
    def test_backend_down_fault_kills_one_spawned_child(self):
        """router.backend_down: one armed firing kills one live child."""

        class FakeProcess:
            def __init__(self):
                self.pid = 4242
                self.exit_code = None

            def poll(self):
                return self.exit_code

        class FakeChild:
            def __init__(self):
                self.process = FakeProcess()
                self.killed = False

            def kill(self):
                self.killed = True
                self.process.exit_code = -9

        async def main():
            async with StubBackend("ok") as stub:
                router = await start_router([stub.address])
                children = [FakeChild(), FakeChild()]
                router.spawned = children
                faults.arm("router.backend_down", times=1)
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        await client.predict_proba(np.zeros((2, 4)))
                        await client.predict_proba(np.zeros((2, 4)))
                    finally:
                        await client.close()
                    return children, dict(router.stats)
                finally:
                    router.spawned = []  # keep stop() off the fakes
                    await router.stop()

        children, stats = asyncio.run(main())
        # Budget of one: exactly one child died, on the first predict.
        assert [c.killed for c in children] == [True, False]
        assert stats["backends_killed"] == 1
        assert faults.fired("router.backend_down") == 1

    def test_fault_point_noop_without_spawned_children(self):
        async def main():
            async with StubBackend("ok") as stub:
                router = await start_router([stub.address])
                faults.arm("router.backend_down", times=1)
                try:
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port, retries=0
                    )
                    try:
                        await client.predict_proba(np.zeros((2, 4)))
                    finally:
                        await client.close()
                    return dict(router.stats)
                finally:
                    await router.stop()

        stats = asyncio.run(main())
        # Static backends are not ours to kill: the firing is consumed
        # but nothing dies.
        assert stats["backends_killed"] == 0
