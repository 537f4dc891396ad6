"""Deprecation shims: old entry points warn and match the facade bitwise.

This is the only module allowed to *catch* the deprecation warnings —
the CI deprecation lane runs the whole suite under
``-W error::DeprecationWarning``, so any internal code still calling a
shimmed entry point fails there; ``pytest.deprecated_call`` scopes the
expectation to these tests alone.
"""

import asyncio

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.engine import Engine
from repro.runtime import InferenceSession, ThreadedExecutor
from repro.serving import AsyncServeClient, InferenceServer
from repro.zoo import build_arch1


@pytest.fixture(scope="module")
def deployed():
    return DeployedModel.from_model(
        build_arch1(rng=np.random.default_rng(0)).eval()
    )


class TestToSessionShim:
    def test_warns_and_matches_facade_bitwise(self, deployed, rng):
        x = rng.normal(size=(6, 256))
        with pytest.deprecated_call(match="to_session"):
            shim_session = deployed.to_session()
        with Engine(model=deployed) as engine:
            facade = engine.predict_proba(x)
        assert np.array_equal(shim_session.predict_proba(x), facade)
        shim_session.close()

    def test_fp32_and_executor_kwargs_still_work(self, deployed, rng):
        x = rng.normal(size=(4, 256))
        with pytest.deprecated_call():
            shim_session = deployed.to_session(
                precision="fp32", executor="serial"
            )
        with Engine(model=deployed, precisions=("fp32",)) as engine:
            facade = engine.predict_proba(x)
        assert shim_session.precision == "fp32"
        assert np.array_equal(shim_session.predict_proba(x), facade)
        shim_session.close()

    def test_prebuilt_executor_instance_still_accepted(self, deployed, rng):
        # A PlanExecutor instance cannot live in a declarative config;
        # the shim compiles directly but stays bitwise-equal.
        x = rng.normal(size=(8, 256))
        with pytest.deprecated_call():
            shim_session = deployed.to_session(
                executor=ThreadedExecutor(threads=2)
            )
        reference = InferenceSession.from_deployed(deployed)
        assert np.array_equal(
            shim_session.predict_proba(x, batch_size=4),
            reference.predict_proba(x, batch_size=4),
        )
        shim_session.close()
        reference.close()


class TestServerSessionShim:
    def test_warns_wraps_and_matches_engine_path(self, deployed, rng):
        session = InferenceSession.from_deployed(deployed)
        x = rng.normal(size=(5, 256))

        async def roundtrip(server_arg):
            server = InferenceServer(server_arg, port=0)
            async with server:
                async with await AsyncServeClient.connect(
                    port=server.port
                ) as client:
                    return await client.predict_proba(x)

        with pytest.deprecated_call(match="InferenceServer"):
            shim_served = asyncio.run(roundtrip(session))
        # The adopted session is serial, so the facade twin is too.
        with Engine(model=deployed, executor="serial") as engine:
            facade_served = asyncio.run(roundtrip(engine))
        assert np.array_equal(shim_served, facade_served)
        # The shim never took ownership: the session still runs.
        assert session.forward(x).shape == (5, 10)
        session.close()
