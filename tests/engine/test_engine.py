"""Engine facade: pool lifecycle, routing, typed requests, registry."""

import asyncio

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.engine import Engine, EngineConfig, InferenceRequest
from repro.exceptions import ConfigurationError
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import InferenceSession
from repro.serving import AsyncServeClient, InferenceServer
from repro.zoo import build_arch1


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


class TestSessionPool:
    def test_sessions_freeze_lazily_and_pool_reuses(self, rng):
        engine = Engine(model=small_model(), precisions=("fp64", "fp32"))
        assert engine.describe()["pooled"] == []  # nothing frozen yet
        first = engine.session()
        assert engine.session() is first  # pooled, not re-frozen
        assert engine.describe()["pooled"] == [
            {"model": "default", "precision": "fp64"}
        ]
        engine.close()

    def test_pool_reuse_across_fp64_then_fp32_calls(self, rng):
        engine = Engine(model=small_model(), precisions=("fp64", "fp32"))
        x = rng.normal(size=(5, 96))
        p64_a = engine.predict_proba(x)
        p32_a = engine.predict_proba(x, precision="fp32")
        # Back to fp64: same pooled session, identical output.
        p64_b = engine.predict_proba(x)
        p32_b = engine.predict_proba(x, precision="fp32")
        assert np.array_equal(p64_a, p64_b)
        assert np.array_equal(p32_a, p32_b)
        assert p32_a.dtype == np.float32 and p64_a.dtype == np.float64
        assert np.abs(p64_a - p32_a).max() <= 1e-5
        assert len(engine.describe()["pooled"]) == 2
        engine.close()

    def test_shared_weight_spectra_across_precision_sessions(self, rng):
        # Freezing the same live model at a second precision must not
        # re-transform the weights: the layer's cache serves both
        # sessions from one base spectrum.
        model = small_model()
        cache = model.layers[0]._spectrum_cache
        engine = Engine(model=model, precisions=("fp64", "fp32"))
        engine.session(precision="fp64")
        base = cache._base  # the one complex128 rfft of the weights
        misses = cache.misses
        engine.session(precision="fp32")
        # The fp32 session rounded that same base to complex64 (one
        # rounding) instead of re-running the transform.
        assert cache._base is base
        assert cache.misses == misses
        engine.close()

    def test_warm_up_freezes_the_full_grid(self):
        engine = Engine(
            models={"a": small_model(0), "b": small_model(1)},
            default_model="a",
            precisions=("fp64", "fp32"),
        )
        engine.warm_up()
        assert len(engine.describe()["pooled"]) == 4
        engine.close()


class TestLifecycle:
    def test_double_close_is_idempotent(self):
        engine = Engine(model=small_model())
        engine.session()
        engine.close()
        engine.close()  # second close: no error
        assert engine.closed

    def test_closed_engine_refuses_work(self, rng):
        engine = Engine(model=small_model())
        engine.close()
        with pytest.raises(ConfigurationError, match="closed"):
            engine.predict(rng.normal(size=(2, 96)))

    def test_context_manager_closes_pool(self):
        with Engine(model=small_model()) as engine:
            session = engine.session()
            executor = session.executor
        assert engine.closed
        # The pooled session was closed with the engine: its executor
        # rejects rebinding (bound) but run on closed serial is still
        # fine; assert via a second close being a no-op.
        session.close()  # idempotent with the engine's close
        assert executor is session.executor

    def test_context_manager_exit_under_in_flight_requests(self, rng):
        # A server draining while requests are still queued: the engine
        # context exits only after the server drained its batchers, and
        # every in-flight request still got a real answer.
        engine = Engine(model=small_model())
        serial = InferenceSession.freeze(small_model())
        x = rng.normal(size=(3, 96))

        async def scenario():
            with engine:
                server = InferenceServer(engine, port=0, max_wait_ms=50.0)
                await server.start()
                client = await AsyncServeClient.connect(port=server.port)
                # Submit and stop the server while the request is still
                # waiting in the batcher's flush window.
                pending = asyncio.create_task(client.predict_proba(x))
                await asyncio.sleep(0)  # request reaches the server
                await asyncio.sleep(0.005)
                await server.stop()  # drains pending batches
                result = await pending
                await client.close()
            return result

        result = asyncio.run(scenario())
        assert np.array_equal(result, serial.predict_proba(x))
        assert engine.closed

    def test_adopted_session_stays_open_after_engine_close(self):
        session = InferenceSession.freeze(small_model())
        engine = Engine.from_session(session)
        assert engine.session() is session
        engine.close()
        # The engine never owned it: still usable.
        out = session.forward(np.zeros((1, 96)))
        assert out.shape == (1, 10)
        session.close()


class TestRegistry:
    def test_register_after_construction(self, rng):
        engine = Engine(models={"a": small_model(0)})
        engine.register("b", small_model(1))
        xa = rng.normal(size=(2, 96))
        assert engine.predict_proba(xa, model="b").shape == (2, 10)
        with pytest.raises(ConfigurationError, match="already registered"):
            engine.register("b", small_model(2))
        engine.close()

    def test_register_rejects_session_outside_precision_pool(self):
        # An adopted session at an unpooled precision would be
        # unreachable at every route; register must refuse it whole
        # (no registry entry, no pool entry) just like __init__ does.
        engine = Engine(models={"a": small_model(0)})  # fp64-only pool
        fp32_session = InferenceSession.freeze(small_model(1),
                                               precision="fp32")
        with pytest.raises(ConfigurationError, match="pooled precisions"):
            engine.register("m2", fp32_session)
        assert "m2" not in engine.config.models
        engine.close()
        fp32_session.close()

    def test_unknown_model_rejected(self, rng):
        engine = Engine(model=small_model())
        with pytest.raises(ConfigurationError, match="unknown model"):
            engine.predict(rng.normal(size=(2, 96)), model="nope")
        engine.close()

    def test_artifact_path_loads_once_and_serves_all_precisions(
        self, rng, tmp_path
    ):
        deployed = DeployedModel.from_model(
            build_arch1(rng=np.random.default_rng(0)).eval()
        )
        path = tmp_path / "arch1.npz"
        deployed.save(path)
        engine = Engine(model=str(path), precisions=("fp64", "fp32"))
        x = rng.normal(size=(3, 256))
        p64 = engine.predict_proba(x)
        p32 = engine.predict_proba(x, precision="fp32")
        assert np.abs(p64 - p32).max() <= 1e-5
        # One artifact object backs both sessions.
        assert len(engine._artifacts) == 1
        assert np.array_equal(
            p64, InferenceSession.from_deployed(deployed).predict_proba(x)
        )
        engine.close()


class TestTypedRequests:
    def test_submit_resolves_routing_and_echoes_it(self, rng):
        engine = Engine(model=small_model(), precisions=("fp64", "fp32"))
        x = rng.normal(size=(4, 96))
        result = engine.submit(
            InferenceRequest(rows=x, precision="fp32",
                             priority="interactive")
        )
        assert result.model == "default"
        assert result.precision == "fp32"
        assert result.priority == 2
        assert result.rows == 4
        assert result.proba and result.output.shape == (4, 10)
        assert result.latency_ms >= 0
        labels = engine.submit(InferenceRequest(rows=x, proba=False))
        assert labels.output.shape == (4,)
        assert np.array_equal(labels.output, labels.argmax())
        engine.close()

    def test_single_row_promotes_and_deadline_is_advisory(self, rng):
        engine = Engine(model=small_model())
        result = engine.submit(
            InferenceRequest(rows=rng.normal(size=96), deadline_ms=10_000)
        )
        assert result.rows == 1
        assert result.extra["deadline_exceeded"] is False
        engine.close()

    def test_request_validation(self, rng):
        with pytest.raises(ConfigurationError, match="at least one row"):
            InferenceRequest(rows=np.empty((0, 4)))
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            InferenceRequest(rows=np.zeros((1, 4)), deadline_ms=-1)
        with pytest.raises(ConfigurationError, match="batch_size"):
            InferenceRequest(rows=np.zeros((1, 4)), batch_size=0)

    def test_batch_size_streams_identically(self, rng):
        engine = Engine(model=small_model())
        x = rng.normal(size=(10, 96))
        one_shot = engine.submit(InferenceRequest(rows=x)).output
        streamed = engine.submit(
            InferenceRequest(rows=x, batch_size=3)
        ).output
        # Different GEMM batch shapes may round differently in the last
        # ulp; bitwise identity is only promised for identical chunking.
        assert np.allclose(one_shot, streamed, atol=1e-12)
        engine.close()
