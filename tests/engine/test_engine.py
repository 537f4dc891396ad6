"""Engine facade: route table, lifecycle, routing, registry."""

import asyncio
import importlib
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
import repro.engine
import repro.runtime.executors as executors_mod
from repro.cli import main
from repro.embedded import DeployedModel
from repro.engine import Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import InferenceSession, ThreadedExecutor
from repro.serving import AsyncServeClient, InferenceServer, MicroBatcher
from repro.zoo import build_arch1, build_fftnet


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


class TestRouteTable:
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

    def test_batch_size_streams_identically(self, rng):
        engine = Engine(model=small_model())
        x = rng.normal(size=(10, 96))
        one_shot = engine.predict_proba(x)
        streamed = engine.predict_proba(x, batch_size=3)
        # Different GEMM batch shapes may round differently in the last
        # ulp; bitwise identity is only promised for identical chunking.
        assert np.allclose(one_shot, streamed, atol=1e-12)
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

    def test_context_manager_exit_under_in_flight_requests(self, rng, gate):
        # A server stopping while a request is still in flight: the
        # engine context exits only after the server drained its
        # batchers, and every in-flight request still got a real answer.
        engine = Engine(model=small_model())
        serial = InferenceSession.freeze(small_model())
        x = rng.normal(size=(3, 96))

        async def scenario():
            with engine:
                server = InferenceServer(engine, port=0)
                await server.start()
                client = await AsyncServeClient.connect(port=server.port)
                await client.predict_proba(x)  # freezes the route's session
                (batcher,) = server._batchers.values()
                # Stop the server while the request's batch is held on
                # the inference thread.
                held = gate(server._infer_thread)
                pending = asyncio.create_task(client.predict_proba(x))
                await held.until(
                    lambda: batcher.queue_depth()["inflight_rows"] == 3
                )
                stopping = asyncio.create_task(server.stop())
                await asyncio.sleep(0.005)
                assert not stopping.done()  # stop drains the batch first
                held.release()
                await stopping
                result = await pending
                await client.close()
            return result

        result = asyncio.run(scenario())
        assert np.array_equal(result, serial.predict_proba(x))
        assert engine.closed


class TestRegistry:
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




@pytest.fixture
def fftnet_path(tmp_path):
    """A streamable model saved as an artifact, so routes load from disk."""
    model = build_fftnet(
        channels=8, depth=3, classes=5, rng=np.random.default_rng(0)
    )
    path = tmp_path / "fftnet.npz"
    DeployedModel.from_model(model).save(path)
    return str(path)


def returns_within(fn, timeout=5.0):
    """``fn()`` from another thread; fail instead of hanging if it blocks."""
    out = {}
    worker = threading.Thread(target=lambda: out.update(value=fn()))
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"{fn.__name__} blocked behind a build"
    return out["value"]


class TestRouteTableConcurrency:
    """One dict lock held for microseconds, one lock for every build."""

    @pytest.fixture
    def gated_load(self, monkeypatch):
        """Hold every ``DeployedModel.load`` until ``release`` is set;
        ``entered`` fires once a build is inside the load."""
        original = DeployedModel.load.__func__
        gate = {
            "entered": threading.Event(),
            "release": threading.Event(),
            "loads": 0,
        }

        def load(cls, path):
            gate["loads"] += 1
            gate["entered"].set()
            assert gate["release"].wait(10)
            return original(cls, path)

        monkeypatch.setattr(DeployedModel, "load", classmethod(load))
        yield gate
        gate["release"].set()

    def test_concurrent_session_and_stream_plan_load_artifact_once(
        self, fftnet_path, monkeypatch
    ):
        original = DeployedModel.load.__func__
        loads = []

        def slow_load(cls, path):
            loads.append(path)
            time.sleep(0.05)  # widen the race window
            return original(cls, path)

        monkeypatch.setattr(DeployedModel, "load", classmethod(slow_load))
        engine = Engine(model=fftnet_path)
        start = threading.Barrier(2)
        built = {}

        def build(kind, fn):
            start.wait()
            built[kind] = fn()

        threads = [
            threading.Thread(target=build, args=("session", engine.session)),
            threading.Thread(
                target=build,
                args=("stream", lambda: engine.session().open().session),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert loads == [fftnet_path]
        assert built["session"] is engine.session()
        assert built["stream"] is engine.session()
        engine.close()

    def test_introspection_returns_while_a_build_is_in_flight(
        self, fftnet_path, gated_load
    ):
        engine = Engine(model=fftnet_path)
        build_thread = threading.Thread(target=engine.session)
        build_thread.start()
        assert gated_load["entered"].wait(5)
        try:
            assert returns_within(engine.describe_routes) == {}
            assert returns_within(engine.describe)["pooled"] == []
        finally:
            gated_load["release"].set()
            build_thread.join(10)
        assert list(engine.describe_routes()) == ["default/fp64"]
        engine.close()

    def test_close_during_build_closes_the_session_and_refuses(
        self, fftnet_path, gated_load, monkeypatch
    ):
        closed = []
        original_close = InferenceSession.close

        def spy_close(session):
            closed.append(session)
            original_close(session)

        monkeypatch.setattr(InferenceSession, "close", spy_close)
        engine = Engine(model=fftnet_path)
        outcome = {}

        def build():
            try:
                outcome["session"] = engine.session()
            except ConfigurationError as exc:
                outcome["error"] = exc

        build_thread = threading.Thread(target=build)
        build_thread.start()
        assert gated_load["entered"].wait(5)
        try:
            returns_within(engine.close)  # never waits out the build
        finally:
            gated_load["release"].set()
            build_thread.join(10)
        assert "session" not in outcome
        assert "closed" in str(outcome["error"])
        # The session built for nobody was closed on the way out.
        assert len(closed) == 1
        assert engine.describe()["pooled"] == []


class TestRemovedEngineSurface:
    """The single-route shims, the typed request API and the per-call
    serving overrides are gone; every old spelling is refused."""

    @pytest.mark.parametrize(
        "name", ["submit", "from_session", "register", "health"]
    )
    def test_engine_methods_removed(self, name):
        assert not hasattr(Engine, name)

    @pytest.mark.parametrize("name", ["InferenceRequest", "InferenceResult"])
    def test_typed_request_dataclasses_removed(self, name):
        for namespace in (repro, repro.engine):
            with pytest.raises(AttributeError):
                getattr(namespace, name)
            assert name not in namespace.__all__

    @pytest.mark.parametrize("module", ["pool", "types"])
    def test_pool_and_types_modules_removed(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.engine.{module}")

    def test_bound_session_is_not_a_registry_source(self):
        session = InferenceSession.freeze(small_model())
        with pytest.raises(ConfigurationError, match="InferenceSession"):
            Engine(model=session)
        session.close()

    @pytest.mark.parametrize(
        "kwarg", ["max_batch", "max_wait_ms", "chunk_size", "max_payload"]
    )
    def test_server_override_kwargs_removed(self, kwarg):
        with Engine(model=small_model()) as engine:
            with pytest.raises(TypeError, match=kwarg):
                InferenceServer(engine, port=0, **{kwarg: 8})

    @pytest.mark.parametrize("kwarg", ["max_batch", "max_wait_ms"])
    def test_serve_override_kwargs_removed(self, kwarg):
        with Engine(model=small_model()) as engine:
            with pytest.raises(TypeError, match=kwarg):
                engine.serve(port=0, **{kwarg: 8})

    def test_threaded_min_rows_removed(self):
        with pytest.raises(TypeError, match="min_rows"):
            ThreadedExecutor(threads=2, min_rows=2)
        executor = ThreadedExecutor(threads=2)
        assert not hasattr(executor, "min_rows")
        executor.close()
        assert not hasattr(executors_mod, "AUTO_MIN_ROWS")

    def test_batch_window_removed(self):
        # There is no flush timer, so nothing takes max_wait_ms.
        with pytest.raises(TypeError, match="max_wait_ms"):
            EngineConfig(model=small_model(), max_wait_ms=2.0)
        with pytest.raises(TypeError, match="max_wait_ms"):
            Engine(model=small_model(), max_wait_ms=2.0)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "model.npz", "--max-wait-ms", "2"])
        assert excinfo.value.code == 2

    def test_info_has_no_max_wait_ms(self, rng):
        async def scenario(engine):
            async with InferenceServer(engine, port=0) as server:
                async with await AsyncServeClient.connect(
                    port=server.port
                ) as client:
                    return await client.info()

        with Engine(model=small_model()) as engine:
            info = asyncio.run(scenario(engine))
        assert "max_wait_ms" not in info
        assert "max_wait_ms" not in info["engine"]["config"]

    def test_batcher_still_accepts_and_ignores_max_wait_ms(self):
        # benchmarks/e2e/ladder.py builds its batcher this way.
        with ThreadPoolExecutor(max_workers=1) as infer_thread:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batcher = MicroBatcher(
                    lambda b: b, max_batch=32, max_wait_ms=2.0,
                    executor=infer_thread,
                )
            assert not hasattr(batcher, "max_wait_ms")
            rows = np.ones((2, 3))
            assert np.array_equal(asyncio.run(batcher.submit(rows)), rows)
