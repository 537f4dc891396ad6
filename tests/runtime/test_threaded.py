"""Executors: one compiled plan, serial/threaded bitwise parity at the
same chunk boundaries, the shared thread pool, lifecycle, profiling."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zoo
from repro.nn import (
    BlockCirculantLinear,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Softmax,
)
from repro.nn.layers import BlockCirculantConv2d
from repro.runtime import (
    InferenceSession,
    SerialExecutor,
    ThreadWorkerPool,
    ThreadedExecutor,
    effective_cpu_count,
)


@pytest.fixture
def model():
    rng = np.random.default_rng(0)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        BlockCirculantLinear(64, 40, 4, rng=rng),
        ReLU(),
        Linear(40, 10, rng=rng),
        Softmax(),
    ).eval()


def conv_model():
    rng = np.random.default_rng(3)
    return Sequential(
        BlockCirculantConv2d(3, 8, 3, block_size=4, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        BlockCirculantLinear(512, 32, 8, rng=rng),
        ReLU(),
        Linear(32, 5, rng=rng),
    ).eval()


def wide_fc_model(width):
    """One block-circulant FC layer whose spectra are far past the size
    at which threaded sessions used to compile a different plan."""
    rng = np.random.default_rng(5)
    return Sequential(
        BlockCirculantLinear(width, width, 128, rng=rng),
        ReLU(),
        Linear(width, 10, rng=rng),
    ).eval()


PLAN_MODELS = {
    name: (lambda n=name: zoo.get(n).eval()) for name in zoo.names()
}
PLAN_MODELS["bc_fc_1024"] = lambda: wide_fc_model(1024)
PLAN_MODELS["bc_fc_4096"] = lambda: wide_fc_model(4096)


class TestOnePlan:
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    @pytest.mark.parametrize("name", sorted(PLAN_MODELS))
    def test_threaded_session_compiles_the_serial_plan(self, name, precision):
        m = PLAN_MODELS[name]()
        serial = InferenceSession.freeze(m, precision=precision).describe()
        for threads in (1, 2, 4):
            with InferenceSession.freeze(
                m,
                precision=precision,
                executor=ThreadedExecutor(threads=threads),
            ) as threaded:
                assert threaded.describe() == serial


PARITY_MODELS = {"fc": wide_fc_model(1024), "conv": conv_model()}
PARITY_INPUTS = {"fc": (1024,), "conv": (3, 8, 8)}


class TestThreadedParityProperty:
    @given(
        kind=st.sampled_from(["fc", "conv"]),
        precision=st.sampled_from(["fp64", "fp32"]),
        rows=st.integers(1, 70),
        batch_size=st.one_of(st.none(), st.integers(1, 80)),
        threads=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_threaded_equals_serial_at_the_same_batch_size(
        self, kind, precision, rows, batch_size, threads, seed
    ):
        m = PARITY_MODELS[kind]
        x = np.random.default_rng(seed).normal(
            size=(rows,) + PARITY_INPUTS[kind]
        )
        serial = InferenceSession.freeze(m, precision=precision)
        with InferenceSession.freeze(
            m, precision=precision, executor=ThreadedExecutor(threads=threads)
        ) as threaded:
            assert np.array_equal(
                threaded.predict_proba(x, batch_size=batch_size),
                serial.predict_proba(x, batch_size=batch_size),
            )


class TestThreadedBatches:
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    @pytest.mark.parametrize("batch_size", [4, 7, None])
    def test_predict_proba_bitwise_equals_serial(
        self, model, rng, precision, batch_size
    ):
        x = rng.normal(size=(23, 96))
        serial = InferenceSession.freeze(model, precision=precision)
        with InferenceSession.freeze(
            model,
            precision=precision,
            executor=ThreadedExecutor(threads=3),
        ) as threaded:
            assert np.array_equal(
                threaded.predict_proba(x, batch_size=batch_size),
                serial.predict_proba(x, batch_size=batch_size),
            )

    def test_conv_batches_bitwise_equals_serial(self, rng):
        m = conv_model()
        x = rng.normal(size=(13, 3, 8, 8))
        serial = InferenceSession.freeze(m)
        with InferenceSession.freeze(
            m, executor=ThreadedExecutor(threads=2)
        ) as threaded:
            assert np.array_equal(
                threaded.predict(x, batch_size=4),
                serial.predict(x, batch_size=4),
            )

    def test_predict_labels_match(self, model, rng):
        x = rng.normal(size=(12, 96))
        serial = InferenceSession.freeze(model)
        with InferenceSession.freeze(
            model, executor=ThreadedExecutor(threads=2)
        ) as threaded:
            assert np.array_equal(
                threaded.predict(x, batch_size=3),
                serial.predict(x, batch_size=3),
            )

    def test_single_chunk_stays_in_process(self, model, rng):
        executor = ThreadedExecutor(threads=2)
        with InferenceSession.freeze(model, executor=executor) as session:
            session.predict(rng.normal(size=(4, 96)))  # one chunk
            session.forward(rng.normal(size=(4, 96)))
            assert not executor.pool.started  # no thread spawned for it


class TestThreadedLifecycle:
    def test_resolve_by_name(self, model):
        assert isinstance(
            InferenceSession.freeze(model, executor="serial").executor,
            SerialExecutor,
        )
        with InferenceSession.freeze(model, executor="threaded") as session:
            assert isinstance(session.executor, ThreadedExecutor)

    def test_unknown_executor_rejected(self, model):
        with pytest.raises(ValueError):
            InferenceSession.freeze(model, executor="gpu")

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ThreadedExecutor(threads=0)

    def test_rebinding_rejected(self, model):
        # A second session must never silently repoint the first
        # session's executor at its own plan.
        for executor in (ThreadedExecutor(threads=2), SerialExecutor()):
            with InferenceSession.freeze(model, executor=executor):
                with pytest.raises(RuntimeError, match="already bound"):
                    InferenceSession.freeze(model, executor=executor)

    def test_rebinding_running_executor_rejected(self, model, rng):
        executor = ThreadedExecutor(threads=2)
        with InferenceSession.freeze(model, executor=executor) as session:
            session.predict(rng.normal(size=(4, 96)), batch_size=2)
            assert executor.pool.started
            with pytest.raises(RuntimeError, match="already bound"):
                InferenceSession.freeze(model, executor=executor)

    def test_close_is_idempotent(self, model, rng):
        session = InferenceSession.freeze(
            model, executor=ThreadedExecutor(threads=2)
        )
        session.predict(rng.normal(size=(8, 96)), batch_size=2)
        session.close()
        session.close()

    def test_worker_exception_propagates(self, model, rng):
        serial = InferenceSession.freeze(model)
        with InferenceSession.freeze(
            model, executor=ThreadedExecutor(threads=2)
        ) as session:
            bad = np.zeros((8, 97))  # wrong feature width
            for _ in range(3):
                with pytest.raises(ValueError):
                    session.predict_proba(bad, batch_size=2)
            # The executor survives failed calls.
            good = rng.normal(size=(8, 96))
            assert np.array_equal(
                session.predict_proba(good, batch_size=2),
                serial.predict_proba(good, batch_size=2),
            )

    def test_threads_conflicting_with_shared_pool_rejected(self):
        pool = ThreadWorkerPool(threads=2)
        try:
            with pytest.raises(ValueError, match="conflicts"):
                ThreadedExecutor(threads=3, pool=pool)
        finally:
            pool.close()


class TestSharedThreadPool:
    def test_two_routes_share_one_pool(self, model, rng):
        pool = ThreadWorkerPool(threads=2)
        serial64 = InferenceSession.freeze(model, precision="fp64")
        serial32 = InferenceSession.freeze(model, precision="fp32")
        s64 = InferenceSession.freeze(
            model, precision="fp64", executor=ThreadedExecutor(pool=pool)
        )
        s32 = InferenceSession.freeze(
            model, precision="fp32", executor=ThreadedExecutor(pool=pool)
        )
        try:
            assert s64.executor.pool is s32.executor.pool
            x = rng.normal(size=(19, 96))
            # Interleave calls on both routes through the one pool.
            for _ in range(3):
                assert np.array_equal(
                    s64.predict_proba(x, batch_size=4),
                    serial64.predict_proba(x, batch_size=4),
                )
                assert np.array_equal(
                    s32.predict_proba(x, batch_size=4),
                    serial32.predict_proba(x, batch_size=4),
                )
            s64.close()  # detaches one route; the pool lives on
            assert np.array_equal(
                s32.predict_proba(x, batch_size=4),
                serial32.predict_proba(x, batch_size=4),
            )
        finally:
            s32.close()
            pool.close()

    def test_shared_pool_survives_executor_close(self, model, rng):
        pool = ThreadWorkerPool(threads=2)
        try:
            with InferenceSession.freeze(
                model, executor=ThreadedExecutor(pool=pool)
            ) as session:
                session.predict(rng.normal(size=(8, 96)), batch_size=2)
            assert pool.started  # close() detached the route, not the pool
            pool.ensure_started()
        finally:
            pool.close()

    def test_closed_pool_rejects_work(self, model, rng):
        pool = ThreadWorkerPool(threads=2)
        pool.close()
        with InferenceSession.freeze(
            model, executor=ThreadedExecutor(pool=pool)
        ) as session:
            with pytest.raises(RuntimeError, match="closed"):
                session.predict(rng.normal(size=(8, 96)), batch_size=2)

    def test_concurrent_ensure_started_creates_one_pool(self):
        pool = ThreadWorkerPool(threads=2)
        try:
            seen = []
            barrier = threading.Barrier(4)

            def hammer():
                barrier.wait()
                pool.ensure_started()
                seen.append(pool._pool)

            workers = [threading.Thread(target=hammer) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            assert len({id(p) for p in seen}) == 1
        finally:
            pool.close()


class TestProfiling:
    def test_serial_profile_records_op_kinds(self, model, rng):
        with InferenceSession.freeze(
            model, executor=SerialExecutor(profile=True)
        ) as session:
            session.predict_proba(rng.normal(size=(6, 96)))
            stats = session.executor.op_stats()
        assert "bc_linear" in stats and "linear" in stats
        entry = stats["bc_linear"]
        assert entry["calls"] >= 2  # two bc layers in the plan
        assert entry["total_ns"] > 0

    def test_threaded_profile_records_op_kinds(self, model, rng):
        with InferenceSession.freeze(
            model, executor=ThreadedExecutor(threads=2, profile=True)
        ) as session:
            session.predict_proba(rng.normal(size=(6, 96)), batch_size=2)
            stats = session.executor.op_stats()
        # Three chunks through two bc layers, merged across the threads.
        assert stats["bc_linear"]["calls"] == 6
        assert stats["bc_linear"]["total_ns"] > 0

    def test_reset_clears_counters(self, model, rng):
        with InferenceSession.freeze(
            model, executor=SerialExecutor(profile=True)
        ) as session:
            session.forward(rng.normal(size=(3, 96)))
            assert session.executor.op_stats()
            session.executor.reset_op_stats()
            assert session.executor.op_stats() == {}

    def test_profile_off_records_nothing(self, model, rng):
        with InferenceSession.freeze(model) as session:
            session.forward(rng.normal(size=(3, 96)))
            assert session.executor.op_stats() == {}


class TestEffectiveCpuCount:
    def test_positive_int(self):
        count = effective_cpu_count()
        assert isinstance(count, int) and count >= 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert effective_cpu_count() == 7
