"""Workspace arenas + fuse_plan: allocation-free hot path, bitwise parity.

The reference every test compares against is the unfused plan run op by
op with ``op(x)`` — each op's one body on fresh buffers.
"""

import threading

import numpy as np
import pytest

from repro.embedded.deploy import DeployedModel
from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
)
from repro.precision import PrecisionPolicy
from repro.runtime import (
    DEFAULT_BATCH_BUCKETS,
    InferenceSession,
    SerialExecutor,
    ThreadWorkerPool,
    ThreadedExecutor,
    Workspace,
    compile_records_plan,
    fuse_plan,
    model_records,
)


def unfused(source, precision="fp64"):
    """The unfused plan of a model (through the walker) or an artifact."""
    records = getattr(source, "records", None) or model_records(source)
    return compile_records_plan(
        records, policy=PrecisionPolicy.resolve(precision)
    )


def fresh_forward(ops, x, precision="fp64", batch_size=None):
    """Run ``ops`` one by one on fresh buffers, in ``batch_size`` chunks."""
    x = np.asarray(x, dtype=PrecisionPolicy.resolve(precision).real_dtype)
    step = batch_size or x.shape[0]
    outs = []
    for start in range(0, x.shape[0], step):
        y = x[start : start + step]
        for op in ops:
            y = op(y)
        outs.append(y)
    return np.concatenate(outs)


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
        MaxPool2d(2),
        Flatten(),
        BlockCirculantLinear(8 * 4 * 4, 32, 8, rng=rng),
        ReLU(),
        Linear(32, 5, rng=rng),
    ).eval()


def bn_model():
    rng = np.random.default_rng(7)
    return Sequential(
        BlockCirculantLinear(32, 16, 4, rng=rng),
        BatchNorm1d(16),
        ReLU(),
        Linear(16, 4, rng=rng),
        Softmax(),
    ).eval()


class TestWorkspace:
    def test_bucket_rounds_up(self):
        ws = Workspace(buckets=(1, 4, 16))
        assert ws.bucket(1) == 1
        assert ws.bucket(2) == 4
        assert ws.bucket(4) == 4
        assert ws.bucket(9) == 16

    def test_bucket_beyond_max_is_exact(self):
        ws = Workspace(buckets=(1, 4))
        assert ws.bucket(9) == 9
        assert ws.bucket(300) == 300

    def test_get_reuses_buffer(self):
        ws = Workspace()
        a = ws.get("slot", (4, 8), np.float64)
        b = ws.get("slot", (4, 8), np.float64)
        assert a is b

    def test_distinct_slots_shapes_dtypes(self):
        ws = Workspace()
        a = ws.get("a", (4, 8), np.float64)
        assert ws.get("b", (4, 8), np.float64) is not a
        assert ws.get("a", (2, 8), np.float64) is not a
        assert ws.get("a", (4, 8), np.float32) is not a

    def test_zeros_zeroed_at_allocation(self):
        ws = Workspace()
        z = ws.zeros("pad", (3, 3), np.float64)
        assert np.array_equal(z, np.zeros((3, 3)))

    def test_stats_and_clear(self):
        ws = Workspace(buckets=(1, 2))
        ws.get("a", (4, 8), np.float64)
        stats = ws.stats()
        assert stats["buffers"] == 1
        assert stats["nbytes"] == 4 * 8 * 8
        assert stats["buckets"] == (1, 2)
        ws.clear()
        assert ws.stats()["buffers"] == 0

    def test_default_buckets(self):
        assert Workspace().buckets == DEFAULT_BATCH_BUCKETS

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Workspace(buckets=())
        with pytest.raises(ValueError):
            Workspace(buckets=(0, 2))


class TestFusePlan:
    def test_folds_affine_into_compute(self):
        model = bn_model()
        ops = unfused(model)
        fused = fuse_plan(ops)
        assert len(fused) < len(ops)
        # batch-norm's affine (and its relu) folded into the bc layer
        assert any(
            name.startswith("bc_linear") and "affine" in name
            for name in (op.name for op in fused)
        )

    def test_fused_plan_bitwise_matches(self, rng):
        model = bn_model()
        ops = unfused(model)
        fused = fuse_plan(ops)
        x = rng.normal(size=(6, 32))
        y_ref = x
        for op in ops:
            y_ref = op(y_ref)
        y_fused = x
        for op in fused:
            y_fused = op(y_fused)
        assert np.array_equal(y_fused, y_ref)

    def test_softmax_never_folds(self):
        fused = fuse_plan(unfused(bn_model()))
        assert fused[-1].name == "softmax"

    def test_flatten_folds_into_pool(self):
        fused = fuse_plan(unfused(conv_model()))
        names = [op.name for op in fused]
        assert any(name.endswith("+flatten") for name in names)
        assert "flatten" not in names

    def test_first_op_never_folds(self, rng):
        m_rng = np.random.default_rng(5)
        model = Sequential(
            Flatten(), Linear(12, 4, rng=m_rng), Softmax()
        ).eval()
        fused = fuse_plan(unfused(model))
        assert fused[0].name == "flatten"
        x = rng.normal(size=(3, 3, 4))
        x_copy = x.copy()
        session = InferenceSession.freeze(model)
        session.forward(x)
        session.forward(x)
        assert np.array_equal(x, x_copy)  # user input never mutated


def _make_executor(kind):
    if kind == "serial":
        return SerialExecutor()
    return ThreadedExecutor(threads=2)


class TestArenaParity:
    """Arena + fused path is bitwise-identical to the fresh unfused ops."""

    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    @pytest.mark.parametrize("kind", ["serial", "threaded"])
    def test_bitwise_matches_fresh_path(self, model, rng, precision, kind):
        ref = unfused(model, precision)
        with InferenceSession.freeze(
            model, precision=precision, executor=_make_executor(kind)
        ) as session:
            # batch sizes: bucket-exact, ragged tails, repeated calls
            for batch in (1, 2, 5, 16, 37):
                x = rng.normal(size=(batch, 96))
                for _ in range(2):
                    assert np.array_equal(
                        session.forward(x), fresh_forward(ref, x, precision)
                    )
            x = rng.normal(size=(23, 96))
            # the model ends in softmax: predict_proba adds nothing
            assert np.array_equal(
                session.predict_proba(x, batch_size=7),
                fresh_forward(ref, x, precision, batch_size=7),
            )

    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_conv_model_bitwise(self, rng, precision):
        model = conv_model()
        ref = unfused(model, precision)
        session = InferenceSession.freeze(model, precision=precision)
        for batch in (1, 3, 8):
            x = rng.normal(size=(batch, 3, 8, 8))
            for _ in range(2):
                assert np.array_equal(
                    session.forward(x), fresh_forward(ref, x, precision)
                )

    def test_batch_beyond_largest_bucket(self, model, rng):
        ref = unfused(model)
        session = InferenceSession.freeze(model)
        x = rng.normal(size=(DEFAULT_BATCH_BUCKETS[-1] + 44, 96))
        for _ in range(2):
            assert np.array_equal(session.forward(x), fresh_forward(ref, x))

    def test_results_stable_across_calls(self, model, rng):
        # The returned array must not alias arena buffers: a second
        # forward through the same plan must not rewrite earlier results.
        session = InferenceSession.freeze(model)
        x1 = rng.normal(size=(5, 96))
        x2 = rng.normal(size=(5, 96))
        r1 = session.forward(x1)
        r1_copy = r1.copy()
        session.forward(x2)
        assert np.array_equal(r1, r1_copy)

    def test_from_deployed_arena_bitwise(self, model, rng):
        deployed = DeployedModel.from_model(model)
        ref = unfused(deployed)
        session = InferenceSession.from_deployed(deployed)
        x = rng.normal(size=(6, 96))
        for _ in range(2):
            assert np.array_equal(session.forward(x), fresh_forward(ref, x))


class TestResultNeverAliasesTheArena:
    def test_unfused_plan_ending_in_a_view_of_a_slot(self, rng):
        # flatten's output is a view of avgpool's arena slot; the
        # executor must still hand back a private copy.
        model = Sequential(
            Conv2d(2, 3, 3, rng=np.random.default_rng(4)),
            ReLU(),
            AvgPool2d(2),
            Flatten(),
        ).eval()
        ops = unfused(model)
        assert [op.name.split("(")[0] for op in ops] == [
            "conv", "relu", "avgpool", "flatten",
        ]
        executor = SerialExecutor().bind(ops)
        a, b = rng.normal(size=(2, 2, 2, 6, 6))
        first = executor.run(a)
        want = fresh_forward(ops, a)
        executor.run(b)
        assert np.array_equal(first, want)


class TestArenaInfo:
    def test_reports_buffers_after_use(self, model, rng):
        session = InferenceSession.freeze(model)
        assert session.arena_buckets == DEFAULT_BATCH_BUCKETS
        session.forward(rng.normal(size=(4, 96)))
        info = session.executor.arena_info()
        assert info["buckets"] == DEFAULT_BATCH_BUCKETS
        assert info["workspaces"] >= 1
        assert info["buffers"] > 0 and info["nbytes"] > 0

    def test_steady_state_allocates_no_new_workspace_buffers(
        self, model, rng
    ):
        session = InferenceSession.freeze(model)
        x = rng.normal(size=(8, 96))
        session.forward(x)  # warm: populates every slot
        before = session.executor.arena_info()["buffers"]
        for _ in range(3):
            session.forward(x)
        assert session.executor.arena_info()["buffers"] == before


class TestSharedPoolIsolation:
    """Two routes on one worker pool must not alias arena buffers."""

    def _models(self):
        a_rng = np.random.default_rng(11)
        b_rng = np.random.default_rng(22)
        make = lambda r: Sequential(  # noqa: E731
            BlockCirculantLinear(96, 64, 8, rng=r),
            ReLU(),
            Linear(64, 10, rng=r),
            Softmax(),
        ).eval()
        return make(a_rng), make(b_rng)

    def test_two_routes_one_thread_pool(self, rng):
        model_a, model_b = self._models()
        pool = ThreadWorkerPool(threads=2)
        ref_a, ref_b = unfused(model_a), unfused(model_b)
        sa = InferenceSession.freeze(
            model_a, executor=ThreadedExecutor(pool=pool)
        )
        sb = InferenceSession.freeze(
            model_b, executor=ThreadedExecutor(pool=pool)
        )
        try:
            x = rng.normal(size=(16, 96))
            for _ in range(2):  # interleave: cross-aliasing would show
                pa = sa.predict_proba(x, batch_size=4)
                pb = sb.predict_proba(x, batch_size=4)
                assert np.array_equal(
                    pa, fresh_forward(ref_a, x, batch_size=4)
                )
                assert np.array_equal(
                    pb, fresh_forward(ref_b, x, batch_size=4)
                )
        finally:
            sa.close()
            sb.close()
            pool.close()


class TestOpStatsConcurrency:
    def test_concurrent_forwards_lose_no_counts(self, model, rng):
        # Regression: op timings used to accumulate into one shared
        # dict with a read-modify-write race under ThreadedExecutor.
        # Counters are now per-thread and merged on read.
        session = InferenceSession.freeze(
            model, executor=SerialExecutor(profile=True)
        )
        x = rng.normal(size=(4, 96))
        calls_per_thread, threads = 25, 8
        barrier = threading.Barrier(threads)
        errors = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(calls_per_thread):
                    session.forward(x)
                    session.executor.op_stats()  # racing reader
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer) for _ in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        stats = session.executor.op_stats()
        total = threads * calls_per_thread
        assert stats["bc_linear"]["calls"] == 2 * total
        assert stats["linear"]["calls"] == total
        assert stats["softmax"]["calls"] == total

    def test_reset_clears_all_thread_stores(self, model, rng):
        session = InferenceSession.freeze(
            model, executor=SerialExecutor(profile=True)
        )
        x = rng.normal(size=(2, 96))

        def run():
            session.forward(x)

        t = threading.Thread(target=run)
        t.start()
        t.join()
        session.forward(x)
        assert session.executor.op_stats()
        session.executor.reset_op_stats()
        assert session.executor.op_stats() == {}
