"""MicroBatcher: work-conserving takes, splitting, arrival order,
deadlines, errors, fusion parity."""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ServingError
from repro.serving import DeadlineExpired, MicroBatcher


class RecordingRunner:
    """Identity runner that records every batch it was handed."""

    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append(batch)
        return batch * 2.0


def run(coro):
    return asyncio.run(coro)


async def ticks(n: int) -> None:
    """Let the event loop run ``n`` iterations."""
    for _ in range(n):
        await asyncio.sleep(0)


class TestFlushTriggers:
    """No timer: an idle batcher runs whatever is queued at once, and
    whatever arrives meanwhile becomes the next batch."""

    @pytest.mark.parametrize("n_rows", [4, 10])  # full, and larger
    def test_full_batch_flushes_without_waiting(self, rng, n_rows):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=4)
            rows = rng.normal(size=(n_rows, 3))
            out = await asyncio.wait_for(batcher.submit(rows), timeout=5)
            assert np.array_equal(out, rows * 2.0)

        run(scenario())
        # A request larger than max_batch still runs whole.
        assert [batch.shape for batch in runner.batches] == [(n_rows, 3)]

    def test_lone_submit_runs_without_the_clock_advancing(self, rng):
        runner = RecordingRunner()

        async def scenario():
            loop = asyncio.get_running_loop()
            frozen = loop.time()
            loop.time = lambda: frozen  # no timer can ever fire
            try:
                batcher = MicroBatcher(runner, max_batch=1000)
                rows = rng.normal(size=(2, 3))
                future = asyncio.ensure_future(batcher.submit(rows))
                await ticks(2)
                assert len(runner.batches) == 1
                out = await asyncio.wait_for(future, timeout=5)
            finally:
                del loop.time
            assert np.array_equal(out, rows * 2.0)

        run(scenario())

    def test_arrivals_during_a_batch_become_the_next_batch(self, gate):
        runner = RecordingRunner()
        held = gate()

        async def scenario():
            batcher = MicroBatcher(
                runner, max_batch=100, executor=held.executor
            )
            a, b, c = (np.full((2, 3), float(v)) for v in (1, 2, 3))
            first = asyncio.ensure_future(batcher.submit(a))
            await ticks(2)
            # A was taken at once and waits on the held executor.
            assert batcher.queue_depth()["pending_rows"] == 0
            later = [asyncio.ensure_future(batcher.submit(r)) for r in (b, c)]
            await ticks(2)
            assert batcher.queue_depth()["pending_rows"] == 4
            held.release()
            outs = await asyncio.gather(first, *later)
            for rows, out in zip((a, b, c), outs):
                assert np.array_equal(out, rows * 2.0)

        run(scenario())
        assert [batch[:, 0].tolist() for batch in runner.batches] == [
            [1.0, 1.0],
            [2.0, 2.0, 3.0, 3.0],
        ]

    def test_concurrent_submissions_fuse_into_one_batch(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=6)
            a, b, c = (rng.normal(size=(2, 3)) for _ in range(3))
            outs = await asyncio.gather(
                batcher.submit(a), batcher.submit(b), batcher.submit(c)
            )
            assert np.array_equal(outs[0], a * 2.0)
            assert np.array_equal(outs[1], b * 2.0)
            assert np.array_equal(outs[2], c * 2.0)

        run(scenario())
        assert len(runner.batches) == 1
        assert runner.batches[0].shape == (6, 3)

    def test_retry_after_ms_is_backlog_times_batch_ema(self, gate):
        held = gate()

        def slow(batch):
            time.sleep(0.02)
            return batch

        async def scenario():
            batcher = MicroBatcher(slow, max_batch=4, executor=held.executor)
            assert batcher.retry_after_ms() == 1.0  # no batch has run
            held.release()
            await batcher.submit(np.zeros((1, 3)))
            ema = batcher.batch_ms_ema
            assert ema >= 20.0
            again = gate(held.executor)
            queued = asyncio.ensure_future(batcher.submit(np.zeros((10, 3))))
            await ticks(2)
            # 10 rows in flight at 4 rows per batch of `ema` ms.
            assert batcher.retry_after_ms() == max(1.0, 10 / 4 * ema)
            again.release()
            await queued

        run(scenario())


class TestSplitting:
    def test_each_request_gets_exactly_its_rows(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            sizes = (1, 3, 2, 5)
            arrays = [rng.normal(size=(n, 4)) for n in sizes]
            outs = await asyncio.gather(*[batcher.submit(a) for a in arrays])
            for arr, out in zip(arrays, outs):
                assert out.shape == arr.shape
                assert np.array_equal(out, arr * 2.0)

        run(scenario())

    def test_stats_track_fused_batches(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=4)
            await asyncio.gather(
                batcher.submit(rng.normal(size=(2, 3))),
                batcher.submit(rng.normal(size=(2, 3))),
            )
            assert batcher.stats["requests"] == 2
            assert batcher.stats["batches"] == 1
            assert batcher.stats["rows"] == 4
            assert batcher.stats["max_batch_rows"] == 4

        run(scenario())


class TestBucketing:
    def test_mixed_widths_fuse_separately_and_both_succeed(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            narrow = rng.normal(size=(2, 3))
            wide = rng.normal(size=(2, 7))
            out_narrow, out_wide = await asyncio.gather(
                batcher.submit(narrow), batcher.submit(wide)
            )
            assert np.array_equal(out_narrow, narrow * 2.0)
            assert np.array_equal(out_wide, wide * 2.0)

        run(scenario())
        # One flush window, but incompatible shapes ran as two batches.
        assert len(runner.batches) == 2

    def test_mixed_dtypes_do_not_upcast_each_other(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            f32 = rng.normal(size=(2, 3)).astype(np.float32)
            f64 = rng.normal(size=(2, 3))
            out32, out64 = await asyncio.gather(
                batcher.submit(f32), batcher.submit(f64)
            )
            assert out32.dtype == np.float32  # not upcast by fusion
            assert out64.dtype == np.float64
            assert np.array_equal(out32, f32 * np.float32(2.0))

        run(scenario())
        assert len(runner.batches) == 2

    def test_same_shape_requests_still_fuse(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 3))
            await asyncio.gather(batcher.submit(a), batcher.submit(b))

        run(scenario())
        assert len(runner.batches) == 1
        assert runner.batches[0].shape == (5, 3)


class TestArrivalOrder:
    def test_rows_fuse_in_arrival_order(self):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            rows = [np.full((1, 3), v) for v in (0.0, 2.0, 1.0)]
            outs = await asyncio.gather(*[batcher.submit(r) for r in rows])
            # Every request still gets exactly its own rows back.
            for r, out in zip(rows, outs):
                assert np.array_equal(out, r * 2.0)

        run(scenario())
        # One fused batch, rows in the order the requests arrived.
        assert len(runner.batches) == 1
        assert runner.batches[0][:, 0].tolist() == [0.0, 2.0, 1.0]

    def test_buckets_run_in_order_of_first_arrival(self):
        # Incompatible widths cannot fuse; each bucket runs as its own
        # batch, in the order its first request arrived.
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            wide = np.full((1, 7), 99.0)
            narrow = [np.full((2, 3), float(i)) for i in range(3)]
            await asyncio.gather(
                batcher.submit(narrow[0]),
                batcher.submit(wide),
                *[batcher.submit(b) for b in narrow[1:]],
            )

        run(scenario())
        assert [b.shape for b in runner.batches] == [(6, 3), (1, 7)]
        assert runner.batches[0][::2, 0].tolist() == [0.0, 1.0, 2.0]


class TestDeadlines:
    def test_expired_request_errors_without_occupying_batch_rows(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            live_rows = rng.normal(size=(2, 3))
            live = batcher.submit(live_rows)
            doomed = batcher.submit(rng.normal(size=(4, 3)), deadline_ms=0)
            out, err = await asyncio.gather(
                live, doomed, return_exceptions=True
            )
            assert np.array_equal(out, live_rows * 2.0)
            assert isinstance(err, DeadlineExpired)
            assert batcher.stats["expired"] == 1

        run(scenario())
        # The fused batch carried only the live request's rows.
        assert len(runner.batches) == 1
        assert runner.batches[0].shape == (2, 3)

    def test_all_requests_expired_skips_the_runner(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100)
            with pytest.raises(DeadlineExpired):
                await batcher.submit(rng.normal(size=(2, 3)), deadline_ms=0)

        run(scenario())
        assert runner.batches == []

    def test_negative_deadline_rejected(self, rng):
        async def scenario():
            batcher = MicroBatcher(lambda b: b, max_batch=4)
            with pytest.raises(ServingError):
                await batcher.submit(rng.normal(size=(1, 3)), deadline_ms=-5)

        run(scenario())

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf")])
    def test_non_finite_deadline_rejected(self, rng, deadline_ms):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=4)
            with pytest.raises(ServingError, match="finite"):
                await batcher.submit(
                    rng.normal(size=(1, 3)), deadline_ms=deadline_ms
                )
            assert batcher.stats["requests"] == 0

        run(scenario())
        assert runner.batches == []


class TestErrors:
    def test_runner_failure_propagates_to_every_waiter(self, rng):
        def broken(batch):
            raise RuntimeError("engine on fire")

        async def scenario():
            batcher = MicroBatcher(broken, max_batch=4)
            results = await asyncio.gather(
                batcher.submit(rng.normal(size=(2, 3))),
                batcher.submit(rng.normal(size=(2, 3))),
                return_exceptions=True,
            )
            assert all(isinstance(r, ServingError) for r in results)
            assert all("engine on fire" in str(r) for r in results)

        run(scenario())

    def test_empty_request_rejected(self):
        async def scenario():
            batcher = MicroBatcher(lambda b: b, max_batch=4)
            with pytest.raises(ServingError):
                await batcher.submit(np.empty((0, 3)))

        run(scenario())

    def test_closed_batcher_refuses_work(self, rng):
        async def scenario():
            batcher = MicroBatcher(lambda b: b, max_batch=4)
            await batcher.aclose()
            with pytest.raises(ServingError):
                await batcher.submit(rng.normal(size=(1, 3)))

        run(scenario())

    @pytest.mark.parametrize("field", ["max_batch", "max_queue_rows"])
    @pytest.mark.parametrize(
        "value", [0, -1, float("nan"), float("inf"), 2.5, True, "8"], ids=repr
    )
    def test_invalid_construction_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MicroBatcher(lambda b: b, **{field: value})


class RunningSum:
    """A stand-in stream state: each channel's running sum."""

    def __init__(self, channels: int):
        self.total = np.zeros(channels)


def push_running_sums(states, chunks):
    """Row-stable, stateful ``stream_runner``: cumulative sums."""
    outs = []
    for state, chunk in zip(states, chunks):
        out = state.total + np.cumsum(chunk, axis=0)
        state.total = out[-1]
        outs.append(out)
    return outs


class TestFusionParity:
    """Fusion with neighbours never changes a caller's rows, whatever
    the request sizes, the mix of predicts and stream pushes, and the
    moments the inference thread frees up."""

    @settings(
        max_examples=60,
        deadline=None,
        # One `gate` fixture serves every example; each example's
        # gates are all released before its pool shuts down.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        max_batch=st.integers(1, 16),
        requests=st.lists(
            st.tuples(
                st.sampled_from(["predict", "stream"]),
                st.integers(1, 12),  # rows
                st.booleans(),  # free the inference thread first
                st.integers(0, 2),  # loop ticks before submitting
            ),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_fused_rows_equal_dedicated_runs(
        self, gate, max_batch, requests, seed
    ):
        rng = np.random.default_rng(seed)
        batches = []  # (kind, request id of every row), in run order

        def predict(batch):
            return np.sin(batch) * 3.0 + batch[:, :1]

        def runner(batch):
            batches.append(("predict", batch[:, 0].tolist()))
            return predict(batch)

        def stream_runner(states, chunks):
            ids = np.concatenate([chunk[:, 0] for chunk in chunks])
            batches.append(("stream", ids.tolist()))
            return push_running_sums(states, chunks)

        # Column 0 carries the request id; the rest is payload.
        payloads = []
        for i, (_, n_rows, _, _) in enumerate(requests):
            rows = rng.normal(size=(n_rows, 3))
            rows[:, 0] = i
            payloads.append(rows)

        async def scenario(pool):
            held = gate(pool)
            batcher = MicroBatcher(
                runner,
                max_batch=max_batch,
                executor=pool,
                stream_runner=stream_runner,
            )
            futures = []
            for (kind, _, release, pause), rows in zip(requests, payloads):
                if release:
                    held.release()
                    held = gate(pool)
                await ticks(pause)
                submit = (
                    batcher.submit(rows)
                    if kind == "predict"
                    else batcher.submit_stream(RunningSum(3), rows)
                )
                futures.append(asyncio.ensure_future(submit))
            held.release()
            return await asyncio.gather(*futures)

        with ThreadPoolExecutor(max_workers=1) as pool:
            outs = run(scenario(pool))

        for (kind, _, _, _), rows, out in zip(requests, payloads, outs):
            if kind == "predict":
                alone = predict(rows)
            else:
                alone = push_running_sums([RunningSum(3)], [rows])[0]
            assert np.array_equal(out, alone)
        for kind in ("predict", "stream"):
            # Every request ran exactly once, in arrival order.
            ran = [i for k, ids in batches if k == kind for i in ids]
            assert ran == [
                i
                for i, (k, n_rows, _, _) in enumerate(requests)
                if k == kind
                for _ in range(n_rows)
            ]
        for _, ids in batches:
            assert len(ids) <= max_batch or len(set(ids)) == 1
