"""MicroBatcher: flush triggers, splitting, arrival order, deadlines, errors."""

import asyncio

import numpy as np
import pytest

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


class TestFlushTriggers:
    def test_full_batch_flushes_without_waiting(self, rng):
        runner = RecordingRunner()

        async def scenario():
            # max_wait far beyond the test budget: only the row-count
            # trigger can flush.
            batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=60_000)
            rows = rng.normal(size=(4, 3))
            out = await asyncio.wait_for(batcher.submit(rows), timeout=5)
            assert np.array_equal(out, rows * 2.0)

        run(scenario())
        assert len(runner.batches) == 1

    def test_partial_batch_flushes_on_max_wait(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=1000, max_wait_ms=10)
            rows = rng.normal(size=(2, 3))
            submitted = asyncio.get_running_loop().time()
            future = asyncio.ensure_future(batcher.submit(rows))
            await asyncio.sleep(0)
            # Queued behind the max_wait timer, not flushed at once.
            assert runner.batches == []
            assert batcher._timer_at >= submitted + 0.010
            out = await asyncio.wait_for(future, timeout=5)
            assert np.array_equal(out, rows * 2.0)

        run(scenario())
        assert len(runner.batches) == 1

    def test_concurrent_submissions_fuse_into_one_batch(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=6, max_wait_ms=1000)
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


class TestSplitting:
    def test_each_request_gets_exactly_its_rows(self, rng):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
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
            batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=1000)
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
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
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
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
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
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
            a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 3))
            await asyncio.gather(batcher.submit(a), batcher.submit(b))

        run(scenario())
        assert len(runner.batches) == 1
        assert runner.batches[0].shape == (5, 3)


class TestArrivalOrder:
    def test_rows_fuse_in_arrival_order(self):
        runner = RecordingRunner()

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
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
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=10)
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
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
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
            batcher = MicroBatcher(runner, max_batch=100, max_wait_ms=5)
            with pytest.raises(DeadlineExpired):
                await batcher.submit(rng.normal(size=(2, 3)), deadline_ms=0)

        run(scenario())
        assert runner.batches == []

    def test_tight_deadline_pulls_flush_before_max_wait(self, rng):
        runner = RecordingRunner()

        async def scenario():
            # max_wait alone would sit for a minute; the deadline must
            # pull the flush early enough for the request to make it.
            batcher = MicroBatcher(runner, max_batch=1000, max_wait_ms=60_000)
            rows = rng.normal(size=(2, 3))
            future = asyncio.ensure_future(
                batcher.submit(rows, deadline_ms=500)
            )
            await asyncio.sleep(0)
            # The timer sits at the deadline's midpoint, not at max_wait.
            now = asyncio.get_running_loop().time()
            assert batcher._timer_at - now <= 0.25
            out = await asyncio.wait_for(future, timeout=5)
            assert np.array_equal(out, rows * 2.0)

        run(scenario())
        assert len(runner.batches) == 1  # it ran — nothing expired

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
            batcher = MicroBatcher(runner, max_batch=4, max_wait_ms=5)
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
            batcher = MicroBatcher(broken, max_batch=4, max_wait_ms=1000)
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

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: b, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: b, max_wait_ms=-1)
