"""Micro-batch aggregation for the asyncio serving front-end.

Concurrent clients each send small row batches; running every request
through the session alone wastes the engine's batch efficiency (the
frequency-domain GEMMs amortize the per-call FFT and dispatch cost over
rows).  :class:`MicroBatcher` closes the gap: requests accumulate until
either ``max_batch`` rows are pending or the oldest request has waited
``max_wait_ms``, then the whole group runs as one concatenated batch
and each caller gets back exactly its own rows.

Requests carry two scheduling fields beyond their rows:

* ``priority`` (higher = more urgent): at flush time the pending group
  is ordered by priority before fusing, so under saturation the
  highest-priority requests land in the earliest fused batches — a
  low-priority bulk scan cannot starve an interactive request that
  arrived in the same window.
* ``deadline_ms``: a request whose deadline has already passed when its
  flush runs gets an error immediately instead of occupying fused-batch
  rows (its caller stopped listening; spending engine time on it only
  delays live requests).  A pending deadline also pulls the flush timer
  earlier than ``max_wait_ms`` would fire, giving tight-deadline
  requests a chance to run in time.

The batcher is single-loop asyncio code: ``submit`` must be awaited on
the event loop, flushing happens via ``call_later``, and the actual
inference runs either inline (``executor=None``; simple and
deterministic for tests) or on a caller-supplied
:class:`concurrent.futures.Executor` — the server passes a
single-thread pool, which keeps the event loop responsive *and*
serializes access to the inference session.

Admission control: with ``limits``
(:class:`~repro.serving.resilience.QueueLimits`), ``submit`` counts the
route's *in-flight* rows — queued plus running, released only when a
request's future resolves — and sheds with
:class:`~repro.exceptions.Overloaded` when admitting a request would
exceed the route cap or its priority class's cap.  The attached
``retry_after_ms`` estimates when the backlog will have drained, from
an exponential moving average of recent fused-batch latencies.

Row-wise parity: every plan op is row-independent, so the rows a
request gets back from a fused batch are the same rows a dedicated
batch would produce; the e2e guarantee (server == serial executor,
bitwise at fp64) is asserted by the serving tests.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import DeadlineExpired, Overloaded, ServingError
from .resilience import QueueLimits

__all__ = ["MicroBatcher", "DeadlineExpired"]


@dataclass
class _Pending:
    """One queued request: rows plus its scheduling fields.

    ``state`` distinguishes the two kinds of work the batcher fuses:
    ``None`` for a stateless predict (rows concatenate into one batch
    call) and a :class:`~repro.streaming.StreamState` for a stream push
    (rows are that stream's new samples; the group runs as one
    ``push_many`` fused step).  The two kinds share the queue, the
    flush window, priority ordering, and admission limits, but never
    fuse with each other.
    """

    rows: np.ndarray
    future: asyncio.Future
    priority: int = 0
    deadline: float | None = None  # absolute loop time, None = no deadline
    seq: int = 0  # arrival order; tie-break within a priority level
    state: object | None = None  # StreamState for stream pushes

    sort_key = property(lambda self: (-self.priority, self.seq))


class MicroBatcher:
    """Aggregate row batches and run them through ``runner`` together.

    Parameters
    ----------
    runner:
        ``(rows, features...) -> (rows, outputs...)`` callable; must be
        row-wise aligned with its input (row ``i`` of the output belongs
        to row ``i`` of the input).
    max_batch:
        Flush as soon as this many rows are pending.
    max_wait_ms:
        Flush this many milliseconds after the first pending request
        arrived, even if the batch is not full — bounds the latency a
        lone request pays for batching.  A pending request's deadline
        can pull the flush earlier (never later).
    executor:
        Where ``runner`` runs: ``None`` executes inline on the event
        loop (fine for tests and tiny models); otherwise a
        :class:`concurrent.futures.Executor` (the server uses a
        single-thread pool).
    limits:
        Optional :class:`~repro.serving.resilience.QueueLimits`;
        ``submit`` sheds with :class:`~repro.exceptions.Overloaded`
        when admitting the request would exceed them.  ``None`` (the
        default) admits everything, exactly as before.
    stream_runner:
        ``(states, chunks) -> outputs`` callable for fused stream
        pushes (the route's
        :meth:`~repro.streaming.StreamPlan.push_many`); required before
        the first :meth:`submit_stream`.  Stream pushes wait in the
        same pending window as predicts and obey the same limits, but
        flush as their own fused call.
    """

    def __init__(
        self,
        runner: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        executor=None,
        limits: QueueLimits | None = None,
        stream_runner: Callable | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._runner = runner
        self._stream_runner = stream_runner
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self._executor = executor
        self.limits = limits
        self._pending: list[_Pending] = []
        self._pending_rows = 0
        self._inflight_rows = 0  # queued + running, until futures resolve
        self._inflight_by_level: dict[int, int] = {}
        self._batch_ms_ema: float | None = None  # recent fused-batch latency
        self._seq = 0
        self._timer: asyncio.TimerHandle | None = None
        self._timer_at: float | None = None
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self.stats = {
            "requests": 0,
            "batches": 0,
            "rows": 0,
            "max_batch_rows": 0,
            "expired": 0,
            "shed": 0,
            "stream_batches": 0,
            "stream_rows": 0,
            "fused_streams_max": 0,  # most streams fused into one step
        }

    async def submit(
        self,
        rows: np.ndarray,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Queue ``rows`` and return their outputs once their batch ran.

        ``priority`` orders requests within a flush (higher first);
        ``deadline_ms`` is measured from this call — if the deadline has
        passed when the flush runs, the request fails with
        :class:`DeadlineExpired` instead of running.  With
        :attr:`limits` set, a request that would overflow the route's
        row budget (or its priority class's) is shed immediately with
        :class:`~repro.exceptions.Overloaded` instead of queueing.
        """
        return await self._enqueue(rows, priority, deadline_ms, state=None)

    async def submit_stream(
        self,
        state,
        rows: np.ndarray,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Queue a stream push and return its new output rows.

        ``state`` is the stream's
        :class:`~repro.streaming.StreamState`; ``rows`` are its new
        samples.  Scheduling (flush windows, priority, deadlines) and
        admission limits are exactly :meth:`submit`'s; at flush time
        every pending push in the window runs as *one* fused
        ``stream_runner`` call across all its streams.  A shed or
        deadline-expired push never touches the stream's state — the
        caller may safely resend the same samples.  The caller must not
        submit the same stream concurrently (the server's per-stream
        busy flag and per-connection sequencing enforce this).
        """
        if self._stream_runner is None:
            raise ServingError("batcher has no stream_runner configured")
        return await self._enqueue(rows, priority, deadline_ms, state=state)

    async def _enqueue(
        self,
        rows: np.ndarray,
        priority: int,
        deadline_ms: float | None,
        state,
    ) -> np.ndarray:
        if self._closed:
            raise ServingError("batcher is closed")
        if rows.ndim < 1 or rows.shape[0] < 1:
            raise ServingError(f"expected at least one row, got shape {rows.shape}")
        if deadline_ms is not None and deadline_ms < 0:
            raise ServingError(f"deadline_ms must be >= 0, got {deadline_ms}")
        n_rows = int(rows.shape[0])
        if self.limits is not None and not self.limits.admits(
            n_rows,
            priority,
            self._inflight_rows,
            self._inflight_by_level.get(priority, 0),
        ):
            self.stats["shed"] += 1
            raise Overloaded(
                f"queue full: {self._inflight_rows} rows in flight "
                f"(limit {self.limits.max_rows})",
                retry_after_ms=self.retry_after_ms(),
            )
        loop = asyncio.get_running_loop()
        self._loop = loop
        deadline = (
            None if deadline_ms is None else loop.time() + deadline_ms / 1000.0
        )
        pending = _Pending(
            rows=rows,
            future=loop.create_future(),
            priority=priority,
            deadline=deadline,
            seq=self._seq,
            state=state,
        )
        self._seq += 1
        self._pending.append(pending)
        self._pending_rows += rows.shape[0]
        self._inflight_rows += n_rows
        self._inflight_by_level[priority] = (
            self._inflight_by_level.get(priority, 0) + n_rows
        )
        pending.future.add_done_callback(
            lambda _f, n=n_rows, level=priority: self._release(n, level)
        )
        self.stats["requests"] += 1
        if self._pending_rows >= self.max_batch:
            self._flush()
        else:
            self._schedule_flush(pending)
        return await pending.future

    def _release(self, n_rows: int, level: int) -> None:
        """Return a resolved request's rows to the admission budget."""
        self._inflight_rows = max(0, self._inflight_rows - n_rows)
        left = self._inflight_by_level.get(level, 0) - n_rows
        if left > 0:
            self._inflight_by_level[level] = left
        else:
            self._inflight_by_level.pop(level, None)

    def retry_after_ms(self) -> float:
        """Estimated ms until the current backlog has drained.

        The flush wait plus one average fused-batch latency per
        ``max_batch`` rows in flight.  Before any batch has run the
        estimate is just the flush wait (clamped to at least 1 ms so
        clients always get a positive hint).
        """
        batch_ms = self._batch_ms_ema or 0.0
        backlog = (self._inflight_rows / self.max_batch) * batch_ms
        return max(1.0, self.max_wait_ms + backlog)

    @property
    def batch_ms_ema(self) -> float:
        """Recent fused-batch latency EMA in ms (0.0 before any batch).

        The same number :meth:`retry_after_ms` builds its drain
        estimate from; exposed so capacity observers (the multi-node
        router's placement policy reads it off ``info.health``) can
        weigh a backend's queue depth by how fast it actually drains.
        """
        return self._batch_ms_ema or 0.0

    def queue_depth(self) -> dict:
        """Backlog snapshot for the server's ``info`` health block.

        ``pending_rows`` / ``inflight_rows`` are the queued-row depth
        (pre-flush and admitted-but-unresolved); ``batch_ms_ema`` is
        the fused-batch latency estimate — together they are the
        capacity signal a front-tier router steers by.
        """
        return {
            "pending_rows": self._pending_rows,
            "inflight_rows": self._inflight_rows,
            "by_level": dict(self._inflight_by_level),
            "batch_ms_ema": self.batch_ms_ema,
            "retry_after_ms": self.retry_after_ms(),
        }

    def _schedule_flush(self, newcomer: _Pending) -> None:
        """(Re)arm the flush timer; deadlines pull it earlier.

        The timer fires at the earliest of: first-arrival +
        ``max_wait_ms`` (the classic bound), or halfway to the
        newcomer's deadline — flushing *before* the deadline passes, so
        a tight-deadline request still runs in time instead of arriving
        at its flush already expired.
        """
        loop = self._loop
        fire_at = (
            loop.time() + self.max_wait_ms / 1000.0
            if self._timer is None
            else self._timer_at
        )
        if newcomer.deadline is not None:
            head_start = (newcomer.deadline - loop.time()) / 2.0
            fire_at = min(fire_at, loop.time() + max(0.0, head_start))
        if self._timer is not None:
            if fire_at >= self._timer_at:
                return  # existing timer is already soon enough
            self._timer.cancel()
        self._timer_at = fire_at
        self._timer = loop.call_at(fire_at, self._flush)

    def _flush(self) -> None:
        """Move the pending group into a running batch task."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_at = None
        if not self._pending:
            return
        group, self._pending, self._pending_rows = self._pending, [], 0
        now = self._loop.time()
        # Deadline hygiene: a request already past its deadline gets its
        # error now and never occupies fused-batch rows.
        live = []
        for pending in group:
            if pending.deadline is not None and now >= pending.deadline:
                self.stats["expired"] += 1
                if not pending.future.done():
                    pending.future.set_exception(
                        DeadlineExpired(
                            f"deadline expired {1e3 * (now - pending.deadline):.1f} ms "
                            "before the batch ran"
                        )
                    )
            else:
                live.append(pending)
        if not live:
            return
        # Priority order: higher classes fuse into the earlier batches.
        live.sort(key=lambda p: p.sort_key)
        task = self._loop.create_task(self._run_group(live))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_group(self, group: list[_Pending]) -> None:
        # Fuse only compatible requests: concatenating mixed dtypes
        # would silently upcast one client's rows (different results
        # than a dedicated batch), and mixed widths would fail the whole
        # group.  Requests that landed in the same flush window but
        # differ run as their own fused batch.  Bucket insertion order
        # follows the priority sort, so the bucket containing the
        # highest-priority request runs first.
        # Stream pushes bucket separately from predicts (first key
        # element): their rows are per-stream suffixes fused via
        # push_many, not batch rows fused via concatenation.
        buckets: dict = {}
        for pending in group:
            key = (
                pending.state is not None,
                str(pending.rows.dtype),
                pending.rows.shape[1:],
            )
            buckets.setdefault(key, []).append(pending)
        for key, bucket in buckets.items():
            if key[0]:
                await self._run_stream_bucket(bucket)
            else:
                await self._run_bucket(bucket)

    async def _run_bucket(self, bucket: list[_Pending]) -> None:
        started = time.perf_counter()
        try:
            if len(bucket) == 1:
                batch = bucket[0].rows
            else:
                batch = np.concatenate([p.rows for p in bucket], axis=0)
            if self._executor is None:
                outputs = self._runner(batch)
            else:
                outputs = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._runner, batch
                )
        except Exception as exc:
            for pending in bucket:
                if not pending.future.done():
                    pending.future.set_exception(
                        ServingError(f"batch inference failed: {exc}")
                    )
            return
        batch_ms = (time.perf_counter() - started) * 1e3
        self._batch_ms_ema = (
            batch_ms
            if self._batch_ms_ema is None
            else 0.8 * self._batch_ms_ema + 0.2 * batch_ms
        )
        self.stats["batches"] += 1
        self.stats["rows"] += batch.shape[0]
        self.stats["max_batch_rows"] = max(
            self.stats["max_batch_rows"], batch.shape[0]
        )
        start = 0
        for pending in bucket:
            stop = start + pending.rows.shape[0]
            if not pending.future.done():
                pending.future.set_result(outputs[start:stop])
            start = stop

    async def _run_stream_bucket(self, bucket: list[_Pending]) -> None:
        """One fused ``push_many`` step over the bucket's streams."""
        started = time.perf_counter()
        states = [pending.state for pending in bucket]
        chunks = [pending.rows for pending in bucket]
        try:
            if self._executor is None:
                outputs = self._stream_runner(states, chunks)
            else:
                outputs = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._stream_runner, states, chunks
                )
        except Exception as exc:
            for pending in bucket:
                if not pending.future.done():
                    pending.future.set_exception(
                        ServingError(f"stream inference failed: {exc}")
                    )
            return
        batch_ms = (time.perf_counter() - started) * 1e3
        self._batch_ms_ema = (
            batch_ms
            if self._batch_ms_ema is None
            else 0.8 * self._batch_ms_ema + 0.2 * batch_ms
        )
        fused_rows = sum(chunk.shape[0] for chunk in chunks)
        self.stats["batches"] += 1
        self.stats["stream_batches"] += 1
        self.stats["rows"] += fused_rows
        self.stats["stream_rows"] += fused_rows
        self.stats["fused_streams_max"] = max(
            self.stats["fused_streams_max"], len(bucket)
        )
        for pending, out in zip(bucket, outputs):
            if not pending.future.done():
                pending.future.set_result(out)

    async def drain(self) -> None:
        """Flush the pending group and wait for all running batches."""
        self._flush()
        if self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)

    async def aclose(self) -> None:
        """Refuse new work, then drain; idempotent."""
        if self._closed:
            return
        self._closed = True
        await self.drain()

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait_ms}, pending={self._pending_rows})"
        )
