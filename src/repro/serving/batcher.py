"""Micro-batch aggregation for the asyncio serving front-end.

Concurrent clients each send small row batches; running every request
through the session alone wastes the engine's batch efficiency (the
frequency-domain GEMMs amortize the per-call FFT and dispatch cost over
rows).  :class:`MicroBatcher` closes the gap without a timer: it is
work-conserving.  A submit that finds the batcher idle starts its one
worker task; the worker takes the queued requests in arrival order, up
to ``max_batch`` rows, runs them as one concatenated batch, and hands
each caller exactly its own rows.  Whatever arrives while a batch runs
becomes the next batch, so fusion grows with load and a lone request
never waits for company.

A request may carry a ``deadline_ms``: if that deadline has already
passed when the worker takes it, it gets an error immediately instead
of occupying fused-batch rows (its caller stopped listening; spending
engine time on it only delays live requests).

The batcher is single-loop asyncio code: ``submit`` must be awaited on
the event loop, and the actual inference runs either inline
(``executor=None``; simple and deterministic for tests) or on a
caller-supplied :class:`concurrent.futures.Executor` — the server
passes a single-thread pool, which keeps the event loop responsive
*and* serializes access to the inference session.

Admission control: with ``max_queue_rows``, ``submit`` counts the
route's *in-flight* rows — queued plus running, released only when a
request's future resolves — and sheds with
:class:`~repro.exceptions.Overloaded` when admitting a request would
exceed that bound.  The attached ``retry_after_ms`` estimates when the
backlog will have drained, from an exponential moving average of
recent fused-batch latencies.  A request larger than the bound itself
could never be admitted, so it is refused with a plain
:class:`~repro.exceptions.ServingError` instead: not shed, not retried.

Row-wise parity: every plan op is row-independent, so the rows a
request gets back from a fused batch are the rows a dedicated batch
would produce — bitwise when the runner is row-stable at the request's
precision (a row's last bit may otherwise depend on the BLAS kernel
its batch shape picks); the serving tests assert it.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exceptions import (
    DeadlineExpired,
    Overloaded,
    ServingError,
    require_count,
)

__all__ = ["MicroBatcher", "DeadlineExpired"]


@dataclass
class _Pending:
    """One queued request: rows plus its scheduling fields.

    ``state`` distinguishes the two kinds of work the batcher fuses:
    ``None`` for a stateless predict (rows concatenate into one batch
    call) and a :class:`~repro.streaming.StreamState` for a stream push
    (rows are that stream's new samples; the group runs as one
    ``push_many`` fused step).  The two kinds share the queue and the
    row bound, but never fuse with each other.
    """

    rows: np.ndarray
    future: asyncio.Future
    deadline: float | None = None  # absolute loop time, None = no deadline
    state: object | None = None  # StreamState for stream pushes


class MicroBatcher:
    """Aggregate row batches and run them through ``runner`` together.

    Parameters
    ----------
    runner:
        ``(rows, features...) -> (rows, outputs...)`` callable; must be
        row-wise aligned with its input (row ``i`` of the output belongs
        to row ``i`` of the input).
    max_batch:
        Most rows the worker takes into one batch.  It always takes at
        least one request, so a larger request still runs whole.
    executor:
        Where ``runner`` runs: ``None`` executes inline on the event
        loop (fine for tests and tiny models); otherwise a
        :class:`concurrent.futures.Executor` (the server uses a
        single-thread pool).
    max_queue_rows:
        Optional bound on the rows in flight (queued plus running);
        ``submit`` sheds with :class:`~repro.exceptions.Overloaded`
        when admitting the request would exceed it, and refuses a
        request larger than the bound with
        :class:`~repro.exceptions.ServingError`.  ``None`` (the
        default) admits everything.
    stream_runner:
        ``(states, chunks) -> outputs`` callable for fused stream
        pushes (the route session's
        :meth:`~repro.runtime.session.InferenceSession.push_many`); required before
        the first :meth:`submit_stream`.  Stream pushes share the queue
        and the row bound with predicts, but run as their own fused
        call.

    ``max_wait_ms`` is accepted and ignored: there is no batch window.
    """

    def __init__(
        self,
        runner: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 32,
        max_wait_ms=None,
        executor=None,
        max_queue_rows: int | None = None,
        stream_runner: Callable | None = None,
    ):
        self.max_batch = require_count("max_batch", max_batch)
        if max_queue_rows is not None:
            require_count("max_queue_rows", max_queue_rows)
        self._runner = runner
        self._stream_runner = stream_runner
        self._executor = executor
        self.max_queue_rows = max_queue_rows
        self._pending: deque[_Pending] = deque()
        self._pending_rows = 0
        self._inflight_rows = 0  # queued + running, until futures resolve
        self._batch_ms_ema: float | None = None  # recent fused-batch latency
        self._worker: asyncio.Task | None = None
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
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Queue ``rows`` and return their outputs once their batch ran.

        ``deadline_ms`` is measured from this call — if the deadline has
        passed when the worker takes the request, it fails with
        :class:`DeadlineExpired` instead of running.  With
        :attr:`max_queue_rows` set, a request that would overflow the
        route's row bound is shed immediately with
        :class:`~repro.exceptions.Overloaded` instead of queueing, and
        one with more rows than the bound is refused with
        :class:`~repro.exceptions.ServingError`.
        """
        return await self._enqueue(rows, deadline_ms, state=None)

    async def submit_stream(
        self,
        state,
        rows: np.ndarray,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Queue a stream push and return its new output rows.

        ``state`` is the stream's
        :class:`~repro.streaming.StreamState`; ``rows`` are its new
        samples.  Scheduling (arrival order, deadlines) and the row
        bound are exactly :meth:`submit`'s; every push the worker takes
        into one batch runs as *one* fused ``stream_runner`` call
        across all its streams.  A shed or deadline-expired push never
        touches the stream's state — the caller may safely resend the
        same samples.  The caller must not submit the same stream
        concurrently (the server's per-stream busy flag and
        per-connection sequencing enforce this).
        """
        if self._stream_runner is None:
            raise ServingError("batcher has no stream_runner configured")
        return await self._enqueue(rows, deadline_ms, state=state)

    async def _enqueue(
        self, rows: np.ndarray, deadline_ms: float | None, state
    ) -> np.ndarray:
        if self._closed:
            raise ServingError("batcher is closed")
        if rows.ndim < 1 or rows.shape[0] < 1:
            raise ServingError(f"expected at least one row, got shape {rows.shape}")
        if deadline_ms is not None and not (
            math.isfinite(deadline_ms) and deadline_ms >= 0
        ):
            raise ServingError(
                f"deadline_ms must be a finite number >= 0, got {deadline_ms}"
            )
        n_rows = int(rows.shape[0])
        bound = self.max_queue_rows
        if bound is not None and n_rows > bound:
            raise ServingError(
                f"request of {n_rows} rows exceeds the route's bound of "
                f"{bound} rows in flight"
            )
        if bound is not None and self._inflight_rows + n_rows > bound:
            self.stats["shed"] += 1
            raise Overloaded(
                f"queue full: {self._inflight_rows} rows in flight "
                f"(limit {self.max_queue_rows})",
                retry_after_ms=self.retry_after_ms(),
            )
        loop = asyncio.get_running_loop()
        deadline = (
            None if deadline_ms is None else loop.time() + deadline_ms / 1000.0
        )
        pending = _Pending(
            rows=rows,
            future=loop.create_future(),
            deadline=deadline,
            state=state,
        )
        self._pending.append(pending)
        self._pending_rows += n_rows
        self._inflight_rows += n_rows
        pending.future.add_done_callback(
            lambda _f, n=n_rows: self._release(n)
        )
        self.stats["requests"] += 1
        if self._worker is None:
            # A task, not an inline call: requests submitted in this
            # same loop tick queue before the worker's first take.
            self._worker = loop.create_task(self._work())
        return await pending.future

    def _release(self, n_rows: int) -> None:
        """Return a resolved request's rows to the admission budget."""
        self._inflight_rows = max(0, self._inflight_rows - n_rows)

    def retry_after_ms(self) -> float:
        """Estimated ms until the current backlog has drained.

        One average fused-batch latency per ``max_batch`` rows in
        flight, clamped to at least 1 ms so clients always get a
        positive hint (also before any batch has run).
        """
        batch_ms = self._batch_ms_ema or 0.0
        return max(1.0, self._inflight_rows / self.max_batch * batch_ms)

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
        (not yet taken by the worker, and admitted-but-unresolved);
        ``batch_ms_ema`` is the fused-batch latency estimate — together
        they are the capacity signal a front-tier router steers by.
        """
        return {
            "pending_rows": self._pending_rows,
            "inflight_rows": self._inflight_rows,
            "batch_ms_ema": self.batch_ms_ema,
            "retry_after_ms": self.retry_after_ms(),
        }

    async def _work(self) -> None:
        """Run batches until the queue is empty, then retire."""
        try:
            while self._pending:
                group = self._take()
                if group:
                    await self._run_group(group)
        finally:
            self._worker = None

    def _take(self) -> list[_Pending]:
        """The next batch: queued requests in arrival order, up to
        ``max_batch`` rows and at least one request.

        Deadline hygiene: a request already past its deadline gets its
        error here and never occupies fused-batch rows.
        """
        now = asyncio.get_running_loop().time()
        group: list[_Pending] = []
        rows = 0
        while self._pending:
            pending = self._pending[0]
            n_rows = pending.rows.shape[0]
            if group and rows + n_rows > self.max_batch:
                break
            self._pending.popleft()
            self._pending_rows -= n_rows
            if pending.deadline is not None and now >= pending.deadline:
                self.stats["expired"] += 1
                if not pending.future.done():
                    pending.future.set_exception(
                        DeadlineExpired(
                            f"deadline expired {1e3 * (now - pending.deadline):.1f} ms "
                            "before the batch ran"
                        )
                    )
                continue
            group.append(pending)
            rows += n_rows
        return group

    async def _run_group(self, group: list[_Pending]) -> None:
        # Fuse only compatible requests: concatenating mixed dtypes
        # would silently upcast one client's rows (different results
        # than a dedicated batch), and mixed widths would fail the whole
        # group.  Requests taken together but differing run as their
        # own fused batch, in order of each bucket's first arrival.
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

    def _record_batch_ms(self, started: float) -> None:
        batch_ms = (time.perf_counter() - started) * 1e3
        self._batch_ms_ema = (
            batch_ms
            if self._batch_ms_ema is None
            else 0.8 * self._batch_ms_ema + 0.2 * batch_ms
        )

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
        self._record_batch_ms(started)
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
        self._record_batch_ms(started)
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
        """Wait until the worker has run everything queued."""
        if self._worker is not None:
            await asyncio.wait({self._worker})

    async def aclose(self) -> None:
        """Refuse new work, then drain; idempotent."""
        if self._closed:
            return
        self._closed = True
        await self.drain()

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"pending={self._pending_rows})"
        )
