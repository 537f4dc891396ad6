"""Plan executors: the *how* of running a frozen op plan.

:mod:`repro.runtime.plan` compiles a model into a flat list of
:class:`~repro.runtime.plan.PlanOp` steps, each with one body,
``run(x, ws)``; this module decides which thread runs them.  Every
executor runs every op against the calling thread's own workspace arena
— there is no fresh-buffer mode to choose.  There are two ways:

* :class:`SerialExecutor` — one op after another in the calling
  thread.  Zero overhead, always available.
* :class:`ThreadedExecutor` — the same serial loop, with the pre-chunked
  batches of a ``predict`` fanned whole across an in-process thread
  pool.  Each thread runs the full plan on exactly the chunks the serial
  streaming path would process, and outputs are concatenated in chunk
  order, so the result is bitwise-identical to serial execution at the
  same ``batch_size``.  The hot kernels (freq-major batched complex
  GEMMs, packed rFFTs) are numpy calls that release the GIL, so chunks
  genuinely overlap on real cores with no serialization of any kind.

A threaded session compiles exactly the plan a serial session compiles;
the only thing the executor choice changes is which thread runs a chunk.
``docs/performance.md`` records when that wins (large batches) and when
it does not (per-image calls, and small FC batches).

**One shared pool.**  A :class:`ThreadWorkerPool` is a lock-guarded,
lazily-started :class:`~concurrent.futures.ThreadPoolExecutor`.  Pass
one as ``pool=`` to every route's :class:`ThreadedExecutor` and an
engine with M models × P precisions holds ``threads`` threads, not
``M * P`` pools; without it the executor owns a private pool.

**Profiling.**  Every executor accepts ``profile=True`` and then records
per-op-kind cumulative nanoseconds (``bc_linear``, ``bc_conv``,
``linear``, …) for each executed op; :meth:`PlanExecutor.op_stats`
returns the counters and the serving ``info`` op surfaces them per
route — so the serial/threaded choice is tunable from measurement.

Executors are bound to exactly one plan (``bind``); the
:class:`~repro.runtime.session.InferenceSession` façade does this at
construction and releases the executor with the session.  ``close`` is
idempotent.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .plan import PlanOp
from .workspace import DEFAULT_BATCH_BUCKETS, Workspace

__all__ = [
    "PlanExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ThreadWorkerPool",
    "effective_cpu_count",
]


def effective_cpu_count() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the host; a container pinned to one core
    of a 64-core machine still sees 64.  ``sched_getaffinity`` reports
    the schedulable set, which is what thread parallelism can really
    use — benchmarks record both so the numbers stay honest.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


class PlanExecutor:
    """Strategy interface for executing a frozen plan.

    ``bind`` attaches the executor to exactly one plan (a sequence of
    :class:`PlanOp`) — rebinding raises, because a session that handed
    its plan to an executor must never silently start executing another
    session's ops; ``run`` executes one batch; ``map_batches`` executes
    a list of pre-chunked batches and returns per-chunk outputs in
    order.  ``close`` releases any resources (an owned thread pool).

    ``profile=True`` arms per-op timing: every executed op adds its
    wall nanoseconds to a per-op-kind counter (the kind is the op name
    up to its ``(`` — fused variants of a layer aggregate under one
    key).  Counters accumulate *per thread* — the hot path
    touches no shared state and no lock — and :meth:`op_stats` merges
    the per-thread stores on read, so threaded executors profile safely
    and contention-free.

    Every executing thread lazily builds a private
    :class:`~repro.runtime.workspace.Workspace` (at
    :data:`~repro.runtime.workspace.DEFAULT_BATCH_BUCKETS`) and the
    inner loop runs each op's one body, ``op.run(x, ws)``, against it.
    The result of a batch is always copied out before returning: the
    next call reuses every slot, so nothing escaping the executor may
    alias one.
    """

    _ops: list[PlanOp] | None = None

    def __init__(self, profile: bool = False):
        self.profile = bool(profile)
        self._state_lock = threading.Lock()
        self._op_stores: list[dict[str, list[int]]] = []
        self._workspaces: list[Workspace] = []
        self._tls = threading.local()

    def bind(self, ops: Sequence[PlanOp]) -> "PlanExecutor":
        if self._ops is not None:
            raise RuntimeError(
                "executor is already bound to a plan; "
                "use one executor per session"
            )
        self._ops = list(ops)
        return self

    def _record_op(self, name: str, ns: int) -> None:
        store = getattr(self._tls, "op_ns", None)
        if store is None:
            store = {}
            with self._state_lock:
                self._op_stores.append(store)
            self._tls.op_ns = store
        kind = name.split("(", 1)[0]
        cell = store.get(kind)
        if cell is None:
            store[kind] = [1, ns]
        else:
            cell[0] += 1
            cell[1] += ns

    def _workspace(self) -> Workspace:
        """This thread's arena (lazily built)."""
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            ws = Workspace()
            with self._state_lock:
                self._workspaces.append(ws)
            self._tls.ws = ws
        return ws

    def _run_ops(self, x: np.ndarray) -> np.ndarray:
        """The serial inner loop every executor runs a batch through,
        with per-op timing when profiling is armed."""
        ws = self._workspace()
        if not self.profile:
            for op in self._ops:
                x = op.run(x, ws)
        else:
            for op in self._ops:
                start = time.perf_counter_ns()
                x = op.run(x, ws)
                self._record_op(op.name, time.perf_counter_ns() - start)
        # The result may live in an arena slot (or be a view of one) that
        # the next call overwrites, so it always escapes as a copy.
        return x.copy()

    def op_stats(self) -> dict:
        """Per-op-kind cumulative timings: ``{kind: {calls, total_ns}}``.

        Empty until ``profile=True`` and at least one op has run.
        Merges the per-thread stores on read.  The serving ``info`` op
        surfaces this per route; ``repro predict --profile`` prints it.
        """
        with self._state_lock:
            stores = list(self._op_stores)
        merged: dict[str, list[int]] = {}
        for store in stores:
            # Owner threads append concurrently; snapshotting can lose
            # the race against a brand-new kind — retry, never block
            # the hot path with a lock.
            for _ in range(8):
                try:
                    snapshot = dict(store)
                    break
                except RuntimeError:
                    continue
            else:  # pragma: no cover - pathological contention
                snapshot = {}
            for kind, (calls, total) in snapshot.items():
                cell = merged.setdefault(kind, [0, 0])
                cell[0] += calls
                cell[1] += total
        return {
            kind: {"calls": calls, "total_ns": total}
            for kind, (calls, total) in sorted(merged.items())
        }

    def reset_op_stats(self) -> None:
        with self._state_lock:
            for store in self._op_stores:
                store.clear()

    def arena_info(self) -> dict:
        """Arena buckets and resident-buffer footprint across threads."""
        with self._state_lock:
            stats = [ws.stats() for ws in self._workspaces]
        return {
            "buckets": DEFAULT_BATCH_BUCKETS,
            "workspaces": len(stats),
            "buffers": sum(s["buffers"] for s in stats),
            "nbytes": sum(s["nbytes"] for s in stats),
        }

    def run(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def map_batches(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        return [self.run(chunk) for chunk in chunks]

    def close(self) -> None:
        """Release executor resources; the executor is unusable after."""

    def __enter__(self) -> "PlanExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(PlanExecutor):
    """Run the plan op by op in the calling process (the default)."""

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._run_ops(x)

    def __repr__(self) -> str:
        return "SerialExecutor()"



class ThreadWorkerPool:
    """A lazily-started thread pool shared by any number of executors.

    Every attached :class:`ThreadedExecutor` submits its chunks here, so
    one engine's routes share ``threads`` threads.  ``ensure_started``
    is lock-guarded — two routes starting concurrently cannot race the
    pool into existence twice.
    """

    kind = "thread"

    def __init__(self, threads: int | None = None):
        if threads is None:
            threads = effective_cpu_count()
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def started(self) -> bool:
        return self._pool is not None

    def ensure_started(self) -> "ThreadWorkerPool":
        """Start the thread pool now (idempotent, lock-guarded)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix="repro-exec",
                )
            return self

    def submit(self, fn, *args):
        pool = self._pool
        if pool is None:
            pool = self.ensure_started()._pool
        return pool.submit(fn, *args)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "workers": self.threads,
            "started": self.started,
        }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"ThreadWorkerPool(threads={self.threads}, "
            f"started={self.started})"
        )


class ThreadedExecutor(PlanExecutor):
    """Fan whole ``predict`` chunks across threads in one process.

    Parameters
    ----------
    threads:
        Thread count; defaults to :func:`effective_cpu_count` (or the
        shared pool's size when ``pool`` is given).
    pool:
        A shared :class:`ThreadWorkerPool`; omit for a private pool.
    profile:
        Arm per-op-kind timing (see :meth:`PlanExecutor.op_stats`).

    ``run`` is the serial loop; ``map_batches`` runs that same loop on
    each chunk from a pool thread and returns the outputs in chunk
    order — so results are bitwise-identical to
    :class:`SerialExecutor` at the same chunk boundaries by
    construction.
    """

    def __init__(
        self,
        threads: int | None = None,
        pool: ThreadWorkerPool | None = None,
        profile: bool = False,
    ):
        super().__init__(profile=profile)
        if pool is None:
            pool = ThreadWorkerPool(threads=threads)
            self._owns_pool = True
        else:
            if threads is not None and threads != pool.threads:
                raise ValueError(
                    f"threads={threads} conflicts with the shared pool's "
                    f"{pool.threads}; omit threads when passing pool"
                )
            self._owns_pool = False
        self.pool = pool

    @property
    def threads(self) -> int:
        return self.pool.threads

    #: What the server's auto-chunking and ``executor_info`` read.
    @property
    def workers(self) -> int:
        return self.pool.threads

    def ensure_started(self) -> "ThreadedExecutor":
        """Start the thread pool now (idempotent, lock-guarded)."""
        self.pool.ensure_started()
        return self

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._run_ops(x)

    def map_batches(self, chunks: list[np.ndarray]) -> list[np.ndarray]:
        """Pre-chunked batches across the threads, outputs in chunk order.

        Each thread runs the whole plan on whole chunks — the exact
        chunks the serial streaming path would process — so the
        concatenated result is bitwise identical to serial execution.
        A single chunk stays on the calling thread.
        """
        if len(chunks) < 2:
            return [self._run_ops(chunk) for chunk in chunks]
        futures = [self.pool.submit(self._run_ops, chunk) for chunk in chunks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Detach from the pool (closing it when privately owned)."""
        if self._owns_pool:
            self.pool.close()

    def __repr__(self) -> str:
        return f"ThreadedExecutor(threads={self.threads})"
