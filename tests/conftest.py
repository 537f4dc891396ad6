"""Shared fixtures for the test suite."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for independent seeded generators."""

    def make(seed: int = 0):
        return np.random.default_rng(seed)

    return make


@pytest.fixture
def served_reference():
    """What a request served alone must equal bitwise.

    For a threaded executor the server splits a fused batch of at least
    ``2 * workers`` rows into ``ceil(rows / workers)``-row chunks, and
    chunked execution is bitwise-equal to serial *at the same chunk
    boundaries*.  (Against a one-shot serial call only 1e-12 holds: BLAS
    picks kernels by shape, so a row's last bit can depend on its
    batch-mates.)  ``reference(engine, serial, x)`` is the ``serial``
    session's answer at those boundaries, whatever executor ``engine``
    resolved to — ``REPRO_EXECUTOR`` included.
    """

    def reference(engine, serial, x):
        workers = engine.executor_info()["workers"]
        rows = x.shape[0]
        chunked = workers > 1 and rows >= 2 * workers
        return serial.predict_proba(
            x, batch_size=-(-rows // workers) if chunked else None
        )

    return reference


class Gate:
    """Holds a single-thread executor on a :class:`threading.Event`.

    Everything submitted to ``executor`` after the gate queues behind
    it until :meth:`release`: a batch the batcher hands to the held
    executor (a ``MicroBatcher(executor=...)`` or a server's
    ``_infer_thread``) stays in flight, with no timer involved.  The
    hold gives up after ``limit_s`` so a test failing before its
    release ends instead of hanging the server's shutdown.
    """

    def __init__(self, executor, limit_s: float = 30.0):
        self.executor = executor
        self._event = threading.Event()
        executor.submit(self._event.wait, limit_s)

    def release(self) -> None:
        self._event.set()

    @staticmethod
    async def until(predicate, timeout: float = 5.0) -> None:
        """Yield to the event loop until ``predicate()`` holds."""
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            await asyncio.sleep(0.001)


@pytest.fixture
def gate():
    """``gate(executor=None)`` holds ``executor`` (a fresh single-thread
    pool when None) and returns its :class:`Gate`.  Every gate is
    released, and every pool it made shut down, at teardown."""
    gates, pools = [], []

    def hold(executor=None) -> Gate:
        if executor is None:
            executor = ThreadPoolExecutor(max_workers=1)
            pools.append(executor)
        gates.append(Gate(executor))
        return gates[-1]

    yield hold
    for held in gates:
        held.release()
    for pool in pools:
        pool.shutdown(wait=True)
