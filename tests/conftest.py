"""Shared fixtures for the test suite."""

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
