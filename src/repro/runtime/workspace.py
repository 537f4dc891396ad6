"""Per-plan workspace arenas for allocation-free steady-state inference.

A frozen plan runs the same op list on every call; the only thing that
varies between calls is the batch size.  :class:`Workspace` exploits
that: each op stages its intermediates in named slots keyed by the
*bucketed* batch size, so after the first call at a given bucket the
plan touches no allocator at all — every buffer is reused and ragged
batches run on leading-axis views of the bucket buffer.

Bitwise contract: arena buffers only change *where* results live, never
how they are computed.  Ops write into slots with ``np.matmul(...,
out=...)`` / ``np.copyto`` and in-place ufuncs whose float semantics
are identical to their out-of-place forms, so the arena path is
bitwise-equal to the fresh-allocation path (asserted by
``tests/runtime/test_arena.py``).

Slots are *op-private*: plan builders prefix slot names with a unique
per-op token, so two ops (or two plans sharing a worker pool — each
plan binds its own :class:`Workspace`) can never alias each other's
buffers.  Zero-filled slots (:meth:`Workspace.zeros`) are zeroed once
at allocation; callers rely on pad regions they never write staying
zero, which holds exactly because each slot has a single writer that
always writes the same region for a given buffer shape.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import shift_right

__all__ = ["DEFAULT_BATCH_BUCKETS", "Workspace"]

#: Batch sizes the arena preallocates for.  Requests round *up* to the
#: smallest bucket (ragged tails run on views); batches beyond the last
#: bucket fall back to exact-size buffers, which are still cached and
#: reused when the same large batch repeats (the serving MicroBatcher
#: fuses to bounded batches, so in practice everything lands in-bucket).
DEFAULT_BATCH_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Workspace:
    """A named-slot buffer arena keyed by (slot, shape, dtype).

    One :class:`Workspace` belongs to exactly one thread of exactly one
    plan — executors create them per thread — so ``get`` needs no
    locking.
    """

    __slots__ = ("_buckets", "_buffers")

    def __init__(self, buckets: tuple[int, ...] | None = None) -> None:
        if buckets is None:
            buckets = DEFAULT_BATCH_BUCKETS
        buckets = tuple(sorted({int(b) for b in buckets}))
        if not buckets or buckets[0] < 1:
            raise ValueError(f"batch buckets must be positive: {buckets!r}")
        self._buckets = buckets
        self._buffers: dict[tuple, np.ndarray] = {}

    @property
    def buckets(self) -> tuple[int, ...]:
        return self._buckets

    def bucket(self, n: int) -> int:
        """Round a batch size up to the smallest covering bucket.

        Sizes beyond the largest bucket are returned exactly — the
        buffer cache still reuses them on repeat calls.
        """
        for b in self._buckets:
            if b >= n:
                return b
        return n

    def get(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised reusable buffer for ``slot`` at ``shape``."""
        key = (slot, shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, dtype=dtype)
        return buf

    def zeros(self, slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Like :meth:`get` but zero-filled *at allocation only*.

        The caller owns keeping its pad region zero: the slot's single
        writer must never write outside the data region it reads back.
        """
        key = (slot, shape, np.dtype(dtype).str, "z")
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.zeros(shape, dtype=dtype)
        return buf

    def left_taps(self, x: np.ndarray, dilation: int) -> np.ndarray:
        """The rows ``x[t - dilation]`` a causal two-tap op reads: a
        session runs whole sequences, so the history before ``t = 0``
        is zeros (a stream push answers from its state instead)."""
        return shift_right(x, dilation)

    def stats(self) -> dict:
        """Buffer count and resident bytes, for profiling output."""
        return {
            "buffers": len(self._buffers),
            "nbytes": int(sum(b.nbytes for b in self._buffers.values())),
            "buckets": self._buckets,
        }

    def clear(self) -> None:
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return f"Workspace(buffers={s['buffers']}, nbytes={s['nbytes']})"
