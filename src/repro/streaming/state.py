"""Per-stream state: the history each causal tap needs between pushes.

A :class:`~repro.streaming.plan.StreamPlan` is stateless and shared; all
per-conversation memory lives in a :class:`StreamState` — one small
``(dilation, channels)`` history buffer per ``fft1d`` op of the plan,
holding the last ``dilation`` *inputs* that op saw.  That is the entire
carry: a causal two-tap layer ``y[t] = W_r x[t] + W_l x[t-d] + b``
needs exactly the previous ``d`` samples to extend its output, and
pointwise / elementwise ops need nothing.  ``state_bytes`` is therefore
fixed per plan and known before any data arrives, which is what lets
the server admit or shed ``stream_open`` against a hard memory budget
up front.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .plan import StreamPlan

__all__ = ["StreamState"]


class StreamState:
    """The mutable per-stream carry for one :class:`StreamPlan`.

    ``buffers[i]`` is the history buffer for plan op ``i`` — a
    ``(dilation, in_channels)`` array of that op's last inputs for
    ``fft1d`` ops, ``None`` for stateless ops.  Buffers start zeroed,
    matching the batch plan's causal zero padding (``x[t] = 0`` for
    ``t < 0``), so a fresh stream reproduces the batch plan from sample
    zero.  ``samples`` counts pushed samples; ``pushes`` counts push
    calls (both feed the server's stream stats).
    """

    __slots__ = ("plan", "buffers", "samples", "pushes")

    def __init__(self, plan: "StreamPlan"):
        self.plan = plan
        self.buffers: list[np.ndarray | None] = [
            None
            if shape is None
            else np.zeros(shape, dtype=plan.policy.real_dtype)
            for shape in plan.state_shapes
        ]
        self.samples = 0
        self.pushes = 0

    @property
    def state_bytes(self) -> int:
        """Bytes of history this stream holds (fixed for a given plan)."""
        return sum(b.nbytes for b in self.buffers if b is not None)

    def reset(self) -> None:
        """Rewind to sample zero (bitwise-fresh: buffers zeroed)."""
        for buf in self.buffers:
            if buf is not None:
                buf[:] = 0.0
        self.samples = 0
        self.pushes = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamState(samples={self.samples}, pushes={self.pushes}, "
            f"state_bytes={self.state_bytes})"
        )
