"""Per-stream state: the history each causal tap needs between pushes.

A frozen :class:`~repro.runtime.session.InferenceSession` is stateless
and shared; all per-conversation memory lives in a :class:`StreamState`
— one small ``(dilation, channels)`` history buffer per ``fft1d`` op of
the session,
holding the last ``dilation`` *inputs* that op saw.  That is the entire
carry: a causal two-tap layer ``y[t] = W_r x[t] + W_l x[t-d] + b``
needs exactly the previous ``d`` samples to extend its output, and
pointwise / elementwise ops need nothing.  ``state_bytes`` is therefore
fixed per session and known before any data arrives, which is what lets
the server admit or shed ``stream_open`` against a hard memory budget
up front.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.session import InferenceSession

__all__ = ["StreamState"]


class StreamState:
    """The mutable per-stream carry for one frozen session.

    ``buffers[i]`` is the history buffer for the session's op ``i`` —
    a ``(dilation, in_channels)`` array (the op's ``state_shape``) of
    that op's last inputs for ``fft1d`` ops, ``None`` for stateless
    ops.  Buffers start zeroed, matching the batch plan's causal zero
    padding (``x[t] = 0`` for
    ``t < 0``), so a fresh stream reproduces the batch plan from sample
    zero.  ``samples`` counts pushed samples; ``pushes`` counts push
    calls (both feed the server's stream stats).
    """

    __slots__ = ("session", "buffers", "samples", "pushes")

    def __init__(self, session: "InferenceSession"):
        self.session = session
        self.buffers: list[np.ndarray | None] = [
            None
            if op.state_shape is None
            else np.zeros(op.state_shape, dtype=session.policy.real_dtype)
            for op in session.ops
        ]
        self.samples = 0
        self.pushes = 0

    @property
    def state_bytes(self) -> int:
        """Bytes of history this stream holds (fixed for a given session)."""
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
