"""Stateful low-latency streaming inference over causal sequence models.

Batch serving answers "here is a whole sequence, classify every step";
streaming serving answers "here are the next ``K`` samples of a live
conversation, extend the outputs" — at per-push latencies where
recomputing the whole prefix would blow the budget.  A stream is not a
second model: it is the state kept beside one frozen
:class:`~repro.runtime.session.InferenceSession`, whose own ops a push
runs (the wire protocol, server stream registry and client API live in
:mod:`repro.serving`):

* :func:`compile_stream_plan` — the stream entry point: freezes a
  session and refuses it unless every op is row-wise, so that push
  ``K`` samples, get exactly the new output rows, **bitwise
  identical** to the session's ``predict_proba`` over the concatenated
  sequence at the same precision (see :mod:`repro.runtime.session` for
  why parity is structural),
* :class:`StreamState` — the per-conversation carry: one
  ``(dilation, channels)`` history buffer per ``fft1d`` op, with exact
  byte accounting the server budgets against.

``InferenceSession.push_many`` is the cross-stream fusion primitive the
server's micro-batcher drives: many streams' pending chunks, one run of
each op, per-stream rows scattered back out — bitwise unchanged at the
same precision, because ``seq_matmul`` is row-stable.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "..runtime.session": ["compile_stream_plan"],
        ".state": ["StreamState"],
    },
)
