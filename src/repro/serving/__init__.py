"""Serving front-end: the engine as a many-client network service.

The frozen runtime (:mod:`repro.runtime`) executes one call at a time;
this package gives it a front door:

* :mod:`repro.serving.protocol` — a length-prefixed JSON + ``.npy``
  frame protocol over asyncio streams and blocking sockets; the one
  module that knows the error-frame format (exception ⇄ error code)
  and the "send one frame, await one frame" round trip every client of
  the protocol uses,
* :mod:`repro.serving.connection` —
  :class:`~repro.serving.connection.FrameServer`, the connection loop,
  drain and signal-to-exit lifecycle shared by :class:`InferenceServer`
  and :class:`~repro.router.RouterServer`,
* :mod:`repro.serving.batcher` — :class:`MicroBatcher`, aggregating
  concurrent requests into fused batches (flushes at ``max_batch``
  rows or after ``max_wait_ms``) in arrival order, with deadline
  expiry (:class:`DeadlineExpired`) and the route's row bound
  (``max_queue_rows``): over-bound requests are shed with the typed
  :class:`~repro.exceptions.Overloaded` error carrying a
  ``retry_after_ms`` hint,
* :mod:`repro.serving.server` — :class:`InferenceServer`, the asyncio
  TCP server over a :class:`~repro.engine.Engine`: one batcher per
  (model, precision) route, all fused batches on a dedicated
  inference thread, responses streamed zero-copy, open streams held
  to ``max_streams`` / ``max_stream_state_bytes``,
* :mod:`repro.serving.client` — :class:`ServeClient` (blocking) and
  :class:`AsyncServeClient` (asyncio), two I/O flavors of one core that
  holds every retry, idempotency and stream rule; optional per-request
  ``model`` / ``precision`` / ``deadline_ms`` fields,
  connect/read timeouts, and bounded retry with exponential backoff
  honoring the server's ``retry_after_ms``; the ``stream()`` methods
  return :class:`Stream` / :class:`AsyncStream` handles for stateful
  incremental inference (``stream_open`` / ``stream_push`` /
  ``stream_close`` ops — see ``docs/streaming.md``).

Entry points: ``repro serve`` on the command line,
:meth:`repro.engine.Engine.serve` from code, or construct
:class:`InferenceServer` around an engine directly for an in-process
server (as the tests and benchmarks do).  Fault-tolerance behavior
(error codes, drain, shedding) is documented in
``docs/robustness.md``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "..exceptions": [
            "DeadlineExpired", "Overloaded", "ServerUnavailable",
            "StreamBroken",
        ],
        ".batcher": ["MicroBatcher"],
        ".client": [
            "AsyncServeClient", "AsyncStream", "ServeClient", "Stream",
        ],
        ".protocol": ["DEFAULT_PORT"],
        ".server": ["InferenceServer"],
    },
)
