"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible or unsupported shape."""


class BackendError(ReproError, ValueError):
    """An unknown or unavailable FFT backend was requested."""


class ParseError(ReproError, ValueError):
    """An architecture string, parameter file, or input file is malformed."""


class DeploymentError(ReproError, RuntimeError):
    """A deployment artifact is inconsistent or cannot be executed."""


class ConfigurationError(ReproError, ValueError):
    """A layer, model, or simulator was configured with invalid settings."""


class ServingError(ReproError, RuntimeError):
    """A serving request failed or the wire protocol was violated."""


class Overloaded(ServingError):
    """The server shed this request: queue full or rate limit exceeded.

    ``retry_after_ms`` is the server's hint for when capacity is likely
    back (``None`` when the server offered none); clients back off at
    least that long before retrying.  Travels on the wire as an error
    frame with ``code="overloaded"``.
    """

    def __init__(self, message: str, retry_after_ms: float | None = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServerUnavailable(ServingError):
    """The server cannot be reached, hung up mid-frame, or is draining.

    Raised by clients on connect/read timeouts and dropped connections
    (retryable: the request never completed), and carried on the wire
    as ``code="server_unavailable"`` when a draining server refuses new
    work.
    """


class DeadlineExpired(ServingError):
    """A request's deadline passed before its fused batch ran.

    Never retried — a deadline that expired once is no less expired on
    a replay.  Travels on the wire as ``code="deadline_expired"``.
    """


class StreamBroken(ServingError):
    """A stream died mid-conversation and cannot be transparently resumed.

    ``stream_push`` is not idempotent — the server may have applied a
    push whose reply was lost, so replaying it would corrupt the
    stream's position.  When the connection carrying a stream drops (or
    the backend behind a router dies), clients therefore raise this
    instead of reconnect-and-replay; the caller must open a fresh stream
    and re-feed whatever suffix it still holds.  ``pushed`` is the
    number of samples the client knows the server acknowledged.
    """

    def __init__(self, message: str, pushed: int = 0):
        super().__init__(message)
        self.pushed = pushed


class PipelineError(ReproError, RuntimeError):
    """A build-pipeline stage failed or was run out of order."""


def require_count(name: str, value):
    """Return ``value`` if it is an ``int`` (not a ``bool``) ``>= 1``.

    The one check behind every count-valued limit (batch, queue,
    stream, payload and thread bounds).  A comparison alone lets NaN,
    floats and ``True`` through, and a NaN bound compares false both
    ways, silently disabling it.  Raises :class:`ConfigurationError`,
    which is also a :class:`ValueError`.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(
            f"{name} must be >= 1 (an int, not a bool), got {value!r}"
        )
    return value
