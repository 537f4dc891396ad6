"""Wire protocol for the serving front-end: length-prefixed JSON + npy.

Every message — request or response — is one frame:

.. code-block:: text

    u32 header_len | u32 payload_len | header (JSON, UTF-8) | payload

``header`` is a small JSON object (``{"op": "predict", ...}`` on the
way in, ``{"status": "ok", ...}`` on the way out); ``payload`` is a
single array in ``.npy`` format (:func:`numpy.save` without pickle), or
empty for array-free messages (``ping``, ``info``, errors).  The two
fixed-width lengths are big-endian.

Frames are built and parsed once (:func:`frame_chunks`, the length and
header decoders); only the byte moving comes in two forms — over
:mod:`asyncio` streams (both servers, the router's backend pool, the
async client) and over a blocking socket (the sync client) — so a shell
script and an event loop speak the same bytes.  Both sides bound header
and payload sizes before allocating.

**Error frames** are a data format this module alone knows:
:func:`error_header` is what a server answers an exception with,
:func:`check_reply` raises the same typed exception on the client.

**Round trips.**  :func:`roundtrip` / :func:`roundtrip_sync` are "send
one frame, await one frame" for every client of the protocol.  A
transport failure becomes :class:`~repro.exceptions.ServerUnavailable`,
and *any* failure closes the connection before it propagates: a reply
cut short, failing its length or header check, or never arriving leaves
the byte stream where no later read can trust it.

**Zero-copy responses.**  The send side accepts a payload as either
``bytes`` or a *sequence of buffers*; :func:`pack_array_views` renders
an array as ``[npy header bytes, memoryview of the array's own data]``
so the result buffer streams straight into the socket writer — no
intermediate serialized copy on the response hot path (the wire bytes
are identical to :func:`pack_array`).

**No numpy below the codec.**  Only the ``.npy`` codec
(:func:`pack_array`, :func:`pack_array_views`, :func:`unpack_array`)
imports numpy, inside each function.  Frames, headers, banners and
error frames are numpy-free, so the router, which relays payloads as
opaque bytes, never loads numpy (``tests/test_imports.py``).
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import socket
import struct

from ..exceptions import (
    ConfigurationError,
    DeadlineExpired,
    Overloaded,
    ServerUnavailable,
    ServingError,
)

__all__ = [
    "DEFAULT_PORT",
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_PAYLOAD",
    "format_banner",
    "parse_banner",
    "pack_array",
    "pack_array_views",
    "unpack_array",
    "encode_frame",
    "frame_chunks",
    "read_frame",
    "send_frame",
    "open_connection",
    "roundtrip",
    "read_frame_sync",
    "send_frame_sync",
    "roundtrip_sync",
    "error_header",
    "check_reply",
    "string_field",
]

#: Default TCP port for ``repro serve`` (no registered meaning; chosen
#: to stay clear of the common development ports).
DEFAULT_PORT = 7341

MAX_HEADER_BYTES = 1 << 20
DEFAULT_MAX_PAYLOAD = 1 << 28  # 256 MiB of activations per request

_LENGTHS = struct.Struct(">II")

#: The ready banner every serving process prints as its *first* stdout
#: line.  Scripts, the CI smoke jobs, and the router's backend spawner
#: all wait on this line, so its shape is a contract: use
#: :func:`format_banner` to emit it and :func:`parse_banner` to match
#: it instead of hand-rolling the regex.
_BANNER = re.compile(r"serving on (\S+):(\d+)\s*$")


def format_banner(host: str, port: int) -> str:
    """The machine-readable ready line: ``serving on host:port``."""
    return f"serving on {host}:{port}"


def parse_banner(line: str) -> tuple[str, int] | None:
    """``(host, port)`` if ``line`` is a ready banner, else ``None``.

    Matches anywhere in the line is *not* allowed — the banner must be
    the whole line (leading/trailing whitespace tolerated), exactly as
    :func:`format_banner` prints it.
    """
    match = _BANNER.match(line.strip())
    if match is None:
        return None
    return match.group(1), int(match.group(2))


def pack_array(arr: np.ndarray) -> bytes:
    """Serialize one array as ``.npy`` bytes (no pickle)."""
    import numpy as np

    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def pack_array_views(arr: np.ndarray) -> list:
    """``.npy`` bytes as ``[header bytes, zero-copy view of arr's data]``.

    The second element is a :class:`memoryview` over the array's own
    buffer (asserted by the protocol tests via ``np.shares_memory``) —
    writing the two chunks in order produces exactly the bytes of
    :func:`pack_array` without materializing them.  A non-contiguous
    input is compacted first (the one case a copy is unavoidable).
    """
    import numpy as np

    arr = np.ascontiguousarray(arr)
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, np.lib.format.header_data_from_array_1_0(arr)
    )
    return [buf.getvalue(), memoryview(arr).cast("B")]


def _payload_nbytes(payload) -> int:
    # memoryview len() counts first-dimension items, not bytes (an
    # uncast float64 view would under-declare the length prefix and
    # desynchronize the stream) — always measure via nbytes.
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return memoryview(payload).nbytes
    return sum(memoryview(chunk).nbytes for chunk in payload)


def unpack_array(data: bytes) -> np.ndarray:
    """Inverse of :func:`pack_array`; rejects pickled payloads."""
    import numpy as np

    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except Exception as exc:
        raise ServingError(f"malformed array payload: {exc}") from exc


def encode_frame(header: dict, payload=b"") -> bytes:
    """One wire frame: lengths, JSON header, raw payload.

    ``payload`` may be bytes or a sequence of buffers (see
    :func:`pack_array_views`); this convenience always materializes —
    the zero-copy path is :func:`send_frame` / :func:`send_frame_sync`,
    which write the chunks without joining them.
    """
    return b"".join(bytes(chunk) for chunk in frame_chunks(header, payload))


def frame_chunks(header: dict, payload=b"") -> list:
    """The frame as an ordered list of buffers, nothing concatenated."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    chunks = [_LENGTHS.pack(len(header_bytes), _payload_nbytes(payload)),
              header_bytes]
    if isinstance(payload, (bytes, bytearray, memoryview)):
        if memoryview(payload).nbytes:
            chunks.append(payload)
    else:
        chunks.extend(payload)
    return chunks


def _decode_lengths(
    raw: bytes, max_payload: int
) -> tuple[int, int]:
    header_len, payload_len = _LENGTHS.unpack(raw)
    if header_len > MAX_HEADER_BYTES:
        raise ServingError(f"header too large: {header_len} bytes")
    if payload_len > max_payload:
        raise ServingError(
            f"payload too large: {payload_len} bytes (limit {max_payload})"
        )
    return header_len, payload_len


def _decode_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode())
    except Exception as exc:
        raise ServingError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ServingError("frame header must be a JSON object")
    return header


def string_field(header: dict, name: str) -> str | None:
    """``header[name]`` if it is a string, ``None`` if absent; any other
    JSON type is a clean protocol error on every server, never an
    ``internal error`` from deep inside a lookup."""
    value = header.get(name)
    if value is not None and not isinstance(value, str):
        raise ServingError(
            f"{name} header field must be a string, got {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# error frames: exception <-> header, the one place that knows the codes
# ----------------------------------------------------------------------
def error_header(exc: BaseException) -> dict:
    """The error frame header a server answers ``exc`` with.

    Typed failures carry a machine-readable ``code`` so retry logic
    never string-matches messages; deliberate protocol and config
    errors travel uncoded; anything else is an ``internal error``.
    """
    if isinstance(exc, Overloaded):
        # Shed, not failed: the client must back off and retry, so the
        # frame carries the server's retry hint when it offered one.
        header = {"status": "error", "code": "overloaded",
                  "message": str(exc)}
        if exc.retry_after_ms is not None:
            header["retry_after_ms"] = float(exc.retry_after_ms)
        return header
    if isinstance(exc, ServerUnavailable):
        return {"status": "error", "code": "server_unavailable",
                "message": str(exc)}
    if isinstance(exc, DeadlineExpired):
        return {"status": "error", "message": str(exc),
                "code": "deadline_expired"}
    if isinstance(exc, (ServingError, ConfigurationError)):
        return {"status": "error", "message": str(exc)}
    return {"status": "error", "message": f"internal error: {exc}"}


def check_reply(header: dict) -> dict:
    """``header`` if it is an ok reply; else raise the exception it
    encodes — the inverse of :func:`error_header`."""
    if header.get("status") == "ok":
        return header
    message = header.get("message", "request failed")
    code = header.get("code")
    if code == "overloaded":
        raise Overloaded(message, retry_after_ms=header.get("retry_after_ms"))
    if code == "server_unavailable":
        raise ServerUnavailable(message)
    if code == "deadline_expired":
        raise DeadlineExpired(message)
    raise ServingError(message)


# ----------------------------------------------------------------------
# asyncio streams
# ----------------------------------------------------------------------
async def read_frame(
    reader, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[dict, bytes]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Raises :class:`asyncio.IncompleteReadError` on clean EOF between
    frames (callers treat that as the peer hanging up).
    """
    header_len, payload_len = _decode_lengths(
        await reader.readexactly(_LENGTHS.size), max_payload
    )
    header = _decode_header(await reader.readexactly(header_len))
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return header, payload


async def send_frame(writer, header: dict, payload=b"") -> None:
    """Write one frame to an :class:`asyncio.StreamWriter` and drain.

    ``payload`` may be bytes or a sequence of buffers; buffer sequences
    (the server's :func:`pack_array_views` responses) are written chunk
    by chunk — the result array's data goes to the transport with no
    intermediate serialized copy.
    """
    for chunk in frame_chunks(header, payload):
        writer.write(chunk)
    await writer.drain()


async def open_connection(host: str, port: int, timeout: float):
    """``(reader, writer)`` to a frame-protocol peer; an unreachable one
    raises :class:`~repro.exceptions.ServerUnavailable`."""
    try:
        return await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise ServerUnavailable(
            f"cannot connect to {host}:{port}: {exc}"
        ) from exc


async def roundtrip(
    reader,
    writer,
    header: dict,
    payload=b"",
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    timeout: float | None = None,
) -> tuple[dict, bytes]:
    """Send one frame, await one frame; the raw reply, unchecked.

    Error *replies* are returned like any other (:func:`check_reply`
    raises them; the router relays them verbatim).  A failure of the
    round trip itself — timeout, EOF, reset, a reply failing the framing
    checks, cancellation — closes ``writer`` before propagating.
    """
    try:
        try:
            await send_frame(writer, header, payload)
            return await asyncio.wait_for(
                read_frame(reader, max_payload), timeout
            )
        except asyncio.TimeoutError as exc:
            raise ServerUnavailable(f"no response within {timeout}s") from exc
        except asyncio.IncompleteReadError as exc:
            raise ServerUnavailable("connection closed mid-frame") from exc
        except OSError as exc:
            raise ServerUnavailable(f"connection failed: {exc}") from exc
    except BaseException:
        writer.close()
        raise


# ----------------------------------------------------------------------
# blocking sockets (sync client)
# ----------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            # Typed as retryable: the request never completed, so the
            # client's retry loop may replay it on a fresh connection.
            raise ServerUnavailable("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(
    sock: socket.socket, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[dict, bytes]:
    """Read one frame from a blocking socket."""
    header_len, payload_len = _decode_lengths(
        _recv_exactly(sock, _LENGTHS.size), max_payload
    )
    header = _decode_header(_recv_exactly(sock, header_len))
    payload = _recv_exactly(sock, payload_len) if payload_len else b""
    return header, payload


def send_frame_sync(sock: socket.socket, header: dict, payload=b"") -> None:
    """Write one frame to a blocking socket with one vectored send.

    One ``sendmsg`` (looping only on a partial send) makes a small frame
    one segment, not a header segment the peer's delayed ACK can hold
    the payload behind.  The payload's zero-copy view is never joined.
    """
    chunks = frame_chunks(header, payload)
    if not hasattr(sock, "sendmsg"):
        sock.sendall(b"".join(chunks[:2]))
        for chunk in chunks[2:]:
            sock.sendall(chunk)
        return
    views = [memoryview(chunk).cast("B") for chunk in chunks]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if views and sent:
            views[0] = views[0][sent:]


def roundtrip_sync(
    sock: socket.socket,
    header: dict,
    payload=b"",
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> tuple[dict, bytes]:
    """Blocking form of :func:`roundtrip`; same contract, ``sock`` closed
    on any failure.  The read timeout is the socket's own."""
    try:
        try:
            send_frame_sync(sock, header, payload)
            return read_frame_sync(sock, max_payload)
        except socket.timeout as exc:
            raise ServerUnavailable(
                f"no response within {sock.gettimeout()}s"
            ) from exc
        except OSError as exc:
            raise ServerUnavailable(f"connection failed: {exc}") from exc
    except BaseException:
        sock.close()
        raise
