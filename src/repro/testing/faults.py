"""Deliberate fault injection for the serving and router layers.

Correctness claims about fault tolerance are hollow unless the faults
actually happen, so the production code exposes *fault points* — named
hooks that do nothing until a test (or an operator, via the
``REPRO_FAULTS`` environment variable) arms them.  The disarmed cost is
one module-attribute check (``faults.enabled``), so the hooks stay in
the hot path permanently.

Arming::

    from repro.testing import faults

    faults.arm("server.drop_connection")      # fire once, then disarm
    faults.arm("server.delay_response", times=3, seconds=0.05)
    faults.arm("admission.shed", times=None)  # unlimited budget
    ...
    faults.reset()                            # always reset in teardown

Faults are armed per process; a budget is a plain counter consumed
under one lock, so hook sites on different threads never over-fire it.

Known fault points (the hook sites interpret the params):

=========================  ==================================================
``server.corrupt_payload``  the server flips the leading bytes of an
                           inbound request payload before decoding it
``server.drop_connection``  the server closes the connection instead of
                           sending the response frame
``server.delay_response``  the server sleeps ``seconds`` (default 0.05)
                           before sending the response frame
``admission.shed``         admission control sheds the request as
                           ``overloaded`` regardless of actual capacity
                           (params: ``retry_after_ms``)
``router.backend_down``    the front-tier router SIGKILLs one of its
                           *spawned* backend engine processes at the next
                           predict dispatch — a node dying mid-traffic;
                           the router must fail over and replay on the
                           survivors (no-op on routers with only static
                           backends)
=========================  ==================================================

Subprocess servers arm from the environment: ``repro serve`` and
``repro route`` call :func:`arm_from_env` when ``REPRO_FAULTS`` is set,
e.g. ::

    REPRO_FAULTS="admission.shed*3;server.delay_response:seconds=0.02"

(``point[*times][:key=val[,key=val...]]`` entries separated by ``;``;
``*0`` or ``*inf`` arm an unlimited budget).
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "enabled",
    "arm",
    "arm_from_env",
    "disarm",
    "reset",
    "take",
    "is_armed",
    "fired",
    "describe",
]

#: Fast-path guard: hook sites check this before anything else, so the
#: disarmed overhead is a single attribute lookup.
enabled = False


class Fault:
    """One armed fault point: a firing budget plus free-form params.

    ``times=None`` means unlimited.  ``remaining`` and ``fired`` are
    plain ints, only ever changed under the module's one lock.
    """

    def __init__(self, point: str, times: int | None, params: dict):
        self.point = point
        self.params = dict(params)
        self.times = times
        self.remaining = times
        self.fired = 0

    def take(self) -> bool:
        """Consume one firing; False once the budget is spent."""
        with _lock:
            if self.remaining == 0:
                return False
            if self.remaining is not None:
                self.remaining -= 1
            self.fired += 1
            return True

    def __repr__(self) -> str:
        return (
            f"Fault({self.point!r}, times={self.times}, "
            f"fired={self.fired}, params={self.params})"
        )


_armed: dict[str, Fault] = {}
_lock = threading.Lock()


def arm(point: str, times: int | None = 1, **params) -> Fault:
    """Arm ``point`` to fire ``times`` times (``None`` = unlimited).

    Re-arming a point replaces its previous arming.  Returns the
    :class:`Fault`, whose ``fired`` counter tests can assert on.
    """
    if times is not None and times < 0:
        raise ValueError(f"times must be >= 0 or None, got {times}")
    global enabled
    fault = Fault(point, times, params)
    _armed[point] = fault
    enabled = True
    return fault


def disarm(point: str) -> None:
    """Remove one armed point (missing points are a no-op)."""
    global enabled
    _armed.pop(point, None)
    if not _armed:
        enabled = False


def reset() -> None:
    """Disarm everything; tests call this in teardown."""
    global enabled
    _armed.clear()
    enabled = False


def take(point: str, **defaults) -> dict | None:
    """Consume one firing of ``point``; its params dict, or ``None``.

    The returned dict is ``{**defaults, **armed params}`` so hook sites
    spell their fallbacks inline::

        delay = faults.take("server.delay_response", seconds=0.05)
        if delay is not None:
            await asyncio.sleep(float(delay["seconds"]))
    """
    if not enabled:
        return None
    fault = _armed.get(point)
    if fault is None or not fault.take():
        return None
    return {**defaults, **fault.params}


def is_armed(point: str) -> bool:
    """Is ``point`` armed with budget remaining?"""
    fault = _armed.get(point)
    return fault is not None and fault.remaining != 0


def fired(point: str) -> int:
    """How many times ``point`` has fired (0 when never armed)."""
    fault = _armed.get(point)
    return 0 if fault is None else fault.fired


def describe() -> dict:
    """JSON-able snapshot of the armed points (server ``info``, tests)."""
    return {
        point: {
            "times": fault.times,
            "remaining": fault.remaining,
            "fired": fault.fired,
            "params": dict(fault.params),
        }
        for point, fault in _armed.items()
    }


def _parse_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def arm_from_env(spec: str | None = None) -> list[Fault]:
    """Arm faults from a spec string (default: ``$REPRO_FAULTS``).

    Format: ``point[*times][:key=val[,key=val...]]`` entries joined by
    ``;``.  ``times`` defaults to 1; ``*0`` or ``*inf`` mean unlimited.
    Returns the armed faults (empty list when the spec is empty/unset).
    """
    if spec is None:
        spec = os.environ.get("REPRO_FAULTS", "")
    armed = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        head, _, param_part = entry.partition(":")
        point, _, times_part = head.partition("*")
        point = point.strip()
        if not point:
            raise ValueError(f"malformed REPRO_FAULTS entry {entry!r}")
        times: int | None = 1
        if times_part:
            times = None if times_part in ("0", "inf") else int(times_part)
        params = {}
        for pair in param_part.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed REPRO_FAULTS param {pair!r} in {entry!r}"
                )
            params[key.strip()] = _parse_value(value.strip())
        armed.append(arm(point, times=times, **params))
    return armed
