"""Validated configuration for the multi-node front-tier router.

:class:`RouterConfig` is the router-tier sibling of
:class:`~repro.engine.EngineConfig`: a frozen, fully-validated,
declarative description of *which backends exist* and *how the router
treats them*.  Two backend sources, combinable:

* ``backends`` — static ``"host:port"`` addresses of already-running
  ``repro serve`` processes (any host, any orchestration),
* ``spawn`` + ``models`` — a local fleet: the router launches ``spawn``
  child ``repro serve`` processes itself (each serving every model in
  ``models`` on an ephemeral port) and owns their lifecycle, including
  drain fan-out and exit reaping.

Everything is validated at construction so a typo'd address or an
empty fleet fails before any socket is opened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ConfigurationError, require_count
from ..serving.protocol import DEFAULT_MAX_PAYLOAD

__all__ = ["RouterConfig", "parse_address"]


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``, validated.

    The port must be the text after the *last* colon so bracketed IPv6
    literals (``[::1]:7341``) parse too.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise ConfigurationError(
            f"backend address must look like host:port, got {spec!r}"
        )
    host, _, port_text = spec.rpartition(":")
    host = host.strip().strip("[]")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"backend address {spec!r} has a non-integer port"
        ) from None
    if not host:
        raise ConfigurationError(f"backend address {spec!r} has an empty host")
    if not 0 < port < 65536:
        raise ConfigurationError(
            f"backend address {spec!r} port must be in 1..65535"
        )
    return host, port


@dataclass(frozen=True)
class RouterConfig:
    """What the router fronts and how it steers.

    Parameters
    ----------
    backends:
        Static backend addresses (``"host:port"`` strings).  May be
        empty when ``spawn`` > 0.
    spawn:
        Number of local ``repro serve`` child processes to launch and
        own.  Requires ``models``.
    models:
        ``name -> artifact path`` registry passed to every spawned
        child (``repro serve --model name=path`` per entry).  Only
        meaningful with ``spawn`` > 0.
    spawn_precisions:
        Precision pool for spawned children (``--precisions``);
        ``None`` leaves the child's default (fp64).
    spawn_args:
        Extra CLI arguments appended verbatim to each child's
        ``repro serve`` command line (executor, batching knobs, ...).
    host, port:
        The router's own listen address; ``port=0`` binds ephemeral.
    probe_interval_s:
        Seconds between health probes per backend (the ``info`` op).
    probe_timeout_s:
        Per-probe timeout; a probe that exceeds it marks the backend
        ``down`` until a later probe succeeds.
    connect_timeout_s, request_timeout_s:
        Transport timeouts for backend connections and forwarded
        requests.
    pool_size:
        Idle persistent connections kept per backend (forwarding opens
        extra connections under burst and discards them back down to
        this bound).
    max_attempts:
        Distinct backends tried per predict before giving up; ``None``
        means every routable candidate.
    max_payload:
        Inbound frame payload bound, both client->router and
        router<-backend.
    """

    backends: tuple[str, ...] = ()
    spawn: int = 0
    models: dict[str, str] = field(default_factory=dict)
    spawn_precisions: tuple[str, ...] | None = None
    spawn_args: tuple[str, ...] = ()
    host: str = "127.0.0.1"
    port: int = 0
    probe_interval_s: float = 0.5
    probe_timeout_s: float = 2.0
    connect_timeout_s: float = 5.0
    request_timeout_s: float = 60.0
    pool_size: int = 2
    max_attempts: int | None = None
    max_payload: int = DEFAULT_MAX_PAYLOAD

    def __post_init__(self):
        if isinstance(self.backends, (list, str)):
            # Tolerate a list (and reject a bare string, which would
            # iterate per character into nonsense addresses).
            if isinstance(self.backends, str):
                raise ConfigurationError(
                    "backends must be a sequence of host:port strings, "
                    f"got the single string {self.backends!r}"
                )
            object.__setattr__(self, "backends", tuple(self.backends))
        for spec in self.backends:
            parse_address(spec)  # raises on malformed entries
        if len(set(self.backends)) != len(self.backends):
            raise ConfigurationError(
                f"duplicate backend addresses in {self.backends}"
            )
        if not isinstance(self.spawn, int) or isinstance(self.spawn, bool):
            raise ConfigurationError(f"spawn must be an int, got {self.spawn!r}")
        if self.spawn < 0:
            raise ConfigurationError(f"spawn must be >= 0, got {self.spawn}")
        if self.spawn and not self.models:
            raise ConfigurationError(
                "spawn > 0 needs a model registry (models={'name': 'path'})"
            )
        if self.models and not self.spawn:
            raise ConfigurationError(
                "models is only meaningful with spawn > 0; static backends "
                "advertise their own registries over the info op"
            )
        for name, path in self.models.items():
            if not name or not isinstance(name, str):
                raise ConfigurationError(
                    f"model names must be non-empty strings, got {name!r}"
                )
            if not isinstance(path, (str, Path)):
                raise ConfigurationError(
                    f"model {name!r} path must be a string or Path, "
                    f"got {type(path).__name__}"
                )
        if not self.backends and not self.spawn:
            raise ConfigurationError(
                "router needs at least one backend: pass backends=('host:port',) "
                "and/or spawn=N with a model registry"
            )
        if self.spawn_precisions is not None:
            object.__setattr__(
                self, "spawn_precisions", tuple(self.spawn_precisions)
            )
            if not self.spawn_precisions:
                raise ConfigurationError(
                    "spawn_precisions must name at least one precision "
                    "(or be None)"
                )
        object.__setattr__(self, "spawn_args", tuple(self.spawn_args))
        for arg in self.spawn_args:
            if not isinstance(arg, str):
                raise ConfigurationError(
                    f"spawn_args entries must be strings, got {arg!r}"
                )
        if (
            isinstance(self.port, bool)
            or not isinstance(self.port, int)
            or not 0 <= self.port <= 65535
        ):
            raise ConfigurationError(
                f"port must be an int in 0..65535, got {self.port!r}"
            )
        for name in (
            "probe_interval_s",
            "probe_timeout_s",
            "connect_timeout_s",
            "request_timeout_s",
        ):
            value = getattr(self, name)
            # The range test also refuses NaN, which compares false.
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 < value < math.inf
            ):
                raise ConfigurationError(
                    f"{name} must be a finite positive number, got {value!r}"
                )
        require_count("pool_size", self.pool_size)
        if self.max_attempts is not None:
            require_count("max_attempts", self.max_attempts)
        require_count("max_payload", self.max_payload)

    def describe(self) -> dict:
        """JSON-able snapshot (the router's ``info`` op embeds this)."""
        return {
            "backends": list(self.backends),
            "spawn": self.spawn,
            "models": {name: str(path) for name, path in self.models.items()},
            "spawn_precisions": (
                None
                if self.spawn_precisions is None
                else list(self.spawn_precisions)
            ),
            "probe_interval_s": self.probe_interval_s,
            "probe_timeout_s": self.probe_timeout_s,
            "pool_size": self.pool_size,
            "max_attempts": self.max_attempts,
        }
