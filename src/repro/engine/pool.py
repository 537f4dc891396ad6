"""The per-precision session pool behind the :class:`Engine` facade.

One frozen :class:`~repro.runtime.session.InferenceSession` exists per
``(model, precision)`` pair, at most.  Sessions are frozen *lazily* —
the first request for a pair pays the compile + warm-up cost, every
later request reuses the pooled session — and freezing the same model
at a second precision shares the already-computed weight spectra:

* live :class:`~repro.nn.module.Sequential` sources share the layers'
  dtype-keyed :class:`~repro.structured.spectral.SpectrumCache` (the
  complex128 base spectrum is computed once; narrower precisions round
  it, never re-transform),
* artifact sources (:class:`~repro.embedded.deploy.DeployedModel`) are
  loaded from disk once and their stored complex64 spectra are
  materialized per precision from the same arrays.

The pool is thread-safe: the serving front-end freezes sessions from
its inference thread while the event loop routes requests, so ``get``
holds a lock around the freeze.  ``close`` is idempotent and releases
every *owned* session (adopted sessions — see :meth:`adopt` — stay
open, their owner closes them).
"""

from __future__ import annotations

import threading
from typing import Callable

from ..exceptions import ConfigurationError
from ..runtime.session import InferenceSession

__all__ = ["SessionPool"]


class SessionPool:
    """Lazily-frozen sessions keyed by ``(model_name, precision)``.

    ``freeze`` is the factory the pool calls on a miss:
    ``freeze(model_name, precision) -> InferenceSession``; the
    :class:`~repro.engine.core.Engine` supplies one that resolves the
    model source and executor policy.  Sessions are warmed
    (:meth:`~repro.runtime.session.InferenceSession.warm_up`) as they
    enter the pool.
    """

    def __init__(self, freeze: Callable[[str, str], InferenceSession]):
        self._freeze = freeze
        self._sessions: dict[tuple[str, str], InferenceSession] = {}
        self._owned: set[tuple[str, str]] = set()
        #: guards the dict only — held for microseconds, so readers
        #: (``snapshot`` on the serving event loop) never wait out a
        #: compile.  ``_freeze_lock`` serializes the freezes themselves.
        self._lock = threading.Lock()
        self._freeze_lock = threading.Lock()
        self._closed = False

    def get(self, model: str, precision: str) -> InferenceSession:
        """The pooled session for ``(model, precision)``, frozen on miss.

        Double-checked locking: the expensive ``freeze().warm_up()``
        runs *outside* the dict lock, so introspection (``snapshot``)
        and other routes' lookups never block behind a plan compile.
        """
        key = (model, precision)
        with self._lock:
            if self._closed:
                raise ConfigurationError("session pool is closed")
            session = self._sessions.get(key)
        if session is not None:
            return session
        with self._freeze_lock:
            with self._lock:
                if self._closed:
                    raise ConfigurationError("session pool is closed")
                session = self._sessions.get(key)
            if session is not None:  # lost the race to another freezer
                return session
            session = self._freeze(model, precision).warm_up()
            with self._lock:
                if self._closed:
                    # The pool closed mid-freeze: release the session
                    # nobody will ever serve.
                    session.close()
                    raise ConfigurationError("session pool is closed")
                self._sessions[key] = session
                self._owned.add(key)
            return session

    def adopt(
        self, model: str, precision: str, session: InferenceSession
    ) -> InferenceSession:
        """Seed the pool with an externally-owned, already-bound session.

        The caller built (and keeps ownership of) the session; the pool
        serves it but :meth:`close` will not touch it.
        """
        key = (model, precision)
        with self._lock:
            if self._closed:
                raise ConfigurationError("session pool is closed")
            if key in self._sessions:
                raise ConfigurationError(
                    f"pool already holds a session for {key}"
                )
            self._sessions[key] = session
            return session

    def snapshot(self) -> dict:
        """A consistent ``{(model, precision): session}`` copy.

        Taken under the pool lock, so a concurrent :meth:`close` (or
        freeze) cannot tear the view mid-iteration — introspection
        callers (the server's ``info`` op) iterate the copy safely.
        """
        with self._lock:
            return dict(self._sessions)

    def __len__(self) -> int:
        return len(self._sessions)

    def close(self) -> None:
        """Close every owned session; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions, self._sessions = self._sessions, {}
            owned, self._owned = self._owned, set()
        for key, session in sessions.items():
            if key in owned:
                session.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (
            f"SessionPool(sessions={sorted(self._sessions)}, "
            f"closed={self._closed})"
        )
