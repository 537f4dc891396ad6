"""Model-aware, health-aware backend placement.

The policy answers one question per request: *which backend gets these
rows?*  It composes three signals, all read off
:class:`~repro.router.backend.BackendHandle` state that the probe loop
and the forward path keep fresh:

1. **Routability** — only ``healthy`` backends that advertise the
   requested ``(model, precision)`` are candidates.
2. **Least-loaded-of-two** — with several candidates, two are sampled
   at random and the one with the lower :meth:`load` wins.  The classic
   power-of-two-choices result: near-optimal balancing from two reads,
   no global scan, no herd behavior when every router sees the same
   stale snapshot.
3. **Sticky fallback** — ties (including the common cold-start case
   where no probe has measured anything yet, so every load is 0) go to
   the backend that last served this route.  Stickiness keeps a warm
   connection pool and a warm micro-batcher on the other side instead
   of round-robining cold.

The policy is pure and synchronous; randomness comes from an
injectable :class:`random.Random` so tests drive it deterministically.
"""

from __future__ import annotations

import random
from typing import Sequence

from .backend import BackendHandle

__all__ = ["PlacementPolicy"]


class PlacementPolicy:
    """Pick a backend for a route; remember the pick per route."""

    def __init__(self, rng: random.Random | None = None):
        self._rng = rng if rng is not None else random.Random()
        self._sticky: dict[tuple[str | None, str | None], str] = {}

    def candidates(
        self,
        backends: Sequence[BackendHandle],
        model: str | None = None,
        precision: str | None = None,
        exclude: frozenset | set | None = None,
    ) -> list[BackendHandle]:
        """Routable backends advertising the route.

        ``exclude`` removes addresses already tried in this request's
        failover loop.
        """
        exclude = exclude or frozenset()
        return [
            backend
            for backend in backends
            if backend.routable
            and backend.address not in exclude
            and backend.advertises(model, precision)
        ]

    def choose(
        self,
        candidates: Sequence[BackendHandle],
        model: str | None = None,
        precision: str | None = None,
    ) -> BackendHandle:
        """Least-loaded-of-two with sticky tie-breaking.

        ``candidates`` must be non-empty (the router checks first and
        maps emptiness to its all-down / all-shedding error paths).
        """
        if not candidates:
            raise ValueError("choose() needs at least one candidate")
        route = (model, precision)
        if len(candidates) == 1:
            pick = candidates[0]
        else:
            first, second = self._rng.sample(list(candidates), 2)
            if first.load() < second.load():
                pick = first
            elif second.load() < first.load():
                pick = second
            else:
                # Tie: prefer the sticky backend when it is one of the
                # pair; otherwise the first sample is as good as any.
                sticky = self._sticky.get(route)
                pick = second if second.address == sticky else first
        self._sticky[route] = pick.address
        return pick

    def sticky_for(self, model: str | None, precision: str | None) -> str | None:
        """Address that last served the route (``None`` before traffic)."""
        return self._sticky.get((model, precision))

    def forget(self, address: str) -> None:
        """Drop stickiness to a backend (it went down)."""
        self._sticky = {
            route: addr
            for route, addr in self._sticky.items()
            if addr != address
        }
