"""Multi-node front tier: one router, many engine backends.

The router speaks the exact frame protocol of :mod:`repro.serving` —
existing :class:`~repro.serving.ServeClient` /
:class:`~repro.serving.AsyncServeClient` instances point at a
:class:`RouterServer` instead of a single ``repro serve`` process and
nothing else changes.  Behind the port the router keeps a
health-probed :class:`BackendHandle` per backend, places each request
with a model-aware :class:`PlacementPolicy` (least-loaded-of-two over
healthy candidates), and fails over transparently when a backend dies
mid-request.

Quick start::

    from repro.router import RouterConfig, RouterServer

    config = RouterConfig(backends=("127.0.0.1:7341", "127.0.0.1:7342"))
    async with RouterServer(config) as router:
        await router.serve_forever()

or, from the shell, a self-contained local fleet::

    repro route --spawn 2 --model default=model.npz

See ``docs/router.md`` for topology, placement, failover semantics,
and the drain runbook.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".backend": ["DOWN", "DRAINING", "HEALTHY", "BackendHandle"],
        ".config": ["RouterConfig", "parse_address"],
        ".placement": ["PlacementPolicy"],
        ".server": ["RouterServer"],
        ".spawn": ["SpawnedBackend", "build_serve_command", "spawn_backends"],
    },
)
