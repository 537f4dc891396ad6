"""Pluggable FFT backend selection.

The paper's computing kernel is the FFT; everything above it (structured
matrices, layers, deployment) only calls the four transforms exposed by
:mod:`repro.fft`.  Two interchangeable backends are provided:

* ``"pure"``   — the package's own Cooley-Tukey / Bluestein kernels
  (the reproduction of the algorithm itself),
* ``"numpy"``  — ``numpy.fft`` (a fast path for training-scale runs).

Both produce identical results to floating-point accuracy; the parity is
checked by tests and by ``benchmarks/test_fft_backends.py`` (E12).
The default is ``"numpy"`` so model training stays fast, while kernels and
algorithm benchmarks explicitly request ``"pure"``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from ..exceptions import BackendError

__all__ = ["available_backends", "get_backend", "set_backend", "use_backend"]

_VALID_BACKENDS = ("numpy", "pure")

_state = threading.local()


def available_backends() -> tuple[str, ...]:
    """Return the names of the selectable FFT backends."""
    return _VALID_BACKENDS


def get_backend() -> str:
    """Return the name of the currently active FFT backend."""
    return getattr(_state, "backend", "numpy")


def set_backend(name: str) -> None:
    """Select the FFT backend used by all transforms in :mod:`repro.fft`."""
    if name not in _VALID_BACKENDS:
        raise BackendError(
            f"unknown FFT backend {name!r}; expected one of {_VALID_BACKENDS}"
        )
    _state.backend = name


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the FFT backend within a ``with`` block."""
    previous = get_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
