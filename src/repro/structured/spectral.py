"""Version- and dtype-keyed caching of block-circulant weight spectra.

The paper's deployment trick (section IV-A: "simply keep the FFT result
FFT(w_i)") applies during training too: between two weight updates the
``rfft`` of the ``(p, q, b)`` weight grid is constant, so recomputing it
on every forward call wastes the dominant share of small-batch inference
time.  :class:`SpectrumCache` memoizes the half-spectra of one weight
tensor, keyed on the tensor's monotonic ``version`` counter (see
:class:`repro.nn.tensor.Tensor`): optimizer steps, ``load_state_dict``,
and ``from_dense`` all rebind ``tensor.data`` and thereby advance the
version, which invalidates the cache on the next lookup.

Entries are *additionally keyed on the complex dtype* of the spectra.  A
frozen fp32 session (:class:`repro.precision.PrecisionPolicy`) wants
complex64 spectra while training and fp64 sessions want complex128;
keying on dtype guarantees that switching a session between precisions
can never serve a spectrum of the wrong precision.  The base spectra are
always computed at the weight's native (double) precision and narrower
dtypes are derived by a single rounding, so complex64 spectra are the
correctly-rounded versions of the complex128 ones.

The cached arrays are marked read-only: every forward/backward pass of a
layer shares the same ndarray, so an accidental in-place write would
corrupt all subsequent calls silently.
"""

from __future__ import annotations

import numpy as np

from ..fft import rfft

__all__ = ["SpectrumCache", "freq_major"]


def freq_major(spectra: np.ndarray) -> np.ndarray:
    """Contiguous frequency-major ``(nb, p, q)`` copy of ``(p, q, nb)`` spectra.

    This is the exact layout the batched-GEMM contraction consumes
    (``spectra_fm`` of :func:`~repro.structured.ops.spectral_product`);
    every cache that stores it goes through this helper so the rule lives
    in one place.
    """
    return np.ascontiguousarray(spectra.transpose(2, 0, 1))


class SpectrumCache:
    """Memoized ``rfft`` of a single weight tensor, keyed by version and dtype.

    One instance lives per block-circulant layer.  ``get(weight)`` returns
    the ``(p, q, b // 2 + 1)`` half-spectra of the layer's ``(p, q, b)``
    grid, recomputing only when ``weight.version`` has moved past the
    version the cache was filled at — i.e. once per weight update during
    training and exactly once across an entire inference run.  ``get``
    and ``get_pair`` take an optional complex ``dtype`` (default: the
    weight's native spectrum dtype, complex128 for float64 weights); each
    requested dtype is cached independently.
    """

    __slots__ = (
        "_version", "_data_ref", "_base", "_spectra", "_freq_major",
        "hits", "misses",
    )

    def __init__(self) -> None:
        self._version: int | None = None
        self._data_ref: np.ndarray | None = None
        self._base: np.ndarray | None = None
        self._spectra: dict[np.dtype, np.ndarray] = {}
        self._freq_major: dict[np.dtype, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def _ensure(self, weight, dtype) -> np.dtype:
        # Key on the version counter AND the data array's identity: a
        # freshly constructed Parameter starts at version 0 again, so the
        # counter alone cannot tell a swapped-in weight from the cached
        # one.  Holding the array reference also pins its id.
        version = weight.version
        recomputed = False
        if (
            self._version != version
            or self._data_ref is not weight.data
            or self._base is None
        ):
            base = rfft(weight.data)
            base.setflags(write=False)
            self._base = base
            self._spectra = {base.dtype: base}
            self._freq_major = {}
            self._version = version
            self._data_ref = weight.data
            self.misses += 1
            recomputed = True
        dtype = self._base.dtype if dtype is None else np.dtype(dtype)
        if dtype not in self._spectra:
            # Derive narrower (or wider) spectra from the base by one
            # rounding; counts as a miss because real work happened.
            derived = self._base.astype(dtype)
            derived.setflags(write=False)
            self._spectra[dtype] = derived
            if not recomputed:
                self.misses += 1
        elif not recomputed:
            self.hits += 1
        return dtype

    def get(self, weight, dtype=None) -> np.ndarray:
        """Half-spectra of ``weight.data`` at ``dtype``, cached across calls.

        ``weight`` is any object with ``data`` (real ndarray) and
        ``version`` (int) attributes — in practice a
        :class:`~repro.nn.module.Parameter`.  ``dtype=None`` returns the
        weight's native spectrum dtype.
        """
        dtype = self._ensure(weight, dtype)
        return self._spectra[dtype]

    def get_pair(self, weight, dtype=None) -> tuple[np.ndarray, np.ndarray]:
        """``(spectra, freq_major)``: the ``(p, q, nb)`` half-spectra plus
        their contiguous frequency-major ``(nb, p, q)`` transpose, both at
        ``dtype``.

        The frequency-major copy is what the batched-GEMM contraction
        consumes directly; materializing it once per weight version keeps
        ``matmul`` from re-buffering a strided view on every forward.
        """
        dtype = self._ensure(weight, dtype)
        if dtype not in self._freq_major:
            fm = freq_major(self._spectra[dtype])
            fm.setflags(write=False)
            self._freq_major[dtype] = fm
        return self._spectra[dtype], self._freq_major[dtype]

    def invalidate(self) -> None:
        """Drop all cached spectra; the next ``get`` recomputes."""
        self._version = None
        self._data_ref = None
        self._base = None
        self._spectra = {}
        self._freq_major = {}
