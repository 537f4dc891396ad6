"""Window, percentile and host-factor estimators (pure functions).

Every end-to-end number is a *median over windows* of a per-window
value, so one disturbed second moves nothing.  The tail follows the
choosing-metrics rule: report the highest percentile that still has at
least ten samples beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_SAMPLES = 10

#: A run is flagged ``disturbed`` beyond either of these.
DISTURBED_P50 = 1.25
DISTURBED_RATIO = 1.5


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with share ``q`` at
    or below it (``q`` in (0, 1])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond nearest-rank ``q``."""
    return n - math.ceil(q * n)


def low_quartile(values: Sequence[float]) -> float:
    """The value a quarter of the way up the sorted sample.

    Interference from the host only ever slows a window, so the calmer
    quarter of the windows says more about the code than the median
    does; the harness uses this for the tail, which interference hits
    first.
    """
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def windowed(
    per_window: Sequence[Sequence[float]], q: float, across=statistics.median
) -> tuple[float, bool]:
    """Percentile ``q`` as ``(value, pooled)``.

    ``across`` (median, or :func:`low_quartile`) of each window's
    percentile when every window supports ``q`` by the sample-count
    rule; otherwise the percentile of the pooled samples
    (``pooled=True``), which is all a slow workload's short windows can
    support.
    """
    windows = [w for w in per_window if w]
    if not windows:
        raise ValueError("no samples in any window")
    if all(samples_beyond(len(w), q) >= TAIL_SAMPLES for w in windows):
        return across([percentile(w, q) for w in windows]), False
    return percentile([s for w in windows for s in w], q), True


def host_factor(before_ms: float, after_ms: float, ref_ms: float) -> float:
    """Mean of a window's two boundary calib medians over the reference."""
    return (before_ms + after_ms) / (2.0 * ref_ms)


def disturbed(factors: Sequence[float]) -> bool:
    """True when the host was slow or unsteady while the run measured."""
    return (
        statistics.median(factors) > DISTURBED_P50
        or max(factors) / min(factors) > DISTURBED_RATIO
    )


def spread_range(values: Sequence[float]) -> float:
    """(max - min) / median: the self-check's spread between few runs."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0
