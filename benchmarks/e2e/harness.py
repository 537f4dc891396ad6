"""Measure one workload: set-ups, warm-up, windows, host normalisation.

A run is ``setups`` cold set-ups (their median is ``setup_s``; the last
one is kept), a warm-up window that is thrown away, and then
``WINDOWS`` windows.  Every end-to-end number is a median over the
windows, so one disturbed window moves nothing.

CPU-bound workloads are reported *host-normalised* (see yardsticks.py):

* the three in-process workloads run their matched yardstick between
  ops, every 30 ms; a window's host factor is the median of its probes
  over the yardstick's reference time, and each window's times are
  divided by its own factor (``rows_per_s`` multiplied);
* ``served_fc_bulk`` cannot be probed mid-window (a probe would hold up
  replies in flight), so it is divided by the run's median factor from
  the ``calib`` probes the harness times at every window boundary;
* the timer-dominated network workloads are reported raw: the 2 ms
  batch window and the sync client's stall do not scale with the host.

The boundary ``calib`` runs on every workload and gives ``host.factor_*``
and the ``disturbed`` flag.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import estimators as est
from .procs import Fleet, cpu_seconds, peak_rss_mb
from .tracing import Tracer
from .workloads import WORKLOADS, Context, Window, Workload
from .yardsticks import REF_MS, Yardsticks

#: The checkout: everything the benchmark reads or writes is below it.
ROOT = Path(__file__).resolve().parents[2]

#: Windows per run; a shorter run shortens the window, not the count.
WINDOWS = 10

#: Warm-up before the first window, as a share of the measured time.
WARMUP_SHARE = 0.125

#: Seconds of cold set-ups after which a run settles for three of them,
#: so that a slow host cannot push a run past the driver's time cap.
SETUP_BUDGET_S = 5.0

#: BLAS threads for the harness and every child: two cores, two load
#: generators, so BLAS must not oversubscribe them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_us_per_row": "us/row",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    """The environment of every process the harness starts."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_EXECUTOR", None)
    return env


@contextmanager
def run_context(seed: int):
    """A scratch directory inside the checkout and a fleet; both are
    gone, and every child with them, however the block exits."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        with Fleet(child_env()) as fleet:
            yield Context(seed=seed, tmp=tmp, fleet=fleet, env=fleet.env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@dataclass
class Run:
    """Everything one run of one workload measured."""

    workload: str
    normalise: str  # "window", "run" or "none": see the module docstring
    setup_times: list[float]
    windows: list[Window]
    peak_rss_mb: float
    survivors: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(w.attempted for w in self.windows)

    @property
    def failed(self) -> int:
        return sum(w.failed for w in self.windows)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0 and not self.survivors

    def calib_factors(self) -> list[float]:
        """Host state while the run measured, from the boundary calibs."""
        return [w.calib_factor for w in self.windows]

    def run_factor(self) -> float:
        return statistics.median(w.host_factor for w in self.windows)

    def scale(self, w: Window) -> float:
        """What divides window ``w``'s latencies (and multiplies its rate)."""
        if self.normalise == "window":
            return w.host_factor
        if self.normalise == "run":
            return self.run_factor()
        return 1.0

    def cpu_scale(self, w: Window) -> float:
        """CPU time scales with host speed on every workload."""
        return w.host_factor if self.normalise == "window" else self.run_factor()

    def latencies_ms(self) -> list[list[float]]:
        """Per window, each op's latency (normalised where the run is)."""
        return [
            [1e3 * s / self.scale(w) for s in w.latencies] for w in self.windows
        ]

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics: medians over the windows."""
        live = [w for w in self.windows if w.rows]
        if not live:
            raise RuntimeError(f"{self.workload}: no op completed in any window")
        latencies = self.latencies_ms()
        return {
            "setup_s": statistics.median(self.setup_times),
            "rows_per_s": statistics.median(
                w.rows / w.wall_s * self.scale(w) for w in live
            ),
            "latency_p50_ms": est.windowed(latencies, 0.50)[0],
            "latency_p95_ms": est.windowed(latencies, 0.95, est.low_quartile)[0],
            # over the run, not per window: /proc counts CPU in 10 ms
            # ticks, which is a sixth of a quiet window's CPU
            "cpu_us_per_row": 1e6
            * sum(w.cpu_s / self.cpu_scale(w) for w in live)
            / sum(w.rows for w in live),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def samples(self) -> int:
        return sum(len(w.latencies) for w in self.windows)


def timed_window(workload: Workload, pids: list[int], seconds: float,
                 tracer=None, probe=None) -> Window:
    """One window, with the CPU every process in ``pids`` spent on it."""
    before = sum(cpu_seconds(pid) for pid in pids)
    window = workload.window(seconds, tracer, probe)
    window.cpu_s = sum(cpu_seconds(pid) for pid in pids) - before - window.paused_cpu_s
    return window


def set_up(workload: Workload, setups: int, sticks: Yardsticks) -> list[float]:
    """Up to ``setups`` cold set-ups, each torn down but the last; their times,
    each divided by the host factor of the calibs on either side of it
    (a cold set-up is interpreter start-up and imports: CPU-bound)."""
    workload.prepare()
    times = []
    mark = sticks.calib_ms()
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while True:
        start = time.perf_counter()
        workload.set_up()
        elapsed = time.perf_counter() - start
        before, mark = mark, sticks.calib_ms()
        times.append(elapsed / est.host_factor(before, mark, 4 * REF_MS["fft_gemm"]))
        # on a throttled host a set-up takes seconds: stop at three
        enough = len(times) >= min(3, setups) and time.perf_counter() > deadline
        if len(times) >= setups or enough:
            return times
        workload.tear_down()


def measure(
    name: str,
    seed: int,
    seconds: float,
    windows: int = WINDOWS,
    setups: int | None = None,
) -> Run:
    """Run workload ``name`` untraced and return what it measured."""
    sticks = Yardsticks()
    with run_context(seed) as ctx:
        workload = WORKLOADS[name](ctx)
        setup_times = set_up(workload, workload.setups if setups is None else setups, sticks)
        pids = [os.getpid(), *workload.pids()]
        interleave = workload.normalise == "window"
        probe = getattr(sticks, workload.yardstick) if interleave else None
        try:
            workload.window(seconds * WARMUP_SHARE, None, probe)
            measured = []
            mark = sticks.calib_ms()
            for _ in range(windows):
                window = timed_window(workload, pids, seconds / windows, None, probe)
                before, mark = mark, sticks.calib_ms()
                window.calib_factor = window.host_factor = est.host_factor(
                    before, mark, 4 * REF_MS["fft_gemm"]
                )
                if window.probe_s:
                    window.host_factor = (
                        1e3 * statistics.median(window.probe_s) / REF_MS[workload.yardstick]
                    )
                measured.append(window)
            rss = sum(peak_rss_mb(pid) for pid in pids)
        finally:
            workload.tear_down()
        survivors = ctx.fleet.survivors()
    return Run(name, workload.normalise, setup_times, measured, rss, survivors)


@dataclass
class TracedRun:
    """A traced run: alternating untraced and traced windows."""

    tracer: Tracer
    untraced: list[Window]
    traced: list[Window]
    host_factors: list[float]

    def overhead_share(self) -> float:
        """Share of ``rows_per_s`` lost to recording spans."""
        plain = statistics.median(w.rows / w.wall_s for w in self.untraced)
        spans = statistics.median(w.rows / w.wall_s for w in self.traced)
        return 1.0 - spans / plain


def measure_traced(name: str, ctx: Context, seconds: float, windows: int = 3) -> TracedRun:
    """Re-run workload ``name`` with a span around every call it makes."""
    sticks = Yardsticks()
    tracer = Tracer()
    workload = WORKLOADS[name](ctx)
    set_up(workload, 1, sticks)
    pids = [os.getpid(), *workload.pids()]
    run = TracedRun(tracer, [], [], [])
    try:
        workload.window(seconds * WARMUP_SHARE / 2)
        mark = sticks.calib_ms()
        for _ in range(windows):
            for sink, active in ((run.untraced, None), (run.traced, tracer)):
                sink.append(timed_window(workload, pids, seconds / 20, active))
                before, mark = mark, sticks.calib_ms()
                run.host_factors.append(
                    est.host_factor(before, mark, 4 * REF_MS["fft_gemm"])
                )
    finally:
        workload.tear_down()
    return run
