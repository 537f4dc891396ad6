"""Argument parsing, reporting and the all-workloads suite."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.runtime import effective_cpu_count

from . import estimators as est
from .harness import BLAS_ENV, END_TO_END, ROOT, WINDOWS, measure, measure_traced, run_context
from .workloads import WORKLOADS

SPEC = ROOT / "BENCHMARK.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="measure this workload only (default: all eight)")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input knob: seeds every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the per-layer ladder and record spans")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="span file of a traced run "
                        "(default: .bench_out/trace-<workload>-<seed>.json)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the suite's stamped results here as JSON")
    parser.add_argument("--self-check", type=int, nargs="?", const=2, default=None,
                        metavar="N", help="run the suite N times (default 2) on "
                        "the same code and fail if any end-to-end metric spreads "
                        "beyond its bound")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 2 windows of 0.2 s, one set-up")
    return parser


def spec() -> dict:
    return json.loads(SPEC.read_text())


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def run_untraced(args) -> int:
    if args.quick:
        run = measure(args.workload, args.seed, 0.4, windows=2, setups=1)
    else:
        run = measure(args.workload, args.seed, args.seconds)
    metrics = run.metrics()
    factors = run.calib_factors()
    print(f"# {run.workload} seed={args.seed} windows={len(run.windows)} "
          f"samples={run.samples()} blas_threads={BLAS_ENV['OPENBLAS_NUM_THREADS']} "
          f"normalised={run.normalise}")
    for name, value in metrics.items():
        print(f"{run.workload}.{name} {value:.6g} {END_TO_END[name]}")
    pooled = [s for w in run.latencies_ms() for s in w]
    print(f"{run.workload}.latency_p99_ms {est.percentile(pooled, 0.99):.6g} ms "
          f"(pooled, diagnostic)")
    print(f"{run.workload}.error_share {run.failed / max(1, run.attempted):.6g}")
    print("host " + json.dumps({
        "factor_p50": round(statistics.median(factors), 4),
        "factor_max": round(max(factors), 4),
        "disturbed": est.disturbed(factors),
    }))
    for window in run.windows:
        for error in window.errors:
            print(f"! {error}")
    if run.survivors:
        print(f"! child processes survived the run: {run.survivors}")
    print(result_line(run.correct, run.attempted, run.failed, metrics, END_TO_END))
    return 0 if run.correct else 1


def run_traced(args) -> int:
    from .ladder import run_ladder

    per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    seconds = 0.8 if args.quick else args.seconds
    with run_context(args.seed) as ctx:
        traced = measure_traced(args.workload, ctx, seconds)
        values = run_ladder(ctx, seconds)
        survivors = ctx.fleet.survivors()
    factors = traced.host_factors
    self_times = traced.tracer.summary()
    root = self_times[f"workload.{args.workload}"]
    calls = {k: v for k, v in self_times.items() if not k.startswith("workload.")}
    values.update({
        "host.factor_p50": statistics.median(factors),
        "host.factor_max": max(factors),
        "trace.overhead_share": traced.overhead_share(),
        "trace.spans": len(traced.tracer.spans),
        "trace.harness_self_us": root["self_us_p50"],
        "trace.call_us": sum(v["self_us_p50"] for v in calls.values()),
    })
    out = args.trace_out or ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
    traced.tracer.write(out)
    print(f"# {args.workload} traced seed={args.seed} spans={len(traced.tracer.spans)} "
          f"-> {out}")
    for name, entry in self_times.items():
        print(f"span {name} count={entry['count']} self_us_p50={entry['self_us_p50']:.3f}")
    missing = sorted(set(per_layer) - set(values))
    if missing:
        raise RuntimeError(f"ladder did not measure: {missing}")
    for name in per_layer:
        print(f"{name} {values[name]:.6g} {per_layer[name]}")
    windows = traced.untraced + traced.traced
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + int(values.pop("ladder.failed"))
    correct = failed == 0 and attempted > 0 and not survivors
    print(result_line(correct, attempted, failed,
                      {name: values[name] for name in per_layer}, per_layer))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The suite: every workload, one fresh process each
# ----------------------------------------------------------------------
def stamp(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "blas_env": BLAS_ENV,
        "seed": seed,
    }


def run_one(workload: str, args) -> dict:
    """One workload in a fresh process, exactly as the driver runs it."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload}: no result (exit {done.returncode}): {done.stderr.strip()[-500:]}"
        )
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("host {"):
            result["host"] = json.loads(line[5:])
    return result


def run_suite(args) -> dict:
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_one(workload, args)
        flat = " ".join(
            f"{name}={entry['value']:.5g}{entry['unit']}"
            for name, entry in results[workload]["metrics"].items()
        )
        print(f"{workload}: correct={results[workload]['correct']} "
              f"failed={results[workload]['failed']}/{results[workload]['attempted']} {flat}",
              flush=True)
    return results


def self_check(rounds: list[dict]) -> bool:
    """Print each end-to-end metric's spread over the rounds; True when
    every one stays within its bound between undisturbed runs."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    within = True
    print(f"# self-check over {len(rounds)} runs: (max - min) / median, and bound")
    for workload in WORKLOADS:
        calm = [r[workload] for r in rounds
                if not r[workload].get("host", {}).get("disturbed", False)]
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in calm]
            if len(values) < 2:
                print(f"{workload}.{name} unresolved (fewer than 2 undisturbed runs)")
                continue
            spread = est.spread_range(values)
            verdict = "ok" if spread <= metric["bound"] else "EXCEEDS"
            within &= spread <= metric["bound"]
            print(f"{workload}.{name} spread={spread:.4f} bound={metric['bound']} {verdict}")
    return within


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if argv is None:
        # SIGTERM unwinds like an exception, so `finally` blocks and the
        # fleet stop every child before the harness goes.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is not None:
        return run_traced(args) if args.trace else run_untraced(args)
    rounds = [run_suite(args) for _ in range(args.self_check or 1)]
    correct = all(r[w]["correct"] for r in rounds for w in WORKLOADS)
    within = self_check(rounds) if args.self_check else True
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"stamp": stamp(args.seed), "windows": WINDOWS,
             "seconds": args.seconds, "runs": rounds}, indent=1))
    return 0 if correct and within else 1
