"""Fast checks of the benchmark harness itself (collected by tier-1).

They test the estimators, the ``/proc`` accounting and that what the
command prints agrees with ``BENCHMARK.json`` — not the numbers.
"""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import estimators as est
from benchmarks.e2e import procs
from benchmarks.e2e.cli import main, spec
from benchmarks.e2e.harness import END_TO_END, Run
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import MAX_LOAD, WORKLOADS, Window


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert est.percentile(samples, 0.5) == 3.0
    assert est.percentile(samples, 0.95) == 5.0
    assert est.percentile(samples, 0.2) == 1.0
    assert est.percentile(list(range(1, 101)), 0.95) == 95
    with pytest.raises(ValueError):
        est.percentile([], 0.5)


@pytest.mark.parametrize("n, beyond", [(19, 0), (199, 9), (200, 10), (1000, 50)])
def test_p95_needs_ten_samples_beyond_it(n, beyond):
    assert est.samples_beyond(n, 0.95) == beyond
    window = [float(i) for i in range(n)]
    _, pooled = est.windowed([window, window], 0.95)
    assert pooled == (beyond < est.TAIL_SAMPLES)


def test_windowed_is_median_of_windows_when_each_supports_the_tail():
    quiet = [float(i) for i in range(200)]
    disturbed = [x + 1000.0 for x in quiet]
    value, pooled = est.windowed([quiet, quiet, disturbed], 0.95)
    assert (value, pooled) == (189.0, False)  # one bad window moves nothing
    # the tail takes the calmer quarter: most windows may be disturbed
    windows = [disturbed] * 6 + [quiet] * 4
    assert est.windowed(windows, 0.95, est.low_quartile) == (189.0, False)
    assert est.low_quartile([5, 1, 4, 2, 3, 9, 8, 7, 6, 10]) == 3
    # 150-sample windows cannot support p95 alone: the pooled sample does
    value, pooled = est.windowed([quiet[:150], quiet[:150]], 0.95)
    assert pooled and value == est.percentile(quiet[:150] * 2, 0.95)


def test_host_factor_and_disturbed_flag():
    assert est.host_factor(3.7, 3.7, 3.7) == pytest.approx(1.0)
    assert est.host_factor(3.7, 7.4, 3.7) == pytest.approx(1.5)
    assert not est.disturbed([1.0, 1.1, 1.2])
    assert est.disturbed([1.3, 1.3, 1.3])  # slow throughout
    assert est.disturbed([0.8, 1.0, 1.25])  # unsteady: max/min > 1.5


def test_self_check_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert est.spread_range(values) == pytest.approx(9.0 / 14.5)


def _window(latency_s: float, host_factor: float) -> Window:
    return Window(latencies=[latency_s] * 200, rows=200, attempted=200,
                  wall_s=1.0, cpu_s=0.5, host_factor=host_factor,
                  calib_factor=host_factor)


def test_cpu_bound_metrics_are_normalised_by_the_host_factor():
    # a host twice as slow for two windows of three, then quiet
    windows = [_window(0.002, 2.0), _window(0.002, 2.0), _window(0.001, 1.0)]
    per_window = Run("w", "window", [0.3], windows, 50.0).metrics()
    assert per_window["latency_p50_ms"] == pytest.approx(1.0)
    assert per_window["latency_p95_ms"] == pytest.approx(1.0)
    assert per_window["rows_per_s"] == pytest.approx(400.0)
    # CPU is summed over the run: (0.25 + 0.25 + 0.5) s over 600 rows
    assert per_window["cpu_us_per_row"] == pytest.approx(1e6 / 600)
    per_run = Run("w", "run", [0.3], windows, 50.0).metrics()  # by the median, 2.0
    assert per_run["latency_p50_ms"] == pytest.approx(1.0)
    assert per_run["rows_per_s"] == pytest.approx(400.0)
    raw = Run("w", "none", [0.3], windows, 50.0).metrics()
    assert raw["latency_p50_ms"] == pytest.approx(2.0)
    assert raw["rows_per_s"] == pytest.approx(200.0)
    # ... but CPU time scales with the host on every workload
    assert raw["cpu_us_per_row"] == per_run["cpu_us_per_row"] == pytest.approx(1250.0)
    assert raw["setup_s"] == per_window["setup_s"] == 0.3


def test_run_counts_failures_against_attempts():
    bad = _window(0.001, 1.0)
    bad.failed = 3
    run = Run("w", "none", [0.1], [_window(0.001, 1.0), bad], 1.0)
    assert (run.attempted, run.failed, run.correct) == (400, 3, False)
    assert not Run("w", "none", [0.1], [_window(0.001, 1.0)], 1.0, survivors=[1]).correct


def test_proc_accounting_on_a_known_child():
    burn = ("import sys, time\n"
            "while time.process_time() < 0.3: pass\n"
            "print('done', flush=True); sys.stdin.read()")
    child = subprocess.Popen([sys.executable, "-c", burn], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        assert child.stdout.readline().strip() == "done"
        assert 0.28 <= procs.cpu_seconds(child.pid) <= 0.45
        assert procs.peak_rss_mb(child.pid) > 1.0
        assert child.pid in procs.descendants(os.getpid())
        assert procs.group_members(child.pid) == [child.pid]
    finally:
        child.stdin.close()
        child.wait(timeout=10)
        child.stdout.close()
    assert procs.cpu_seconds(child.pid) == 0.0  # gone reads as zero
    assert procs.group_members(child.pid) == []


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.request("workload.w") as root:
        with root.child("layer.call"):
            pass
        with root.child("layer.call"):
            pass
    root_span, first, second = tracer.spans
    assert first.parent == second.parent == root_span.index and root_span.parent is None
    assert first.request == root_span.request == 1
    inner = (first.end - first.start) + (second.end - second.start)
    self_times = tracer.self_times_us()
    assert self_times["workload.w"] == [
        pytest.approx((root_span.end - root_span.start - inner) / 1e3)
    ]
    assert len(self_times["layer.call"]) == 2


def test_benchmark_json_names_what_the_harness_measures():
    declared = spec()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert declared["paths"] == ["benchmarks/e2e"]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert max(cls.clients for cls in WORKLOADS.values()) <= MAX_LOAD


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_quick_run_prints_every_end_to_end_metric_with_its_unit(capsys):
    assert main(["--workload", "inproc_fc_b1", "--seed", "3", "--quick"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_prints_every_per_layer_metric_with_its_unit(capsys, tmp_path):
    spans = tmp_path / "spans.json"
    assert main(["--workload", "inproc_fc_b1", "--seed", "3", "--quick",
                 "--trace", "1", "--trace-out", str(spans)]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    written = json.loads(spans.read_text())
    assert len(written["spans"]) == result["metrics"]["trace.spans"]["value"]
    assert "runtime.session.predict_proba" in written["self_time"]
