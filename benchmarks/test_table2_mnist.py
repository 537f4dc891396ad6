"""E2 — paper Table II: MNIST accuracy and per-image runtime.

Trains Arch. 1 and Arch. 2 on the synthetic MNIST stand-in, then predicts
per-image latency for every (platform, implementation) cell of Table II
with the calibrated runtime simulator.  The pytest-benchmark measurement
times the deployed FFT-domain engine on this host for reference.

Shape expectations vs the paper (measured numbers in
``benchmarks/results/table2_mnist.txt``):

* accuracy: Arch. 1 > Arch. 2, both in the 90s (paper: 95.47 / 93.59),
* runtime: C++ ~2.3-2.6x faster than Java; Honor 6X < XU3 < Nexus 5;
  Arch. 1 only slightly slower than Arch. 2.
"""

import numpy as np
import pytest

from .conftest import write_result
from repro.embedded import DeployedModel, InferenceProfiler
from repro.zoo import ARCH1_INPUT_SIDE, ARCH2_INPUT_SIDE

#: Paper Table II: (arch, impl) -> (accuracy %, (nexus5, xu3, honor6x) us).
PAPER_TABLE2 = {
    ("Arch. 1", "Java"): (95.47, (359.6, 294.1, 256.7)),
    ("Arch. 1", "C++"): (95.47, (140.0, 122.0, 101.0)),
    ("Arch. 2", "Java"): (93.59, (350.9, 278.2, 221.7)),
    ("Arch. 2", "C++"): (93.59, (128.5, 119.1, 98.5)),
}

PLATFORM_ORDER = ("nexus5", "xu3", "honor6x")


@pytest.fixture(scope="module")
def table2(trained_arch1, trained_arch2):
    """Measured accuracy + simulated runtimes for every Table II cell."""
    rows = {}
    for name, (model, acc), side in (
        ("Arch. 1", trained_arch1, ARCH1_INPUT_SIDE),
        ("Arch. 2", trained_arch2, ARCH2_INPUT_SIDE),
    ):
        profiler = InferenceProfiler(model, (side * side,))
        for impl_key, impl_name in (("java", "Java"), ("cpp", "C++")):
            runtimes = tuple(
                profiler.runtime_us(p, impl_key) for p in PLATFORM_ORDER
            )
            rows[(name, impl_name)] = (100.0 * acc, runtimes)
    return rows


def test_table2_reproduction(table2, benchmark, trained_arch1):
    """Regenerate Table II and check the paper's qualitative shape."""
    lines = [
        "E2 / Table II — core runtime of each round of inference (MNIST)",
        "",
        f"{'Arch':8s} {'Impl':5s} {'Acc% (paper)':>14s} "
        + " ".join(f"{p + ' us (paper)':>22s}" for p in PLATFORM_ORDER),
    ]
    for key, (acc, runtimes) in sorted(table2.items()):
        paper_acc, paper_runtimes = PAPER_TABLE2[key]
        cells = " ".join(
            f"{ours:8.1f} ({paper:8.1f})"
            for ours, paper in zip(runtimes, paper_runtimes)
        )
        lines.append(
            f"{key[0]:8s} {key[1]:5s} {acc:6.2f} ({paper_acc:5.2f}) {cells}"
        )
    write_result("table2_mnist", lines)

    # Shape assertions.
    for key, (acc, runtimes) in table2.items():
        paper_acc, paper_runtimes = PAPER_TABLE2[key]
        # Accuracy within a few points of the paper's (synthetic data).
        assert abs(acc - paper_acc) < 8.0, key
        # Runtime within 15% of the paper cell-by-cell.
        for ours, paper in zip(runtimes, paper_runtimes):
            assert ours == pytest.approx(paper, rel=0.15), key

    # Arch. 1 more accurate than Arch. 2 (paper: +1.9 points).
    assert table2[("Arch. 1", "C++")][0] > table2[("Arch. 2", "C++")][0]
    # Java/C++ ratio in the paper's band on every platform.
    for arch in ("Arch. 1", "Arch. 2"):
        for i in range(3):
            ratio = table2[(arch, "Java")][1][i] / table2[(arch, "C++")][1][i]
            assert 1.8 < ratio < 3.2, (arch, i)
    # Device ordering: honor6x < xu3 < nexus5.
    for key, (_, runtimes) in table2.items():
        assert runtimes[2] < runtimes[1] < runtimes[0], key

    model, _ = trained_arch1
    profiler = InferenceProfiler(model, (ARCH1_INPUT_SIDE**2,))
    benchmark(profiler.sweep)


def test_bench_arch1_deployed_inference(benchmark, trained_arch1, mnist_data):
    """Host-side per-image latency of the deployed Arch. 1 engine."""
    model, _ = trained_arch1
    test_set = mnist_data[ARCH1_INPUT_SIDE][1]
    deployed = DeployedModel.from_model(model)
    image = test_set.inputs[:1]
    benchmark(deployed.forward, image)


def test_bench_arch2_deployed_inference(benchmark, trained_arch2, mnist_data):
    """Host-side per-image latency of the deployed Arch. 2 engine."""
    model, _ = trained_arch2
    test_set = mnist_data[ARCH2_INPUT_SIDE][1]
    deployed = DeployedModel.from_model(model)
    image = test_set.inputs[:1]
    benchmark(deployed.forward, image)
