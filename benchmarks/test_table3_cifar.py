"""E3 — paper Table III: CIFAR-10 accuracy and per-image runtime.

The runtime columns are predicted for the *full-width* Arch. 3 (runtime
depends only on the architecture, so no training is needed); the accuracy
column comes from the width-reduced Arch. 3 trained on the synthetic
CIFAR-10 stand-in (documented in :mod:`repro.data.synthetic_cifar` and
the zoo docstrings).
"""

import numpy as np
import pytest

from .conftest import write_result
from repro.embedded import DeployedModel, InferenceProfiler
from repro.runtime import InferenceSession
from repro.zoo import build_arch3

#: Paper Table III: impl -> (accuracy %, (xu3, honor6x) us).
PAPER_TABLE3 = {
    "Java": (80.2, (21032.0, 19785.0)),
    "C++": (80.2, (8912.0, 8244.0)),
}

PLATFORM_ORDER = ("xu3", "honor6x")


@pytest.fixture(scope="module")
def table3(trained_arch3_reduced):
    model_full = build_arch3(rng=np.random.default_rng(0))
    profiler = InferenceProfiler(model_full, (3, 32, 32))
    _, acc = trained_arch3_reduced
    rows = {}
    for impl_key, impl_name in (("java", "Java"), ("cpp", "C++")):
        runtimes = tuple(profiler.runtime_us(p, impl_key) for p in PLATFORM_ORDER)
        rows[impl_name] = (100.0 * acc, runtimes)
    return rows


def test_table3_reproduction(table3, benchmark, trained_arch3_reduced):
    """Regenerate Table III and check the paper's qualitative shape."""
    lines = [
        "E3 / Table III — core runtime of each round of inference (CIFAR-10)",
        "",
        f"{'Impl':5s} {'Acc% (paper)':>14s} "
        + " ".join(f"{p + ' us (paper)':>24s}" for p in PLATFORM_ORDER),
        "(accuracy from the width-reduced Arch. 3 on synthetic CIFAR-10;",
        " runtimes predicted for the full-width Arch. 3)",
    ]
    for impl, (acc, runtimes) in sorted(table3.items()):
        paper_acc, paper_runtimes = PAPER_TABLE3[impl]
        cells = " ".join(
            f"{ours:9.0f} ({paper:9.0f})"
            for ours, paper in zip(runtimes, paper_runtimes)
        )
        lines.append(f"{impl:5s} {acc:6.2f} ({paper_acc:5.2f}) {cells}")
    write_result("table3_cifar", lines)

    for impl, (acc, runtimes) in table3.items():
        paper_acc, paper_runtimes = PAPER_TABLE3[impl]
        # Synthetic-data accuracy: must decisively learn the 10-class task
        # and land broadly in the paper's neighbourhood.
        assert 65.0 < acc <= 99.0, impl
        for ours, paper in zip(runtimes, paper_runtimes):
            assert ours == pytest.approx(paper, rel=0.15), impl
    # Java ~2.3-2.4x slower (paper: "C++ about 130% faster").
    for i in range(2):
        ratio = table3["Java"][1][i] / table3["C++"][1][i]
        assert 2.0 < ratio < 2.9, i

    model, _ = trained_arch3_reduced
    session = InferenceSession.from_deployed(DeployedModel.from_model(model))
    image = np.random.default_rng(0).uniform(size=(1, 3, 32, 32))
    benchmark(session.predict, image)


def test_bench_arch3_reduced_deployed_inference(
    benchmark, trained_arch3_reduced
):
    """Host-side per-image latency of the frozen session serving reduced Arch. 3."""
    model, _ = trained_arch3_reduced
    session = InferenceSession.from_deployed(DeployedModel.from_model(model))
    rng = np.random.default_rng(0)
    image = rng.uniform(size=(1, 3, 32, 32))
    benchmark(session.forward, image)
