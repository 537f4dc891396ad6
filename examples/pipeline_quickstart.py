"""One declarative build, served — the pipeline smoke test.

Runs the paper's whole workflow from a single
:class:`~repro.pipeline.PipelineConfig` and proves the produced
format-v2 artifact serves through the engine unchanged:

1. **build** — 2-epoch synthetic-MNIST training of a dense FC network,
   block-circulant compression (block 16), 12-bit fixed-point
   quantization, packaged as a format-v2 artifact,
2. **serve** — launch the real CLI server on the artifact:
   ``python -m repro serve artifact.npz --port 0``,
3. **parity** — a client's served probabilities must be bitwise
   identical to a local fp64 session frozen from the same artifact,
   and within the documented quantization parity bound
   (``10 x max_weight_error``, the per-layer relative quantization
   error recorded in the artifact metadata) of the *float* model the
   pipeline trained.

The CI examples-smoke job runs exactly this script; a non-zero exit
means the build pipeline or the artifact format broke.

Run:  PYTHONPATH=src python examples/pipeline_quickstart.py
      [--epochs 2] [--train-size 400] [--quantize-bits 12]
"""

import argparse
import os
import re
import selectors
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.embedded import DeployedModel  # noqa: E402
from repro.pipeline import Pipeline, PipelineConfig  # noqa: E402
from repro.runtime import InferenceSession  # noqa: E402
from repro.serving import ServeClient  # noqa: E402

BANNER = re.compile(r"serving on (\S+):(\d+)")
PARITY_FACTOR = 10.0  # documented bound: 10 x max per-layer weight error


def launch_server(artifact: Path) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(artifact), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + 30
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(timeout=remaining):
                raise RuntimeError("timed out waiting for the server banner")
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before announcing its port")
            match = BANNER.match(line)
            if match:
                return proc, match.group(1), int(match.group(2))
    finally:
        selector.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--train-size", type=int, default=400)
    parser.add_argument("--test-size", type=int, default=100)
    parser.add_argument("--quantize-bits", type=int, default=12)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "built.npz"
        config = PipelineConfig(
            architecture="121-64F-10F",  # dense: the compress stage works
            train_size=args.train_size,
            test_size=args.test_size,
            epochs=args.epochs,
            block_size=16,
            fine_tune_epochs=1,
            quantize_bits=args.quantize_bits,
            out=artifact,
            precisions=("fp64",),
        )
        pipeline = Pipeline(config)
        result = pipeline.run()
        quantize = result.quantize
        print(
            f"build: train acc {result.train.test_accuracy:.3f} -> "
            f"compressed acc {result.compress.test_accuracy:.3f} -> "
            f"quantized acc {quantize.test_accuracy:.3f} "
            f"({args.quantize_bits}-bit, delta {quantize.accuracy_delta:+.3f}), "
            f"artifact {result.package.storage_bytes / 1024:.1f} KB (v2)"
        )
        assert artifact.exists(), "package stage wrote no artifact"

        # The float twin of the built artifact (same trained model,
        # no quantization) anchors the parity bound.
        float_session = InferenceSession.from_deployed(
            DeployedModel.from_model(pipeline.model)
        )
        loaded = DeployedModel.load(artifact)
        assert loaded.quantized and loaded.source_version == 2
        local_session = InferenceSession.from_deployed(loaded)
        bound = PARITY_FACTOR * quantize.max_weight_error

        proc, host, port = launch_server(artifact)
        try:
            x = np.random.default_rng(7).normal(size=(32, 121))
            with ServeClient(host, port) as client:
                served = client.predict_proba(x)
            expected = local_session.predict_proba(x)
            assert np.array_equal(served, expected), (
                "served quantized artifact is not bitwise-identical to a "
                "local session on the same artifact"
            )
            deviation = float(
                np.abs(served - float_session.predict_proba(x)).max()
            )
            assert deviation <= bound, (
                f"served-vs-float deviation {deviation:.3g} exceeds the "
                f"documented parity bound {bound:.3g}"
            )
            print(
                f"serve: bitwise vs local session OK; vs float model "
                f"{deviation:.2e} <= bound {bound:.2e} "
                f"({PARITY_FACTOR:g} x max weight error "
                f"{quantize.max_weight_error:.2e})"
            )
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    print("pipeline smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
