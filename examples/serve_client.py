"""Concurrent async clients against ``repro serve`` — and a parity check.

Demonstrates the serving stack end to end, the way a deployment would
run it:

1. build the paper's Arch. 1 model and freeze it into a deployment
   artifact (``repro deploy`` equivalent),
2. launch the real CLI server as a subprocess:
   ``python -m repro serve artifact.npz --port 0 ...``,
3. phase 1 — a single client sends one batch and the response is
   checked **bitwise** against a local serial
   :class:`~repro.runtime.InferenceSession`,
4. phase 2 — ``--clients`` concurrent :class:`AsyncServeClient`\\ s each
   fire ``--requests`` batches; the server micro-batches across them,
   and every client's rows still match the serial session,
5. print the throughput/latency summary.

The CI serving-smoke job runs exactly this script; a non-zero exit
means the server broke parity.

Run:  PYTHONPATH=src python examples/serve_client.py
      [--clients 8] [--requests 8] [--rows 4] [--max-batch 32]
"""

import argparse
import asyncio
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.embedded import DeployedModel  # noqa: E402
from repro.runtime import InferenceSession  # noqa: E402
from repro.serving import AsyncServeClient, ServeClient  # noqa: E402
from repro.serving.protocol import parse_banner  # noqa: E402
from repro.zoo import build_arch1  # noqa: E402



def launch_server(artifact: Path, args) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` on an ephemeral port; parse the banner.

    The banner wait uses ``select`` so a server that hangs before
    printing fails this script in 30 s instead of blocking ``readline``
    until the CI job times out.
    """
    import selectors

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(artifact),
            "--port", "0",
            "--max-batch", str(args.max_batch),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
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
            parsed = parse_banner(line)
            if parsed is not None:
                return proc, parsed[0], parsed[1]
    finally:
        selector.close()


async def run_clients(host, port, expected_session, args) -> dict:
    """Fire concurrent async clients; verify every response row."""

    async def one_client(client_id: int) -> tuple[int, float]:
        rng = np.random.default_rng(1000 + client_id)
        client = await AsyncServeClient.connect(host, port)
        latencies = []
        try:
            for _ in range(args.requests):
                rows = rng.normal(size=(args.rows, 256))
                start = time.perf_counter()
                proba = await client.predict_proba(rows)
                latencies.append(time.perf_counter() - start)
                expected = expected_session.predict_proba(rows)
                if not np.allclose(proba, expected, atol=1e-9):
                    raise AssertionError(
                        f"client {client_id}: served probabilities deviate "
                        f"from the serial session by "
                        f"{np.abs(proba - expected).max():.3g}"
                    )
                labels = await client.predict(rows)
                if not np.array_equal(labels, expected.argmax(axis=-1)):
                    raise AssertionError(f"client {client_id}: label mismatch")
        finally:
            await client.close()
        return args.requests * args.rows * 2, sum(latencies) / len(latencies)

    start = time.perf_counter()
    outcomes = await asyncio.gather(
        *[one_client(i) for i in range(args.clients)]
    )
    wall = time.perf_counter() - start
    total_rows = sum(rows for rows, _ in outcomes)
    return {
        "clients": args.clients,
        "rows_per_s": total_rows / wall,
        "mean_latency_ms": 1e3 * sum(lat for _, lat in outcomes) / len(outcomes),
        "wall_s": wall,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=32)
    args = parser.parse_args()

    model = build_arch1(rng=np.random.default_rng(0)).eval()
    deployed = DeployedModel.from_model(model)
    # serial fp64 reference (the low-level runtime primitive on purpose:
    # the server under test must match it bitwise)
    expected_session = InferenceSession.from_deployed(deployed)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "arch1.npz"
        deployed.save(artifact)
        proc, host, port = launch_server(artifact, args)
        try:
            # Phase 1: one lone batch must match the serial session bitwise
            # (alone in its micro-batch, the server runs the same rows
            # through the same frozen plan).
            x = np.random.default_rng(7).normal(size=(16, 256))
            with ServeClient(host, port) as client:
                served = client.predict_proba(x)
            assert np.array_equal(served, expected_session.predict_proba(x)), \
                "single-client response is not bitwise-identical to serial"
            print("phase 1: single client bitwise-identical to serial — OK")

            # Phase 2: concurrent clients, micro-batched together.
            summary = asyncio.run(
                run_clients(host, port, expected_session, args)
            )
            print(
                f"phase 2: {summary['clients']} concurrent clients — "
                f"{summary['rows_per_s']:.0f} rows/s, "
                f"mean latency {summary['mean_latency_ms']:.1f} ms, "
                f"wall {summary['wall_s']:.2f} s — all rows match serial"
            )
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    print("serving smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
