"""Chaos smoke: shed, delay and drop served requests; verify parity anyway.

Exercises the fault-tolerance stack (``docs/robustness.md``) against a
real ``repro serve`` subprocess, the way the CI examples-smoke job runs it:

1. build Arch. 1, freeze it into a deployment artifact, and launch the
   CLI server with serving-layer faults armed via ``REPRO_FAULTS``:
   injected admission sheds, delayed responses, and connections hung up
   in place of a response,
2. phase 1 — a client (with retries) sends batches through the faults;
   sheds are backed off and retried, dropped connections are replayed
   on a fresh socket, and every response must still be
   **bitwise-identical** to a local serial
   :class:`~repro.runtime.InferenceSession`; ``info`` must then show
   that the armed sheds really fired,
3. phase 2 — a mid-flight ``drain`` flushes an in-flight request
   bitwise-intact, refuses new work with ``server_unavailable``, and
   the server process exits ``0``.

A non-zero exit means a fault leaked to a client, parity broke, or the
drain dropped work.

Run:  PYTHONPATH=src python examples/chaos_client.py
      [--rows 8] [--requests 6]
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
from repro.exceptions import ServerUnavailable  # noqa: E402
from repro.runtime import InferenceSession  # noqa: E402
from repro.serving import AsyncServeClient, ServeClient  # noqa: E402
from repro.serving.protocol import parse_banner  # noqa: E402
from repro.zoo import build_arch1  # noqa: E402

#: Injected per-request hazards, two of each: a shed the client must back
#: off from, a response held back, and a connection closed in place of
#: the response (the client replays the idempotent predict).
SHEDS = 2
FAULT_SPEC = (
    f"admission.shed*{SHEDS}:retry_after_ms=5;"
    "server.delay_response*2:seconds=0.02;"
    "server.drop_connection*2"
)


def launch_server(artifact: Path, fault_spec: str):
    """Start ``repro serve`` with faults armed; parse the banner."""
    import selectors

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = fault_spec
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(artifact),
            "--port", "0",
            "--max-batch", "32",
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


async def chaos_phases(host, port, expected_session, args) -> None:
    rng = np.random.default_rng(42)

    # Phase 1: serve through the faults, bitwise-correct throughout.
    client = await AsyncServeClient.connect(
        host, port, retries=8, backoff_ms=10.0
    )
    try:
        for i in range(args.requests):
            rows = rng.normal(size=(args.rows, 256))
            proba = await client.predict_proba(rows)
            expected = expected_session.predict_proba(rows)
            if not np.array_equal(proba, expected):
                raise AssertionError(
                    f"request {i}: response deviates from serial under "
                    f"serving faults (max "
                    f"{np.abs(proba - expected).max():.3g})"
                )
        info = await client.info()
        if info["health"]["shed"] != SHEDS:
            raise AssertionError(
                f"expected {SHEDS} injected sheds to have fired; "
                f"health={info['health']!r}"
            )
        print(
            f"phase 1: {args.requests} requests bitwise-identical to serial "
            f"through {FAULT_SPEC} — OK"
        )

        # Phase 2: drain mid-flight.  The pending request must complete
        # bitwise-intact; new work must be refused with a typed error.
        rows = rng.normal(size=(args.rows, 256))
        pending = asyncio.ensure_future(client.predict_proba(rows))
        await asyncio.sleep(0.01)
        drainer = await AsyncServeClient.connect(host, port, retries=0)
        try:
            await drainer.drain()
            out = await asyncio.wait_for(pending, timeout=30.0)
            if not np.array_equal(out, expected_session.predict_proba(rows)):
                raise AssertionError("drained in-flight request lost parity")
            try:
                await drainer.predict_proba(rows)
            except ServerUnavailable:
                pass
            else:
                raise AssertionError(
                    "draining server accepted a new request"
                )
        finally:
            await drainer.close()
        print("phase 2: drain flushed in-flight work bitwise-intact — OK")
    finally:
        await client.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--requests", type=int, default=6)
    args = parser.parse_args()

    model = build_arch1(rng=np.random.default_rng(0)).eval()
    deployed = DeployedModel.from_model(model)
    expected_session = InferenceSession.from_deployed(deployed)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "arch1.npz"
        deployed.save(artifact)
        proc, host, port = launch_server(artifact, FAULT_SPEC)
        try:
            asyncio.run(chaos_phases(host, port, expected_session, args))
            # The drain must let the process exit cleanly on its own.
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                raise AssertionError("server did not exit after drain")
            if code != 0:
                raise AssertionError(f"server exited {code} after drain")
            print("phase 2b: server exited 0 after drain — OK")
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
