"""Router smoke test: a 2-backend fleet, a kill, and bitwise parity.

Demonstrates (and asserts) the ``repro route`` front tier end to end:

1. deploy the paper's arch1 as an artifact,
2. launch ``repro route --spawn 2`` — the router spawns two local
   ``repro serve`` backends on ephemeral ports and fronts them on one,
3. phase 1 — a single :class:`~repro.serving.ServeClient` (the same
   client class used against a lone server: the router speaks the
   identical protocol) sends one batch, checked **bitwise** against a
   local serial :class:`~repro.runtime.InferenceSession`,
4. phase 2 — ``--clients`` concurrent
   :class:`~repro.serving.AsyncServeClient`\\ s fire ``--requests``
   batches while one backend (pid read from the router's aggregated
   ``info`` op) is SIGKILLed mid-traffic.  Every accepted request must
   come back, and come back bitwise-identical — the router replays
   requests that died with the backend on the survivor,
5. phase 3 — the router's ``info`` must report the killed backend
   ``down`` and the survivor still routable,
6. phase 4 — ``drain`` fans out to the surviving child and the router
   process exits 0 on its own.

The CI examples-smoke job runs exactly this script; a non-zero exit
means the router lost a request, broke parity, or misreported health.

Usage::

    python examples/router_client.py [--clients 6] [--requests 6] [--rows 4]
"""

import argparse
import asyncio
import os
import signal
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


def launch_router(artifact: Path, args) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro route --spawn 2`` on an ephemeral port."""
    import selectors

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "route",
            "--spawn",
            "2",
            "--model",
            f"default={artifact}",
            "--port",
            "0",
            "--probe-interval",
            "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + 120.0
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(timeout=remaining):
                raise RuntimeError("timed out waiting for the router banner")
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("router exited before announcing its port")
            parsed = parse_banner(line)
            if parsed is not None:
                return proc, parsed[0], parsed[1]
    finally:
        selector.close()


def spawned_pids(info: dict) -> dict[str, int]:
    """address -> pid of every spawned backend in a router info reply."""
    return {
        address: desc["pid"]
        for address, desc in info["backends"].items()
        if desc.get("spawned") and desc.get("pid") is not None
    }


async def run_chaos_clients(host, port, expected_session, args) -> dict:
    """Concurrent clients; one backend is killed mid-traffic."""
    rng = np.random.default_rng(11)
    batches = [
        rng.normal(size=(args.rows, 256))
        for _ in range(args.clients * args.requests)
    ]
    expected = [expected_session.predict_proba(x) for x in batches]
    kill_at = (args.clients * args.requests) // 3
    done = 0
    killed = {"pid": None, "address": None}
    lock = asyncio.Lock()

    async def kill_one_backend(client) -> None:
        info = await client.info()
        pids = spawned_pids(info)
        assert len(pids) == 2, f"expected 2 spawned backends, got {pids}"
        address, pid = sorted(pids.items())[0]
        os.kill(pid, signal.SIGKILL)
        killed["pid"], killed["address"] = pid, address

    async def one_client(client_id: int) -> None:
        nonlocal done
        client = await AsyncServeClient.connect(host, port, retries=4)
        try:
            for request_id in range(args.requests):
                index = client_id * args.requests + request_id
                async with lock:
                    if done == kill_at and killed["pid"] is None:
                        await kill_one_backend(client)
                proba = await client.predict_proba(batches[index])
                if not np.array_equal(proba, expected[index]):
                    raise AssertionError(
                        f"client {client_id} request {request_id}: response "
                        "is not bitwise-identical to the serial session "
                        "(max abs diff "
                        f"{np.abs(proba - expected[index]).max():.3g})"
                    )
                async with lock:
                    done += 1
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(args.clients)))
    wall = time.perf_counter() - start
    assert killed["pid"] is not None, "the kill phase never fired"
    assert done == args.clients * args.requests
    return {
        "completed": done,
        "wall_s": wall,
        "rows_per_s": done * args.rows / wall,
        "killed_address": killed["address"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=6)
    parser.add_argument("--rows", type=int, default=4)
    args = parser.parse_args()

    model = build_arch1(rng=np.random.default_rng(0)).eval()
    deployed = DeployedModel.from_model(model)
    expected_session = InferenceSession.from_deployed(deployed)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "arch1.npz"
        deployed.save(artifact)
        proc, host, port = launch_router(artifact, args)
        try:
            # Phase 1: a lone batch through the router must match the
            # serial session bitwise — the router forwards payloads as
            # opaque bytes, so there is nothing it *could* perturb.
            x = np.random.default_rng(7).normal(size=(16, 256))
            with ServeClient(host, port) as client:
                info = client.info()
                assert info.get("router") is True
                assert len(spawned_pids(info)) == 2, info["backends"]
                served = client.predict_proba(x)
            expected = expected_session.predict_proba(x)
            assert np.array_equal(served, expected), "phase 1 parity broke"
            print("phase 1: single client bitwise-identical through router")

            # Phase 2: concurrent clients, one backend SIGKILLed
            # mid-traffic.  Zero lost requests, all bitwise.
            summary = asyncio.run(
                run_chaos_clients(host, port, expected_session, args)
            )
            print(
                f"phase 2: {args.clients} clients x {args.requests} requests "
                f"— killed backend {summary['killed_address']} mid-traffic, "
                f"{summary['completed']}/{summary['completed']} completed "
                f"bitwise at {summary['rows_per_s']:.0f} rows/s"
            )

            # Phase 3: the router's info must have noticed the death.
            with ServeClient(host, port) as client:
                deadline = time.monotonic() + 10.0
                while True:
                    info = client.info()
                    state = info["backends"][summary["killed_address"]][
                        "state"
                    ]
                    if state == "down":
                        break
                    if time.monotonic() > deadline:
                        raise AssertionError(
                            f"killed backend never reported down: {state}"
                        )
                    time.sleep(0.1)
                health = info["health"]
                assert health["backends_routable"] >= 1, health
                # Traffic still flows on the survivor.
                tail = client.predict_proba(x)
                assert np.array_equal(tail, expected)
            print(
                "phase 3: router info reports the killed backend down, "
                "survivor still serving bitwise"
            )

            # Phase 4: drain — the surviving child is drained and the
            # router exits 0 on its own.
            with ServeClient(host, port) as client:
                reply = client.drain()
                assert reply.get("draining") is True, reply
            code = proc.wait(timeout=60)
            assert code == 0, f"router exited {code} after drain"
            print("phase 4: drain fanned out, router exited cleanly")
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    print("router smoke: all phases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
