"""Concurrent streaming clients against ``repro serve`` — parity + leaks.

Demonstrates the streaming stack end to end, the way a deployment
would run it:

1. build the streamable FFTNet sequence model, freeze it into a
   deployment artifact,
2. launch the real CLI server as a subprocess:
   ``python -m repro serve artifact.npz --port 0 --max-streams N``,
3. phase 1 — one sync :meth:`ServeClient.stream` pushes a sequence in
   ragged chunks; the concatenated incremental rows are checked
   **bitwise** against the offline batch session,
4. phase 2 — the whole sequence goes to the stream's route as one
   ``predict_proba``: it must equal the concatenated pushes bitwise,
   and ``info`` must list that route once — predicts and pushes share
   one frozen session,
5. phase 3 — ``--streams`` concurrent :class:`AsyncServeClient`
   streams push interleaved chunks; the server fuses concurrent pushes
   into shared steps and every stream's rows still match its offline
   reference; afterwards ``info`` must report zero open streams and
   zero retained state bytes,
6. phase 4 — a client opens a stream, pushes, and vanishes without
   ``stream_close``; the server must free the orphaned state (polled
   via ``info``) — abrupt disconnects leak nothing,
7. phase 5 — with a stream mid-conversation the server drains:
   ``stream_close`` still completes cleanly (released, not broken)
   and the process exits 0 on its own.

The CI examples-smoke job runs exactly this script; a non-zero exit
means streaming broke parity, leaked state, or failed to close
cleanly.

Run:  PYTHONPATH=src python examples/stream_client.py
      [--streams 6] [--pushes 8] [--chunk-rows 5]
"""

import argparse
import asyncio
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.embedded import DeployedModel  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.serving import AsyncServeClient, ServeClient  # noqa: E402
from repro.serving.protocol import (  # noqa: E402
    pack_array,
    parse_banner,
    read_frame_sync,
    send_frame_sync,
)
from repro.zoo import build_fftnet  # noqa: E402


def launch_server(artifact: Path, args) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` on an ephemeral port; parse the banner."""
    import selectors

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(artifact),
            "--port", "0",
            "--max-streams", str(args.streams + 2),
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


def ragged_cuts(total: int, pushes: int, rng) -> list[int]:
    """Split ``total`` rows into ``pushes`` positive ragged chunks."""
    cuts = sorted(rng.choice(range(1, total), size=pushes - 1, replace=False))
    edges = [0, *cuts, total]
    return [b - a for a, b in zip(edges, edges[1:])]


def stream_stats(client: ServeClient) -> dict:
    return client.info()["health"]["streams"]


async def concurrent_streams(host, port, session, args) -> dict:
    """Phase 3: many async streams pushing interleaved ragged chunks."""

    async def one_stream(stream_id: int) -> tuple[int, list[float]]:
        rng = np.random.default_rng(2000 + stream_id)
        total = args.pushes * args.chunk_rows
        full = rng.normal(size=(total, 1))
        expected = session.predict_proba(full[None])[0]
        client = await AsyncServeClient.connect(host, port)
        latencies, outs, i = [], [], 0
        try:
            async with await client.stream() as stream:
                for rows in ragged_cuts(total, args.pushes, rng):
                    start = time.perf_counter()
                    outs.append(await stream.push(full[i : i + rows]))
                    latencies.append(time.perf_counter() - start)
                    i += rows
        finally:
            await client.close()
        if not np.array_equal(np.concatenate(outs), expected):
            raise AssertionError(
                f"stream {stream_id}: incremental rows deviate from the "
                f"offline batch session"
            )
        return total, latencies

    start = time.perf_counter()
    outcomes = await asyncio.gather(
        *[one_stream(i) for i in range(args.streams)]
    )
    wall = time.perf_counter() - start
    latencies = sorted(
        1e3 * lat for _, lats in outcomes for lat in lats
    )
    return {
        "streams": args.streams,
        "rows_per_s": sum(rows for rows, _ in outcomes) / wall,
        "p50_ms": latencies[len(latencies) // 2],
        "p99_ms": latencies[min(len(latencies) - 1,
                                int(len(latencies) * 0.99))],
        "wall_s": wall,
    }


def abrupt_disconnect(host: str, port: int) -> None:
    """Phase 4: open, push, vanish — the server must free the state."""
    raw = socket.create_connection((host, port), timeout=10)
    send_frame_sync(raw, {"op": "stream_open"})
    opened, _ = read_frame_sync(raw)
    assert opened["status"] == "ok", opened
    chunk = np.random.default_rng(99).normal(size=(4, 1))
    send_frame_sync(
        raw, {"op": "stream_push", "stream": opened["stream"]},
        pack_array(chunk),
    )
    pushed, _ = read_frame_sync(raw)
    assert pushed["status"] == "ok", pushed
    raw.close()  # no stream_close — simulate a crashed client


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", type=int, default=6)
    parser.add_argument("--pushes", type=int, default=8)
    parser.add_argument("--chunk-rows", type=int, default=5)
    args = parser.parse_args()

    model = build_fftnet(
        channels=8, depth=3, classes=6, rng=np.random.default_rng(0)
    )
    deployed = DeployedModel.from_model(model)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "fftnet.npz"
        deployed.save(artifact)
        # Artifacts persist weights at fp32, so the offline reference is
        # the artifact's own frozen session — the server must match it
        # bitwise, push boundaries notwithstanding.
        session = Engine(model=DeployedModel.load(artifact)).session()
        proc, host, port = launch_server(artifact, args)
        try:
            # Phase 1: one sync stream, ragged pushes, bitwise parity.
            rng = np.random.default_rng(7)
            full = rng.normal(size=(48, 1))
            expected = session.predict_proba(full[None])[0]
            with ServeClient(host, port) as client:
                with client.stream() as stream:
                    outs, i = [], 0
                    for rows in (1, 5, 2, 17, 3, 20):
                        outs.append(stream.push(full[i : i + rows]))
                        i += rows
                pushed = np.concatenate(outs)
                assert np.array_equal(pushed, expected), \
                    "incremental rows are not bitwise-identical to batch"
                stats = stream_stats(client)
                assert stats["open"] == 0 and stats["state_bytes"] == 0, stats
                print("phase 1: ragged pushes bitwise-identical to batch — OK")

                # Phase 2: the same sequence as one predict on the route.
                route = f"{stream.model}/{stream.precision}"
                predicted = client.predict_proba(
                    full[None], model=stream.model, precision=stream.precision
                )[0]
                assert np.array_equal(predicted, pushed), \
                    "predict_proba on the stream's route deviates from its pushes"
                routes = list(client.info()["routes"])
                assert routes == [route], routes
            print(f"phase 2: predict on {route} equals its pushes, one route — OK")

            # Phase 3: concurrent streams, fused across connections.
            summary = asyncio.run(
                concurrent_streams(host, port, session, args)
            )
            with ServeClient(host, port) as client:
                stats = stream_stats(client)
                assert stats["open"] == 0, stats
                assert stats["state_bytes"] == 0, stats
                assert stats["opened"] >= args.streams + 1, stats
            print(
                f"phase 3: {summary['streams']} concurrent streams — "
                f"{summary['rows_per_s']:.0f} rows/s, push p50 "
                f"{summary['p50_ms']:.1f} ms / p99 {summary['p99_ms']:.1f} "
                f"ms, wall {summary['wall_s']:.2f} s — all rows match batch"
            )

            # Phase 4: abrupt disconnect must leak nothing.
            abrupt_disconnect(host, port)
            with ServeClient(host, port) as client:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    stats = stream_stats(client)
                    if stats["open"] == 0 and stats["state_bytes"] == 0:
                        break
                    time.sleep(0.05)
                assert stats["open"] == 0 and stats["state_bytes"] == 0, \
                    f"orphaned stream state leaked: {stats}"
            print("phase 4: abrupt disconnect leaked no stream state — OK")

            # Phase 5: drain — new pushes are refused, but stream_close
            # stays clean (the handle is released, not broken) and the
            # server exits 0 on its own.
            client = ServeClient(host, port)
            stream = client.stream()
            out = stream.push(full[:8])
            assert np.array_equal(out, expected[:8])
            with ServeClient(host, port) as drainer:
                drainer.drain()
            stream.close()
            assert not stream.broken, \
                "stream_close during drain was not clean"
            client.close()
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                raise AssertionError("server did not exit after drain")
            assert code == 0, f"server exited {code} after drain"
            print("phase 5: clean stream_close on drain, server exited 0 — OK")
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    print("streaming smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
