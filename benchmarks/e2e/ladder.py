"""The per-layer ladder: the same plan and rows at every rung.

Kernel -> plan ops -> session -> engine -> batcher without a socket ->
protocol over a socketpair -> loopback server with each client ->
router.  Every rung is timed from outside, around public calls; what a
rung adds over the one below is that layer's cost.  All rungs run on
paper Arch. 1 (and reduced Arch. 3 where a conv shape matters), so the
numbers line up with the ``*_fc_*`` and ``inproc_conv_b1`` workloads.

Each name says which end-to-end metric it should move, and on which
workload; README.md holds that table.
"""

from __future__ import annotations

import asyncio
import os
import socket
import statistics
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import fft
from repro.embedded import DeployedModel
from repro.engine import Engine
from repro.nn import SGD, CrossEntropyLoss, Tensor
from repro.runtime import InferenceSession, ThreadedExecutor, Workspace
from repro.serving import InferenceServer, MicroBatcher, ServeClient
from repro.serving.protocol import (
    frame_chunks,
    pack_array_views,
    read_frame_sync,
    send_frame_sync,
    unpack_array,
)
from repro.streaming import compile_stream_plan
from repro.structured import (
    block_circulant_backward_batch,
    block_circulant_forward_batch,
)
from repro.zoo import build_arch1, build_arch3_reduced, build_fftnet

from . import estimators as est
from .procs import cpu_seconds
from .workloads import Context, ServedFcSmall, save_artifact


def bench(fn, budget_s: float, before=None, min_reps: int = 5) -> float:
    """Median wall time of ``fn()``, in us, over ``budget_s`` seconds.

    ``before()`` runs off the clock ahead of every repetition.
    """
    times = []
    clock = time.perf_counter
    deadline = clock() + budget_s
    while len(times) <= min_reps or clock() < deadline:
        if before is not None:
            before()
        start = clock()
        fn()
        times.append(clock() - start)
    return statistics.median(times[1:]) * 1e6  # the first call warms up


def bench_delta(outer, inner, budget_s: float) -> float:
    """Median of ``outer()`` minus median of ``inner()``, in us, with the
    two called alternately so that host noise is common to both."""
    outer_times, inner_times = [], []
    clock = time.perf_counter
    deadline = clock() + 2 * budget_s
    while len(outer_times) <= 5 or clock() < deadline:
        for fn, times in ((outer, outer_times), (inner, inner_times)):
            start = clock()
            fn()
            times.append(clock() - start)
    return (statistics.median(outer_times[1:]) - statistics.median(inner_times[1:])) * 1e6


def run_ladder(ctx: Context, seconds: float) -> dict[str, float]:
    """Every per-layer metric but the ``host.*`` and ``trace.*`` ones,
    plus ``ladder.failed``, the wrong or failed replies on the way."""
    budget = seconds / 80.0  # per rung: 0.1 s of an 8 s run
    values: dict[str, float] = {}
    rng = np.random.default_rng(ctx.seed)
    artifact = ctx.tmp / "ladder_arch1.npz"
    deployed = save_artifact(build_arch1(rng=np.random.default_rng(0)), artifact)
    conv_deployed = save_artifact(
        build_arch3_reduced(rng=np.random.default_rng(0)), ctx.tmp / "ladder_arch3.npz"
    )
    values.update(kernel_rungs(rng, budget))
    values.update(training_rungs(rng, budget))
    values.update(runtime_rungs(rng, budget, artifact, deployed, conv_deployed))
    values.update(protocol_rungs(rng, budget))
    values.update(batcher_rungs(rng, seconds / 24.0, deployed))
    values.update(streaming_rungs(rng, budget))
    values.update(network_rungs(ctx, seconds, values))
    return values


# ----------------------------------------------------------------------
# fft, structured: the kernels, on the block shapes the two models use
# ----------------------------------------------------------------------
def kernel_rungs(rng, budget: float) -> dict[str, float]:
    # Arch. 1 layer 1: one row as (q=4, b=64) blocks against a (p=2, q=4)
    # grid.  Reduced Arch. 3, first block-circulant conv: 16x16 output
    # positions, each 16*3*3 inputs as (q=18, b=8) blocks, (p=4, q=18).
    rfft_us = irfft_us = forward_us = 0.0
    for batch, p, q, b in ((1, 2, 4, 64), (256, 4, 18, 8)):
        x = rng.normal(size=(batch, q, b))
        spectra = fft.rfft(rng.normal(size=(p, q, b)))
        y_spec = fft.rfft(rng.normal(size=(batch, p, b)))
        rfft_us += bench(lambda: fft.rfft(x), budget)
        irfft_us += bench(lambda: fft.irfft(y_spec, n=b), budget)
        forward_us += bench(lambda: block_circulant_forward_batch(spectra, x), budget)
    x = rng.normal(size=(64, 4, 64))
    grad = rng.normal(size=(64, 2, 64))
    spectra = fft.rfft(rng.normal(size=(2, 4, 64)))
    return {
        "fft.rfft_us": rfft_us,
        "fft.irfft_us": irfft_us,
        "structured.forward_batch_us": forward_us,
        "structured.backward_batch_us": bench(
            lambda: block_circulant_backward_batch(spectra, x, grad), budget
        ),
    }


# ----------------------------------------------------------------------
# nn: the split of one training step (Arch. 1, batch 64)
# ----------------------------------------------------------------------
def training_rungs(rng, budget: float) -> dict[str, float]:
    model = build_arch1(rng=np.random.default_rng(0)).train()
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=0.01)
    x, labels = rng.normal(size=(64, 256)), rng.integers(0, 10, size=64)
    forward, backward, step = [], [], []
    clock = time.perf_counter
    deadline = clock() + 4 * budget
    while len(step) < 5 or clock() < deadline:
        optimizer.zero_grad()
        t0 = clock()
        loss = loss_fn(model(Tensor(x)), labels)
        t1 = clock()
        loss.backward()
        t2 = clock()
        optimizer.step()
        t3 = clock()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
        step.append(t3 - t2)
    return {
        "nn.forward_us": statistics.median(forward) * 1e6,
        "nn.backward_us": statistics.median(backward) * 1e6,
        "nn.optim_step_us": statistics.median(step) * 1e6,
    }


# ----------------------------------------------------------------------
# embedded, runtime, engine: load, freeze, plan ops, session, executors
# ----------------------------------------------------------------------
def plan_ops(session: InferenceSession, x: np.ndarray):
    """A callable running ``PlanOp.run`` over the session's ops, on an
    arena of its own."""
    workspace = Workspace(session.arena_buckets)
    x = np.asarray(x, dtype=session.policy.real_dtype)

    def run_ops():
        out = x
        for op in session.ops:
            out = op.run(out, workspace)
        return out

    return run_ops


def alloc_bytes(fn) -> float:
    """Peak bytes ``fn()`` allocates above what was live before it."""
    fn()
    tracemalloc.start()
    try:
        fn()  # tracemalloc's own first-call bookkeeping
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return float(peak - live)


def runtime_rungs(rng, budget, artifact, deployed, conv_deployed) -> dict[str, float]:
    x1 = rng.normal(size=(1, 256))
    x8 = rng.normal(size=(8, 256))
    x64 = rng.normal(size=(64, 256))
    image = rng.normal(size=(1, 3, 32, 32))
    session = InferenceSession.from_deployed(deployed)
    conv_session = InferenceSession.from_deployed(conv_deployed)
    values = {
        "embedded.load_ms": bench(lambda: DeployedModel.load(artifact), budget) / 1e3,
        "engine.freeze_ms": bench(
            lambda: InferenceSession.from_deployed(deployed).predict_proba(x1), budget
        ) / 1e3,
        "runtime.plan.ops_us": bench(plan_ops(session, x1), budget),
        "runtime.plan.conv_ops_us": bench(plan_ops(conv_session, image), 2 * budget),
        "runtime.alloc_bytes_per_call": alloc_bytes(lambda: session.predict_proba(x1)),
        "runtime.session.self_us": bench_delta(
            lambda: session.predict_proba(x1), plan_ops(session, x1), budget
        ),
    }
    with InferenceSession.from_deployed(
        deployed, executor=ThreadedExecutor(threads=2)
    ) as threaded:
        # chunked as the server chunks a fused batch for a 2-thread pool
        values["runtime.executor.threaded_self_us"] = bench_delta(
            lambda: threaded.predict_proba(x64, batch_size=32),
            lambda: session.predict_proba(x64),
            budget,
        )
    with Engine(model=str(artifact)) as engine:
        values["engine.self_us"] = bench_delta(
            lambda: engine.predict_proba(x8), lambda: session.predict_proba(x8), budget
        )
    return values


# ----------------------------------------------------------------------
# serving.protocol: encode, and decode over a socketpair
# ----------------------------------------------------------------------
def protocol_rungs(rng, budget: float) -> dict[str, float]:
    left, right = socket.socketpair()
    try:
        for sock in (left, right):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)

        def frame(header: dict, array: np.ndarray) -> tuple[float, float]:
            encode = bench(
                lambda: frame_chunks(header, pack_array_views(array)), budget
            )
            decode = bench(
                lambda: unpack_array(read_frame_sync(right)[1]),
                budget,
                before=lambda: send_frame_sync(left, header, pack_array_views(array)),
            )
            return encode, decode

        request = {"op": "predict_proba", "request_id": "0" * 32}
        reply = {"status": "ok", "op": "predict_proba"}
        small = [frame(request, rng.normal(size=(8, 256))),
                 frame(reply, rng.normal(size=(8, 10)))]
        bulk = [frame(request, rng.normal(size=(64, 256))),
                frame(reply, rng.normal(size=(64, 10)))]
    finally:
        left.close()
        right.close()
    return {
        "serving.protocol.encode_us": sum(e for e, _ in small),
        "serving.protocol.decode_us": sum(d for _, d in small),
        "serving.protocol.bulk_encode_us": sum(e for e, _ in bulk),
        "serving.protocol.bulk_decode_us": sum(d for _, d in bulk),
    }


# ----------------------------------------------------------------------
# serving.batcher: MicroBatcher without a socket, 2 and 32 submitters
# ----------------------------------------------------------------------
async def _batcher_rung(session, rows, submitters: int, seconds: float):
    """Closed-loop submitters against a MicroBatcher set up as the
    server sets it up.  Each submitter's rows carry its id in column 0,
    so the benchmark's runner can stamp when *its* batch was entered."""
    entered: dict[int, tuple[float, float]] = {}
    clock = time.perf_counter

    def runner(batch: np.ndarray) -> np.ndarray:
        entry = clock()
        out = session.predict_proba(batch)
        done = clock()
        for who in np.unique(batch[:, 0]):
            entered[int(who)] = (entry, done)
        return out

    waits, selfs = [], []
    with ThreadPoolExecutor(max_workers=1) as infer_thread:
        batcher = MicroBatcher(runner, max_batch=32, max_wait_ms=2.0,
                               executor=infer_thread)
        end = clock() + seconds

        async def submitter(who: int) -> None:
            mine = rows.copy()
            mine[:, 0] = who
            while True:
                t0 = clock()
                if t0 >= end:
                    return
                await batcher.submit(mine)
                t1 = clock()
                entry, done = entered[who]
                waits.append(entry - t0)
                selfs.append(t1 - done)

        try:
            await asyncio.gather(*[submitter(i) for i in range(submitters)])
        finally:
            await batcher.aclose()
    return statistics.median(waits) * 1e3, statistics.median(selfs) * 1e6


def batcher_rungs(rng, seconds: float, deployed) -> dict[str, float]:
    session = InferenceSession.from_deployed(deployed)
    rows = rng.normal(size=(8, 256))
    values = {}
    for submitters, suffix in ((2, ""), (32, ".s32")):
        wait_ms, self_us = asyncio.run(_batcher_rung(session, rows, submitters, seconds))
        values[f"serving.batcher.wait_ms{suffix}"] = wait_ms
        values[f"serving.batcher.self_us{suffix}"] = self_us
    return values


# ----------------------------------------------------------------------
# streaming: StreamPlan in process, and the plain-NumPy floor
# ----------------------------------------------------------------------
def numpy_floor(rng, channels: int = 8, depth: int = 3, classes: int = 6):
    """A plain NumPy ring-buffer sample loop over the same taps, after
    SNIPPETS.md's ``scipy_fast_generate.py``: per sample and layer,
    shift the history, append, apply the two taps.  No repo code: this
    is the floor a ``StreamPlan`` push must beat per 4-sample chunk."""
    layers, width = [], 1
    for level in range(depth):
        d = 2 ** (depth - 1 - level)
        layers.append((rng.normal(size=(channels, width)), rng.normal(size=(channels, width)),
                       rng.normal(size=channels), np.zeros((d + 1, width))))
        width = channels
    hidden = (rng.normal(size=(channels, channels)), rng.normal(size=channels))
    out = (rng.normal(size=(classes, channels)), rng.normal(size=classes))

    def push(chunk: np.ndarray) -> np.ndarray:
        rows = []
        for sample in chunk:
            for w_l, w_r, bias, history in layers:
                history[:-1] = history[1:]
                history[-1] = sample
                sample = np.maximum(w_r @ sample + w_l @ history[0] + bias, 0.0)
            sample = np.maximum(hidden[0] @ sample + hidden[1], 0.0)
            logits = out[0] @ sample + out[1]
            e = np.exp(logits - logits.max())
            rows.append(e / e.sum())
        return np.stack(rows)

    return push


def streaming_rungs(rng, budget: float) -> dict[str, float]:
    plan = compile_stream_plan(
        build_fftnet(channels=8, depth=3, classes=6, rng=np.random.default_rng(0)).eval()
    )
    chunk = rng.normal(size=(4, 1))
    one, pair = plan.open(), [plan.open(), plan.open()]
    floor = numpy_floor(rng)
    return {
        "streaming.plan.push_us": bench(
            lambda: plan.push(one, chunk, proba=True), budget
        ),
        "streaming.plan.push_many_us": bench(
            lambda: plan.push_many(pair, [chunk, chunk], proba=True), budget
        ),
        "streaming.state_bytes": float(one.state_bytes),
        "streaming.numpy_floor_us": bench(lambda: floor(chunk), budget),
    }


# ----------------------------------------------------------------------
# serving.server, serving.client, router: loopback, with each client
# ----------------------------------------------------------------------
def _p50_ms(windows) -> float:
    return est.percentile([s for w in windows for s in w.latencies], 0.50) * 1e3


def inprocess_server_p50(ctx: Context, seconds: float) -> tuple[float, int]:
    """served_fc_small's load against an ``InferenceServer`` running in
    this process, on the clients' own event loop: ``(p50 ms, failed)``."""
    load = ServedFcSmall(ctx)
    load.prepare()
    loop = asyncio.new_event_loop()
    try:
        with Engine(model=str(load.artifact)) as engine:
            server = InferenceServer(engine, port=0)
            loop.run_until_complete(server.start())
            try:
                load.attach(server.host, server.port, loop=loop)
                try:
                    load.window(seconds / 48.0)
                    window = load.window(seconds / 24.0)
                finally:
                    load.tear_down()
            finally:
                loop.run_until_complete(server.stop())
    finally:
        loop.close()
    return _p50_ms([window]), window.failed


def network_rungs(ctx: Context, seconds: float, values: dict[str, float]) -> dict[str, float]:
    """One ``repro route --spawn 1`` tree gives both rungs: the load goes
    to its backend directly and through the router, in interleaved
    windows on the same rows, so their difference is the relay hop."""
    loopback_ms, failed = inprocess_server_p50(ctx, seconds)
    direct, routed = ServedFcSmall(ctx), ServedFcSmall(ctx)
    direct.prepare()
    routed.prepare()
    router = ctx.fleet.spawn(
        ["route", "--spawn", "1", "--model", str(direct.artifact), "--port", "0"]
    )
    me = os.getpid()
    try:
        with ServeClient(router.host, router.port) as control:
            (address, backend), = control.info()["backends"].items()
        host, _, port = address.rpartition(":")
        direct.attach(host, int(port))
        routed.attach(router.host, router.port)
        cpu = {"client": 0.0, "server": 0.0, "router": 0.0}
        pids = {"client": me, "server": backend["pid"], "router": router.pid}
        windows = {"direct": [], "routed": []}
        routed_rows = 0
        for load in (direct, routed):
            load.window(seconds / 48.0)
        for _ in range(3):
            for label, load in (("direct", direct), ("routed", routed)):
                before = {who: cpu_seconds(pid) for who, pid in pids.items()}
                windows[label].append(load.window(seconds / 24.0))
                if label == "routed":
                    routed_rows += windows[label][-1].rows
                    for who, pid in pids.items():
                        cpu[who] += cpu_seconds(pid) - before[who]
        failed += sum(w.failed for ws in windows.values() for w in ws)

        # Both connections at once, so the batcher fuses their rows: the
        # share of such replies that still equal a lone serial forward.
        async def fused(k: int):
            return await asyncio.gather(direct.request(0, k), direct.request(1, k))

        bitwise = [
            np.array_equal(out, direct.expected[c][k])
            for k in range(direct.pool)
            for c, out in enumerate(direct.loop.run_until_complete(fused(k)))
        ]

        pings = max(5, int(seconds * 4))

        async def async_pings() -> float:
            times = []
            for _ in range(pings):
                start = time.perf_counter()
                await direct.connections[0].ping()
                times.append(time.perf_counter() - start)
            return statistics.median(times) * 1e3

        ping_async_ms = direct.loop.run_until_complete(async_pings())
        with ServeClient(host, int(port)) as sync_client:
            ping_sync_ms = bench(sync_client.ping, 0.0, min_reps=5) / 1e3
            server_info = sync_client.info()
        with ServeClient(router.host, router.port) as control:
            router_stats = control.info()["stats"]
    finally:
        direct.tear_down()
        routed.tear_down()
        ctx.fleet.stop(router)

    batcher_stats = next(iter(server_info["batchers"].values()))
    direct_ms, routed_ms = _p50_ms(windows["direct"]), _p50_ms(windows["routed"])
    protocol_ms = (values["serving.protocol.encode_us"]
                   + values["serving.protocol.decode_us"]) / 1e3
    batcher_ms = (values["serving.batcher.wait_ms"]
                  + values["serving.batcher.self_us"] / 1e3)
    server_self_ms = loopback_ms - protocol_ms - batcher_ms
    pooled = [s for w in windows["direct"] for s in w.latencies]
    return {
        "serving.server.self_ms": server_self_ms,
        "serving.ping_rtt_ms.async": ping_async_ms,
        "serving.ping_rtt_ms.sync": ping_sync_ms,
        "serving.batcher.rows_per_batch": batcher_stats["rows"] / max(1, batcher_stats["batches"]),
        "serving.client.cpu_us_per_row": 1e6 * cpu["client"] / max(1, routed_rows),
        "serving.server.cpu_us_per_row": 1e6 * cpu["server"] / max(1, routed_rows),
        "router.cpu_us_per_row": 1e6 * cpu["router"] / max(1, routed_rows),
        "serving.client.latency_p99_ms": est.percentile(pooled, 0.99) * 1e3,
        "serving.client.retries": float(
            server_info["stats"]["shed"] + server_info["stats"]["rate_limited"]
        ),
        "runtime.parity_bitwise_share": sum(bitwise) / len(bitwise),
        "router.relay_ms": routed_ms - direct_ms,
        "router.forwards": float(router_stats["forwards"]),
        "router.retries": float(router_stats["replays"]),
        # The rungs of a served_fc_small request, summed, against what the
        # same load measures on a `repro serve` subprocess.
        "ladder.served_small.p50_ms": direct_ms,
        "ladder.served_small.rungs_ms": protocol_ms + batcher_ms + server_self_ms,
        "ladder.served_small.unexplained_ms": direct_ms - loopback_ms,
        "ladder.failed": float(failed),
    }
