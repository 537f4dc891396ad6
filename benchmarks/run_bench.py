"""Perf-trajectory benchmark runner: times the frequency-domain engine.

Measures the hot paths this engine optimizes and writes a machine-readable
``BENCH_fdx.json`` so future PRs can compare against the recorded
trajectory:

* **inference_forward_cached** — repeated single-sample forwards of a
  ``BlockCirculantLinear`` with the version-keyed spectrum cache and the
  matmul contraction, against the seed behaviour (``rfft(weight)`` on
  every call + ``np.einsum``).  Acceptance floor: >= 5x.
* **train_step_matmul_vs_einsum** — batched forward+backward at
  ``(p, q, b) = (16, 16, 64)``, batch 64, matmul kernels vs the einsum
  reference.  Both sides re-transform the weights once per step, as
  training does.  Acceptance floor: >= 1.5x.
* **equivalence** — max abs deviation of every new kernel from its
  reference implementation (tolerance 1e-10).
* **zoo** — forward / forward+backward / frozen-session inference on the
  MNIST-FC (Arch. 1) and CIFAR-conv (reduced Arch. 3) configurations.
* **pure_backend** — the package's own FFT kernels vs ``numpy.fft`` at
  fp64 and fp32 (transform roundtrip + block-circulant forward), tracked
  release over release.
* **precision** — fp32 (complex64/float32) vs fp64 frozen-session speed
  and accuracy.
* **sharded_predict** — serial vs :class:`ThreadedExecutor` chunked
  predict throughput on a (64, 128) block-grid model; ``--threads`` is
  clamped to the visible CPU count (requested, host, and
  schedulable-core counts are recorded).
* **serving** — the asyncio micro-batching server end to end:
  throughput and mean latency at 1/8/32 concurrent clients over a
  threaded session, plus a parity check against the serial session.
* **engine** — the declarative :class:`~repro.engine.Engine` facade
  serving the same model through the same server: single-route
  throughput (facade overhead vs the ``serving`` section) and a
  mixed fp64/fp32 client population routed per-request across the
  per-precision session pool, with parity checks for both routes.
* **pipeline** — the declarative build pipeline end to end: a tiny
  synthetic-MNIST train -> compress -> 12-bit quantize -> package run,
  recording artifact size (float vs 12-bit quantized), the quantization
  accuracy delta, and served rows/s for the quantized artifact through
  the engine (with bitwise parity vs a local session and the
  documented quantized-vs-float bound).

Run:  PYTHONPATH=src python benchmarks/run_bench.py [--out BENCH_fdx.json]
      (``--quick`` shrinks repeats/sizes for CI smoke runs)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.fft import irfft, rfft
from repro.fft.backend import use_backend
from repro.nn import BlockCirculantLinear, CrossEntropyLoss, Sequential
from repro.runtime import (
    InferenceSession,
    ThreadedExecutor,
    effective_cpu_count,
)
from repro.structured import (
    block_circulant_backward_batch,
    block_circulant_backward_batch_einsum,
    block_circulant_forward_batch,
    block_circulant_forward_batch_einsum,
    blockify,
)
from repro.zoo import build_arch1, build_arch3_reduced

TOLERANCE = 1e-10


def _effective_cpus() -> int:
    """Schedulable cores (``sched_getaffinity``), not the host total.

    Every parallel section records this next to ``os.cpu_count()`` so a
    number taken inside a 1-core cgroup on a 64-core machine can't
    masquerade as a 64-core measurement.
    """
    return effective_cpu_count()


def best_of(fn, repeats: int, inner: int = 1) -> float:
    """Best wall-clock seconds for one call of ``fn`` over ``repeats`` trials."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


# ----------------------------------------------------------------------
# Seed-behaviour baselines (pure numpy, no autograd overhead — which
# biases the comparison *against* the new layer path, keeping the
# reported speedups conservative)
# ----------------------------------------------------------------------
def seed_forward(weight: np.ndarray, x: np.ndarray, b: int,
                 bias: np.ndarray, out_features: int) -> np.ndarray:
    """The seed hot path: re-transform weights, einsum contraction."""
    x_blocks = blockify(x, b)
    spectra = rfft(weight)
    y = block_circulant_forward_batch_einsum(spectra, x_blocks)
    return y.reshape(x.shape[0], -1)[:, :out_features] + bias


def bench_inference_forward(repeats: int) -> dict:
    """Repeated-forward inference: frozen session (cached spectra in
    frequency-major layout, matmul contraction, fused bias) vs the seed
    behaviour (re-transform weights + einsum on every call)."""
    rng = np.random.default_rng(0)
    p, q, b = 32, 64, 128  # CIFAR-FC-layer scale: 8192 -> 4096
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    x = rng.normal(size=(1, q * b))
    weight = layer.weight.data
    bias = layer.bias.data
    session = InferenceSession.freeze(Sequential(layer))

    new_out = session.forward(x)
    base_out = seed_forward(weight, x, b, bias, layer.out_features)
    max_err = float(np.abs(new_out - base_out).max())

    baseline_s = best_of(
        lambda: seed_forward(weight, x, b, bias, layer.out_features),
        repeats, inner=20,
    )
    new_s = best_of(lambda: session.forward(x), repeats, inner=20)
    layer_s = best_of(lambda: layer(x), repeats, inner=20)
    return {
        "config": {"p": p, "q": q, "b": b, "batch": 1},
        "baseline_us": baseline_s * 1e6,
        "new_us": new_s * 1e6,
        "layer_forward_us": layer_s * 1e6,
        "speedup": baseline_s / new_s,
        "layer_speedup": baseline_s / layer_s,
        "max_abs_err": max_err,
    }


def bench_train_step(repeats: int) -> dict:
    """Batched forward+backward kernels: matmul vs einsum reference."""
    rng = np.random.default_rng(1)
    p = q = 16
    b = 64
    batch = 64
    weight = rng.normal(size=(p, q, b))
    x_blocks = rng.normal(size=(batch, q, b))
    grad_blocks = rng.normal(size=(batch, p, b))

    def einsum_step():
        spectra = rfft(weight)
        y = block_circulant_forward_batch_einsum(spectra, x_blocks)
        gw, gx = block_circulant_backward_batch_einsum(
            spectra, x_blocks, grad_blocks
        )
        return y, gw, gx

    def matmul_step():
        spectra = rfft(weight)
        y = block_circulant_forward_batch(spectra, x_blocks)
        gw, gx = block_circulant_backward_batch(spectra, x_blocks, grad_blocks)
        return y, gw, gx

    ref = einsum_step()
    new = matmul_step()
    max_err = float(max(np.abs(a - c).max() for a, c in zip(new, ref)))

    einsum_s = best_of(einsum_step, repeats, inner=3)
    matmul_s = best_of(matmul_step, repeats, inner=3)
    return {
        "config": {"p": p, "q": q, "b": b, "batch": batch},
        "einsum_ms": einsum_s * 1e3,
        "matmul_ms": matmul_s * 1e3,
        "speedup": einsum_s / matmul_s,
        "max_abs_err": max_err,
    }


def check_equivalence() -> dict:
    """Max deviation of every new kernel from its reference, to 1e-10."""
    rng = np.random.default_rng(2)
    errs: dict[str, float] = {}

    # Contractions, ragged p != q.
    p, q, b, batch = 5, 7, 16, 9
    spectra = rfft(rng.normal(size=(p, q, b)))
    x_blocks = rng.normal(size=(batch, q, b))
    grad_blocks = rng.normal(size=(batch, p, b))
    errs["forward_matmul_vs_einsum"] = float(np.abs(
        block_circulant_forward_batch(spectra, x_blocks)
        - block_circulant_forward_batch_einsum(spectra, x_blocks)
    ).max())
    fast = block_circulant_backward_batch(spectra, x_blocks, grad_blocks)
    ref = block_circulant_backward_batch_einsum(spectra, x_blocks, grad_blocks)
    errs["backward_w_matmul_vs_einsum"] = float(np.abs(fast[0] - ref[0]).max())
    errs["backward_x_matmul_vs_einsum"] = float(np.abs(fast[1] - ref[1]).max())

    # Pure-backend packed real transforms vs numpy.fft.
    worst_r = 0.0
    for n in (8, 12, 64, 100, 128):
        x = rng.normal(size=(4, n))
        with use_backend("pure"):
            worst_r = max(worst_r, float(np.abs(rfft(x) - np.fft.rfft(x)).max()))
    errs["packed_rfft_vs_numpy"] = worst_r

    return {
        "errors": errs,
        "tolerance": TOLERANCE,
        "pass": all(err <= TOLERANCE for err in errs.values()),
    }


def bench_zoo(repeats: int) -> dict:
    """Forward / forward+backward / frozen inference on the model zoo."""
    results: dict[str, dict] = {}
    loss_fn = CrossEntropyLoss()
    configs = {
        "mnist_fc": (
            build_arch1(rng=np.random.default_rng(3)),
            np.random.default_rng(4).normal(size=(64, 256)),
        ),
        "cifar_conv": (
            build_arch3_reduced(width=12, block_size=4,
                                rng=np.random.default_rng(5)),
            np.random.default_rng(6).normal(size=(8, 3, 32, 32)),
        ),
    }
    for name, (model, x) in configs.items():
        labels = np.arange(x.shape[0]) % 10
        batch = x.shape[0]

        def forward():
            return model(x)

        def forward_backward():
            model.zero_grad()
            loss_fn(model(x), labels).backward()

        model.eval()
        session = InferenceSession.freeze(model)
        forward_s = best_of(forward, repeats)
        fb_s = best_of(forward_backward, repeats)
        infer_s = best_of(lambda: session.forward(x), repeats)
        results[name] = {
            "batch": batch,
            "forward_ms": forward_s * 1e3,
            "forward_backward_ms": fb_s * 1e3,
            "session_inference_ms": infer_s * 1e3,
            "session_us_per_image": infer_s / batch * 1e6,
        }
    return results


def bench_pure_backend(repeats: int, quick: bool = False) -> dict:
    """Pure FFT backend vs numpy.fft, fp64 and fp32 (ROADMAP open item)."""
    rng = np.random.default_rng(7)
    batch, n = (16, 64) if quick else (64, 128)
    p = q = 8 if quick else 16
    b = n
    x64 = rng.normal(size=(batch, n))
    x32 = x64.astype(np.float32)
    weight = rng.normal(size=(p, q, b))
    blocks64 = rng.normal(size=(8, q, b))
    results: dict[str, dict] = {"config": {"batch": batch, "n": n, "p": p, "q": q}}

    def roundtrip(x):
        return irfft(rfft(x), n=x.shape[-1])

    for name, x in (("fp64", x64), ("fp32", x32)):
        spectra = rfft(weight.astype(x.dtype))
        blocks = blocks64.astype(x.dtype)
        with use_backend("numpy"):
            numpy_rt = best_of(lambda: roundtrip(x), repeats, inner=5)
            numpy_fwd = best_of(
                lambda: block_circulant_forward_batch(spectra, blocks),
                repeats, inner=5,
            )
        with use_backend("pure"):
            pure_rt = best_of(lambda: roundtrip(x), repeats, inner=5)
            pure_fwd = best_of(
                lambda: block_circulant_forward_batch(spectra, blocks),
                repeats, inner=5,
            )
            pure_spectrum = rfft(x)
            pure_back = roundtrip(x)
        results[name] = {
            "rfft_irfft_numpy_us": numpy_rt * 1e6,
            "rfft_irfft_pure_us": pure_rt * 1e6,
            "bc_forward_numpy_us": numpy_fwd * 1e6,
            "bc_forward_pure_us": pure_fwd * 1e6,
            "pure_vs_numpy_slowdown": pure_rt / numpy_rt,
            "spectrum_dtype": str(pure_spectrum.dtype),
            "roundtrip_max_err": float(np.abs(pure_back - x).max()),
        }
    return results


def bench_precision(repeats: int, quick: bool = False) -> dict:
    """fp32 vs fp64 frozen-session inference: speed and accuracy."""
    rng = np.random.default_rng(8)
    p, q, b = (8, 16, 64) if quick else (32, 64, 128)
    batch = 16
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    model = Sequential(layer)
    x = rng.normal(size=(batch, q * b))

    fp64 = InferenceSession.freeze(model)
    fp32 = InferenceSession.freeze(model, precision="fp32")
    out64 = fp64.forward(x)
    out32 = fp32.forward(x)
    assert out32.dtype == np.float32

    fp64_s = best_of(lambda: fp64.forward(x), repeats, inner=5)
    fp32_s = best_of(lambda: fp32.forward(x), repeats, inner=5)
    scale = float(np.abs(out64).max())
    return {
        "config": {"p": p, "q": q, "b": b, "batch": batch},
        "fp64_us": fp64_s * 1e6,
        "fp32_us": fp32_s * 1e6,
        "fp32_speedup": fp64_s / fp32_s,
        "max_abs_err": float(np.abs(out64 - out32).max()),
        "max_rel_err": float(np.abs(out64 - out32).max() / scale),
        "spectrum_bytes_fp64": 16 * p * q * (b // 2 + 1),
        "spectrum_bytes_fp32": 8 * p * q * (b // 2 + 1),
    }


def bench_sharded_predict(
    repeats: int, threads: int = 4, quick: bool = False
) -> dict:
    """Serial vs threaded chunked predict, (64, 128) block grid.

    A speedup needs physical cores, so the requested ``--threads`` is
    clamped to ``os.cpu_count()``; the requested count,
    ``os.cpu_count()``, and the schedulable-core count all land in the
    report.  Both sessions stream the same chunks, so the threaded
    result must be bitwise-identical to the serial one.
    """
    rng = np.random.default_rng(9)
    requested = threads
    cpus = os.cpu_count() or 1
    threads = max(1, min(requested, cpus))
    if quick:
        p, q, b, batch = 16, 32, 32, 24
        threads = min(threads, 2)
    else:
        p, q, b, batch = 64, 128, 64, 96
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    model = Sequential(layer)
    x = rng.normal(size=(batch, q * b))
    chunk = max(1, batch // threads)

    serial = InferenceSession.freeze(model)
    threaded = InferenceSession.freeze(
        model, executor=ThreadedExecutor(threads=threads)
    )
    try:
        threaded_identical = bool(
            np.array_equal(
                serial.predict(x, batch_size=chunk),
                threaded.predict(x, batch_size=chunk),
            )
        )
        serial_s = best_of(lambda: serial.predict(x, batch_size=chunk), repeats)
        threaded_s = best_of(
            lambda: threaded.predict(x, batch_size=chunk), repeats
        )
    finally:
        threaded.close()
    return {
        "config": {"p": p, "q": q, "b": b, "batch": batch, "workers": threads},
        "workers_requested": requested,
        "cpus": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        "serial_predict_ms": serial_s * 1e3,
        "threaded_predict_ms": threaded_s * 1e3,
        "threaded_predict_speedup": serial_s / threaded_s,
        "threaded_bitwise_identical": threaded_identical,
    }


def bench_serving(repeats: int, quick: bool = False) -> dict:
    """Micro-batching server throughput/latency over a threaded session.

    Starts an in-process asyncio server over a threaded session (2
    threads, so the fan-out actually carries chunks) and fires N
    concurrent async clients; recorded per client count: fused-batch
    rows/s, mean request latency, and the worst deviation from the
    serial session (the parity the serving tests assert).  On few-core
    hosts the absolute numbers measure dispatch overhead, not speedup —
    ``cpus``/``effective_cpus`` qualify them.
    """
    from repro.engine import Engine
    from repro.serving import AsyncServeClient, InferenceServer

    rng = np.random.default_rng(10)
    if quick:
        p, q, b = 8, 12, 32
        client_counts = (1, 4)
        requests_per_client, rows = 3, 4
    else:
        p, q, b = 16, 24, 64
        client_counts = (1, 8, 32)
        requests_per_client, rows = 6, 8
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    model = Sequential(layer)
    serial = InferenceSession.freeze(model)
    workers = 2

    async def run_config(engine, n_clients: int) -> dict:
        server = InferenceServer(
            engine, port=0, max_batch=4 * rows, max_wait_ms=2.0
        )
        async with server:
            async def one_client(client_id: int):
                # Only the awaited request sits in the timed region; the
                # parity check against the serial session runs after the
                # gather, off the clock (a blocking predict inside the
                # loop would stall every other client's responses and
                # corrupt the recorded latency).
                c_rng = np.random.default_rng(100 + client_id)
                client = await AsyncServeClient.connect(port=server.port)
                latencies, exchanges = [], []
                try:
                    for _ in range(requests_per_client):
                        x = c_rng.normal(size=(rows, q * b))
                        start = time.perf_counter()
                        proba = await client.predict_proba(x)
                        latencies.append(time.perf_counter() - start)
                        exchanges.append((x, proba))
                finally:
                    await client.close()
                return latencies, exchanges

            start = time.perf_counter()
            outcomes = await asyncio.gather(
                *[one_client(i) for i in range(n_clients)]
            )
            wall = time.perf_counter() - start
        latencies = [lat for lats, _ in outcomes for lat in lats]
        worst = max(
            float(np.abs(proba - serial.predict_proba(x)).max())
            for _, exchanges in outcomes
            for x, proba in exchanges
        )
        total_rows = n_clients * requests_per_client * rows
        return {
            "clients": n_clients,
            "rows_per_s": total_rows / wall,
            "requests_per_s": len(latencies) / wall,
            "mean_latency_ms": 1e3 * sum(latencies) / len(latencies),
            "max_abs_err_vs_serial": worst,
        }

    results: dict = {
        "config": {
            "p": p, "q": q, "b": b, "rows_per_request": rows,
            "requests_per_client": requests_per_client,
            "pool_workers": workers,
        },
        "cpus": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
    }
    session = InferenceSession.freeze(
        model, executor=ThreadedExecutor(threads=workers)
    )
    # Adopt the explicitly-built session through the facade (the
    # supported way to serve a pre-built session — the
    # session-to-server shim is deprecated).
    engine = Engine.from_session(session)
    rows_by_clients = {}
    try:
        for n_clients in client_counts:
            best = None
            for _ in range(max(1, repeats // 2)):
                outcome = asyncio.run(run_config(engine, n_clients))
                if best is None or (
                    outcome["rows_per_s"] > best["rows_per_s"]
                ):
                    best = outcome
            rows_by_clients[str(n_clients)] = best
    finally:
        session.close()
    results["threaded"] = rows_by_clients
    return results


def bench_engine(repeats: int, quick: bool = False) -> dict:
    """Engine facade serving: single-route and mixed-precision routing.

    Two configurations over the same block-circulant model:

    * ``single_route`` — every client hits the default fp64 route; the
      numbers are directly comparable to the ``serving`` section's
      serial-session path (the facade adds one dict lookup per fused
      batch, so rows/s should match within noise — the no-regression
      acceptance gate).
    * ``mixed_precision`` — half the clients request fp32 per-request;
      the server routes each to its pooled session (two batchers, one
      inference thread).  ``max_abs_err`` records fp64-route parity vs
      the serial session (bitwise -> 0.0) and the worst fp32 deviation
      (<= 1e-5).
    """
    from repro.engine import Engine
    from repro.serving import AsyncServeClient, InferenceServer

    rng = np.random.default_rng(11)
    if quick:
        p, q, b = 8, 12, 32
        client_counts = (1, 4)
        requests_per_client, rows = 3, 4
    else:
        p, q, b = 16, 24, 64
        client_counts = (1, 8, 32)
        requests_per_client, rows = 6, 8
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    model = Sequential(layer)
    serial = InferenceSession.freeze(model)
    serial32 = InferenceSession.freeze(model, precision="fp32")

    async def run_config(engine, n_clients: int, mixed: bool) -> dict:
        server = InferenceServer(
            engine, port=0, max_batch=4 * rows, max_wait_ms=2.0
        )
        async with server:
            async def one_client(client_id: int):
                # Even client ids stay on the default fp64 route; odd
                # ones ask for fp32 per-request when `mixed`.  Parity
                # checks run after the gather, off the clock.
                precision = "fp32" if mixed and client_id % 2 else None
                c_rng = np.random.default_rng(200 + client_id)
                client = await AsyncServeClient.connect(port=server.port)
                latencies, exchanges = [], []
                try:
                    for _ in range(requests_per_client):
                        x = c_rng.normal(size=(rows, q * b))
                        start = time.perf_counter()
                        proba = await client.predict_proba(
                            x, precision=precision
                        )
                        latencies.append(time.perf_counter() - start)
                        exchanges.append((x, proba, precision))
                finally:
                    await client.close()
                return latencies, exchanges

            start = time.perf_counter()
            outcomes = await asyncio.gather(
                *[one_client(i) for i in range(n_clients)]
            )
            wall = time.perf_counter() - start
        latencies = [lat for lats, _ in outcomes for lat in lats]
        worst64 = worst32 = 0.0
        for _, exchanges in outcomes:
            for x, proba, precision in exchanges:
                if precision == "fp32":
                    reference = serial32.predict_proba(
                        x.astype(np.float32)
                    )
                    worst32 = max(
                        worst32, float(np.abs(proba - reference).max())
                    )
                else:
                    reference = serial.predict_proba(x)
                    worst64 = max(
                        worst64, float(np.abs(proba - reference).max())
                    )
        total_rows = n_clients * requests_per_client * rows
        return {
            "clients": n_clients,
            "rows_per_s": total_rows / wall,
            "requests_per_s": len(latencies) / wall,
            "mean_latency_ms": 1e3 * sum(latencies) / len(latencies),
            "max_abs_err_fp64_route": worst64,
            "max_abs_err_fp32_route": worst32,
        }

    results: dict = {
        "config": {
            "p": p, "q": q, "b": b, "rows_per_request": rows,
            "requests_per_client": requests_per_client,
        },
        "cpus": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
    }
    for mode, mixed, precisions in (
        ("single_route", False, ("fp64",)),
        ("mixed_precision", True, ("fp64", "fp32")),
    ):
        engine = Engine(model=model, precisions=precisions)
        rows_by_clients = {}
        try:
            for n_clients in client_counts:
                best = None
                for _ in range(max(1, repeats // 2)):
                    outcome = asyncio.run(
                        run_config(engine, n_clients, mixed)
                    )
                    if best is None or (
                        outcome["rows_per_s"] > best["rows_per_s"]
                    ):
                        best = outcome
                rows_by_clients[str(n_clients)] = best
        finally:
            engine.close()
        results[mode] = rows_by_clients
    serial.close()
    serial32.close()
    return results


def bench_pipeline(repeats: int, quick: bool = False) -> dict:
    """Build pipeline end to end: sizes, accuracy delta, served rows/s.

    One declarative :class:`~repro.pipeline.PipelineConfig` trains a
    dense FC net on the synthetic MNIST stand-in, compresses it to
    block-circulant, quantizes to 12-bit fixed point, and packages the
    format-v2 artifact; the float twin is saved as a float format-v2
    artifact for the size comparison.  The quantized artifact is then
    served through the engine with concurrent async clients —
    responses are checked bitwise against a local session and against
    the float model within the documented ``10 x max_weight_error``
    bound, off the timed path.
    """
    import tempfile

    from repro.embedded import DeployedModel
    from repro.engine import Engine
    from repro.pipeline import Pipeline, PipelineConfig
    from repro.serving import AsyncServeClient, InferenceServer

    if quick:
        train_size, test_size, epochs = 200, 50, 1
        n_clients, requests_per_client, rows = 4, 3, 4
    else:
        train_size, test_size, epochs = 600, 150, 3
        n_clients, requests_per_client, rows = 8, 6, 8
    quantize_bits = 12

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "built.npz"
        config = PipelineConfig(
            architecture="121-64F-64F-10F",
            train_size=train_size,
            test_size=test_size,
            epochs=epochs,
            block_size=16,
            fine_tune_epochs=1,
            quantize_bits=quantize_bits,
            out=artifact,
        )
        pipeline = Pipeline(config)
        result = pipeline.run()

        float_deployed = DeployedModel.from_model(pipeline.model)
        float_path = Path(tmp) / "float.npz"
        float_deployed.save(float_path)
        quantized = result.package.deployed
        bound = 10.0 * result.quantize.max_weight_error

        local = InferenceSession.from_deployed(quantized)

        async def run_serving() -> dict:
            engine = Engine(model=str(artifact))
            server = InferenceServer(
                engine, port=0, max_batch=4 * rows, max_wait_ms=2.0
            )
            try:
                async with server:
                    async def one_client(client_id: int):
                        c_rng = np.random.default_rng(300 + client_id)
                        client = await AsyncServeClient.connect(
                            port=server.port
                        )
                        exchanges = []
                        try:
                            for _ in range(requests_per_client):
                                x = c_rng.normal(size=(rows, 121))
                                proba = await client.predict_proba(x)
                                exchanges.append((x, proba))
                        finally:
                            await client.close()
                        return exchanges

                    start = time.perf_counter()
                    outcomes = await asyncio.gather(
                        *[one_client(i) for i in range(n_clients)]
                    )
                    wall = time.perf_counter() - start
            finally:
                engine.close()
            worst_session = worst_float = 0.0
            for exchanges in outcomes:
                for x, proba in exchanges:
                    worst_session = max(
                        worst_session,
                        float(np.abs(proba - local.predict_proba(x)).max()),
                    )
                    worst_float = max(
                        worst_float,
                        float(np.abs(
                            proba - float_deployed.predict_proba(x)
                        ).max()),
                    )
            total_rows = n_clients * requests_per_client * rows
            return {
                "rows_per_s": total_rows / wall,
                "max_abs_err_vs_session": worst_session,
                "max_abs_err_vs_float": worst_float,
            }

        best = None
        for _ in range(max(1, repeats // 2)):
            outcome = asyncio.run(run_serving())
            if best is None or outcome["rows_per_s"] > best["rows_per_s"]:
                best = outcome
        local.close()

        # File bytes include the .npz container; array bytes are the
        # weight payload alone (the honest compression number at this
        # tiny scale, where zip headers dominate the file size).
        float_bytes = float_path.stat().st_size
        quantized_bytes = artifact.stat().st_size
        float_array_bytes = float_deployed.storage_bytes()
        quantized_array_bytes = quantized.storage_bytes()
        return {
            "config": {
                "architecture": "121-64F-64F-10F",
                "train_size": train_size,
                "epochs": epochs,
                "block_size": 16,
                "quantize_bits": quantize_bits,
                "clients": n_clients,
                "rows_per_request": rows,
            },
            "cpus": os.cpu_count(),
            "effective_cpus": _effective_cpus(),
            "artifact_float_bytes": int(float_bytes),
            "artifact_quantized_bytes": int(quantized_bytes),
            "size_ratio": float_bytes / quantized_bytes,
            "array_float_bytes": int(float_array_bytes),
            "array_quantized_bytes": int(quantized_array_bytes),
            "array_size_ratio": float_array_bytes / quantized_array_bytes,
            "float_accuracy": result.quantize.float_accuracy,
            "quantized_accuracy": result.quantize.test_accuracy,
            "accuracy_delta": result.quantize.accuracy_delta,
            "max_weight_error": result.quantize.max_weight_error,
            "parity_bound": bound,
            "served": {
                **best,
                "parity_ok": bool(
                    best["max_abs_err_vs_session"] == 0.0
                    and best["max_abs_err_vs_float"] <= bound
                ),
            },
        }


def bench_resilience(repeats: int, quick: bool = False) -> dict:
    """Admission-control cost: the shed rate under over-admission.

    ``over_admission`` — an admission-bounded server
    (``max_queue_rows`` = one fused batch) offered 2x its capacity by
    fail-fast (``retries=0``) clients; records the shed rate and that
    every non-shed response kept bitwise parity (see
    ``docs/robustness.md``).
    """
    from repro.engine import Engine
    from repro.exceptions import Overloaded
    from repro.serving import AsyncServeClient, InferenceServer

    rng = np.random.default_rng(11)
    if quick:
        p, q, b = 8, 12, 32
        rows = 32
    else:
        p, q, b = 16, 24, 64
        rows = 64
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    model = Sequential(layer)
    serial = InferenceSession.freeze(model)
    x = rng.normal(size=(rows, q * b))
    ref = serial.predict_proba(x)

    async def over_admit() -> dict:
        per_req = max(1, rows // 2)
        concurrent = 4  # 4 x (rows/2) = 2x the queue budget
        waves = 3 if quick else 6
        shed = served = 0
        parity = True
        with Engine(model=model, max_queue_rows=rows) as engine:
            server = InferenceServer(
                engine, port=0, max_batch=rows, max_wait_ms=1.0
            )
            async with server:
                async def one() -> None:
                    nonlocal shed, served, parity
                    client = await AsyncServeClient.connect(
                        port=server.port, retries=0
                    )
                    try:
                        out = await client.predict_proba(x[:per_req])
                    except Overloaded:
                        shed += 1
                    else:
                        served += 1
                        parity &= bool(np.array_equal(out, ref[:per_req]))
                    finally:
                        await client.close()

                for _ in range(waves):
                    await asyncio.gather(*[one() for _ in range(concurrent)])
        total = shed + served
        return {
            "offered": total,
            "served": served,
            "shed": shed,
            "shed_rate": shed / total if total else 0.0,
            "served_bitwise_identical": parity,
        }

    return {
        "config": {"p": p, "q": q, "b": b, "rows": rows},
        "cpus": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        "over_admission": asyncio.run(over_admit()),
    }


def bench_router(repeats: int, quick: bool = False) -> dict:
    """Front-tier routing cost: rows/s through 1 vs 2 local backends.

    The same engine/server stack measured twice behind a
    :class:`~repro.router.RouterServer` — once fronting a single
    backend (the pure indirection cost vs ``serving``'s direct
    numbers) and once fronting two (what least-loaded-of-two placement
    buys when cores allow; on a single effective CPU the two backends
    just time-slice).  Every response is checked bitwise against the
    serial session: the router forwards payloads as opaque bytes, so
    parity must be exact at any concurrency.
    """
    from contextlib import AsyncExitStack

    from repro.engine import Engine
    from repro.router import RouterConfig, RouterServer
    from repro.serving import AsyncServeClient, InferenceServer

    rng = np.random.default_rng(23)
    p, q, b = (8, 12, 32) if quick else (16, 24, 64)
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.eval()
    model = Sequential(layer)
    serial = InferenceSession.freeze(model)
    rows = 8
    requests_per_client = 2 if quick else 4
    client_counts = (1, 4) if quick else (1, 8, 32)

    async def run_fleet(n_backends: int, n_clients: int) -> dict:
        engines = [Engine(model=model) for _ in range(n_backends)]
        try:
            async with AsyncExitStack() as stack:
                servers = []
                for engine in engines:
                    server = InferenceServer(engine, port=0, max_wait_ms=1.0)
                    await stack.enter_async_context(server)
                    servers.append(server)
                router = RouterServer(RouterConfig(
                    backends=tuple(
                        f"127.0.0.1:{s.port}" for s in servers
                    ),
                    probe_interval_s=0.2,
                ))
                await stack.enter_async_context(router)
                parity = True

                async def one_client(client_id: int) -> None:
                    nonlocal parity
                    c_rng = np.random.default_rng(400 + client_id)
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", router.port
                    )
                    try:
                        for _ in range(requests_per_client):
                            x = c_rng.normal(size=(rows, q * b))
                            proba = await client.predict_proba(x)
                            parity &= bool(np.array_equal(
                                proba, serial.predict_proba(x)
                            ))
                    finally:
                        await client.close()

                start = time.perf_counter()
                await asyncio.gather(
                    *[one_client(i) for i in range(n_clients)]
                )
                wall = time.perf_counter() - start
                forwards = router.stats["forwards"]
            total_rows = n_clients * requests_per_client * rows
            return {
                "rows_per_s": total_rows / wall,
                "bitwise_identical": parity,
                "forwards": forwards,
            }
        finally:
            for engine in engines:
                engine.close()

    fleets: dict = {}
    for n_backends in (1, 2):
        per_clients: dict = {}
        for n_clients in client_counts:
            best = None
            for _ in range(max(1, repeats // 2)):
                outcome = asyncio.run(run_fleet(n_backends, n_clients))
                if best is None or (
                    outcome["rows_per_s"] > best["rows_per_s"]
                ):
                    best = outcome
            per_clients[str(n_clients)] = best
        fleets[f"backends_{n_backends}"] = per_clients

    return {
        "config": {
            "p": p, "q": q, "b": b, "rows": rows,
            "requests_per_client": requests_per_client,
            "client_counts": list(client_counts),
        },
        "cpus": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        **fleets,
        "two_backend_speedup": {
            clients: (
                fleets["backends_2"][clients]["rows_per_s"]
                / fleets["backends_1"][clients]["rows_per_s"]
            )
            for clients in fleets["backends_1"]
        },
    }


def bench_streaming(repeats: int, quick: bool = False) -> dict:
    """Streaming serving: per-push latency + fused multi-stream throughput.

    N concurrent clients each hold one open stream against an
    in-process :class:`InferenceServer` and push ragged chunks of a
    causal FFTNet sequence; the micro-batcher fuses concurrent pushes
    into shared ``push_many`` steps.  Reported per stream count: push
    latency p50/p99, fused rows/s, the fused-streams high-water mark,
    and a bitwise parity flag — each stream's concatenated incremental
    rows vs the offline batch session (the `docs/streaming.md`
    contract; any drift is a FAIL, not a tolerance).
    """
    from repro.engine import Engine, EngineConfig
    from repro.serving import AsyncServeClient, InferenceServer
    from repro.zoo import build_fftnet

    model = build_fftnet(
        channels=8, depth=3, classes=6, rng=np.random.default_rng(29)
    )
    offline = InferenceSession.freeze(model)
    stream_counts = (1, 8) if quick else (1, 8, 32)
    pushes = 4 if quick else 16
    chunk_rows = 4

    async def run_streams(n_streams: int) -> dict:
        engine = Engine(config=EngineConfig(
            models={"fftnet": model},
            default_model="fftnet",
            max_streams=max(stream_counts) + 1,
        ))
        try:
            async with InferenceServer(
                engine, port=0, max_wait_ms=1.0
            ) as server:
                parity = True
                latencies: list[float] = []

                async def one_stream(stream_id: int) -> None:
                    nonlocal parity
                    s_rng = np.random.default_rng(500 + stream_id)
                    total = pushes * chunk_rows
                    full = s_rng.normal(size=(total, 1))
                    client = await AsyncServeClient.connect(
                        "127.0.0.1", server.port
                    )
                    outs = []
                    try:
                        async with await client.stream() as stream:
                            for k in range(pushes):
                                chunk = full[
                                    k * chunk_rows : (k + 1) * chunk_rows
                                ]
                                start = time.perf_counter()
                                outs.append(await stream.push(chunk))
                                latencies.append(
                                    time.perf_counter() - start
                                )
                    finally:
                        await client.close()
                    expected = offline.predict_proba(full[None])[0]
                    parity &= bool(np.array_equal(
                        np.concatenate(outs), expected
                    ))

                start = time.perf_counter()
                await asyncio.gather(
                    *[one_stream(i) for i in range(n_streams)]
                )
                wall = time.perf_counter() - start
                fused_max = max(
                    b.stats["fused_streams_max"]
                    for b in server._batchers.values()
                )
            ordered = sorted(latencies)
            return {
                "rows_per_s": n_streams * pushes * chunk_rows / wall,
                "push_p50_ms": 1e3 * ordered[len(ordered) // 2],
                "push_p99_ms": 1e3 * ordered[
                    min(len(ordered) - 1, int(len(ordered) * 0.99))
                ],
                "fused_streams_max": fused_max,
                "bitwise_identical": parity,
            }
        finally:
            engine.close()

    per_count: dict = {}
    for n_streams in stream_counts:
        best = None
        for _ in range(max(1, repeats // 2)):
            outcome = asyncio.run(run_streams(n_streams))
            if best is None or outcome["rows_per_s"] > best["rows_per_s"]:
                best = outcome
        per_count[str(n_streams)] = best

    return {
        "config": {
            "arch": "fftnet(channels=8, depth=3, classes=6)",
            "pushes": pushes,
            "chunk_rows": chunk_rows,
            "stream_counts": list(stream_counts),
        },
        "cpus": os.cpu_count(),
        "effective_cpus": _effective_cpus(),
        "streams": per_count,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(Path(__file__).parent.parent / "BENCH_fdx.json"),
        help="output JSON path (default: repo-root BENCH_fdx.json)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes / few repeats for CI smoke runs",
    )
    parser.add_argument(
        "--threads", type=int, default=4,
        help="thread count for the sharded-predict benchmark",
    )
    args = parser.parse_args(argv)
    repeats = 2 if args.quick else args.repeats

    report = {
        "meta": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "effective_cpus": _effective_cpus(),
            "quick": args.quick,
        },
        "inference_forward_cached": bench_inference_forward(repeats),
        "train_step_matmul_vs_einsum": bench_train_step(repeats),
        "equivalence": check_equivalence(),
        "zoo": bench_zoo(repeats),
        "pure_backend": bench_pure_backend(repeats, quick=args.quick),
        "precision": bench_precision(repeats, quick=args.quick),
        "sharded_predict": bench_sharded_predict(
            repeats, threads=args.threads, quick=args.quick
        ),
        "serving": bench_serving(repeats, quick=args.quick),
        "engine": bench_engine(repeats, quick=args.quick),
        "pipeline": bench_pipeline(repeats, quick=args.quick),
        "resilience": bench_resilience(repeats, quick=args.quick),
        "router": bench_router(repeats, quick=args.quick),
        "streaming": bench_streaming(repeats, quick=args.quick),
    }

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    inf = report["inference_forward_cached"]
    train = report["train_step_matmul_vs_einsum"]
    print(f"inference forward (cached): {inf['speedup']:.1f}x "
          f"({inf['baseline_us']:.0f} -> {inf['new_us']:.0f} us)")
    print(f"train step (matmul vs einsum): {train['speedup']:.1f}x "
          f"({train['einsum_ms']:.2f} -> {train['matmul_ms']:.2f} ms)")
    print(f"kernel equivalence <= {TOLERANCE:g}: "
          f"{'PASS' if report['equivalence']['pass'] else 'FAIL'}")
    for name, row in report["zoo"].items():
        print(f"{name}: fwd {row['forward_ms']:.1f} ms, "
              f"fwd+bwd {row['forward_backward_ms']:.1f} ms, "
              f"frozen inference {row['session_us_per_image']:.0f} us/image")
    pure = report["pure_backend"]
    for prec in ("fp64", "fp32"):
        row = pure[prec]
        print(f"pure backend ({prec}): rfft+irfft "
              f"{row['rfft_irfft_pure_us']:.0f} us vs numpy "
              f"{row['rfft_irfft_numpy_us']:.0f} us "
              f"({row['pure_vs_numpy_slowdown']:.1f}x slower), "
              f"roundtrip err {row['roundtrip_max_err']:.2g}")
    prec = report["precision"]
    print(f"fp32 session: {prec['fp32_speedup']:.2f}x vs fp64 "
          f"({prec['fp64_us']:.0f} -> {prec['fp32_us']:.0f} us), "
          f"max abs err {prec['max_abs_err']:.2g}, "
          f"spectrum bytes halved "
          f"{prec['spectrum_bytes_fp64']} -> {prec['spectrum_bytes_fp32']}")
    shard = report["sharded_predict"]
    print(f"sharded predict ({shard['config']['workers']} threads "
          f"of {shard['workers_requested']} requested, "
          f"{shard['effective_cpus']}/{shard['cpus']} cpu(s)): "
          f"threaded {shard['threaded_predict_speedup']:.2f}x, "
          f"bitwise identical: {shard['threaded_bitwise_identical']}")
    rows = report["serving"]["threaded"]
    summary = ", ".join(
        f"{n} client(s): {row['rows_per_s']:.0f} rows/s "
        f"@ {row['mean_latency_ms']:.1f} ms"
        for n, row in rows.items()
    )
    worst = max(row["max_abs_err_vs_serial"] for row in rows.values())
    print(f"serving (threaded): {summary}; max err vs serial {worst:.2g}")
    eng = report["engine"]
    for mode in ("single_route", "mixed_precision"):
        rows = eng[mode]
        summary = ", ".join(
            f"{n} client(s): {row['rows_per_s']:.0f} rows/s "
            f"@ {row['mean_latency_ms']:.1f} ms"
            for n, row in rows.items()
        )
        worst64 = max(r["max_abs_err_fp64_route"] for r in rows.values())
        worst32 = max(r["max_abs_err_fp32_route"] for r in rows.values())
        print(f"engine ({mode}): {summary}; fp64 err {worst64:.2g}, "
              f"fp32 err {worst32:.2g}")
    pipe_line = report["pipeline"]
    print(f"pipeline: float {pipe_line['artifact_float_bytes']} B -> "
          f"quantized {pipe_line['artifact_quantized_bytes']} B "
          f"({pipe_line['size_ratio']:.2f}x file, "
          f"{pipe_line['array_size_ratio']:.2f}x arrays), "
          f"accuracy {pipe_line['float_accuracy']:.3f} -> "
          f"{pipe_line['quantized_accuracy']:.3f} "
          f"(delta {pipe_line['accuracy_delta']:+.3f}), "
          f"served {pipe_line['served']['rows_per_s']:.0f} rows/s, "
          f"parity {'OK' if pipe_line['served']['parity_ok'] else 'FAIL'}")
    oa = report["resilience"]["over_admission"]
    print(f"resilience: "
          f"2x over-admission: {oa['shed']}/{oa['offered']} shed "
          f"({oa['shed_rate']:.0%}), served parity "
          f"{'OK' if oa['served_bitwise_identical'] else 'FAIL'}")
    rtr = report["router"]
    for fleet in ("backends_1", "backends_2"):
        cells = rtr[fleet]
        summary = ", ".join(
            f"{n} client(s): {row['rows_per_s']:.0f} rows/s"
            for n, row in cells.items()
        )
        parity = all(row["bitwise_identical"] for row in cells.values())
        print(f"router ({fleet.replace('_', ' ')}, "
              f"{rtr['effective_cpus']}/{rtr['cpus']} cpu(s)): {summary}; "
              f"bitwise {'OK' if parity else 'FAIL'}")
    strm = report["streaming"]
    stream_cells = strm["streams"]
    stream_summary = ", ".join(
        f"{n} stream(s): {row['rows_per_s']:.0f} rows/s "
        f"(push p50 {row['push_p50_ms']:.1f}/p99 {row['push_p99_ms']:.1f} ms, "
        f"fused<={row['fused_streams_max']})"
        for n, row in stream_cells.items()
    )
    stream_parity = all(
        row["bitwise_identical"] for row in stream_cells.values()
    )
    print(f"streaming ({strm['effective_cpus']}/{strm['cpus']} cpu(s)): "
          f"{stream_summary}; incremental-vs-batch bitwise "
          f"{'OK' if stream_parity else 'FAIL'}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
