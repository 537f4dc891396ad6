"""The eight workloads: what each sets up, runs in a window, and checks.

Every workload is a closed loop from one process with at most
``MAX_LOAD`` load-generating threads or connections, fixed (not scaled
with the host).  A connection carries one request at a time, so two
connections cannot build a queue: batch formation under many submitters
is a ladder rung (``serving.batcher.*``), not an end-to-end number.

A workload's inputs come from ``numpy.random.default_rng(seed + k)``;
the program under test only ever sees the generated arrays.  Replies
are checked off the clock against a serial ``InferenceSession`` on the
same rows, by tolerance (``TOLERANCE``), never bitwise: whether fused
or sharded execution must be bitwise-equal to a lone forward is ROADMAP
item 1's to settle, and a bitwise gate here would measure that instead.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.embedded import DeployedModel
from repro.nn import SGD, CrossEntropyLoss, Tensor
from repro.runtime import InferenceSession
from repro.serving import AsyncServeClient, ServeClient
from repro.zoo import build_arch1, build_arch3_reduced, build_fftnet

from .procs import Fleet, Server
from .tracing import NO_SPAN

#: Load-generating threads/connections a workload may use at any time.
MAX_LOAD = 2

#: A reply is wrong when it deviates from the serial session by more.
TOLERANCE = 1e-12

#: Seconds of ops between two interleaved yardstick probes.
PROBE_EVERY_S = 0.03

#: Replies a synchronous loop holds before it checks them.
CHECK_EVERY = 4096

ARCH1_STRING = "256-128CFb64-128CFb64-10F"


@dataclass
class Context:
    """What one run hands to its workload."""

    seed: int
    tmp: Path  # scratch directory inside the checkout, removed at exit
    fleet: Fleet
    env: dict[str, str]  # environment for every child process


@dataclass
class Window:
    """One measurement window of a closed loop."""

    latencies: list[float] = field(default_factory=list)  # seconds per op
    rows: int = 0  # rows of replies that arrived
    attempted: int = 0
    failed: int = 0  # errors, refusals and wrong replies
    wall_s: float = 0.0  # without the time spent in yardstick probes
    cpu_s: float = 0.0  # filled in by the harness, over every process
    host_factor: float = 1.0  # what normalises this window; by the harness
    calib_factor: float = 1.0  # the boundary calib's; by the harness
    probe_s: list[float] = field(default_factory=list)  # interleaved probes
    paused_cpu_s: float = 0.0  # harness CPU spent in probes and checks
    errors: list[str] = field(default_factory=list)  # the first few, for the report

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(exc))


def save_artifact(model, path: Path) -> DeployedModel:
    """Freeze ``model`` into a deployment artifact and load it back.

    Artifacts store spectra at fp32, so the reference for anything that
    serves the artifact is the artifact's own serial session.
    """
    DeployedModel.from_model(model.eval()).save(path)
    return DeployedModel.load(path)


def deviates(out, expected) -> bool:
    out = np.asarray(out)
    return out.shape != expected.shape or bool(
        np.abs(out - expected).max() > TOLERANCE
    )


class Workload:
    """Base: the closed-loop driver shared by the in-process workloads."""

    name = ""
    why = ""
    #: How time metrics are host-normalised (harness.py): "window" by
    #: yardstick probes interleaved with the ops, "run" by the boundary
    #: probes' median, "none" reports them raw.
    normalise = "none"
    yardstick = "fft_gemm"  # the matched kernel of yardsticks.py
    rows_per_op = 1
    pool = 1  # distinct inputs an op cycles through
    clients = 1  # load-generating threads or connections
    setups = 7  # cold set-ups whose median is ``setup_s``
    layer_call = ""  # span name of the one public call an op makes

    def __init__(self, ctx: Context):
        self.ctx = ctx

    # -- life cycle ----------------------------------------------------
    def prepare(self) -> None:
        """Build artifacts, inputs and expected outputs, off the clock."""

    def set_up(self) -> None:
        """One cold set-up, through the first correct call."""

    def tear_down(self) -> None:
        """Release what ``set_up`` acquired."""

    def pids(self) -> list[int]:
        """Processes, besides the harness, whose CPU and memory count."""
        return []

    # -- one op --------------------------------------------------------
    def op(self, k: int, span=NO_SPAN):
        """Run pool item ``k``, each call into a layer under a child of
        ``span`` (a no-op unless the run is traced)."""
        raise NotImplementedError

    def wrong(self, ks: list[int], outs: list) -> int:
        """How many of the replies are wrong (checked off the clock)."""
        raise NotImplementedError

    # -- the loop ------------------------------------------------------
    def window(self, seconds: float, tracer=None, probe=None) -> Window:
        """Run ops back to back for ``seconds``.

        ``probe``, a yardstick, runs once every ``PROBE_EVERY_S`` between
        ops, so that the window's host factor samples the very interval
        its ops ran in.  Replies are checked every ``CHECK_EVERY`` ops,
        which bounds what a fast loop holds in memory.  Both pauses are
        off the ops' clock and out of the window's wall and CPU time.
        """
        w = Window()
        ks, outs = [], []
        clock, cpu_clock = time.perf_counter, time.process_time
        k = done = raised = 0
        paused = 0.0
        start = clock()
        end = start + seconds
        next_probe = start if probe is not None else float("inf")
        while True:
            t0 = clock()
            if t0 >= next_probe or len(outs) >= CHECK_EVERY:
                cpu = cpu_clock()
                if t0 >= next_probe:
                    probe()
                    w.probe_s.append(clock() - t0)
                    next_probe = clock() + PROBE_EVERY_S
                else:
                    w.failed += self.wrong(ks, outs)
                    ks, outs = [], []
                w.paused_cpu_s += cpu_clock() - cpu
                paused += clock() - t0
                continue
            if t0 >= end:
                break
            try:
                if tracer is None:
                    out = self.op(k)
                else:
                    with tracer.request(f"workload.{self.name}") as span:
                        out = self.op(k, span)
            except Exception as exc:  # an op that raises is a failed op
                w.fail(exc)
                raised += 1
            else:
                w.latencies.append(clock() - t0)
                ks.append(k)
                outs.append(out)
                done += 1
            k = (k + 1) % self.pool
        w.wall_s = clock() - start - paused
        w.attempted = done + raised
        w.rows = done * self.rows_per_op
        w.failed += self.wrong(ks, outs)
        return w

    def cold_cli(self, args: list[str]) -> str:
        """Run ``python -m repro <args>`` in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=self.ctx.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"repro {args[0]} failed: {done.stderr.strip()}")
        return done.stdout


class InprocPredict(Workload):
    """``InferenceSession.predict_proba`` on one row, one thread.

    A cold set-up is what a script pays: ``python -m repro predict`` in a
    fresh interpreter (start, imports, artifact load, freeze, first
    call), its printed probabilities checked against the reference, and
    then the harness's own load and freeze of the same artifact.
    """

    layer_call = "runtime.session.predict_proba"
    builder = None
    input_shape: tuple[int, ...] = ()

    def prepare(self) -> None:
        self.artifact = self.ctx.tmp / f"{self.name}.npz"
        deployed = save_artifact(
            type(self).builder(rng=np.random.default_rng(0)), self.artifact
        )
        rng = np.random.default_rng(self.ctx.seed)
        self.inputs = rng.normal(size=(self.pool, 1, *self.input_shape))
        reference = InferenceSession.from_deployed(deployed)
        self.expected = np.concatenate(
            [reference.predict_proba(x) for x in self.inputs]
        )
        self.first_row = self.ctx.tmp / f"{self.name}_row.npy"
        np.save(self.first_row, self.inputs[0])
        self.session = None

    def set_up(self) -> None:
        printed = self.cold_cli(
            ["predict", str(self.artifact), "--data", str(self.first_row), "--proba"]
        )
        cold = np.array([float(p) for p in printed.split()])
        # the CLI prints four decimals
        if cold.shape != (10,) or np.abs(cold - self.expected[0]).max() > 1e-4:
            raise RuntimeError("cold `repro predict` printed wrong probabilities")
        self.session = InferenceSession.from_deployed(
            DeployedModel.load(self.artifact)
        )
        if deviates(self.session.predict_proba(self.inputs[0]), self.expected[:1]):
            raise RuntimeError("first in-process call is wrong")

    def tear_down(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def op(self, k: int, span=NO_SPAN):
        with span.child(self.layer_call):
            return self.session.predict_proba(self.inputs[k])

    def wrong(self, ks, outs) -> int:
        if not outs:
            return 0
        got = np.concatenate(outs)
        if got.shape != (len(ks), self.expected.shape[1]):
            return len(ks)
        return int(
            (np.abs(got - self.expected[ks]).max(axis=1) > TOLERANCE).sum()
        )


class InprocFcB1(InprocPredict):
    name = "inproc_fc_b1"
    why = (
        "the paper's scenario, per-image MNIST-FC latency; mostly plan and "
        "executor dispatch, so a dispatch gain shows and a kernel gain barely"
    )
    normalise = "window"
    yardstick = "dispatch"
    builder = build_arch1
    input_shape = (256,)
    pool = 64


class InprocConvB1(InprocPredict):
    name = "inproc_conv_b1"
    why = (
        "one CIFAR image through reduced Arch. 3; >90% im2col, fft and "
        "structured contractions, so a kernel gain shows and a dispatch gain does not"
    )
    normalise = "window"
    builder = build_arch3_reduced
    input_shape = (3, 32, 32)
    pool = 16


class TrainFcStep(Workload):
    """One SGD step on Arch. 1, batch 64.

    Checked three ways, off the clock: every loss is finite; after each
    window the live model equals a fresh serial freeze of itself on a
    batch (a stale ``SpectrumCache`` would break exactly this); and the
    loss on each batch is below its first visit's.
    """

    name = "train_fc_step"
    why = (
        "fft/structured used the other way: backward contractions with the "
        "SpectrumCache invalidated every step; an inference gain that costs training shows"
    )
    normalise = "window"
    yardstick = "batch"
    rows_per_op = 64
    pool = 8
    layer_call = "nn.step"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        self.batches = [
            (rng.normal(size=(64, 256)), rng.integers(0, 10, size=64))
            for _ in range(self.pool)
        ]
        self.data = self.ctx.tmp / "train_batch.npz"
        np.savez(self.data, inputs=self.batches[0][0], labels=self.batches[0][1])
        self.model = None

    def set_up(self) -> None:
        checkpoint = self.ctx.tmp / "train_ckpt.npz"
        checkpoint.unlink(missing_ok=True)
        self.cold_cli(
            ["train", ARCH1_STRING, "--data", str(self.data), "--out",
             str(checkpoint), "--epochs", "1", "--batch-size", "64"]
        )
        with np.load(checkpoint) as saved:
            if not all(np.isfinite(saved[key]).all() for key in saved.files):
                raise RuntimeError("cold `repro train` saved non-finite weights")
        self.model = build_arch1(rng=np.random.default_rng(0)).train()
        self.loss_fn = CrossEntropyLoss()
        self.optimizer = SGD(self.model.parameters(), lr=0.01)
        self.first_loss = [self.op(k) for k in range(self.pool)]
        if not np.isfinite(self.first_loss).all():
            raise RuntimeError("first training step is not finite")

    def tear_down(self) -> None:
        self.model = None

    def op(self, k: int, span=NO_SPAN):
        x, labels = self.batches[k]
        self.optimizer.zero_grad()
        with span.child("nn.forward"):
            logits = self.model(Tensor(x))
        with span.child("nn.loss"):
            loss = self.loss_fn(logits, labels)
        with span.child("nn.backward"):
            loss.backward()
        with span.child("nn.optim_step"):
            self.optimizer.step()
        return loss.item()

    def wrong(self, ks, outs) -> int:
        losses = np.asarray(outs, dtype=float)
        bad = ~np.isfinite(losses)
        if len(outs) >= self.pool:
            # the latest visit of each batch against its very first
            tail_ks, tail = ks[-self.pool:], losses[-self.pool:]
            bad[-self.pool:] |= tail >= np.asarray(self.first_loss)[tail_ks]
        x = self.batches[0][0]
        self.model.eval()
        live = self.model(Tensor(x)).numpy()
        frozen = InferenceSession.freeze(self.model).forward(x)
        self.model.train()
        if np.abs(live - frozen).max() > 1e-9:
            return len(outs)  # the window trained against stale spectra
        return int(bad.sum())


class Served(Workload):
    """Closed-loop predicts over ``AsyncServeClient`` connections.

    A cold set-up is spawn, banner, connect, first correct reply.
    """

    setups = 5
    rows_per_op = 8
    clients = MAX_LOAD
    pool = 16  # distinct requests per connection
    layer_call = "serving.client.predict_proba"
    builder = build_arch1
    input_shape: tuple[int, ...] = (256,)

    def server_args(self) -> list[str]:
        return ["serve", str(self.artifact), "--port", "0"]

    def prepare(self) -> None:
        self.artifact = self.ctx.tmp / f"{self.name}.npz"
        deployed = save_artifact(
            type(self).builder(rng=np.random.default_rng(0)), self.artifact
        )
        self.reference = InferenceSession.from_deployed(deployed)
        self.make_inputs()
        self.server: Server | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.connections: list = []

    def make_inputs(self) -> None:
        self.requests, self.expected = [], []
        for c in range(self.clients):
            rng = np.random.default_rng(self.ctx.seed + c)
            rows = rng.normal(size=(self.pool, self.rows_per_op, *self.input_shape))
            self.requests.append(rows)
            self.expected.append(
                np.stack([self.reference.predict_proba(r) for r in rows])
            )

    def set_up(self) -> None:
        self.server = self.ctx.fleet.spawn(self.server_args())
        self.attach(self.server.host, self.server.port)

    def attach(self, host: str, port: int, loop=None) -> None:
        """Connect to a server that is already up; check the first reply.

        ``loop`` is given when that server runs in this process, on it.
        """
        self.own_loop = loop is None
        self.loop = asyncio.new_event_loop() if loop is None else loop
        self.connections = [
            self.loop.run_until_complete(AsyncServeClient.connect(host, port))
            for _ in range(self.clients)
        ]
        self.check_first_reply()

    def check_first_reply(self) -> None:
        first = self.loop.run_until_complete(self.request(0, 0))
        if deviates(first, self.expected[0][0]):
            raise RuntimeError("first served reply is wrong")

    def tear_down(self) -> None:
        if self.loop is not None:
            for connection in self.connections:
                self.loop.run_until_complete(connection.close())
            if self.own_loop:
                self.loop.close()
            self.loop = None
        self.connections = []
        if self.server is not None:
            self.ctx.fleet.stop(self.server)
            self.server = None

    def pids(self) -> list[int]:
        return self.server.pids()

    async def request(self, c: int, k: int, span=NO_SPAN):
        with span.child(self.layer_call):
            return await self.connections[c].predict_proba(self.requests[c][k])

    def window(self, seconds: float, tracer=None, probe=None) -> Window:
        # A probe between requests would hold up the replies in flight,
        # so network windows are probed at their boundaries only.
        return self.loop.run_until_complete(self.run_clients(seconds, tracer))

    async def run_clients(self, seconds: float, tracer) -> Window:
        w = Window()
        clock = time.perf_counter
        start = clock()
        end = start + seconds
        parts = await asyncio.gather(
            *[self.client_loop(c, end, tracer, w) for c in range(self.clients)]
        )
        w.wall_s = clock() - start
        w.attempted = w.failed  # so far: the ops that raised
        for c, (ks, outs) in enumerate(parts):
            w.attempted += len(outs)
            w.rows += len(outs) * self.rows_per_op
            w.failed += self.wrong_replies(c, ks, outs)
        return w

    async def client_loop(self, c: int, end: float, tracer, w: Window):
        ks, outs = [], []
        clock = time.perf_counter
        k = 0
        while True:
            t0 = clock()
            if t0 >= end:
                break
            try:
                if tracer is None:
                    out = await self.request(c, k)
                else:
                    with tracer.request(f"workload.{self.name}") as span:
                        out = await self.request(c, k, span)
            except Exception as exc:  # refused, shed or broken: a failed op
                w.fail(exc)
            else:
                w.latencies.append(clock() - t0)
                ks.append(k)
                outs.append(out)
            k = (k + 1) % self.pool
        return ks, outs

    def wrong_replies(self, c: int, ks, outs) -> int:
        return sum(
            deviates(out, self.expected[c][k]) for k, out in zip(ks, outs)
        )


class ServedFcSmall(Served):
    name = "served_fc_small"
    why = (
        "the documented serving path, 2 connections x 8 rows; per-request "
        "protocol, asyncio and the 2 ms batch window dominate, kernels are <3%"
    )


class ServedFcBulk(Served):
    name = "served_fc_bulk"
    why = (
        "64 rows >= max_batch flushes at once, bypassing the batch window; "
        "payload copy/encode and the threaded executor do the work, per byte"
    )
    # CPU-bound like the in-process workloads (no timer in its path), so
    # normalised like them, but by the boundary probes.
    normalise = "run"
    rows_per_op = 64

    def server_args(self) -> list[str]:
        return [*super().server_args(), "--executor", "threaded", "--threads", "2"]


class RoutedFcSmall(Served):
    name = "routed_fc_small"
    why = (
        "served_fc_small's load through `repro route --spawn 1`; the delta "
        "to served_fc_small is the router's relay hop"
    )

    def server_args(self) -> list[str]:
        return ["route", "--spawn", "1", "--model", str(self.artifact), "--port", "0"]


class ServedFcSync(Served):
    """One blocking ``ServeClient``: the script path, the lone caller."""

    name = "served_fc_sync"
    why = (
        "the only workload on the blocking client (`repro predict --server`, "
        "scripts); a lone caller waits the full window plus the sync framing stall"
    )
    clients = 1
    layer_call = "serving.client.sync.predict_proba"
    client: ServeClient | None = None

    def set_up(self) -> None:
        self.server = self.ctx.fleet.spawn(self.server_args())
        self.client = ServeClient(self.server.host, self.server.port)
        if deviates(self.op(0), self.expected[0][0]):
            raise RuntimeError("first served reply is wrong")

    def tear_down(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.ctx.fleet.stop(self.server)
            self.server = None

    def op(self, k: int, span=NO_SPAN):
        with span.child(self.layer_call):
            return self.client.predict_proba(self.requests[0][k])

    def window(self, seconds: float, tracer=None, probe=None) -> Window:
        return Workload.window(self, seconds, tracer)

    def wrong(self, ks, outs) -> int:
        return self.wrong_replies(0, ks, outs)


class StreamFftnetPush(Served):
    """Two open streams pushing 4-sample chunks.

    Each window opens fresh streams (off the clock), pushes a cyclic
    pre-generated sequence, and checks each stream's pushes against the
    offline batch session on the sequence it actually pushed.
    """

    name = "stream_fftnet_push"
    why = (
        "the same server, batcher and client used statefully (submit_stream, "
        "push_many); a gain for predicts that costs pushes shows here"
    )
    rows_per_op = 4
    layer_call = "serving.client.stream.push"
    sequence_len = 4096  # a multiple of rows_per_op
    pool = sequence_len // rows_per_op

    @staticmethod
    def builder(rng):
        return build_fftnet(channels=8, depth=3, classes=6, rng=rng)

    def make_inputs(self) -> None:
        self.sequences = [
            np.random.default_rng(self.ctx.seed + c).normal(
                size=(self.sequence_len, 1)
            )
            for c in range(self.clients)
        ]
        self.streams: list = [None] * self.clients

    def offline(self, c: int, pushes: int) -> np.ndarray:
        pushed = np.resize(self.sequences[c], (pushes * self.rows_per_op, 1))
        return self.reference.predict_proba(pushed[None])[0]

    def check_first_reply(self) -> None:
        self.loop.run_until_complete(self.open_streams())
        first = self.loop.run_until_complete(self.request(0, 0))
        self.loop.run_until_complete(self.close_streams())
        if deviates(first, self.offline(0, 1)):
            raise RuntimeError("first stream push is wrong")

    async def open_streams(self) -> None:
        for c, connection in enumerate(self.connections):
            self.streams[c] = await connection.stream()

    async def close_streams(self) -> None:
        for stream in self.streams:
            await stream.close()

    async def request(self, c: int, k: int, span=NO_SPAN):
        at = (k * self.rows_per_op) % self.sequence_len
        chunk = self.sequences[c][at : at + self.rows_per_op]
        with span.child(self.layer_call):
            return await self.streams[c].push(chunk)

    async def run_clients(self, seconds: float, tracer) -> Window:
        await self.open_streams()
        try:
            return await super().run_clients(seconds, tracer)
        finally:
            await self.close_streams()

    def wrong_replies(self, c: int, ks, outs) -> int:
        if not outs:
            return 0
        # A failed push leaves a gap the offline sequence cannot model;
        # the failure is already counted, so the rest reads as wrong.
        expected = self.offline(c, len(outs)).reshape(len(outs), self.rows_per_op, -1)
        return sum(deviates(out, exp) for out, exp in zip(outs, expected))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        InprocFcB1,
        InprocConvB1,
        TrainFcStep,
        ServedFcSmall,
        ServedFcBulk,
        ServedFcSync,
        RoutedFcSmall,
        StreamFftnetPush,
    )
}
