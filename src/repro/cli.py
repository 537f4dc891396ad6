"""Command-line interface: the paper's deployment workflow as a tool.

Mirrors the paper's Fig. 4 pipeline from a shell:

* ``build``   — the whole pipeline declaratively: train → compress →
  quantize → package a format-v2 artifact from one
  :class:`~repro.pipeline.PipelineConfig` (JSON file and/or flags),
* ``inspect`` — print a deployment artifact's layer table and format-v2
  metadata (compression, quantization, provenance),
* ``train``   — build a model from an architecture string, train it on a
  dataset bundle (``.npz`` with ``inputs``/``labels``), save a checkpoint,
* ``deploy``  — convert a checkpoint into the FFT-domain deployment
  artifact (section IV-A),
* ``predict`` — run the standalone inference engine on an input bundle
  (builds a :class:`~repro.engine.EngineConfig` under the hood),
* ``serve``   — expose one or several deployed artifacts as an asyncio
  micro-batching TCP service (``--model name=path`` is repeatable;
  requests route per-model and per-precision, see :mod:`repro.engine`
  and :mod:`repro.serving`),
* ``route``   — front a fleet of ``serve`` backends with one
  health-probing, failover-capable router port (static ``--backend``
  addresses and/or ``--spawn N`` local child processes, see
  :mod:`repro.router`),
* ``profile`` — predict per-image latency and energy on the Table I
  devices,
* ``info``    — parameter/storage/compression report for an architecture.

Usage: ``python -m repro <command> ...`` (see ``--help`` per command).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import storage_report
from .data import ArrayDataset, DataLoader
from .embedded import DeployedModel, EnergyModel, InferenceProfiler, PLATFORMS
from .io import (
    build_model_from_string,
    load_inputs,
    load_weights,
    parse_architecture,
    save_weights,
)
from .engine import DEFAULT_MODEL_NAME, Engine, EngineConfig
from .exceptions import ReproError
from .nn import Adam, CrossEntropyLoss, Trainer

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FFT-based block-circulant DNN training and deployment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build",
        help="run the declarative build pipeline "
        "(train -> compress -> quantize -> package, format-v2 artifact)",
    )
    build.add_argument(
        "--config",
        default=None,
        help="JSON PipelineConfig file; flags below override its keys",
    )
    build.add_argument(
        "--arch",
        default=None,
        help="zoo name (see `repro build --list-archs`) or an "
        "architecture string",
    )
    build.add_argument(
        "--list-archs", action="store_true",
        help="print registered zoo architectures and exit",
    )
    build.add_argument(
        "--dataset",
        default=None,
        help="synthetic_mnist | synthetic_cifar | path to an .npz bundle "
        "(default: the architecture's paper dataset)",
    )
    build.add_argument("--train-size", type=_positive_int, default=None)
    build.add_argument("--test-size", type=_positive_int, default=None)
    build.add_argument("--epochs", type=int, default=None)
    build.add_argument("--batch-size", type=_positive_int, default=None)
    build.add_argument("--lr", type=float, default=None)
    build.add_argument("--seed", type=int, default=None)
    build.add_argument(
        "--block-size",
        type=_positive_int,
        default=None,
        help="compress stage: project dense layers to this block size "
        "(omit to skip compression)",
    )
    build.add_argument(
        "--fine-tune-epochs", type=int, default=None,
        help="post-projection fine-tuning epochs",
    )
    build.add_argument(
        "--quantize-bits",
        type=int,
        default=None,
        help="quantize stage: fixed-point weight width, e.g. 12 "
        "(omit to skip quantization)",
    )
    build.add_argument(
        "--out", default=None, help="artifact output path (.npz, format v2)"
    )
    build.add_argument(
        "--precisions",
        default=None,
        metavar="P1[,P2]",
        help="target serving precisions recorded in provenance, "
        "e.g. fp64,fp32",
    )

    inspect = sub.add_parser(
        "inspect", help="print an artifact's layers and format-v2 metadata"
    )
    inspect.add_argument("artifact", help="deployment artifact (.npz)")
    inspect.add_argument(
        "--json", action="store_true",
        help="emit the raw describe() payload as JSON",
    )

    train = sub.add_parser("train", help="train a model from an architecture string")
    train.add_argument("architecture", help="e.g. 256-128CFb64-128CFb64-10F")
    train.add_argument("--data", required=True, help=".npz with inputs+labels")
    train.add_argument("--out", required=True, help="checkpoint path (.npz)")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--lr", type=float, default=0.003)
    train.add_argument("--seed", type=int, default=0)

    deploy = sub.add_parser(
        "deploy", help="freeze a checkpoint into an FFT-domain artifact"
    )
    deploy.add_argument("architecture")
    deploy.add_argument("--weights", required=True, help="checkpoint from `train`")
    deploy.add_argument("--out", required=True, help="artifact path (.npz)")

    predict = sub.add_parser("predict", help="run the deployed inference engine")
    predict.add_argument("model", help="artifact from `deploy`")
    predict.add_argument("--data", required=True, help=".npz/.npy/.csv inputs")
    predict.add_argument(
        "--proba", action="store_true", help="print class probabilities"
    )
    predict.add_argument(
        "--batch-size",
        type=_positive_int,
        default=256,
        help="streaming chunk size for the inference session",
    )
    predict.add_argument(
        "--precision",
        choices=("fp64", "fp32"),
        default="fp64",
        help="session precision: fp32 runs complex64/float32 end to end "
        "(half the spectrum memory, ~1e-6 accuracy)",
    )
    predict.add_argument(
        "--executor",
        choices=("auto", "serial", "threaded"),
        default=None,
        help="execution strategy: serial (the calling thread), threaded "
        "(--batch-size chunks fanned across an in-process thread "
        "pool), or auto (threaded on multi-core hosts).  Default: the "
        "REPRO_EXECUTOR env var, else serial",
    )
    predict.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="thread count for --executor threaded/auto "
        "(default: the effective core count)",
    )
    predict.add_argument(
        "--profile",
        action="store_true",
        help="print per-op-kind cumulative timings to stderr after "
        "predicting (see docs/performance.md)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve deployed artifacts over TCP with micro-batching "
        "and per-request model/precision routing",
    )
    serve.add_argument(
        "model",
        nargs="?",
        default=None,
        help="artifact from `deploy` (or use --model name=path, repeatable)",
    )
    serve.add_argument(
        "--model",
        dest="models",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register an artifact under NAME (repeatable; requests "
        "select it with the `model` header field).  A bare PATH "
        "registers as the default model.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default: the repro serving port; 0 = ephemeral)",
    )
    serve.add_argument(
        "--precision",
        choices=("fp64", "fp32"),
        default=None,
        help="default session precision for requests naming none "
        "(default: the first entry of --precisions, else fp64; fp32 "
        "halves spectrum memory)",
    )
    serve.add_argument(
        "--precisions",
        default=None,
        metavar="P1[,P2]",
        help="comma-separated precision pool, e.g. fp64,fp32 — one "
        "lazily-frozen session per (model, precision); requests pick "
        "with the `precision` header field (default: just the default "
        "precision)",
    )
    serve.add_argument(
        "--executor",
        choices=("auto", "serial", "threaded"),
        default=None,
        help="execution strategy: serial, threaded (fused batches "
        "split into chunks across an in-process thread pool), or auto "
        "(threaded on multi-core hosts).  One shared thread pool "
        "serves every (model, precision) route.  Default: the "
        "REPRO_EXECUTOR env var, else serial",
    )
    serve.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="thread count for --executor threaded/auto "
        "(default: the effective core count)",
    )
    serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=32,
        help="flush a micro-batch once this many rows are pending",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="flush a partial micro-batch after this many milliseconds",
    )
    serve.add_argument(
        "--max-streams",
        type=_positive_int,
        default=64,
        help="open incremental-inference streams allowed at once; a "
        "stream_open beyond this is shed as overloaded (each open "
        "stream holds its per-layer history in server memory)",
    )

    route = sub.add_parser(
        "route",
        help="front a fleet of `repro serve` backends with one "
        "health-probing, failover-capable router port",
    )
    route.add_argument(
        "--backend",
        dest="backends",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="address of an already-running `repro serve` backend "
        "(repeatable; combinable with --spawn)",
    )
    route.add_argument(
        "--spawn",
        type=int,
        default=0,
        metavar="N",
        help="launch N local `repro serve` child processes on ephemeral "
        "ports and own their lifecycle (requires --model)",
    )
    route.add_argument(
        "--model",
        dest="models",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="artifact registry for spawned children (repeatable; a "
        "bare PATH registers as the default model).  Static backends "
        "advertise their own registries over the info op.",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port",
        type=int,
        default=None,
        help="router TCP port (default: the repro serving port; "
        "0 = ephemeral)",
    )
    route.add_argument(
        "--precisions",
        default=None,
        metavar="P1[,P2]",
        help="precision pool passed to spawned children "
        "(--precisions fp64,fp32)",
    )
    route.add_argument(
        "--spawn-arg",
        dest="spawn_args",
        action="append",
        default=[],
        metavar="ARG",
        help="extra argument appended verbatim to each spawned child's "
        "`repro serve` command line (repeatable, e.g. "
        "--spawn-arg=--max-batch --spawn-arg=64)",
    )
    route.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between health probes per backend (the info op)",
    )
    route.add_argument(
        "--probe-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="per-probe timeout; exceeding it marks the backend down",
    )
    route.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="timeout for one forwarded request round-trip",
    )
    route.add_argument(
        "--pool-size",
        type=_positive_int,
        default=2,
        help="idle persistent connections kept per backend",
    )
    route.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help="distinct backends tried per predict before giving up "
        "(default: every routable candidate)",
    )

    profile = sub.add_parser(
        "profile", help="predict on-device latency and energy"
    )
    profile.add_argument("architecture")
    profile.add_argument(
        "--battery", action="store_true", help="simulate unplugged operation"
    )

    info = sub.add_parser("info", help="storage / compression report")
    info.add_argument("architecture")
    return parser


def _input_shape(architecture: str) -> tuple[int, ...]:
    return parse_architecture(architecture).input_shape


def _cmd_build(args) -> int:
    from . import zoo
    from .pipeline import Pipeline, PipelineConfig

    if args.list_archs:
        for name in zoo.names():
            entry = zoo.entry(name)
            print(f"{name:16s} {entry.dataset:16s} {entry.description}")
        return 0

    overrides = dict(
        architecture=args.arch,
        dataset=args.dataset,
        train_size=args.train_size,
        test_size=args.test_size,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        block_size=args.block_size,
        fine_tune_epochs=args.fine_tune_epochs,
        quantize_bits=args.quantize_bits,
        out=args.out,
    )
    if args.precisions is not None:
        overrides["precisions"] = tuple(
            p.strip() for p in args.precisions.split(",") if p.strip()
        )
    try:
        if args.config is not None:
            config = PipelineConfig.from_file(args.config, **overrides)
        else:
            config = PipelineConfig(
                **{k: v for k, v in overrides.items() if v is not None}
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pipeline = Pipeline(config)
    try:
        if config.out is not None:
            # Probe the output location before spending the training
            # budget: an unwritable --out must fail now, not after the
            # last epoch.
            import os as _os

            config.out.parent.mkdir(parents=True, exist_ok=True)
            if not _os.access(config.out.parent, _os.W_OK):
                raise OSError(f"output directory {config.out.parent} "
                              "is not writable")
        result = pipeline.run()
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    train = result.train
    if train.skipped:
        print(f"train: skipped (epochs=0), test accuracy "
              f"{train.test_accuracy:.4f}")
    else:
        print(f"train: {train.epochs} epochs, train accuracy "
              f"{train.train_accuracy:.4f}, test accuracy "
              f"{train.test_accuracy:.4f} ({train.seconds:.1f}s)")
    compress = result.compress
    if compress.skipped:
        print("compress: skipped (no block_size)")
    else:
        worst = max(
            (r.relative_error for r in compress.report), default=0.0
        )
        print(f"compress: block {compress.block_size}, "
              f"{len(compress.report)} layer(s) projected "
              f"(worst error {worst:.3f}), test accuracy "
              f"{compress.test_accuracy:.4f}")
    quantize = result.quantize
    if quantize.skipped:
        print("quantize: skipped (no quantize_bits)")
    else:
        print(f"quantize: {quantize.total_bits}-bit fixed point, "
              f"accuracy delta {quantize.accuracy_delta:+.4f}, "
              f"max weight error {quantize.max_weight_error:.2e}")
    package = result.package
    where = package.path if package.path is not None else "<memory>"
    print(f"package: {where} "
          f"({package.storage_bytes / 1024:.1f} KB, format v{package.version}, "
          f"hash {config.config_hash()})")
    return 0


def _cmd_inspect(args) -> int:
    import json as _json

    from .embedded import DeployedModel

    try:
        deployed = DeployedModel.load(args.artifact)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = deployed.describe()
    if args.json:
        print(_json.dumps(info, indent=2))
        return 0
    print(f"artifact: {args.artifact}")
    print(f"format: v{info['version']}"
          f"{' (quantized)' if info['quantized'] else ''}, "
          f"{info['storage_bytes'] / 1024:.1f} KB")
    print(f"{'idx':>3s} {'kind':12s} {'shape':24s} {'block':>5s} "
          f"{'qformat':>8s} {'q_err':>9s} {'bytes':>9s}")
    for layer in info["layers"]:
        arrays = layer.get("arrays", {})
        main = arrays.get("weight_q") or arrays.get("spectra") \
            or arrays.get("weight") or {}
        shape = "x".join(str(d) for d in main.get("shape", [])) or "-"
        total = sum(a["bytes"] for a in arrays.values())
        q_err = layer.get("quantization_error")
        print(f"{layer['index']:3d} {layer['kind']:12s} {shape:24s} "
              f"{str(layer.get('block_size', '-')):>5s} "
              f"{layer.get('qformat', '-'):>8s} "
              f"{'-' if q_err is None else format(q_err, '.2e'):>9s} "
              f"{total:9d}")
    meta = info.get("metadata") or {}
    quantization = meta.get("quantization")
    if quantization:
        print(f"quantization: {quantization['total_bits']}-bit, "
              f"accuracy delta {quantization.get('accuracy_delta')}, "
              f"max weight error {quantization['max_weight_error']:.2e}")
    compression = meta.get("compression") or {}
    if compression.get("block_size") is not None:
        print(f"compression: block {compression['block_size']}, "
              f"{len(compression.get('projection', []))} projected layer(s)")
    provenance = meta.get("provenance")
    if provenance:
        print(f"provenance: config hash {provenance.get('config_hash')}, "
              f"trained {provenance.get('training', {}).get('epochs', 0)} "
              f"epoch(s), repro {provenance.get('repro_version')}")
        if provenance.get("test_accuracy") is not None:
            print(f"test accuracy: {provenance['test_accuracy']:.4f}")
    if meta.get("precisions"):
        print(f"target precisions: {','.join(meta['precisions'])}")
    return 0


def _cmd_train(args) -> int:
    inputs, labels = load_inputs(args.data)
    if labels is None:
        print("error: training data must include labels", file=sys.stderr)
        return 2
    model = build_model_from_string(
        args.architecture, rng=np.random.default_rng(args.seed)
    )
    loader = DataLoader(
        ArrayDataset(inputs, labels),
        batch_size=args.batch_size,
        shuffle=True,
        seed=args.seed,
    )
    trainer = Trainer(model, CrossEntropyLoss(), Adam(model.parameters(), lr=args.lr))
    history = trainer.fit(loader, epochs=args.epochs, verbose=True)
    save_weights(model, args.out)
    print(
        f"saved checkpoint to {args.out} "
        f"(final train accuracy {history.final.train_accuracy:.4f})"
    )
    return 0


def _cmd_deploy(args) -> int:
    model = build_model_from_string(args.architecture)
    load_weights(model, args.weights)
    model.eval()
    deployed = DeployedModel.from_model(model)
    deployed.save(args.out)
    print(
        f"saved deployment artifact to {args.out} "
        f"({deployed.storage_bytes() / 1024:.1f} KB, FFT-domain weights)"
    )
    return 0


def _print_op_stats(stats: dict) -> None:
    """The ``--profile`` table: per-op-kind cumulative time, on stderr."""
    if not stats:
        print("profile: no ops recorded", file=sys.stderr)
        return
    print("profile (per op kind):", file=sys.stderr)
    ranked = sorted(
        stats.items(), key=lambda item: item[1]["total_ns"], reverse=True
    )
    for kind, entry in ranked:
        calls, total_ns = entry["calls"], entry["total_ns"]
        total_ms = total_ns / 1e6
        per_call_us = total_ns / calls / 1e3
        print(
            f"  {kind:<24} calls={calls:<6} total={total_ms:9.3f} ms "
            f"mean={per_call_us:9.1f} us/call",
            file=sys.stderr,
        )


def _print_arena_info(info: dict, expanded_nbytes: int) -> None:
    """The ``--profile`` arena line: workspace buffer footprint and the
    weights expanded at freeze (dense-kernel ``bc_conv``), on stderr."""
    print(
        f"arena: workspaces={info['workspaces']} "
        f"buffers={info['buffers']} reserved={info['nbytes'] / 1024:.1f} KiB "
        f"expanded_weights={expanded_nbytes / 1024:.1f} KiB "
        f"buckets={list(info['buckets'])}",
        file=sys.stderr,
    )


def _cmd_predict(args) -> int:
    # Declarative path: describe *what* to run as an EngineConfig, let
    # the Engine pool/freeze the session (precomputed spectra at the
    # chosen precision, fused ops) and stream the inputs through it in
    # chunks — across a thread pool when requested.
    config = EngineConfig(
        model=args.model,
        precisions=(args.precision,),
        executor=args.executor,
        threads=args.threads,
        profile=args.profile,
    )
    inputs, labels = load_inputs(args.data)
    with Engine(config) as engine:
        if args.proba:
            proba = engine.predict_proba(inputs, batch_size=args.batch_size)
            for row in proba:
                print(" ".join(f"{p:.4f}" for p in row))
        else:
            predictions = engine.predict(inputs, batch_size=args.batch_size)
            print(" ".join(str(int(p)) for p in predictions))
            if labels is not None:
                score = float((predictions == labels).mean())
                print(f"accuracy: {score:.4f}", file=sys.stderr)
        if args.profile:
            session = engine.session()
            _print_op_stats(session.executor.op_stats())
            _print_arena_info(
                session.executor.arena_info(), session.expanded_weight_nbytes
            )
    return 0


def _parse_model_registry(args) -> tuple[dict, str | None]:
    """CLI model flags -> (registry mapping, default model name).

    The positional artifact and bare ``--model PATH`` entries register
    as the default model; ``--model NAME=PATH`` entries register under
    NAME.  The first registered name becomes the default.
    """
    models: dict[str, str] = {}
    order: list[str] = []

    def add(name: str, path: str) -> None:
        if name in models:
            raise ValueError(f"model {name!r} registered twice")
        models[name] = path
        order.append(name)

    if args.model is not None:
        add(DEFAULT_MODEL_NAME, args.model)
    for spec in args.models:
        name, sep, path = spec.partition("=")
        if sep:
            add(name, path)
        else:
            add(DEFAULT_MODEL_NAME, spec)
    if not models:
        raise ValueError(
            "no model given; pass an artifact path or --model name=path"
        )
    return models, order[0]


def _arm_faults() -> bool:
    """Arm the ``REPRO_FAULTS`` fault points, if set (chaos tests).

    Returns False after printing the CLI error for a malformed spec.
    Under ``route`` this arms the router-tier points (e.g.
    ``router.backend_down``); the spawner strips ``REPRO_FAULTS`` from
    child environments so the same spec does not also arm inside every
    backend.
    """
    if not os.environ.get("REPRO_FAULTS"):
        return True
    from .testing import faults

    try:
        faults.arm_from_env()
    except ValueError as exc:
        print(f"error: bad REPRO_FAULTS: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_serve(args) -> int:
    # The first stdout line is the machine-readable `serving on
    # host:port` banner (scripts and the CI smoke job parse it); the
    # config line follows via on_ready.
    try:
        models, default_model = _parse_model_registry(args)
        # The pool is exactly what the operator asked for: --precisions
        # when given (its first entry is the default unless --precision
        # overrides), else just the single default precision.
        precisions = tuple(
            p.strip()
            for p in (args.precisions or args.precision or "fp64").split(",")
            if p.strip()
        )
        if not precisions:
            raise ValueError("--precisions must name at least one precision")
        default_precision = args.precision or precisions[0]
        if args.precision is not None and args.precision not in precisions:
            precisions = (args.precision, *precisions)
        config = EngineConfig(
            models=models,
            default_model=default_model,
            precisions=precisions,
            precision=default_precision,
            executor=args.executor,
            threads=args.threads,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_streams=args.max_streams,
        )
    except ValueError as exc:  # covers ConfigurationError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def announce(server) -> None:
        registry = ",".join(f"{k}={v}" for k, v in models.items())
        info = server.engine.executor_info()
        pool = info["shared_pool"]
        pool_desc = (
            "none" if pool is None else f"{pool['kind']}:{pool['workers']}"
        )
        print(
            f"models={registry} precisions={','.join(precisions)} "
            f"default={default_model}:{default_precision} "
            f"executor={info['kind']} workers={info['workers']} "
            f"shared_pool={pool_desc} "
            f"max_batch={args.max_batch} max_wait_ms={args.max_wait_ms}",
            flush=True,
        )

    if not _arm_faults():
        return 2

    with Engine(config) as engine:
        try:
            # Surface bad artifact paths as a clean CLI error before
            # the server ever binds a port or prints the banner.
            engine.load_sources()
        except (OSError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            engine.serve(host=args.host, port=args.port, on_ready=announce)
        except OSError as exc:
            # Port already bound (or an unbindable host): a clean CLI
            # error, not a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_route(args) -> int:
    # Same banner contract as `serve`: the first stdout line is the
    # machine-readable `serving on host:port` line, then a config line.
    from .router import RouterConfig, RouterServer
    from .serving import DEFAULT_PORT

    models: dict[str, str] = {}
    try:
        for spec in args.models:
            name, sep, path = spec.partition("=")
            if not sep:
                name, path = DEFAULT_MODEL_NAME, spec
            if name in models:
                raise ValueError(f"model {name!r} registered twice")
            models[name] = path
        precisions = None
        if args.precisions is not None:
            precisions = tuple(
                p.strip() for p in args.precisions.split(",") if p.strip()
            )
        config = RouterConfig(
            backends=tuple(args.backends),
            spawn=args.spawn,
            models=models,
            spawn_precisions=precisions,
            spawn_args=tuple(args.spawn_args),
            host=args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            probe_interval_s=args.probe_interval,
            probe_timeout_s=args.probe_timeout,
            request_timeout_s=args.request_timeout,
            pool_size=args.pool_size,
            max_attempts=args.max_attempts,
        )
    except ValueError as exc:  # covers ConfigurationError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not _arm_faults():
        return 2

    def announce(router) -> None:
        fleet = ",".join(b.address for b in router.backends)
        print(
            f"backends={fleet} spawn={config.spawn} "
            f"routable={sum(1 for b in router.backends if b.routable)}"
            f"/{len(router.backends)} "
            f"probe_interval_s={config.probe_interval_s} "
            f"pool_size={config.pool_size}",
            flush=True,
        )

    try:
        RouterServer(config).run(on_ready=announce)
    except (OSError, ReproError) as exc:
        # Unbindable port, a spawn that never came up: a clean CLI
        # error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args) -> int:
    model = build_model_from_string(args.architecture)
    shape = _input_shape(args.architecture)
    profiler = InferenceProfiler(model, shape)
    energy = EnergyModel(model, shape)
    mode = " (battery)" if args.battery else ""
    print(f"{'platform':12s} {'impl':5s} {'us/image':>10s} {'uJ/image':>10s}{mode}")
    for impl in ("java", "cpp"):
        for key in sorted(PLATFORMS):
            runtime = profiler.runtime_us(key, impl, battery=args.battery)
            joules = energy.estimate(key, impl, battery=args.battery).energy_uj
            print(f"{key:12s} {impl:5s} {runtime:10.1f} {joules:10.1f}")
    return 0


def _cmd_info(args) -> int:
    model = build_model_from_string(args.architecture)
    report = storage_report(model)
    print(f"architecture: {args.architecture}")
    print(f"{'layer':55s} {'dense':>10s} {'stored':>10s} {'ratio':>7s}")
    for row in report.rows:
        print(
            f"{row.layer[:55]:55s} {row.dense_params:10d} "
            f"{row.stored_params:10d} {row.compression:6.1f}x"
        )
    print(
        f"total: {report.dense_params} dense -> {report.stored_params} stored "
        f"({report.compression:.1f}x), deployed {report.deployed_bytes / 1024:.1f} KB"
    )
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "inspect": _cmd_inspect,
    "train": _cmd_train,
    "deploy": _cmd_deploy,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "route": _cmd_route,
    "profile": _cmd_profile,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
