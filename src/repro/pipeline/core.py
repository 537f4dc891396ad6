"""The :class:`Pipeline` runner — train → compress → quantize → package.

One declarative :class:`~repro.pipeline.config.PipelineConfig` in, one
format-v2 artifact out.  The four stages run in order with typed
results (:mod:`repro.pipeline.types`); each stage is also callable
individually and *resumable* — calling :meth:`Pipeline.quantize` on a
fresh pipeline first runs ``train`` and ``compress``, and re-calling a
completed stage returns its cached result (``force=True`` re-runs it
and invalidates everything downstream).

Quickstart::

    from repro.pipeline import Pipeline, PipelineConfig

    config = PipelineConfig(
        architecture="arch1", epochs=5, quantize_bits=12,
        out="arch1_q12.npz", precisions=("fp64", "fp32"),
    )
    result = Pipeline(config).run()
    print(result.quantize.accuracy_delta, result.package.storage_bytes)

The produced artifact serves unchanged through the consumption facade::

    from repro.engine import Engine

    with Engine(model="arch1_q12.npz", precisions=("fp64", "fp32")) as e:
        labels = e.predict(rows)

Parity contract: the served outputs equal the packaged artifact's own
records bitwise (same spectra, same plan compiler), and differ from the
float model only by the quantization the config asked for — the
quantize stage measures that delta and the artifact metadata records
it.  See ``docs/pipeline.md``.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import ArrayDataset, DataLoader
from ..exceptions import PipelineError
from ..nn import Adam, CrossEntropyLoss, Sequential, Trainer
from ..nn.convert import conversion_rows_from, convert_to_block_circulant
from ..nn.metrics import accuracy
from ..nn.trainer import TrainingHistory, predict_in_batches
from .config import PipelineConfig, shape_compatible
from .types import (
    CompressResult,
    PackageResult,
    PipelineResult,
    QuantizeResult,
    TrainResult,
)

__all__ = ["Pipeline"]

_STAGES = ("train", "compress", "quantize", "package")


class Pipeline:
    """Stage runner over one :class:`PipelineConfig`.

    Construct from a config or from config fields directly::

        Pipeline(PipelineConfig(architecture="arch1"))
        Pipeline(architecture="arch1", epochs=2, quantize_bits=12)

    ``pipeline.model`` is the live model after the latest completed
    stage; ``pipeline.results`` maps stage name -> result for the
    stages run so far.
    """

    def __init__(self, config: PipelineConfig | None = None, **fields):
        if config is not None and fields:
            raise PipelineError(
                "pass either a PipelineConfig or config fields, not both"
            )
        self.config = (
            config if config is not None else PipelineConfig(**fields)
        )
        self._results: dict[str, object] = {}
        # Per-stage live models: "train" holds the trained model,
        # "compress" the converted one.  Kept separately so re-running
        # a stage (force=True) starts from its *predecessor's* model,
        # not from its own previous output.
        self._models: dict[str, Sequential] = {}
        self._data: tuple | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def results(self) -> dict:
        """Stage name -> typed result, for the stages run so far."""
        return dict(self._results)

    @property
    def model(self) -> Sequential | None:
        """The live model after the latest completed stage."""
        for stage in ("compress", "train"):
            if stage in self._models:
                return self._models[stage]
        return None

    def _invalidate_after(self, stage: str) -> None:
        """Drop cached results of every stage downstream of ``stage``."""
        for later in _STAGES[_STAGES.index(stage) + 1:]:
            self._results.pop(later, None)
            self._models.pop(later, None)

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def _prepare_data(self) -> tuple:
        """(train_x, train_y, test_x, test_y) per the config's dataset."""
        if self._data is not None:
            return self._data
        config = self.config
        shape = config.input_shape
        if config.dataset == "synthetic_mnist":
            import math

            from ..data import (
                bilinear_resize,
                flatten_images,
                load_synthetic_mnist,
            )

            kwargs = {} if config.noise is None else {"noise": config.noise}
            train, test = load_synthetic_mnist(
                train_size=config.train_size,
                test_size=config.test_size,
                seed=config.seed,
                **kwargs,
            )
            side = math.isqrt(shape[0])

            def preprocess(images):
                return flatten_images(bilinear_resize(images, side, side))

            self._data = (
                preprocess(train.inputs), train.labels,
                preprocess(test.inputs), test.labels,
            )
        elif config.dataset == "synthetic_cifar":
            from ..data import load_synthetic_cifar

            kwargs = {} if config.noise is None else {"noise": config.noise}
            train, test = load_synthetic_cifar(
                train_size=config.train_size,
                test_size=config.test_size,
                seed=config.seed,
                **kwargs,
            )
            self._data = (
                train.inputs, train.labels, test.inputs, test.labels,
            )
        elif config.dataset == "synthetic_wave":
            from ..data import load_synthetic_wave

            kwargs = {} if config.noise is None else {"noise": config.noise}
            train, test = load_synthetic_wave(
                train_size=config.train_size,
                test_size=config.test_size,
                seed=config.seed,
                **kwargs,
            )
            self._data = (
                train.inputs, train.labels, test.inputs, test.labels,
            )
        else:
            from ..data import train_test_split
            from ..io import load_inputs

            inputs, labels = load_inputs(config.dataset)
            if labels is None:
                raise PipelineError(
                    f"dataset bundle {config.dataset} has no labels; "
                    "the pipeline trains and evaluates supervised"
                )
            if not shape_compatible(tuple(shape), tuple(inputs.shape[1:])):
                raise PipelineError(
                    f"dataset bundle {config.dataset} has per-sample "
                    f"shape {tuple(inputs.shape[1:])}; the architecture "
                    f"expects {tuple(shape)} (None = any)"
                )
            train, test = train_test_split(
                ArrayDataset(inputs, labels),
                config.test_fraction,
                rng=np.random.default_rng(config.seed),
            )
            self._data = (
                train.inputs, train.labels, test.inputs, test.labels,
            )
        return self._data

    def _evaluate(self, model: Sequential) -> float:
        """Test-set accuracy of a live model (eval mode, batched)."""
        _, _, test_x, test_y = self._prepare_data()
        model.eval()
        return float(accuracy(predict_in_batches(model, test_x), test_y))

    def _build_model(self) -> Sequential:
        config = self.config
        arch = config.architecture
        if isinstance(arch, Sequential):
            # Deep-copy so the pipeline owns what it trains/fine-tunes:
            # the caller's model is never mutated, and train(force=True)
            # restarts from the weights the config was built with —
            # the same restart semantics zoo/string architectures get
            # from reseeding their builder.
            import copy

            return copy.deepcopy(arch)
        rng = np.random.default_rng(config.seed)
        from .. import zoo

        if arch in zoo.names():
            return zoo.get(arch, rng=rng, **config.arch_options)
        from ..io import build_model_from_string

        return build_model_from_string(arch, rng=rng)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def train(self, force: bool = False) -> TrainResult:
        """Stage 1: build the model and train it on the dataset.

        ``epochs=0`` skips the fit (a pre-trained ``Sequential`` is
        packaged as-is) but still measures test accuracy, so downstream
        stages always have a float baseline.
        """
        if "train" in self._results and not force:
            return self._results["train"]
        self._invalidate_after("train")
        config = self.config
        start = time.perf_counter()
        model = self._build_model()
        train_x, train_y, _, _ = self._prepare_data()
        history = TrainingHistory()
        if config.epochs > 0:
            loader = DataLoader(
                ArrayDataset(train_x, train_y),
                batch_size=config.batch_size,
                shuffle=True,
                seed=config.seed,
            )
            trainer = Trainer(
                model,
                CrossEntropyLoss(),
                Adam(model.parameters(), lr=config.lr),
            )
            history = trainer.fit(loader, epochs=config.epochs)
        model.eval()
        train_accuracy = (
            history.final.train_accuracy if history.epochs else float(
                accuracy(predict_in_batches(model, train_x), train_y)
            )
        )
        result = TrainResult(
            history=history,
            train_accuracy=train_accuracy,
            test_accuracy=self._evaluate(model),
            epochs=config.epochs,
            seconds=time.perf_counter() - start,
            skipped=config.epochs == 0,
        )
        self._models["train"] = model
        self._results["train"] = result
        return result

    def _check_layer_indices(self, model: Sequential) -> None:
        """A typo'd compression-policy index must not silently no-op.

        Validated here, against the *actual* model, because a live
        ``Sequential``'s layer list isn't available at config time.
        ``skip_layers`` entries are range-checked; ``layer_block_sizes``
        must additionally target convertible dense layers.
        """
        from ..nn.layers import Conv2d, Linear

        config = self.config
        for index in sorted(
            set(config.skip_layers) | set(config.layer_block_sizes)
        ):
            if not 0 <= index < len(model):
                raise PipelineError(
                    f"compression policy names layer {index}, but the "
                    f"model has layers 0..{len(model) - 1}"
                )
        for index in sorted(config.layer_block_sizes):
            layer = model[index]
            if not isinstance(layer, (Linear, Conv2d)):
                raise PipelineError(
                    f"layer_block_sizes[{index}] targets "
                    f"{type(layer).__name__}, which is not a convertible "
                    "dense layer"
                )

    def compress(self, force: bool = False) -> CompressResult:
        """Stage 2: project dense layers to block-circulant + fine-tune.

        Skipped (with the float accuracy passed through) when the
        config sets no ``block_size`` — zoo architectures are already
        block-circulant by construction.
        """
        if "compress" in self._results and not force:
            return self._results["compress"]
        train_result = self.train()
        self._invalidate_after("compress")
        config = self.config
        if config.block_size is None:
            result = CompressResult(
                block_size=None,
                test_accuracy=train_result.test_accuracy,
                accuracy_before=train_result.test_accuracy,
                skipped=True,
            )
            self._results["compress"] = result
            return result
        start = time.perf_counter()
        model = self._models["train"]
        self._check_layer_indices(model)
        converted = convert_to_block_circulant(
            model,
            config.block_size,
            skip=config.skip_layers,
            overrides=config.layer_block_sizes,
        )
        # Diagnostics from the conversion that just ran — large models
        # project once, not once more for the report.
        report = conversion_rows_from(
            model,
            converted,
            skip=config.skip_layers,
            quantize_bits=config.quantize_bits,
        )
        if config.fine_tune_epochs > 0:
            train_x, train_y, _, _ = self._prepare_data()
            loader = DataLoader(
                ArrayDataset(train_x, train_y),
                batch_size=config.batch_size,
                shuffle=True,
                seed=config.seed + 1,
            )
            Trainer(
                converted,
                CrossEntropyLoss(),
                Adam(converted.parameters(), lr=config.lr),
            ).fit(loader, epochs=config.fine_tune_epochs)
        converted.eval()
        result = CompressResult(
            block_size=config.block_size,
            report=report,
            accuracy_before=train_result.test_accuracy,
            test_accuracy=self._evaluate(converted),
            fine_tune_epochs=config.fine_tune_epochs,
            seconds=time.perf_counter() - start,
        )
        self._models["compress"] = converted
        self._results["compress"] = result
        return result

    def quantize(self, force: bool = False) -> QuantizeResult:
        """Stage 3: fixed-point quantization, measured on the artifact.

        Builds the quantized deployment records
        (:meth:`DeployedModel.from_model` with the config's bit width —
        the live model is *not* mutated) and measures test accuracy of
        the quantized artifact, through the frozen session a server
        would run, against the float model's, which is
        exactly what a serving consumer of the packaged artifact will
        see.
        """
        if "quantize" in self._results and not force:
            return self._results["quantize"]
        compress_result = self.compress()
        self._invalidate_after("quantize")
        config = self.config
        if config.quantize_bits is None:
            result = QuantizeResult(
                total_bits=None,
                float_accuracy=compress_result.test_accuracy,
                test_accuracy=compress_result.test_accuracy,
                skipped=True,
            )
            self._results["quantize"] = result
            return result
        from ..embedded.deploy import DeployedModel
        from ..runtime.session import InferenceSession

        start = time.perf_counter()
        _, _, test_x, test_y = self._prepare_data()
        deployed = DeployedModel.from_model(
            self.model, quantize_bits=config.quantize_bits
        )
        with InferenceSession.from_deployed(deployed) as session:
            quantized_accuracy = float(
                np.mean(session.predict(test_x) == test_y)
            )
        result = QuantizeResult(
            total_bits=config.quantize_bits,
            layers=deployed.quantization_summary(),
            test_accuracy=quantized_accuracy,
            float_accuracy=compress_result.test_accuracy,
            seconds=time.perf_counter() - start,
        )
        self._quantized_deployed = deployed
        self._results["quantize"] = result
        return result

    def package(self, force: bool = False) -> PackageResult:
        """Stage 4: write the format-v2 artifact with full metadata.

        Reuses the quantize stage's records when quantization ran;
        composes the compression / quantization / provenance metadata
        sections from the earlier stage results; writes ``config.out``
        when set (the artifact is returned in memory either way).
        """
        if "package" in self._results and not force:
            return self._results["package"]
        quantize_result = self.quantize()
        self._invalidate_after("package")
        config = self.config
        from ..embedded.deploy import FORMAT_VERSION, DeployedModel

        start = time.perf_counter()
        if quantize_result.skipped:
            deployed = DeployedModel.from_model(self.model)
        else:
            deployed = self._quantized_deployed
        deployed.metadata = self._compose_metadata(deployed)
        path = config.out
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            deployed.save(path)
        result = PackageResult(
            deployed=deployed,
            version=FORMAT_VERSION,
            storage_bytes=deployed.storage_bytes(),
            path=path,
            metadata=deployed.metadata,
            seconds=time.perf_counter() - start,
        )
        self._results["package"] = result
        return result

    def _compose_metadata(self, deployed) -> dict:
        """The format-v2 header sections, from the stage results."""
        import repro

        train_result: TrainResult = self._results["train"]
        compress_result: CompressResult = self._results["compress"]
        quantize_result: QuantizeResult = self._results["quantize"]
        block_sizes = [
            {"index": i, "kind": r["kind"], "block_size": r["block_size"]}
            for i, r in enumerate(deployed.records)
            if "block_size" in r
        ]
        compression: dict = {"layers": block_sizes}
        if not compress_result.skipped:
            compression["block_size"] = compress_result.block_size
            compression["projection"] = [
                {
                    "index": row.index,
                    "relative_error": row.relative_error,
                    "compression": row.compression,
                }
                for row in compress_result.report
            ]
        quantization = None
        if not quantize_result.skipped:
            quantization = {
                "total_bits": quantize_result.total_bits,
                "accuracy_delta": quantize_result.accuracy_delta,
                "max_weight_error": quantize_result.max_weight_error,
                "layers": quantize_result.layers,
            }
        return {
            "compression": compression,
            "quantization": quantization,
            "provenance": {
                "config": self.config.describe(),
                "config_hash": self.config.config_hash(),
                "training": train_result.history.summary(),
                "test_accuracy": quantize_result.test_accuracy,
                "repro_version": repro.__version__,
            },
            "precisions": list(self.config.precisions),
        }

    # ------------------------------------------------------------------
    # Whole run
    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Run every stage in order (resuming from cached ones)."""
        self.package()
        return PipelineResult(
            train=self._results["train"],
            compress=self._results["compress"],
            quantize=self._results["quantize"],
            package=self._results["package"],
        )

    def __repr__(self) -> str:
        done = [s for s in _STAGES if s in self._results]
        return (
            f"Pipeline(architecture={self.config.architecture_label()!r}, "
            f"done={done})"
        )
