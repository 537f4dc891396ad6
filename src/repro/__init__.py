"""repro — reproduction of "FFT-Based Deep Learning Deployment in
Embedded Systems" (Lin et al., DATE 2018).

Subpackages:

* :mod:`repro.fft` — the FFT computing kernel (Cooley-Tukey, Bluestein,
  circular convolution),
* :mod:`repro.structured` — circulant / block-circulant / Toeplitz
  matrix algebra,
* :mod:`repro.nn` — autograd, layers (including the paper's
  block-circulant FC and CONV layers), losses, optimizers, trainer,
* :mod:`repro.data` — synthetic MNIST / CIFAR-10 stand-ins and transforms,
* :mod:`repro.io` — architecture / parameters / inputs parsers (Fig. 4),
* :mod:`repro.embedded` — platform specs (Table I), cost + runtime models
  (Tables II-III), and the FFT-domain deployment engine,
* :mod:`repro.analysis` — complexity / storage analysis and the
  TrueNorth comparison (Fig. 5),
* :mod:`repro.quantize` — fixed-point weight quantization extension,
* :mod:`repro.runtime` — the frozen inference runtime
  (:class:`~repro.runtime.InferenceSession`: flat op plan, precomputed
  spectra, fused bias+activation, batched streaming predict, run by a
  :class:`~repro.runtime.SerialExecutor` or, chunk-parallel, a
  :class:`~repro.runtime.ThreadedExecutor`),
* :mod:`repro.precision` — :class:`~repro.precision.PrecisionPolicy`,
  the fp64/fp32 dtype policy threaded through fft, structured, runtime
  and embedded,
* :mod:`repro.engine` — the declarative inference facade
  (:class:`~repro.engine.Engine` over a validated
  :class:`~repro.engine.EngineConfig`): multi-model registry, a
  lazily-frozen per-precision session pool, typed
  request/result API, and the single entry point to serving,
* :mod:`repro.pipeline` — the declarative build pipeline
  (:class:`~repro.pipeline.Pipeline` over a validated
  :class:`~repro.pipeline.PipelineConfig`): train → compress →
  quantize → package with typed, resumable stages producing the
  format-v2 artifact the engine consumes,
* :mod:`repro.zoo` — the paper's Arch. 1 / Arch. 2 / Arch. 3 builders,
  name-keyed via :func:`repro.zoo.get` / :func:`repro.zoo.names`.
"""

__version__ = "1.1.0"

from . import (
    analysis,
    data,
    embedded,
    engine,
    fft,
    io,
    nn,
    pipeline,
    quantize,
    runtime,
    structured,
    zoo,
)
from .engine import Engine, EngineConfig, InferenceRequest, InferenceResult
from .pipeline import Pipeline, PipelineConfig
from .precision import FP32, FP64, PrecisionPolicy
from .exceptions import (
    BackendError,
    ConfigurationError,
    DeploymentError,
    ParseError,
    PipelineError,
    ReproError,
    ShapeError,
)

__all__ = [
    "fft",
    "structured",
    "nn",
    "data",
    "io",
    "embedded",
    "analysis",
    "quantize",
    "runtime",
    "engine",
    "pipeline",
    "zoo",
    "Engine",
    "EngineConfig",
    "InferenceRequest",
    "InferenceResult",
    "Pipeline",
    "PipelineConfig",
    "PrecisionPolicy",
    "FP32",
    "FP64",
    "ReproError",
    "ShapeError",
    "BackendError",
    "ParseError",
    "DeploymentError",
    "ConfigurationError",
    "PipelineError",
    "__version__",
]
