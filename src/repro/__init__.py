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
  :class:`~repro.engine.EngineConfig`): multi-model registry, one
  route table of lazily-frozen per-precision sessions and stream
  plans, and the single entry point to serving,
* :mod:`repro.pipeline` — the declarative build pipeline
  (:class:`~repro.pipeline.Pipeline` over a validated
  :class:`~repro.pipeline.PipelineConfig`): train → compress →
  quantize → package with typed, resumable stages producing the
  format-v2 artifact the engine consumes,
* :mod:`repro.zoo` — the paper's Arch. 1 / Arch. 2 / Arch. 3 builders,
  name-keyed via :func:`repro.zoo.get` / :func:`repro.zoo.names`.

Every package namespace is lazy (:func:`repro._lazy.attach`): a module
loads the first time one of its names is used, so ``import repro``
loads no numpy and each process imports only what it runs.
"""

__version__ = "1.1.0"

from ._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".analysis": ["analysis"],
        ".data": ["data"],
        ".embedded": ["embedded"],
        ".engine": ["engine", "Engine", "EngineConfig"],
        ".fft": ["fft"],
        ".io": ["io"],
        ".nn": ["nn"],
        ".pipeline": ["pipeline", "Pipeline", "PipelineConfig"],
        ".quantize": ["quantize"],
        ".runtime": ["runtime"],
        ".structured": ["structured"],
        ".zoo": ["zoo"],
        ".precision": ["FP32", "FP64", "PrecisionPolicy"],
        ".exceptions": [
            "BackendError", "ConfigurationError", "DeploymentError",
            "ParseError", "PipelineError", "ReproError", "ShapeError",
        ],
    },
)
__all__ = [*__all__, "__version__"]
