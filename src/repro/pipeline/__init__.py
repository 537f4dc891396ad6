"""repro.pipeline — the declarative build pipeline (production side).

One :class:`PipelineConfig` describes the whole paper workflow — train
a network, compress it into block-circulant form, quantize to fixed
point, package the FFT-domain artifact — and one :class:`Pipeline`
runs it with typed, resumable stages.  The produced format-v2 artifact
is consumed natively by :class:`repro.engine.EngineConfig`'s model
registry; ``repro build`` / ``repro inspect`` are the CLI spellings.

See ``docs/pipeline.md`` for the config schema, stage lifecycle, and
the artifact v2 layout.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".config": ["PipelineConfig"],
        ".core": ["Pipeline"],
        ".types": [
            "CompressResult", "PackageResult", "PipelineResult",
            "QuantizeResult", "TrainResult",
        ],
    },
)
