"""Software-deployment I/O: the parsers of paper Fig. 4.

* architecture parser (:func:`parse_architecture`,
  :func:`build_model_from_string`),
* parameters parser (:func:`save_weights`, :func:`load_weights`,
  FFT-domain export),
* inputs parser (:func:`load_inputs`, :func:`validate_inputs`).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".arch_parser": [
            "ArchitectureSpec", "LayerSpec", "format_architecture",
            "parse_architecture",
        ],
        ".inputs": ["load_inputs", "save_inputs", "validate_inputs"],
        ".model_builder": ["build_model", "build_model_from_string"],
        ".params": [
            "export_fft_weights", "import_fft_weights", "load_weights",
            "save_weights",
        ],
    },
)
