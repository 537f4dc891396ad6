"""Fixed-point quantization extension (paper related work [14])."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".fixed_point": [
            "QFormat", "choose_qformat", "dequantize_ints",
            "quantization_error", "quantize_array", "quantize_model",
            "quantize_to_ints", "storage_dtype",
        ],
    },
)
