"""Complexity, storage, and comparison analysis (paper claims E5-E8, Fig. 5)."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".complexity": [
            "bc_conv_ops", "bc_fc_ops", "conv_speedup", "crossover_block_size",
            "dense_conv_ops", "dense_fc_ops", "fc_speedup",
        ],
        ".numerics": [
            "dft_roundoff_error", "fft_roundoff_error",
            "matvec_roundoff_comparison",
        ],
        ".storage": ["StorageReport", "StorageRow", "storage_report"],
        ".truenorth": [
            "ARM_CORES", "TRUENORTH_CIFAR10", "TRUENORTH_MNIST",
            "TRUENORTH_REFERENCES", "ComparisonPoint", "fig5_points",
            "speedup_vs_truenorth",
        ],
    },
)
