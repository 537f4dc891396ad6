"""Neural-network layers.

The two ``BlockCirculant*`` layers are the paper's contribution; the rest
form the dense baseline and the supporting cast (activations, pooling,
normalization, dropout).
"""

from ..._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".batchnorm": ["BatchNorm1d", "BatchNorm2d"],
        ".block_circulant_conv2d": ["BlockCirculantConv2d"],
        ".block_circulant_linear": ["BlockCirculantLinear"],
        ".common": [
            "AvgPool2d", "Dropout", "Flatten", "LeakyReLU", "MaxPool2d",
            "ReLU", "Sigmoid", "Softmax", "Tanh",
        ],
        ".conv2d": ["Conv2d"],
        ".fftnet1d": [
            "FFTLayer1d", "Pointwise1d", "seq_matmul", "shift_right",
        ],
        ".linear": ["Linear"],
    },
)
