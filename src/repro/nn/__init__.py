"""Neural-network substrate and the paper's block-circulant layers.

* :class:`Tensor` — numpy-backed reverse-mode autodiff,
* :class:`Module` / :class:`Sequential` — composition,
* layers — dense baselines plus :class:`BlockCirculantLinear` and
  :class:`BlockCirculantConv2d` (the paper's contribution),
* losses, optimizers, metrics, :class:`Trainer`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".functional": ["functional"],
        ".callbacks": ["BestWeightsKeeper", "EarlyStopping", "clip_grad_norm"],
        ".convert": [
            "ConversionRow", "conversion_report", "convert_to_block_circulant",
        ],
        ".layers": [
            "AvgPool2d", "BatchNorm1d", "BatchNorm2d", "BlockCirculantConv2d",
            "BlockCirculantLinear", "Conv2d", "Dropout", "FFTLayer1d",
            "Flatten", "LeakyReLU", "Linear", "Pointwise1d", "MaxPool2d",
            "ReLU", "Sigmoid", "Softmax", "Tanh",
        ],
        ".losses": ["CrossEntropyLoss", "MSELoss", "NLLLoss"],
        ".metrics": ["accuracy", "confusion_matrix", "top_k_accuracy"],
        ".module": ["Module", "Parameter", "Sequential"],
        ".optim": ["SGD", "Adam", "ExponentialLR", "StepLR"],
        ".tensor": ["Tensor", "as_tensor"],
        ".trainer": [
            "EpochStats", "Trainer", "TrainingHistory", "predict_in_batches",
        ],
    },
)
