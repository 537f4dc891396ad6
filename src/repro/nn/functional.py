"""Stateless neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Includes the activation functions, the numerically-stable softmax family,
dropout, and the im2col/col2im machinery that reformulates tensor
convolution as matrix multiplication — the transformation shown in the
paper's Fig. 3 that lets CONV layers reuse the block-circulant FFT product.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "one_hot",
    "im2col",
    "col2im",
    "im2col_indices",
    "conv_output_size",
    "unfold_patches",
    "max_pool2d",
    "avg_pool2d",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit ``max(0, x)`` (paper section III-A)."""
    return as_tensor(x).maximum(0.0)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: ``x`` for positive inputs, ``slope * x`` otherwise."""
    x = as_tensor(x)
    mask = x.data > 0.0
    out_data = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * np.where(mask, 1.0, negative_slope))

    return Tensor.from_op(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid, computed stably for both input signs."""
    x = as_tensor(x)
    data = x.data
    out_data = np.where(
        data >= 0.0,
        1.0 / (1.0 + np.exp(-np.clip(data, 0.0, None))),
        np.exp(np.clip(data, None, 0.0)) / (1.0 + np.exp(np.clip(data, None, 0.0))),
    )

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # d(softmax)/dx = diag(s) - s s^T applied along `axis`.
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x.accumulate_grad(out_data * (grad - inner))

    return Tensor.from_op(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` via the log-sum-exp trick."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor.from_op(out_data, (x,), backward)


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale by ``1/(1-p)``.

    Identity when ``training`` is False or ``p == 0``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if not training or p == 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * keep)

    return Tensor.from_op(x.data * keep, (x,), backward)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(batch,)`` to a one-hot array ``(batch, classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


# ----------------------------------------------------------------------
# im2col / col2im (paper Fig. 3 reformulation)
# ----------------------------------------------------------------------
def conv_output_size(
    height: int,
    width: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> tuple[int, int]:
    """Output grid ``(out_h, out_w)`` of a square-kernel convolution.

    Raises :class:`ValueError` for a non-positive kernel or stride, a
    negative padding, or a kernel that does not fit the padded image.
    """
    if kernel <= 0 or stride <= 0 or padding < 0:
        raise ValueError(
            f"invalid geometry: kernel={kernel} stride={stride} padding={padding}"
        )
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} does not fit in ({height}, {width}) "
            f"with padding {padding}"
        )
    return out_h, out_w


def im2col_indices(
    height: int,
    width: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Row/column gather indices for im2col.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows`` and ``cols`` have
    shape ``(out_h * out_w, kernel * kernel)`` and index into the padded
    image; windows are laid out row-major, matching paper Eqn. 5's
    ``(x + i - 1, y + j - 1)`` sliding pattern.
    """
    out_h, out_w = conv_output_size(height, width, kernel, stride, padding)
    base_r = np.repeat(np.arange(out_h) * stride, out_w)
    base_c = np.tile(np.arange(out_w) * stride, out_h)
    offset_r = np.repeat(np.arange(kernel), kernel)
    offset_c = np.tile(np.arange(kernel), kernel)
    rows = base_r[:, None] + offset_r[None, :]
    cols = base_c[:, None] + offset_c[None, :]
    return rows, cols, out_h, out_w


def unfold_patches(
    dest: np.ndarray, padded: np.ndarray, kernel: int, stride: int = 1
) -> None:
    """Write every convolution patch of ``padded`` into ``dest``.

    ``padded`` is ``(batch, C, H, W)`` with any zero border already in
    place; ``dest`` is indexed ``(batch, out_h, out_w, k, k, C')`` with
    ``C' >= C`` (channels past ``C`` are left untouched) and may be any
    strided view, so one core serves both the channel-major layout of
    :func:`im2col` and the channel-last layout the frozen plan contracts
    over.  Each sample's patch matrix is written by ``k * k`` strided
    slice copies — no index arrays, no fancy-index gather — one sample
    at a time, so the matrix being written stays cache-resident across
    its ``k * k`` passes.
    """
    batch, out_h, out_w = dest.shape[:3]
    channels = padded.shape[1]
    # dest as (batch, C, k, k, out_h, out_w): each copy below is then a
    # plain same-order assignment of one shifted image plane per channel.
    planes = dest[..., :channels].transpose(0, 5, 3, 4, 1, 2)
    for n in range(batch):
        for i in range(kernel):
            rows = slice(i, i + stride * out_h, stride)
            for j in range(kernel):
                planes[n, :, i, j] = padded[
                    n, :, rows, slice(j, j + stride * out_w, stride)
                ]


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold ``(batch, C, H, W)`` images into convolution patch matrices.

    Output shape is ``(batch, out_h * out_w, C * kernel * kernel)``; column
    order is channel-major then kernel-row then kernel-column, i.e. column
    ``c*k*k + i*k + j`` holds input channel ``c`` at kernel offset
    ``(i, j)``.  This is the matrix ``X`` of paper Fig. 3 (one per batch
    element) so that convolution becomes ``Y = X @ F``.
    """
    images = np.asarray(images)
    if images.ndim != 4:
        raise ValueError(f"im2col expects (batch, C, H, W), got {images.shape}")
    batch, channels, height, width = images.shape
    out_h, out_w = conv_output_size(height, width, kernel, stride, padding)
    if padding:
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding),
            dtype=images.dtype,
        )
        padded[:, :, padding : padding + height, padding : padding + width] = images
        images = padded
    cols = np.empty(
        (batch, out_h, out_w, channels, kernel, kernel), dtype=images.dtype
    )
    unfold_patches(cols.transpose(0, 1, 2, 4, 5, 3), images, kernel, stride)
    return cols.reshape(batch, out_h * out_w, channels * kernel * kernel)


def col2im(
    columns: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch matrices back to images.

    This is exactly the gradient of im2col, used by the CONV backward
    passes.  ``image_shape`` is the original ``(batch, C, H, W)``.
    """
    columns = np.asarray(columns)
    batch, channels, height, width = image_shape
    rows, cols, out_h, out_w = im2col_indices(height, width, kernel, stride, padding)
    expected = (batch, out_h * out_w, channels * kernel * kernel)
    if columns.shape != expected:
        raise ValueError(f"expected columns of shape {expected}, got {columns.shape}")
    patches = columns.reshape(batch, out_h * out_w, channels, kernel * kernel)
    patches = patches.transpose(0, 2, 1, 3)  # (batch, C, positions, k*k)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding)
    )
    np.add.at(padded, (slice(None), slice(None), rows, cols), patches)
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows.

    Input ``(batch, C, H, W)``; gradient routes to each window's argmax.
    """
    x = as_tensor(x)
    stride = stride or kernel
    data = x.data
    if data.ndim != 4:
        raise ValueError(f"max_pool2d expects (batch, C, H, W), got {x.shape}")
    batch, channels, height, width = data.shape
    rows, cols, out_h, out_w = im2col_indices(height, width, kernel, stride)
    windows = data[:, :, rows, cols]  # (batch, C, positions, k*k)
    flat_argmax = windows.argmax(axis=-1)
    out_data = np.take_along_axis(
        windows, flat_argmax[..., None], axis=-1
    )[..., 0].reshape(batch, channels, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(
            grad_windows,
            flat_argmax[..., None],
            grad.reshape(batch, channels, -1)[..., None],
            axis=-1,
        )
        full = np.zeros_like(data)
        np.add.at(full, (slice(None), slice(None), rows, cols), grad_windows)
        x.accumulate_grad(full)

    return Tensor.from_op(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over square windows of ``(batch, C, H, W)`` input."""
    x = as_tensor(x)
    stride = stride or kernel
    data = x.data
    if data.ndim != 4:
        raise ValueError(f"avg_pool2d expects (batch, C, H, W), got {x.shape}")
    batch, channels, height, width = data.shape
    rows, cols, out_h, out_w = im2col_indices(height, width, kernel, stride)
    windows = data[:, :, rows, cols]
    out_data = windows.mean(axis=-1).reshape(batch, channels, out_h, out_w)
    window_size = kernel * kernel

    def backward(grad: np.ndarray) -> None:
        spread = np.broadcast_to(
            grad.reshape(batch, channels, -1)[..., None] / window_size,
            windows.shape,
        )
        full = np.zeros_like(data)
        np.add.at(full, (slice(None), slice(None), rows, cols), spread)
        x.accumulate_grad(full)

    return Tensor.from_op(out_data, (x,), backward)
