"""Training and the frozen plan run one spectral kernel.

``structured.ops.spectral_product`` is paper Algorithm 1 for both the
training layers and every frozen ``bc_linear`` / FFT-kernel ``bc_conv``
op, so at fp64 a frozen session reproduces the live layer *bitwise* —
arena slots only change where the kernel writes, never what it computes.
A ``bc_conv`` frozen to the dense kernel sums the same products in a
different order and agrees to the documented 1e-10.

The kernel also serves training's Algorithm 2, and it runs on either FFT
backend: under ``"pure"`` the plan and the live model still agree
bitwise, and both agree with the numpy backend to 1e-10.
"""

import itertools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.fft import use_backend
from repro.nn import (
    BlockCirculantConv2d,
    BlockCirculantLinear,
    CrossEntropyLoss,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Tensor,
)
from repro.runtime import InferenceSession, plan
from repro.zoo import build_arch1

GRIDS = list(itertools.product((1, 2, 4), (1, 2, 4, 8), (8, 16, 64)))
BATCHES = (1, 3, 8, 32, 64)


def frozen_vs_live(model, x):
    """``(frozen, live)`` fp64 outputs of ``model`` on ``x``."""
    model.eval()
    with InferenceSession.freeze(model) as session:
        frozen = session.forward(x)
    return frozen, model(Tensor(x)).data


@pytest.mark.parametrize("p,q,b", GRIDS)
def test_bc_linear_plan_equals_training_bitwise(p, q, b):
    rng = np.random.default_rng(p * 100 + q * 10 + b)
    layer = BlockCirculantLinear(q * b, p * b, b, rng=rng)
    layer.bias.data = rng.normal(size=p * b)
    for batch in BATCHES:
        x = rng.normal(size=(batch, q * b))
        frozen, live = frozen_vs_live(Sequential(layer), x)
        assert np.array_equal(frozen, live), batch


@contextmanager
def forced_kernel(kind):
    """Freeze block-circulant convs to ``kind`` whatever the rule says."""
    with mock.patch.object(plan, "bc_conv_kernel", lambda *args: kind):
        yield


@pytest.mark.parametrize("kernel", ("fft", "dense"))
@pytest.mark.parametrize("p,q,b", GRIDS)
def test_bc_conv_plan_equals_training(p, q, b, kernel):
    # A 1x1 conv over q*b channels runs the (p, q, b) grid once per
    # output position, 2x3 positions per image.  Each grid is frozen to
    # both kernels, whichever bc_conv_kernel would pick.
    rng = np.random.default_rng(p * 100 + q * 10 + b)
    layer = BlockCirculantConv2d(q * b, p * b, 1, b, rng=rng)
    layer.bias.data = rng.normal(size=p * b)
    for batch in BATCHES:
        x = rng.normal(size=(batch, q * b, 2, 3))
        with forced_kernel(kernel):
            frozen, live = frozen_vs_live(Sequential(layer), x)
        if kernel == "fft":
            assert np.array_equal(frozen, live), batch
        else:
            scale = max(1.0, float(np.abs(live).max()))
            assert np.abs(frozen - live).max() <= 1e-10 * scale, batch


def run_backend(backend, model, x, labels):
    """Under ``backend``: the frozen and the live output of ``model``'s
    block-circulant body (all but the dense classifier, whose plan GEMM
    is not the training one), then the logits and every parameter
    gradient of one training step."""
    body = Sequential(*list(model)[:-1]).eval()
    with use_backend(backend):
        with InferenceSession.freeze(body) as session:
            frozen = session.forward(x)
        live = body(Tensor(x)).data
        model.train()
        model.zero_grad()
        logits = model(Tensor(x))
        CrossEntropyLoss()(logits, labels).backward()
        grads = [param.grad.copy() for param in model.parameters()]
    return frozen, live, logits.data, grads


@pytest.mark.parametrize(
    "builder,shape",
    [
        (lambda rng: build_arch1(rng=rng), (256,)),
        # 64 channels at b=64: a grid bc_conv_kernel freezes to "fft".
        (
            lambda rng: Sequential(
                BlockCirculantConv2d(64, 64, 3, 64, padding=1, rng=rng),
                ReLU(),
                Flatten(),
                Linear(64 * 25, 10, rng=rng),
            ),
            (64, 5, 5),
        ),
    ],
    ids=("arch1", "bc_conv_fft"),
)
def test_pure_backend_plan_equals_training(builder, shape):
    rng = np.random.default_rng(3)
    model = builder(rng)
    x = rng.normal(size=(4, *shape))
    labels = rng.integers(0, 10, size=4)
    with InferenceSession.freeze(model.eval()) as session:
        assert all(
            ",fft)" in name
            for name in session.describe()
            if name.startswith("bc_conv")
        )
    frozen, live, logits, grads = run_backend("pure", model, x, labels)
    assert np.array_equal(frozen, live)
    frozen_np, live_np, logits_np, grads_np = run_backend("numpy", model, x, labels)
    assert np.array_equal(frozen_np, live_np)
    assert np.abs(live - live_np).max() <= 1e-10
    assert np.abs(logits - logits_np).max() <= 1e-10
    for grad, grad_np in zip(grads, grads_np):
        assert np.abs(grad - grad_np).max() <= 1e-10
