"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (table or figure) and
writes a human-readable comparison file into ``benchmarks/results/`` so
the paper-vs-measured record survives pytest's output capture.  Heavy
fixtures (trained models) are session-scoped: Arch. 1/2 train on the
synthetic MNIST stand-in, the reduced Arch. 3 on the synthetic CIFAR-10
stand-in (see :mod:`repro.data` for the substitutions).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    bilinear_resize,
    flatten_images,
    load_synthetic_cifar,
    load_synthetic_mnist,
)
from repro.nn import Adam, CrossEntropyLoss, Trainer, accuracy, predict_in_batches
from repro.zoo import (
    ARCH1_INPUT_SIDE,
    ARCH2_INPUT_SIDE,
    build_arch1,
    build_arch2,
    build_arch3_reduced,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Noise level of the synthetic MNIST stand-in, chosen so Arch. 1 lands in
#: the paper's accuracy neighbourhood (~95%) with Arch. 2 a few points
#: below (paper: 95.47% / 93.59%).
MNIST_NOISE = 0.15
CIFAR_NOISE = 0.10


def write_result(name: str, lines: list[str]) -> None:
    """Persist a benchmark's comparison table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)


@pytest.fixture(scope="session")
def mnist_data():
    """Synthetic MNIST resized for both FC architectures."""
    train, test = load_synthetic_mnist(
        train_size=2000, test_size=600, seed=0, noise=MNIST_NOISE
    )

    def view(side):
        to_features = lambda images: flatten_images(
            bilinear_resize(images, side, side)
        )
        return (
            ArrayDataset(to_features(train.inputs), train.labels),
            ArrayDataset(to_features(test.inputs), test.labels),
        )

    return {
        ARCH1_INPUT_SIDE: view(ARCH1_INPUT_SIDE),
        ARCH2_INPUT_SIDE: view(ARCH2_INPUT_SIDE),
    }


def _train_classifier(model, train_set, epochs, lr=0.003, batch_size=64, seed=0):
    loader = DataLoader(train_set, batch_size=batch_size, shuffle=True, seed=seed)
    trainer = Trainer(model, CrossEntropyLoss(), Adam(model.parameters(), lr=lr))
    trainer.fit(loader, epochs=epochs)
    model.eval()
    return model


def _test_accuracy(model, test_set):
    logits = predict_in_batches(model, test_set.inputs)
    model.eval()
    return accuracy(logits, test_set.labels)


@pytest.fixture(scope="session")
def trained_arch1(mnist_data):
    """Arch. 1 trained on 16x16 synthetic MNIST; returns (model, accuracy)."""
    train_set, test_set = mnist_data[ARCH1_INPUT_SIDE]
    model = build_arch1(rng=np.random.default_rng(1))
    _train_classifier(model, train_set, epochs=10)
    return model, _test_accuracy(model, test_set)


@pytest.fixture(scope="session")
def trained_arch2(mnist_data):
    """Arch. 2 trained on 11x11 synthetic MNIST; returns (model, accuracy)."""
    train_set, test_set = mnist_data[ARCH2_INPUT_SIDE]
    model = build_arch2(rng=np.random.default_rng(1))
    _train_classifier(model, train_set, epochs=10)
    return model, _test_accuracy(model, test_set)


@pytest.fixture(scope="session")
def trained_arch3_reduced():
    """Width-reduced Arch. 3 trained on synthetic CIFAR-10.

    Returns (model, accuracy).  The full-width Arch. 3 is used for
    runtime/storage modeling (architecture-only), this reduced model for
    the accuracy column.
    """
    train, test = load_synthetic_cifar(
        train_size=1200, test_size=400, seed=0, noise=CIFAR_NOISE
    )
    model = build_arch3_reduced(width=12, block_size=4, rng=np.random.default_rng(1))
    _train_classifier(model, train, epochs=5, lr=0.002, batch_size=32)
    return model, _test_accuracy(model, test)
