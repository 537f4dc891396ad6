"""End-to-end integration: train -> serialize -> deploy -> profile.

Exercises the full paper pipeline of Fig. 4 on the synthetic MNIST
stand-in: architecture string to trained model, checkpoint round trip,
FFT-domain deployment artifact, standalone inference parity, and runtime
prediction on the Table I platforms.
"""

import time

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    bilinear_resize,
    flatten_images,
    load_synthetic_mnist,
)
from repro.embedded import DeployedModel, InferenceProfiler
from repro.io import (
    build_model_from_string,
    load_inputs,
    load_weights,
    save_inputs,
    save_weights,
)
from repro.nn import Adam, CrossEntropyLoss, Tensor, Trainer, accuracy
from repro.runtime import InferenceSession
from repro.zoo import ARCH1_INPUT_SIDE


@pytest.fixture(scope="module")
def mnist16():
    train, test = load_synthetic_mnist(train_size=600, test_size=200, seed=0)
    side = ARCH1_INPUT_SIDE

    def preprocess(images):
        return flatten_images(bilinear_resize(images, side, side))

    return (
        preprocess(train.inputs),
        train.labels,
        preprocess(test.inputs),
        test.labels,
    )


@pytest.fixture(scope="module")
def trained_model(mnist16):
    x_train, y_train, _, _ = mnist16
    rng = np.random.default_rng(7)
    model = build_model_from_string("256-128CFb64-128CFb64-10F", rng=rng)
    from repro.data import ArrayDataset

    loader = DataLoader(
        ArrayDataset(x_train, y_train), batch_size=64, shuffle=True, seed=0
    )
    trainer = Trainer(model, CrossEntropyLoss(), Adam(model.parameters(), lr=0.003))
    trainer.fit(loader, epochs=8)
    model.eval()
    return model


class TestEndToEnd:
    def test_training_reaches_useful_accuracy(self, trained_model, mnist16):
        _, _, x_test, y_test = mnist16
        score = accuracy(trained_model(Tensor(x_test)), y_test)
        assert score > 0.85

    def test_checkpoint_round_trip(self, trained_model, mnist16, tmp_path):
        _, _, x_test, _ = mnist16
        path = tmp_path / "arch1.npz"
        save_weights(trained_model, path)
        clone = build_model_from_string(
            "256-128CFb64-128CFb64-10F", rng=np.random.default_rng(1)
        )
        load_weights(clone, path)
        clone.eval()
        assert np.allclose(
            trained_model(Tensor(x_test[:16])).data,
            clone(Tensor(x_test[:16])).data,
        )

    def test_deployment_accuracy_parity(self, trained_model, mnist16):
        _, _, x_test, y_test = mnist16
        deployed = DeployedModel.from_model(trained_model)
        train_preds = trained_model(Tensor(x_test)).data.argmax(axis=1)
        with InferenceSession.from_deployed(deployed) as session:
            deploy_preds = session.predict(x_test)
        # float32 storage may flip at most a tiny fraction of argmaxes.
        assert (train_preds == deploy_preds).mean() > 0.99

    def test_deploy_save_load_predicts(self, trained_model, mnist16, tmp_path):
        _, _, x_test, y_test = mnist16
        deployed = DeployedModel.from_model(trained_model)
        path = tmp_path / "deployed.npz"
        deployed.save(path)
        with InferenceSession.from_deployed(DeployedModel.load(path)) as session:
            score = (session.predict(x_test) == y_test).mean()
        assert score > 0.85

    def test_inputs_file_flow(self, trained_model, mnist16, tmp_path):
        # Fig. 4: inputs parser feeds the engine from a file.
        _, _, x_test, y_test = mnist16
        path = tmp_path / "inputs.npz"
        save_inputs(path, x_test[:50], y_test[:50])
        inputs, labels = load_inputs(path)
        deployed = DeployedModel.from_model(trained_model)
        with InferenceSession.from_deployed(deployed) as session:
            assert (session.predict(inputs) == labels).mean() > 0.8

    def test_runtime_prediction_sane(self, trained_model):
        profiler = InferenceProfiler(trained_model, (256,))
        cpp = profiler.runtime_us("honor6x", "cpp")
        java = profiler.runtime_us("honor6x", "java")
        # Table II neighbourhood: ~100 us C++, ~260 us Java.
        assert 50 < cpp < 300
        assert 130 < java < 700
        assert java > cpp

    def test_host_inference_fast(self, trained_model, mnist16):
        _, _, x_test, _ = mnist16
        deployed = DeployedModel.from_model(trained_model)
        with InferenceSession.from_deployed(deployed) as session:
            session.forward(x_test[:100])  # first call sizes the arena
            start = time.perf_counter()
            session.forward(x_test[:100])
            us_per_image = (time.perf_counter() - start) / 100 * 1e6
        assert us_per_image < 10_000  # loose: just not pathological
