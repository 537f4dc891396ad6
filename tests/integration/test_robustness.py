"""Failure injection and robustness tests across module boundaries.

The deployment pipeline crosses several serialization boundaries
(architecture strings, checkpoints, artifacts, input bundles); these
tests corrupt each one and check that the failure is a clean, typed
error — not silence, not a wrong answer.
"""

import json

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.exceptions import (
    ConfigurationError,
    DeploymentError,
    ParseError,
    ReproError,
)
from repro.io import (
    build_model_from_string,
    load_inputs,
    load_weights,
    parse_architecture,
    save_weights,
    validate_inputs,
)
from repro.nn import Tensor
from repro.runtime import InferenceSession


@pytest.fixture
def model(rng):
    model = build_model_from_string("16-8CFb4-4F", rng=rng)
    model.eval()
    return model


class TestCorruptedArtifacts:
    def test_truncated_deploy_file(self, model, tmp_path):
        path = tmp_path / "model.npz"
        DeployedModel.from_model(model).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):  # zipfile/ValueError from numpy
            DeployedModel.load(path)

    def test_header_with_wrong_version(self, model, tmp_path):
        path = tmp_path / "model.npz"
        deployed = DeployedModel.from_model(model)
        deployed.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["__header__"].tobytes()).decode())
        header["version"] = 999
        arrays["__header__"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(DeploymentError):
            DeployedModel.load(path)

    def test_missing_array_reference(self, model, tmp_path):
        path = tmp_path / "model.npz"
        DeployedModel.from_model(model).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        victim = next(k for k in arrays if k.startswith("layer0"))
        del arrays[victim]
        np.savez(path, **arrays)
        with pytest.raises(Exception):
            DeployedModel.load(path)

    def test_checkpoint_wrong_shapes_rejected(self, model, rng, tmp_path):
        path = tmp_path / "weights.npz"
        save_weights(model, path)
        other = build_model_from_string("16-8CFb2-4F", rng=rng)
        with pytest.raises((KeyError, ValueError)):
            load_weights(other, path)


class TestHostileInputs:
    def test_nan_inputs_detected_by_range_check(self, rng):
        bad = rng.normal(size=(2, 16))
        bad[0, 0] = np.nan
        with pytest.raises(ParseError):
            validate_inputs(bad, (16,), value_range=(-10.0, 10.0))

    def test_inf_inputs_detected_by_range_check(self, rng):
        bad = rng.normal(size=(2, 16))
        bad[1, 3] = np.inf
        with pytest.raises(ParseError):
            validate_inputs(bad, (16,), value_range=(-10.0, 10.0))

    def test_engine_stays_finite_on_extreme_inputs(self, model):
        deployed = DeployedModel.from_model(model)
        extreme = np.full((1, 16), 1e6)
        with InferenceSession.from_deployed(deployed) as session:
            probabilities = session.predict_proba(extreme)
        assert np.all(np.isfinite(probabilities))
        assert probabilities.sum() == pytest.approx(1.0)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1\n")
        with pytest.raises(Exception):
            load_inputs(path)


class TestHostileArchitectureStrings:
    @pytest.mark.parametrize(
        "text",
        [
            "256--10F",  # empty token is dropped; still valid -> check below
            "256-10F-",  # trailing dash
        ],
    )
    def test_stray_dashes_tolerated(self, text):
        # Empty tokens are filtered; these remain parseable.
        spec = parse_architecture(text)
        assert spec.layers[-1].units == 10

    @pytest.mark.parametrize(
        "text",
        [
            "256-128CF-10F",  # BC layer without block size
            "256-128CFb-10F",  # dangling block marker
            "3x8x8-64Conv-10F",  # conv without kernel
            "256-MP-10F",  # pool without size
            "-10F",
            "256-0F",  # zero-width layer caught at build time
        ],
    )
    def test_malformed_tokens_raise_parse_or_config_error(self, text):
        try:
            spec = parse_architecture(text)
        except ParseError:
            return
        with pytest.raises((ParseError, ConfigurationError, ValueError)):
            build_model_from_string(text)

    def test_all_library_errors_share_base(self):
        for exc in (ParseError, DeploymentError, ConfigurationError):
            assert issubclass(exc, ReproError)


class TestNumericalStability:
    def test_training_on_constant_inputs_stays_finite(self, rng):
        # Degenerate data (zero variance) must not produce NaNs.
        from repro.nn import Adam, CrossEntropyLoss

        model = build_model_from_string("8-4CFb2-2F", rng=rng)
        x = np.ones((16, 8))
        y = np.zeros(16, dtype=int)
        loss_fn = CrossEntropyLoss()
        optimizer = Adam(model.parameters(), lr=0.01)
        for _ in range(20):
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
        assert np.isfinite(loss.item())
        for param in model.parameters():
            assert np.all(np.isfinite(param.data))

    def test_gradient_clipping_tames_exploding_loss(self, rng):
        from repro.nn import SGD, BlockCirculantLinear, clip_grad_norm

        layer = BlockCirculantLinear(8, 8, 4, rng=rng)
        # Huge targets induce huge gradients at lr that would diverge.
        x = rng.normal(size=(4, 8))
        target = rng.normal(size=(4, 8)) * 1e6
        optimizer = SGD(layer.parameters(), lr=0.1)
        for _ in range(10):
            optimizer.zero_grad()
            out = layer(Tensor(x))
            loss = ((out - Tensor(target)) ** 2).mean()
            loss.backward()
            clip_grad_norm(layer.parameters(), max_norm=1.0)
            optimizer.step()
        for param in layer.parameters():
            assert np.all(np.isfinite(param.data))
