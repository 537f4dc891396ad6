"""InferenceSession: freeze parity, fusion, streaming, snapshot semantics."""

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.exceptions import DeploymentError
from repro.nn import (
    SGD,
    BatchNorm2d,
    BlockCirculantConv2d,
    BlockCirculantLinear,
    Conv2d,
    CrossEntropyLoss,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
)
from repro.runtime import InferenceSession
from repro.testing import reference_forward, reference_proba
from repro.zoo import build_arch1


@pytest.fixture
def fc_model():
    return build_arch1(rng=np.random.default_rng(0)).eval()


@pytest.fixture
def conv_model():
    rng = np.random.default_rng(1)
    model = Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        MaxPool2d(2),
        BlockCirculantConv2d(4, 6, 3, block_size=2, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        Dropout(0.5),
        BlockCirculantLinear(6 * 4 * 4, 16, 4, rng=rng),
        ReLU(),
        Linear(16, 5, rng=rng),
        Softmax(),
    )
    # Run one training-mode batch so batch-norm has non-trivial stats.
    model(np.random.default_rng(2).normal(size=(8, 3, 8, 8)))
    return model.eval()


class TestFreezeParity:
    def test_fc_forward_matches_model(self, fc_model, rng):
        x = rng.normal(size=(6, 256))
        session = InferenceSession.freeze(fc_model)
        assert np.allclose(session.forward(x), fc_model(x).data, atol=1e-10)

    def test_conv_forward_matches_model(self, conv_model, rng):
        x = rng.normal(size=(3, 3, 8, 8))
        session = InferenceSession.freeze(conv_model)
        assert np.allclose(session.forward(x), conv_model(x).data, atol=1e-10)

    def test_single_sample_gets_batch_axis(self, fc_model, rng):
        session = InferenceSession.freeze(fc_model)
        x = rng.normal(size=256)
        assert session.forward(x).shape == (1, 10)

    def test_empty_plan_rejected(self):
        with pytest.raises(DeploymentError):
            InferenceSession([])


class TestFusion:
    def test_activations_fuse_into_compute_ops(self, fc_model):
        plan = InferenceSession.freeze(fc_model).describe()
        # arch1 is bc-relu, bc-relu, linear: 5 modules -> 3 fused ops.
        assert len(plan) == 3
        assert plan[0].endswith("+relu") and plan[1].endswith("+relu")

    def test_softmax_never_fuses(self, conv_model):
        plan = InferenceSession.freeze(conv_model).describe()
        assert plan[-1] == "softmax"

    def test_dropout_vanishes(self, conv_model):
        plan = InferenceSession.freeze(conv_model).describe()
        assert not any("dropout" in name for name in plan)


class TestStreamingPredict:
    def test_chunked_equals_one_shot(self, fc_model, rng):
        session = InferenceSession.freeze(fc_model)
        x = rng.normal(size=(23, 256))
        one_shot = session.predict_proba(x)
        for batch_size in (1, 7, 23, 100):
            chunked = session.predict_proba(x, batch_size=batch_size)
            assert np.allclose(chunked, one_shot, atol=1e-12)

    def test_invalid_batch_size_rejected(self, fc_model, rng):
        session = InferenceSession.freeze(fc_model)
        x = rng.normal(size=(4, 256))
        for bad in (0, -1):
            with pytest.raises(ValueError):
                session.predict(x, batch_size=bad)

    def test_predict_labels(self, fc_model, rng):
        session = InferenceSession.freeze(fc_model)
        x = rng.normal(size=(9, 256))
        labels = session.predict(x, batch_size=4)
        assert labels.shape == (9,)
        assert np.array_equal(labels, session.predict_proba(x).argmax(axis=-1))

    def test_probabilities_are_normalized(self, fc_model, rng):
        session = InferenceSession.freeze(fc_model)
        proba = session.predict_proba(rng.normal(size=(5, 256)))
        assert np.allclose(proba.sum(axis=-1), 1.0, atol=1e-12)


def non_real(kind, shape):
    """An input of a non-real dtype ``kind``."""
    return {
        "complex128": np.ones(shape) + 1j,
        "str": np.full(shape, "1.5"),
        "str-list": np.full(shape, "1").tolist(),
        "datetime64": np.zeros(shape, dtype="datetime64[D]"),
    }[kind]


class TestInputRule:
    @pytest.mark.parametrize(
        "kind", ["complex128", "str", "str-list", "datetime64"]
    )
    def test_every_predict_path_refuses_non_real_inputs(self, fc_model, kind):
        session = InferenceSession.freeze(fc_model)
        x = non_real(kind, (2, 256))
        for call in (session.forward, session.predict_proba, session.predict):
            with pytest.raises(TypeError, match="real-valued"):
                call(x)

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float32])
    def test_real_kinds_cast_to_the_session_dtype(self, fc_model, rng, dtype):
        session = InferenceSession.freeze(fc_model)
        x = (rng.normal(size=(3, 256)) * 4).astype(dtype)
        assert np.array_equal(
            session.predict_proba(x), session.predict_proba(x.astype(np.float64))
        )


class TestSnapshotSemantics:
    def test_training_after_freeze_does_not_change_session(self, fc_model, rng):
        session = InferenceSession.freeze(fc_model)
        x = rng.normal(size=(4, 256))
        before = session.forward(x)

        fc_model.train()
        optimizer = SGD(fc_model.parameters(), lr=0.5)
        loss = CrossEntropyLoss()(fc_model(x), np.array([0, 1, 2, 3]))
        loss.backward()
        optimizer.step()
        fc_model.eval()

        assert not np.allclose(session.forward(x), fc_model(x).data)
        assert np.allclose(session.forward(x), before, atol=1e-12)

    def test_refreeze_follows_updated_weights(self, fc_model, rng):
        x = rng.normal(size=(4, 256))
        fc_model.layers[0].weight.data = fc_model.layers[0].weight.data * 0.5
        session = InferenceSession.freeze(fc_model)
        assert np.allclose(session.forward(x), fc_model(x).data, atol=1e-10)


class TestFromDeployed:
    def test_matches_record_oracle(self, conv_model, rng):
        deployed = DeployedModel.from_model(conv_model)
        session = InferenceSession.from_deployed(deployed)
        x = rng.normal(size=(4, 3, 8, 8))
        # complex64 artifact spectra bound the agreement, not 1e-10.
        assert np.allclose(
            session.predict_proba(x),
            reference_proba(deployed.records, x),
            atol=1e-5,
        )

    def test_save_load_to_session_roundtrip(self, fc_model, rng, tmp_path):
        deployed = DeployedModel.from_model(fc_model)
        path = tmp_path / "artifact.npz"
        deployed.save(path)
        session = InferenceSession.from_deployed(DeployedModel.load(path))
        x = rng.normal(size=(5, 256))
        assert np.array_equal(
            session.predict(x),
            reference_forward(deployed.records, x).argmax(axis=-1),
        )
