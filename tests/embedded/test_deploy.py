"""Tests for the FFT-domain deployment engine (paper Fig. 4)."""

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.exceptions import DeploymentError
from repro.io import build_model_from_string
from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Softmax,
    Tensor,
)
from repro.zoo import build_arch1, build_arch2, build_arch3_reduced


@pytest.fixture
def fc_model(rng):
    model = build_model_from_string("16-8CFb4-8CFb4-4F", rng=rng)
    model.eval()
    return model


@pytest.fixture
def conv_model(rng):
    model = build_model_from_string("3x8x8-4Conv3-MP2-4CConv3b2-8CFb4-4F", rng=rng)
    model.eval()
    return model


class TestParityWithTrainingModel:
    def test_fc_model_parity(self, rng, fc_model):
        x = rng.normal(size=(5, 16))
        expected = fc_model(Tensor(x)).data
        deployed = DeployedModel.from_model(fc_model)
        # float32 storage costs ~1e-6 relative accuracy.
        assert np.allclose(deployed.forward(x), expected, atol=1e-4)

    def test_conv_model_parity(self, rng, conv_model):
        x = rng.normal(size=(2, 3, 8, 8))
        expected = conv_model(Tensor(x)).data
        deployed = DeployedModel.from_model(conv_model)
        assert np.allclose(deployed.forward(x), expected, atol=1e-4)

    @pytest.mark.parametrize(
        "builder,kwargs,sample_shape",
        [
            (build_arch1, {"block_size": 16}, (256,)),
            (build_arch1, {"block_size": 64}, (256,)),
            (build_arch2, {}, (121,)),
            (build_arch3_reduced, {"width": 12, "block_size": 4}, (3, 32, 32)),
        ],
        ids=("arch1-b16", "arch1-b64", "arch2", "arch3_reduced"),
    )
    def test_zoo_model_parity(self, rng, builder, kwargs, sample_shape):
        # The networks the Table II/III benchmarks export and time.
        model = builder(rng=rng, **kwargs)
        model.eval()
        x = rng.uniform(size=(2, *sample_shape))
        expected = model(Tensor(x)).data
        deployed = DeployedModel.from_model(model)
        assert np.allclose(deployed.forward(x), expected, atol=1e-4)

    def test_predictions_match(self, rng, fc_model):
        x = rng.normal(size=(20, 16))
        expected = fc_model(Tensor(x)).data.argmax(axis=1)
        deployed = DeployedModel.from_model(fc_model)
        assert np.array_equal(deployed.predict(x), expected)

    def test_single_sample_promoted(self, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        assert deployed.predict_proba(rng.normal(size=16)).shape == (1, 4)

    def test_probabilities_normalized(self, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        probs = deployed.predict_proba(rng.normal(size=(6, 16)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_explicit_softmax_not_doubled(self, rng):
        model = Sequential(Linear(4, 3, rng=rng), Softmax())
        deployed = DeployedModel.from_model(model)
        x = rng.normal(size=(2, 4))
        assert np.allclose(deployed.predict_proba(x).sum(axis=1), 1.0)
        assert np.allclose(deployed.forward(x), deployed.predict_proba(x))


class TestDeploymentTransforms:
    def test_dropout_dropped(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), Dropout(0.5), ReLU())
        deployed = DeployedModel.from_model(model)
        kinds = [r["kind"] for r in deployed.records]
        assert "dropout" not in kinds
        assert len(deployed.records) == 2

    def test_batchnorm1d_folded(self, rng):
        bn = BatchNorm1d(4)
        # Accumulate non-trivial running stats.
        for _ in range(10):
            bn(Tensor(rng.normal(loc=2.0, scale=3.0, size=(32, 4))))
        bn.eval()
        model = Sequential(bn)
        deployed = DeployedModel.from_model(model)
        assert deployed.records[0]["kind"] == "affine"
        x = rng.normal(size=(5, 4))
        assert np.allclose(
            deployed.forward(x), model(Tensor(x)).data, atol=1e-5
        )

    def test_batchnorm2d_folded(self, rng):
        bn = BatchNorm2d(3)
        for _ in range(10):
            bn(Tensor(rng.normal(size=(8, 3, 4, 4))))
        bn.eval()
        model = Sequential(bn)
        deployed = DeployedModel.from_model(model)
        x = rng.normal(size=(2, 3, 4, 4))
        assert np.allclose(deployed.forward(x), model(Tensor(x)).data, atol=1e-5)

    def test_bc_layers_store_spectra_not_weights(self, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        bc_records = [r for r in deployed.records if r["kind"] == "bc_linear"]
        assert len(bc_records) == 2
        for record in bc_records:
            assert np.iscomplexobj(record["spectra"])
            assert "weight" not in record

    def test_unknown_layer_raises(self):
        class Strange(Module):
            def forward(self, x):
                return x

        with pytest.raises(DeploymentError):
            DeployedModel.from_model(Sequential(Strange()))

    def test_empty_records_raises(self):
        with pytest.raises(DeploymentError):
            DeployedModel([])


class TestSaveLoad:
    def test_round_trip(self, rng, conv_model, tmp_path):
        deployed = DeployedModel.from_model(conv_model)
        path = tmp_path / "model.npz"
        deployed.save(path)
        loaded = DeployedModel.load(path)
        x = rng.normal(size=(2, 3, 8, 8))
        assert np.allclose(loaded.forward(x), deployed.forward(x))

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(DeploymentError):
            DeployedModel.load(path)

    def test_storage_smaller_than_dense(self, rng):
        # The deployed artifact of a BC model must undercut the dense
        # float32 equivalent (paper's storage claim).
        model = build_model_from_string("256-128CFb64-128CFb64-10F", rng=rng)
        deployed = DeployedModel.from_model(model)
        dense_bytes = (256 * 128 + 128 + 128 * 128 + 128 + 128 * 10 + 10) * 4
        assert deployed.storage_bytes() < dense_bytes / 3

    def test_time_inference_positive(self, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        us = deployed.time_inference(rng.normal(size=(10, 16)), repeats=1)
        assert us > 0

    def test_time_inference_validation(self, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        with pytest.raises(ValueError):
            deployed.time_inference(rng.normal(size=(2, 16)), repeats=0)


class TestBatchSizeContract:
    """predict/predict_proba share the InferenceSession batch_size
    semantics exactly: None = one shot, >=1 streams, 0/negative raises
    (the kwarg-drift fix)."""

    def test_streamed_matches_one_shot(self, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        x = rng.normal(size=(10, 16))
        one_shot = deployed.predict_proba(x)  # batch_size=None
        # Chunked GEMMs may differ in the last ulp from the one-shot
        # batch; bitwise identity holds when the chunk covers all rows.
        assert np.allclose(
            one_shot, deployed.predict_proba(x, batch_size=3), atol=1e-12
        )
        assert np.array_equal(one_shot, deployed.predict_proba(x, batch_size=10))
        assert np.array_equal(
            one_shot.argmax(axis=-1), deployed.predict(x, batch_size=4)
        )

    def test_zero_and_negative_batch_size_raise_like_the_session(
        self, rng, fc_model
    ):
        from repro.runtime import InferenceSession

        deployed = DeployedModel.from_model(fc_model)
        session = InferenceSession.from_deployed(deployed)
        x = rng.normal(size=(4, 16))
        for bad in (0, -2):
            with pytest.raises(ValueError, match="batch_size"):
                deployed.predict_proba(x, batch_size=bad)
            with pytest.raises(ValueError, match="batch_size"):
                session.predict_proba(x, batch_size=bad)
        # None is "no batching" on both paths.
        assert np.array_equal(
            deployed.predict(x, batch_size=None),
            session.predict(x, batch_size=None),
        )
        session.close()
