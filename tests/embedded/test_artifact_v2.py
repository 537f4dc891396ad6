"""Artifact format v2: round trips, v1 back compat, engine serving.

The satellite contract of the pipeline PR:

* v1 artifacts written by earlier releases still load **bitwise**,
* v2 save -> load -> ``InferenceSession`` matches the live model,
* a quantized v2 artifact serves end to end through ``Engine`` /
  ``InferenceServer`` within the documented parity bound
  (``10 x max_weight_error`` vs the float model; bitwise vs a local
  session on the same artifact).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.embedded.deploy import FORMAT_VERSION, LEGACY_FORMAT_VERSION
from repro.engine import Engine
from repro.exceptions import DeploymentError
from repro.io import build_model_from_string
from repro.runtime import InferenceSession
from repro.serving import AsyncServeClient, InferenceServer

PARITY_FACTOR = 10.0


@pytest.fixture
def fc_model(rng):
    model = build_model_from_string("16-8CFb4-8CFb4-4F", rng=rng)
    return model.eval()


@pytest.fixture
def conv_model(rng):
    model = build_model_from_string(
        "3x8x8-4Conv3-MP2-4CConv3b2-8CFb4-4F", rng=rng
    )
    return model.eval()


def proba(deployed, x):
    """Class probabilities of an artifact through its frozen session."""
    with InferenceSession.from_deployed(deployed) as session:
        return session.predict_proba(x)


def save_v1_bytes_layout(deployed, path):
    """Write a v1 file exactly as the pre-v2 code did (reference)."""
    header = []
    arrays = {}
    for index, record in enumerate(deployed.records):
        meta = {}
        for key, value in record.items():
            if isinstance(value, np.ndarray):
                arrays[f"layer{index}_{key}"] = value
                meta[key] = f"@layer{index}_{key}"
            else:
                meta[key] = value
        header.append(meta)
    arrays["__header__"] = np.frombuffer(
        json.dumps({"version": 1, "layers": header}).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


class TestV1BackCompat:
    def test_legacy_layout_loads_bitwise(self, tmp_path, rng, fc_model):
        # A file in the exact pre-v2 byte layout (no meta, version 1)
        # must keep loading with identical arrays.
        deployed = DeployedModel.from_model(fc_model)
        path = tmp_path / "legacy.npz"
        save_v1_bytes_layout(deployed, path)
        loaded = DeployedModel.load(path)
        assert loaded.source_version == LEGACY_FORMAT_VERSION
        x = rng.normal(size=(5, 16))
        assert np.array_equal(
            proba(deployed, x), proba(loaded, x)
        )
        for mine, theirs in zip(deployed.records, loaded.records):
            for key, value in mine.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, theirs[key])


class TestV2RoundTrip:
    def test_float_round_trip_bitwise(self, tmp_path, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model)
        deployed.metadata = {"provenance": {"config_hash": "abc"}}
        path = tmp_path / "v2.npz"
        deployed.save(path)
        loaded = DeployedModel.load(path)
        assert loaded.source_version == FORMAT_VERSION
        assert loaded.metadata == deployed.metadata
        x = rng.normal(size=(6, 16))
        assert np.array_equal(
            proba(deployed, x), proba(loaded, x)
        )

    def test_quantized_round_trip_bitwise(self, tmp_path, rng, fc_model):
        deployed = DeployedModel.from_model(fc_model, quantize_bits=12)
        path = tmp_path / "q.npz"
        deployed.save(path)
        loaded = DeployedModel.load(path)
        assert loaded.quantized
        # The rebuilt float arrays (spectra from dequantized ints) are
        # bitwise equal to the in-memory originals.
        for mine, theirs in zip(deployed.records, loaded.records):
            for key in ("spectra", "weight", "bias", "weight_q", "bias_q"):
                value = mine.get(key)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, theirs[key]), key
        x = rng.normal(size=(4, 16))
        assert np.array_equal(
            proba(deployed, x), proba(loaded, x)
        )

    def test_quantized_conv_round_trip(self, tmp_path, rng, conv_model):
        deployed = DeployedModel.from_model(conv_model, quantize_bits=12)
        path = tmp_path / "qconv.npz"
        deployed.save(path)
        loaded = DeployedModel.load(path)
        x = rng.normal(size=(2, 3, 8, 8))
        assert np.array_equal(
            proba(deployed, x), proba(loaded, x)
        )

    def test_session_parity_vs_live_model(self, tmp_path, rng, fc_model):
        # v2 save -> load -> session must match the live model to
        # float32-storage accuracy (same contract as v1 deployment).
        from repro.nn import Tensor

        deployed = DeployedModel.from_model(fc_model)
        path = tmp_path / "v2.npz"
        deployed.save(path)
        loaded = DeployedModel.load(path)
        x = rng.normal(size=(5, 16))
        expected = fc_model(Tensor(x)).data
        with InferenceSession.from_deployed(loaded) as session:
            got = session.forward(x)
        assert np.allclose(got, expected, atol=1e-4)

    def test_quantized_arrays_are_smaller(self, fc_model):
        float_bytes = DeployedModel.from_model(fc_model).storage_bytes()
        q_bytes = DeployedModel.from_model(
            fc_model, quantize_bits=12
        ).storage_bytes()
        assert q_bytes < float_bytes

    def test_int_dtype_follows_width(self, fc_model):
        for bits, dtype in ((8, np.int8), (12, np.int16), (18, np.int32)):
            deployed = DeployedModel.from_model(fc_model, quantize_bits=bits)
            codes = deployed.records[0]["weight_q"]
            assert codes.dtype == dtype

    def test_describe_reports_quantization(self, fc_model):
        deployed = DeployedModel.from_model(fc_model, quantize_bits=12)
        info = deployed.describe()
        assert info["quantized"]
        quantized_layers = [
            l for l in info["layers"] if "qformat" in l
        ]
        assert quantized_layers
        assert all(
            l["quantization_error"] >= 0 for l in quantized_layers
        )
        json.dumps(info)  # JSON-able end to end

    def test_bad_quantize_bits(self, fc_model):
        with pytest.raises(DeploymentError, match="quantize_bits"):
            DeployedModel.from_model(fc_model, quantize_bits=1)

    def test_q_error_covers_bias(self, rng):
        # A bias that quantizes much worse than the weights must raise
        # the record's q_error (it feeds the serving parity bound).
        from repro.nn import Linear, Sequential
        from repro.quantize import choose_qformat, quantization_error

        model = Sequential(Linear(8, 4, rng=rng))
        layer = model[0]
        # Sub-LSB bias values quantize far worse (relatively) than the
        # unit-scale weights: the format's 11 fraction bits give an LSB
        # of ~5e-4 against values of ~1e-3.
        layer.bias.data = rng.normal(size=4) * 1e-3
        deployed = DeployedModel.from_model(model, quantize_bits=12)
        record = deployed.records[0]
        weight_error = quantization_error(
            layer.weight.data, choose_qformat(layer.weight.data, 12)
        )
        bias_error = quantization_error(
            layer.bias.data, choose_qformat(layer.bias.data, 12)
        )
        assert bias_error > weight_error  # scenario sanity
        assert record["q_error"] == pytest.approx(bias_error)
        assert deployed.quantization_summary()[0]["error"] == pytest.approx(
            bias_error
        )


class TestQuantizedParityBound:
    def test_quantized_within_documented_bound(self, rng, fc_model):
        deployed_f = DeployedModel.from_model(fc_model)
        deployed_q = DeployedModel.from_model(fc_model, quantize_bits=12)
        bound = PARITY_FACTOR * max(
            row["error"] for row in deployed_q.quantization_summary()
        )
        x = rng.normal(size=(32, 16))
        deviation = np.abs(
            proba(deployed_q, x) - proba(deployed_f, x)
        ).max()
        assert deviation <= bound

    def test_engine_serves_quantized_artifact(self, tmp_path, rng, fc_model):
        deployed_q = DeployedModel.from_model(fc_model, quantize_bits=12)
        path = tmp_path / "q.npz"
        deployed_q.save(path)
        x = rng.normal(size=(8, 16))
        with InferenceSession.from_deployed(
            DeployedModel.load(path)
        ) as local:
            expected = local.predict_proba(x)
        with Engine(model=str(path), precisions=("fp64", "fp32")) as engine:
            assert np.array_equal(engine.predict_proba(x), expected)
            fp32 = engine.predict_proba(x, precision="fp32")
        assert np.abs(fp32 - expected).max() <= 1e-5

    def test_server_end_to_end_quantized(self, tmp_path, rng, fc_model):
        # Quantized v2 artifact through the full asyncio serving stack:
        # bitwise vs a local session on the same artifact, and within
        # the documented bound of the float model.
        deployed_f = DeployedModel.from_model(fc_model)
        deployed_q = DeployedModel.from_model(fc_model, quantize_bits=12)
        path = tmp_path / "q.npz"
        deployed_q.save(path)
        bound = PARITY_FACTOR * max(
            row["error"] for row in deployed_q.quantization_summary()
        )
        x = rng.normal(size=(12, 16))

        async def scenario():
            engine = Engine(model=str(path), max_batch=8)
            server = InferenceServer(engine, port=0)
            try:
                async with server:
                    client = await AsyncServeClient.connect(port=server.port)
                    try:
                        return await client.predict_proba(x)
                    finally:
                        await client.close()
            finally:
                engine.close()

        served = asyncio.run(scenario())
        with InferenceSession.from_deployed(
            DeployedModel.load(path)
        ) as local:
            assert np.array_equal(served, local.predict_proba(x))
        deviation = np.abs(served - proba(deployed_f, x)).max()
        assert deviation <= bound
