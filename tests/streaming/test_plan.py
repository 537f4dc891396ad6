"""Session streams: incremental pushes bitwise-equal to the batch plan."""

import numpy as np
import pytest

from repro.embedded import DeployedModel
from repro.engine import Engine, EngineConfig
from repro.exceptions import (
    ConfigurationError,
    DeploymentError,
    ShapeError,
)
from repro.nn import (
    BatchNorm1d,
    FFTLayer1d,
    Flatten,
    LeakyReLU,
    Linear,
    Pointwise1d,
    ReLU,
    Sequential,
    Softmax,
)
from repro.precision import FP32, FP64
from repro.runtime import InferenceSession, compile_stream_plan
from repro.zoo import build_fftnet


def fftnet(depth=3, channels=8, classes=5, in_channels=1, seed=0):
    return build_fftnet(
        channels=channels,
        depth=depth,
        classes=classes,
        in_channels=in_channels,
        rng=np.random.default_rng(seed),
    )


def leaky_softmax_model():
    rng0 = np.random.default_rng(2)
    return Sequential(
        FFTLayer1d(1, 6, 4, rng=rng0),
        LeakyReLU(0.1),
        FFTLayer1d(6, 6, 1, rng=rng0),
        Pointwise1d(6, 4, rng=rng0),
        Softmax(),
    )


def batch_reference(model, full, precision="fp64"):
    session = InferenceSession.freeze(model, precision=precision)
    return session.predict_proba(full[None])[0]


def push_all(plan, full, sizes):
    """Push ``full`` through a fresh stream in ``sizes``-row chunks."""
    state = plan.open()
    outs = []
    i = 0
    for k in sizes:
        outs.append(plan.push(state, full[i : i + k], proba=True))
        i += k
    assert i == full.shape[0], "sizes must tile the sequence exactly"
    return np.concatenate(outs), state


class TestIncrementalParity:
    def test_single_sample_pushes_bitwise_equal_fp64(self, rng):
        model = fftnet()
        full = rng.standard_normal((33, 1))
        plan = compile_stream_plan(model)
        inc, state = push_all(plan, full, [1] * 33)
        ref = batch_reference(model, full)
        assert inc.dtype == ref.dtype == np.float64
        assert np.array_equal(inc, ref)
        assert state.samples == 33

    @pytest.mark.parametrize("sizes", [
        [7, 1, 1, 24],
        [1, 2, 3, 4, 5, 6, 7, 5],
        [33],
        [32, 1],
        [1, 31, 1],
    ])
    def test_ragged_pushes_bitwise_equal(self, rng, sizes):
        model = fftnet()
        full = rng.standard_normal((sum(sizes), 1))
        inc, _ = push_all(compile_stream_plan(model), full, sizes)
        assert np.array_equal(inc, batch_reference(model, full))

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 31])
    def test_odd_lengths(self, rng, length):
        # Lengths below, at, and beyond the receptive field (8 here).
        model = fftnet()
        full = rng.standard_normal((length, 1))
        inc, _ = push_all(compile_stream_plan(model), full, [length])
        assert np.array_equal(inc, batch_reference(model, full))

    @pytest.mark.parametrize("depth", [1, 2, 4, 5])
    def test_dilation_sweeps(self, rng, depth):
        model = fftnet(depth=depth)
        full = rng.standard_normal((50, 1))
        inc, _ = push_all(
            compile_stream_plan(model), full, [3, 11, 1, 35]
        )
        assert np.array_equal(inc, batch_reference(model, full))

    def test_fp32_parity(self, rng):
        # seq_matmul is row-stable at every precision, so fp32 parity
        # is bitwise too (far inside the documented 1e-5 envelope).
        model = fftnet()
        full = rng.standard_normal((40, 1))
        plan = compile_stream_plan(model, FP32)
        inc, _ = push_all(plan, full, [9, 13, 18])
        ref = batch_reference(model, full, "fp32")
        assert inc.dtype == ref.dtype == np.float32
        np.testing.assert_allclose(inc, ref, atol=1e-5)
        assert np.array_equal(inc, ref)

    def test_multichannel_input(self, rng):
        model = fftnet(in_channels=3)
        full = rng.standard_normal((21, 3))
        inc, _ = push_all(compile_stream_plan(model), full, [4, 17])
        assert np.array_equal(inc, batch_reference(model, full))

    def test_leaky_relu_and_explicit_softmax(self, rng):
        model = leaky_softmax_model()
        full = rng.standard_normal((17, 1))
        plan = compile_stream_plan(model)
        assert plan.ends_with_softmax
        inc, _ = push_all(plan, full, [5, 12])
        assert np.array_equal(inc, batch_reference(model, full))


class TestFusedMultiStream:
    def test_push_many_bitwise_per_stream(self, rng):
        model = fftnet()
        plan = compile_stream_plan(model)
        fulls = [rng.standard_normal((30, 1)) for _ in range(5)]
        refs = [batch_reference(model, f) for f in fulls]
        states = [plan.open() for _ in fulls]
        outs = [[] for _ in fulls]
        # Ragged, unequal chunk sizes per stream per fused step.
        cuts = [
            [1, 4, 9, 16],
            [16, 9, 4, 1],
            [7, 7, 7, 9],
            [2, 2, 2, 24],
            [29, 1, 0, 0],
        ]
        offsets = [0] * 5
        for step in range(4):
            idx = [i for i in range(5) if cuts[i][step] > 0]
            chunks = [
                fulls[i][offsets[i] : offsets[i] + cuts[i][step]]
                for i in idx
            ]
            fused = plan.push_many(
                [states[i] for i in idx], chunks, proba=True
            )
            for j, i in enumerate(idx):
                outs[i].append(fused[j])
                offsets[i] += cuts[i][step]
        for i in range(5):
            assert np.array_equal(np.concatenate(outs[i]), refs[i])

    def test_fused_equals_solo(self, rng):
        # A stream's rows are identical whether its push ran alone or
        # fused with other streams' rows in one call.
        model = fftnet()
        plan = compile_stream_plan(model)
        full = rng.standard_normal((12, 1))
        solo_state = plan.open()
        solo = plan.push(solo_state, full, proba=True)
        fused_state = plan.open()
        noise_state = plan.open()
        fused = plan.push_many(
            [noise_state, fused_state],
            [rng.standard_normal((7, 1)), full],
            proba=True,
        )
        assert np.array_equal(fused[1], solo)

    def test_push_many_rejects_duplicate_states(self, rng):
        plan = compile_stream_plan(fftnet())
        state = plan.open()
        chunk = rng.standard_normal((2, 1))
        with pytest.raises(DeploymentError):
            plan.push_many([state, state], [chunk, chunk])

    def test_push_many_rejects_foreign_state(self, rng):
        plan_a = compile_stream_plan(fftnet())
        plan_b = compile_stream_plan(fftnet(seed=9))
        with pytest.raises(DeploymentError):
            plan_a.push(plan_b.open(), rng.standard_normal((2, 1)))

    def test_push_many_length_mismatch(self, rng):
        plan = compile_stream_plan(fftnet())
        with pytest.raises(ShapeError):
            plan.push_many([plan.open()], [])


class TestSources:
    @pytest.mark.parametrize("quantize_bits", [None, 12])
    def test_compile_from_artifact_records(self, rng, tmp_path, quantize_bits):
        model = fftnet()
        full = rng.standard_normal((25, 1))
        deployed = DeployedModel.from_model(model, quantize_bits=quantize_bits)
        path = tmp_path / "fftnet.npz"
        deployed.save(path)
        loaded = DeployedModel.load(path)
        assert loaded.quantized == (quantize_bits is not None)
        plan = compile_stream_plan(loaded)
        inc, _ = push_all(plan, full, [6, 19])
        # Artifacts persist weights at fp32 (or as fixed-point codes),
        # so the parity reference is the artifact's own frozen session,
        # not the original model.
        ref = Engine(model=loaded).session().predict_proba(full[None])[0]
        assert np.array_equal(inc, ref)

    @pytest.mark.parametrize(
        "layer",
        [
            lambda rng0: Linear(8, 8, rng=rng0),
            lambda rng0: BatchNorm1d(8),  # an ``affine`` record
            lambda rng0: Flatten(),
        ],
        ids=["linear", "batchnorm1d", "flatten"],
    )
    def test_non_streamable_model_rejected(self, layer):
        rng0 = np.random.default_rng(0)
        model = Sequential(Pointwise1d(1, 8, rng=rng0), ReLU(), layer(rng0))
        with pytest.raises(DeploymentError, match="not streamable"):
            compile_stream_plan(model)

    @pytest.mark.parametrize("source", ["zoo", "leaky_softmax", "artifact"])
    def test_describe_is_the_session_format(self, source, tmp_path):
        model = leaky_softmax_model() if source == "leaky_softmax" else fftnet()
        if source == "artifact":
            path = tmp_path / "fftnet.npz"
            DeployedModel.from_model(model).save(path)
            loaded = DeployedModel.load(path)
            plan = compile_stream_plan(loaded)
            session = Engine(model=loaded).session()
        else:
            plan = compile_stream_plan(model)
            session = InferenceSession.freeze(model)
        assert plan.describe() == session.describe()

    def test_describe_and_geometry(self):
        plan = compile_stream_plan(fftnet(depth=3, channels=8, classes=5))
        # Dilations 4, 2, 1 -> receptive field 1 + 7 = 8.
        assert plan.receptive_field == 8
        assert plan.in_channels == 1
        assert plan.out_channels == 5
        described = plan.describe()
        assert described[0].startswith("fft1d(1->8,d=4)")
        assert described[-1].startswith("pointwise1d(")
        # Per-stream history: one (dilation, in_c) fp64 buffer per tap.
        assert plan.state_bytes == (4 * 1 + 2 * 8 + 1 * 8) * 8


class TestStreamState:
    def test_state_accounting_and_reset(self, rng):
        plan = compile_stream_plan(fftnet())
        state = plan.open()
        assert state.samples == 0 and state.pushes == 0
        assert state.state_bytes == plan.state_bytes
        plan.push(state, rng.standard_normal((5, 1)))
        assert state.samples == 5 and state.pushes == 1
        state.reset()
        assert state.samples == 0 and state.pushes == 0
        for buffer in state.buffers:
            if buffer is not None:
                assert not buffer.any()

    def test_reset_state_replays_from_scratch(self, rng):
        model = fftnet()
        plan = compile_stream_plan(model)
        full = rng.standard_normal((14, 1))
        state = plan.open()
        plan.push(state, rng.standard_normal((9, 1)), proba=True)
        state.reset()
        out = plan.push(state, full, proba=True)
        assert np.array_equal(out, batch_reference(model, full))

    def test_bad_chunk_shapes(self, rng):
        plan = compile_stream_plan(fftnet())
        state = plan.open()
        with pytest.raises(ShapeError):
            plan.push(state, rng.standard_normal((3, 2)))  # wrong channels
        # An empty chunk is legal at the plan layer (the serving layer
        # rejects it before it gets here): zero rows out, no advance.
        out = plan.push(state, np.empty((0, 1)), proba=True)
        assert out.shape == (0, plan.out_channels)

    @pytest.mark.parametrize(
        "chunk",
        [
            np.full((3, 1), 1.5 + 2.0j),
            np.full((3, 1), "1.5"),
            np.zeros((3, 1), dtype="datetime64[D]"),
        ],
        ids=["complex128", "str", "datetime64"],
    )
    def test_non_real_chunk_refused_and_state_untouched(self, rng, chunk):
        model = fftnet()
        plan = compile_stream_plan(model)
        state, other = plan.open(), plan.open()
        with pytest.raises(TypeError, match="real-valued"):
            plan.push(state, chunk)
        # In a fused push, one bad chunk advances no stream.
        with pytest.raises(TypeError, match="real-valued"):
            plan.push_many([other, state], [rng.standard_normal((2, 1)), chunk])
        assert state.samples == other.samples == 0
        assert not any(b.any() for b in state.buffers + other.buffers if b is not None)
        full = rng.standard_normal((6, 1))
        out = plan.push(state, full, proba=True)
        assert np.array_equal(out, batch_reference(model, full))

    def test_1d_chunk_promoted_for_single_channel(self, rng):
        model = fftnet()
        plan = compile_stream_plan(model)
        full = rng.standard_normal(11)
        out = plan.push(plan.open(), full, proba=True)
        assert np.array_equal(out, batch_reference(model, full[:, None]))


class TestEngineStreamPlan:
    def test_plan_pooled_per_route(self):
        engine = Engine(model=fftnet())
        assert engine.session() is engine.session()

    def test_stream_plan_matches_engine_session(self, rng):
        engine = Engine(model=fftnet())
        full = rng.standard_normal((19, 1))
        plan = engine.session()
        out = plan.push(plan.open(), full, proba=True)
        assert np.array_equal(
            out, engine.session().predict_proba(full[None])[0]
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(models={"m": fftnet()}, max_streams=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(models={"m": fftnet()}, max_stream_state_bytes=0)
