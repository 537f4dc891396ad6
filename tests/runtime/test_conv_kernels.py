"""Conv ops of the frozen plan: slice-copy unfold, the block-circulant
kernel choice (dense-expanded GEMM vs rfft -> GEMM -> irfft), reshape
pooling.

"Equal" here means what ``docs/engine.md`` says it means: a plan equals
the training-time layer and the record oracle
(``repro.testing.reference_forward``) to 1e-10 (fp64) whichever kernel
it froze to; *bitwise* equality holds between paths that run the same
kernel (an op on an arena vs the same op called directly on fresh
buffers, threaded vs serial, the FFT kernel vs training —
``tests/runtime/test_kernel_parity.py``).
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zoo
from repro.cli import main
from repro.embedded.deploy import DeployedModel
from repro.engine import Engine
from repro.nn import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.nn.layers import BlockCirculantConv2d
from repro.precision import PrecisionPolicy
from repro.runtime import (
    InferenceSession,
    ThreadedExecutor,
    Workspace,
    compile_records_plan,
    model_records,
)
from repro.runtime import plan
from repro.runtime.plan import (
    DENSE_EXPANSION_CAP_BYTES,
    GEMM_FLOP_ADVANTAGE,
    _conv_op,
    _flatten_op,
    _maxpool_op,
    bc_conv_kernel,
    pool_windows,
)
from repro.testing import reference_forward

KERNELS = ("dense", "fft")
BUCKETS = (1, 2, 4, 8)


@contextmanager
def forced_kernel(kind):
    """Freeze block-circulant convs to ``kind`` whatever the rule says —
    there is no public knob for this, on purpose."""
    with mock.patch.object(plan, "bc_conv_kernel", lambda *args: kind):
        yield


def compile_model(model, precision="fp64"):
    """The unfused plan ``InferenceSession.freeze`` builds for ``model``."""
    return compile_records_plan(
        model_records(model), policy=PrecisionPolicy.resolve(precision)
    )


def bc_op_from_layer(layer, precision, kernel):
    """What freezing a live ``layer`` emits, kernel forced."""
    with forced_kernel(kernel):
        (op,) = compile_model(Sequential(layer).eval(), precision)
    return op


def bc_op_from_record(record, precision, kernel):
    """What ``compile_records_plan`` emits for ``record``, kernel forced."""
    with forced_kernel(kernel):
        (op,) = compile_records_plan(
            [record], policy=PrecisionPolicy.resolve(precision)
        )
    return op


def close(got, want, precision):
    """1e-10 at fp64; the suite's fp32 bound (1e-5 at unit scale)."""
    bound = 1e-10 if precision == "fp64" else 1e-5
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got.astype(np.float64) - want).max()) <= bound * scale


def assert_zero_once_regions_zero(ws, in_channels, padding):
    """Image border and channel pad of every zero-once slot in ``ws``
    are still zero; returns how many such slots there are."""
    slots = [(key[0], buf) for key, buf in ws._buffers.items() if key[-1] == "z"]
    for name, buf in slots:
        if name.endswith(".img"):
            border = buf.copy()
            border[:, :, padding:-padding, padding:-padding] = 0.0
            assert not border.any(), name
        else:
            assert name.endswith(".cols"), name
            assert not buf[..., in_channels:].any(), name
    return len(slots)


conv_geometry = dict(
    c_in=st.integers(1, 9),
    c_out=st.integers(1, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    height=st.integers(3, 9),
    width=st.integers(3, 9),
    rows=st.integers(1, 7),
    precision=st.sampled_from(["fp64", "fp32"]),
    bias=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)


class TestBcConvKernelParity:
    @given(block=st.sampled_from([1, 2, 3, 4, 8]), **conv_geometry)
    @settings(max_examples=120, deadline=None)
    def test_both_kernels_every_path(
        self, block, c_in, c_out, kernel, stride, padding, height, width,
        rows, precision, bias, seed,
    ):
        block = min(block, max(c_in, c_out))  # the layer's own limit
        rng = np.random.default_rng(seed)
        layer = BlockCirculantConv2d(
            c_in, c_out, kernel, block, stride=stride, padding=padding,
            bias=bias, rng=rng,
        )
        if bias:
            layer.bias.data = rng.normal(size=c_out)
        model = Sequential(layer).eval()
        deployed = DeployedModel.from_model(model)
        x = rng.normal(size=(rows, c_in, height, width))
        x_cast = x.astype(PrecisionPolicy.resolve(precision).real_dtype)
        live = model(x).data
        reference = reference_forward(deployed.records, x)

        by_kernel = {}
        for forced in KERNELS:
            from_layer = bc_op_from_layer(layer, precision, forced)
            from_record = bc_op_from_record(
                deployed.records[0], precision, forced
            )
            assert from_layer.name.endswith(f",{forced})")
            assert from_layer.name == from_record.name
            fresh = from_layer(x_cast)
            # plan == the training-time layer, == the record oracle
            assert close(fresh, live, precision)
            assert close(from_record(x_cast), reference, precision)
            by_kernel[forced] = fresh

            # arena == fresh bitwise, at the full batch and then at a
            # smaller one in the same bucket; the zero-once regions
            # (image border, channel pad) are still zero afterwards.
            ws = Workspace(BUCKETS)
            assert np.array_equal(from_layer.run(x_cast, ws), fresh)
            fewer = x_cast[: max(1, rows - 1)]
            assert np.array_equal(from_layer.run(fewer, ws), from_layer(fewer))
            assert np.array_equal(from_layer.run(x_cast, ws), fresh)
            assert_zero_once_regions_zero(ws, c_in, padding)

            # threaded == serial bitwise at the same batch_size
            ops = [from_layer, _flatten_op()]
            serial = InferenceSession(ops, precision=precision)
            with InferenceSession(
                ops, precision=precision, executor=ThreadedExecutor(threads=2)
            ) as threaded:
                for batch_size in (None, 2, 3):
                    assert np.array_equal(
                        threaded.predict_proba(x, batch_size=batch_size),
                        serial.predict_proba(x, batch_size=batch_size),
                    )
        # the two kernels agree to the same bound
        assert close(by_kernel["dense"], by_kernel["fft"].astype(np.float64), precision)

    @pytest.mark.parametrize("forced", KERNELS)
    def test_zero_once_slots_exist_and_stay_zero(self, rng, forced):
        # 5 channels at b=4 pad to 8: the FFT kernel needs the channel
        # pad, both kernels need the image border.
        layer = BlockCirculantConv2d(5, 6, 3, 4, padding=1, rng=rng)
        op = bc_op_from_layer(layer, "fp64", forced)
        ws = Workspace(BUCKETS)
        for rows in (4, 3, 4):
            x = rng.normal(size=(rows, 5, 6, 7))
            assert np.array_equal(op.run(x, ws), op(x))
        assert assert_zero_once_regions_zero(ws, 5, 1) == (
            2 if forced == "fft" else 1
        )

    def test_dense_expansion_drops_channel_padding(self, rng):
        layer = BlockCirculantConv2d(5, 6, 3, 4, padding=1, rng=rng)
        dense = bc_op_from_layer(layer, "fp64", "dense")
        assert dense.expanded_nbytes == 9 * 5 * 6 * 8
        assert bc_op_from_layer(layer, "fp64", "fft").expanded_nbytes == 0
        assert (
            bc_op_from_layer(layer, "fp32", "dense").expanded_nbytes
            == 9 * 5 * 6 * 4
        )


class TestConvOpParity:
    @given(**conv_geometry)
    @settings(max_examples=120, deadline=None)
    def test_every_path(
        self, c_in, c_out, kernel, stride, padding, height, width, rows,
        precision, bias, seed,
    ):
        rng = np.random.default_rng(seed)
        layer = Conv2d(
            c_in, c_out, kernel, stride=stride, padding=padding, bias=bias,
            rng=rng,
        )
        if bias:
            layer.bias.data = rng.normal(size=c_out)
        model = Sequential(layer).eval()
        deployed = DeployedModel.from_model(model)
        policy = PrecisionPolicy.resolve(precision)
        x = rng.normal(size=(rows, c_in, height, width))
        x_cast = x.astype(policy.real_dtype)

        (op,) = compile_model(model, precision)
        fresh = op(x_cast)
        assert close(fresh, model(x).data, precision)
        (from_record,) = compile_records_plan(deployed.records, policy=policy)
        assert close(
            from_record(x_cast), reference_forward(deployed.records, x), precision
        )

        ws = Workspace(BUCKETS)
        assert np.array_equal(op.run(x_cast, ws), fresh)
        fewer = x_cast[: max(1, rows - 1)]
        assert np.array_equal(op.run(fewer, ws), op(fewer))
        assert np.array_equal(op.run(x_cast, ws), fresh)
        # one image slot per batch bucket touched, none without padding
        assert bool(assert_zero_once_regions_zero(ws, c_in, padding)) == bool(padding)

        serial = InferenceSession.freeze(
            Sequential(layer, Flatten()).eval(), precision=precision
        )
        with InferenceSession.freeze(
            Sequential(layer, Flatten()).eval(),
            precision=precision,
            executor=ThreadedExecutor(threads=2),
        ) as threaded:
            for batch_size in (None, 2, 3):
                assert np.array_equal(
                    threaded.predict_proba(x, batch_size=batch_size),
                    serial.predict_proba(x, batch_size=batch_size),
                )


class TestChannelAndGeometryChecks:
    def ops(self, rng):
        conv = _conv_op(rng.normal(size=(4, 5, 3, 3)), None, 1, 1)
        layer = BlockCirculantConv2d(5, 6, 3, 4, padding=1, rng=rng)
        yield conv
        for forced in KERNELS:
            yield bc_op_from_layer(layer, "fp64", forced)

    @staticmethod
    def runner(op, arena):
        """``op`` on an arena, or called directly on fresh buffers."""
        if not arena:
            return op
        ws = Workspace(BUCKETS)
        return lambda x: op.run(x, ws)

    @pytest.mark.parametrize("arena", [False, True])
    def test_wrong_channel_count(self, rng, arena):
        for op in self.ops(rng):
            run = self.runner(op, arena)
            for shape in [(2, 4, 6, 6), (2, 8, 6, 6), (2, 5, 6)]:
                with pytest.raises(
                    ValueError, match="expected input with 5 channels, got shape"
                ):
                    run(rng.normal(size=shape))
            # a rejected call leaves the op usable
            x = rng.normal(size=(2, 5, 6, 6))
            assert np.array_equal(run(x), op(x))

    @pytest.mark.parametrize("arena", [False, True])
    def test_kernel_does_not_fit_the_padded_image(self, rng, arena):
        conv = _conv_op(rng.normal(size=(4, 5, 5, 5)), None, 1, 1)
        layer = BlockCirculantConv2d(5, 6, 5, 4, padding=1, rng=rng)
        ops = [conv] + [bc_op_from_layer(layer, "fp64", f) for f in KERNELS]
        for op in ops:
            with pytest.raises(ValueError, match="does not fit"):
                self.runner(op, arena)(rng.normal(size=(1, 5, 2, 2)))


class TestMaxpool:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "kernel,height,width",
        [(1, 5, 4), (2, 32, 32), (2, 6, 10), (3, 9, 6), (4, 8, 4), (5, 5, 5)],
    )
    def test_reshape_path_equals_the_gather(self, rng, dtype, kernel, height, width):
        op = _maxpool_op(kernel, kernel)
        x = rng.normal(size=(3, 4, height, width)).astype(dtype)
        windows, out_h, out_w = pool_windows(x, kernel, kernel)
        want = windows.max(axis=-1).reshape(3, 4, out_h, out_w)
        fresh = op(x)
        assert fresh.dtype == dtype and fresh.shape == want.shape
        assert np.array_equal(fresh, want)
        ws = Workspace(BUCKETS)
        assert np.array_equal(op.run(x, ws), want)
        assert np.array_equal(op.run(x[:2], ws), want[:2])

    def test_reshape_path_takes_non_contiguous_input(self, rng):
        x = rng.normal(size=(2, 8, 8, 3)).transpose(0, 3, 1, 2)
        windows, out_h, out_w = pool_windows(x, 2, 2)
        want = windows.max(axis=-1).reshape(2, 3, out_h, out_w)
        assert np.array_equal(_maxpool_op(2, 2).run(x, Workspace(BUCKETS)), want)

    @pytest.mark.parametrize(
        "kernel,stride,height,width",
        [(3, 2, 9, 9), (2, 1, 6, 6), (2, 2, 7, 6), (2, 2, 6, 9), (3, 3, 10, 9)],
    )
    def test_other_geometries_still_gather(
        self, rng, monkeypatch, kernel, stride, height, width
    ):
        calls = []
        real = plan.pool_windows

        def spy(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(plan, "pool_windows", spy)
        op = _maxpool_op(kernel, stride)
        x = rng.normal(size=(2, 3, height, width))
        windows, out_h, out_w = real(x, kernel, stride)
        want = windows.max(axis=-1).reshape(2, 3, out_h, out_w)
        assert np.array_equal(op(x), want)
        assert np.array_equal(op.run(x, Workspace(BUCKETS)), want)
        assert calls == [(kernel, stride)] * 2

    def test_dividing_geometry_never_gathers(self, rng, monkeypatch):
        def boom(*args):
            raise AssertionError("gather path taken")

        monkeypatch.setattr(plan, "pool_windows", boom)
        _maxpool_op(2, 2)(rng.normal(size=(1, 2, 4, 6)))

    def test_matches_the_training_time_layer(self, rng):
        model = Sequential(MaxPool2d(2)).eval()
        x = rng.normal(size=(2, 3, 8, 6))
        assert np.array_equal(
            InferenceSession.freeze(model).forward(x), model(x).data
        )


# The issue's measured crossover table: (C_in, C_out, b) at k=3 and the
# kernel that won on the measuring host.  64->128 at b=16 was a tie.
MEASURED = [
    (16, 32, 8, "dense"),
    (32, 32, 8, "dense"),
    (32, 32, 32, "dense"),
    (64, 128, 8, "dense"),
    (64, 128, 16, None),
    (64, 128, 32, "fft"),
    (128, 128, 32, "fft"),
    (128, 128, 64, "fft"),
    (128, 256, 64, "fft"),
    (256, 256, 128, "fft"),
]


def grid(c_in, c_out, b, k=3):
    return -(-c_out // b), k * k * -(-c_in // b), b


def bc_conv_names(ops):
    return [op.name for op in ops if op.name.startswith("bc_conv")]


class TestKernelSelection:
    def test_the_rule_has_two_constants(self):
        assert GEMM_FLOP_ADVANTAGE == 6.0
        assert DENSE_EXPANSION_CAP_BYTES == 1 << 20

    @pytest.mark.parametrize("c_in,c_out,b,winner", MEASURED)
    def test_every_measured_row_lands_on_its_winner(self, c_in, c_out, b, winner):
        chosen = bc_conv_kernel(*grid(c_in, c_out, b))
        assert chosen in KERNELS
        if winner is not None:
            assert chosen == winner

    def test_reduced_arch3_freezes_to_dense(self):
        session = InferenceSession.freeze(
            zoo.build_arch3_reduced(rng=np.random.default_rng(0))
        )
        assert bc_conv_names(session.ops) == [
            "bc_conv(16->32,k=3,b=8,dense)+relu",
            "bc_conv(32->32,k=3,b=8,dense)+relu",
        ]
        assert session.expanded_weight_nbytes == (9 * 16 * 32 + 9 * 32 * 32) * 8
        assert "dense" in repr(session)

    def test_paper_arch3_keeps_the_fft_kernel(self):
        ops = InferenceSession.freeze(
            zoo.build_arch3(rng=np.random.default_rng(0))
        ).ops
        assert bc_conv_names(ops) == [
            "bc_conv(64->128,k=3,b=32,fft)+relu",
            "bc_conv(128->128,k=3,b=32,fft)+relu",
        ]
        assert sum(op.expanded_nbytes for op in ops) == 0

    def test_cap_overrides_the_ratio(self):
        # b=2 is deep in dense territory by op count (the FFT saves
        # nothing), but 256 x 2304 doubles do not fit the cap.
        p, q, b = grid(256, 256, 2)
        assert p * b * q * b * 8 > DENSE_EXPANSION_CAP_BYTES
        assert bc_conv_kernel(p, q, b) == "fft"
        assert bc_conv_kernel(*grid(32, 32, 2)) == "dense"

    def test_cap_is_taken_at_the_plan_dtype(self):
        # 128 x 1152: 1152 KiB of doubles, 576 KiB of floats.
        p, q, b = grid(128, 128, 8)
        assert bc_conv_kernel(p, q, b, np.float64) == "fft"
        assert bc_conv_kernel(p, q, b, np.float32) == "dense"

    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    @pytest.mark.parametrize(
        "c_in,c_out,b", [(16, 32, 8), (5, 6, 4), (32, 32, 32), (64, 128, 32)]
    )
    def test_model_and_artifact_choose_identically(
        self, rng, precision, c_in, c_out, b
    ):
        model = Sequential(
            BlockCirculantConv2d(c_in, c_out, 3, b, padding=1, rng=rng), ReLU()
        ).eval()
        from_model = InferenceSession.freeze(model, precision=precision)
        from_artifact = InferenceSession.from_deployed(
            DeployedModel.from_model(model), precision=precision
        )
        assert from_model.describe() == from_artifact.describe()
        real_dtype = PrecisionPolicy.resolve(precision).real_dtype
        want = bc_conv_kernel(*grid(c_in, c_out, b), real_dtype)
        assert from_model.describe() == [
            f"bc_conv({c_in}->{c_out},k=3,b={b},{want})+relu"
        ]


def small_conv_net(rng):
    return Sequential(
        BlockCirculantConv2d(4, 8, 3, 4, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(8 * 3 * 3, 5, rng=rng),
    ).eval()


class TestKernelIsVisible:
    def test_routes_show_kernel_and_expanded_bytes(self, rng):
        with Engine(model=small_conv_net(rng), profile=True) as engine:
            engine.predict_proba(rng.normal(size=(2, 4, 6, 6)))
            (route,) = engine.describe_routes().values()
        assert route["ops"][0] == "bc_conv(4->8,k=3,b=4,dense)+relu"
        assert route["expanded_weight_nbytes"] == 9 * 4 * 8 * 8
        assert route["arena"]["nbytes"] > 0
        # the profile kind is the name up to "(", kernel or not
        assert "bc_conv" in route["op_stats"]
        assert not any("dense" in kind for kind in route["op_stats"])

    def test_profile_line_reports_expanded_weights(self, rng, tmp_path, capsys):
        artifact = tmp_path / "net.npz"
        DeployedModel.from_model(small_conv_net(rng)).save(artifact)
        data = tmp_path / "x.npy"
        np.save(data, rng.normal(size=(2, 4, 6, 6)))
        assert main(
            ["predict", str(artifact), "--data", str(data), "--profile"]
        ) == 0
        err = capsys.readouterr().err
        (line,) = [ln for ln in err.splitlines() if ln.startswith("arena:")]
        assert "reserved=" in line
        assert f"expanded_weights={9 * 4 * 8 * 8 / 1024:.1f} KiB" in line
        assert "bc_conv " in err
