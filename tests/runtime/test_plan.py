"""One way to freeze a plan: one layer walker, one body per op, no knobs.

A live model and its deployment artifact reach a frozen plan through
the same records (:func:`~repro.runtime.plan.model_records`) and the
same compiler, so they freeze to the same plan; the options that used
to pick between plan variants are gone and are refused.
"""

import numpy as np
import pytest

from repro import zoo
from repro.cli import main
from repro.embedded import DeployedModel
from repro.engine import EngineConfig
from repro.exceptions import DeploymentError
from repro.nn import Linear, Module, ReLU, Sequential
from repro.runtime import InferenceSession, model_records

#: ``describe()`` of each zoo architecture at its default arguments,
#: identical at fp64 and fp32 and through ``freeze`` and
#: ``from_deployed`` alike.
GOLDEN = {
    "arch1": [
        "bc_linear(256->128,b=64)+relu",
        "bc_linear(128->128,b=64)+relu",
        "linear(128->10)",
    ],
    "arch2": [
        "bc_linear(121->64,b=32)+relu",
        "bc_linear(64->64,b=32)+relu",
        "linear(64->10)",
    ],
    "arch3": [
        "conv(3->64,k=3)+relu",
        "conv(64->64,k=3)+relu",
        "maxpool(k=2)",
        "bc_conv(64->128,k=3,b=32,fft)+relu",
        "bc_conv(128->128,k=3,b=32,fft)+relu",
        "maxpool(k=2)+flatten",
        "bc_linear(8192->512,b=128)+relu",
        "bc_linear(512->1024,b=128)+relu",
        "bc_linear(1024->1024,b=128)+relu",
        "linear(1024->10)",
    ],
    "arch3_reduced": [
        "conv(3->16,k=3)+relu",
        "conv(16->16,k=3)+relu",
        "maxpool(k=2)",
        "bc_conv(16->32,k=3,b=8,dense)+relu",
        "bc_conv(32->32,k=3,b=8,dense)+relu",
        "maxpool(k=2)+flatten",
        "bc_linear(2048->128,b=32)+relu",
        "bc_linear(128->128,b=32)+relu",
        "linear(128->10)",
    ],
    "fftnet": [
        "fft1d(1->32,d=8)+relu",
        "fft1d(32->32,d=4)+relu",
        "fft1d(32->32,d=2)+relu",
        "fft1d(32->32,d=1)+relu",
        "pointwise1d(32->32)+relu",
        "pointwise1d(32->16)",
    ],
}


class TestOneWalker:
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    @pytest.mark.parametrize("arch", sorted(GOLDEN))
    def test_zoo_plans_are_golden_through_both_doors(self, arch, precision):
        model = getattr(zoo, f"build_{arch}")(rng=np.random.default_rng(0))
        model.eval()
        frozen = InferenceSession.freeze(model, precision=precision)
        deployed = InferenceSession.from_deployed(
            DeployedModel.from_model(model), precision=precision
        )
        assert frozen.describe() == GOLDEN[arch]
        assert deployed.describe() == GOLDEN[arch]

    def test_artifact_records_are_the_walk_cast_to_storage(self):
        model = zoo.build_arch3_reduced(rng=np.random.default_rng(0)).eval()
        walked = model_records(model)
        stored = DeployedModel.from_model(model).records
        assert [r["kind"] for r in walked] == [r["kind"] for r in stored]
        for native, record in zip(walked, stored):
            for key, value in record.items():
                if not isinstance(value, np.ndarray):
                    assert native[key] == value, key
                elif key == "spectra":
                    assert value.dtype == np.complex64
                    assert np.array_equal(value, native[key].astype(np.complex64))
                else:
                    assert value.dtype == np.float32
                    assert np.array_equal(value, native[key].astype(np.float32))
            # block-circulant artifacts keep the spectra, not the vectors
            if "spectra" in record:
                assert "weight" not in record

    def test_walker_spectra_come_from_the_layer_cache(self):
        model = zoo.build_arch1(rng=np.random.default_rng(0)).eval()
        (record, *_) = model_records(model)
        assert record["spectra"] is model[0].weight_spectra()[0]

    def test_unknown_layer_type_is_refused(self):
        class Custom(Module):
            def forward(self, x):
                return x

        model = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), Custom())
        with pytest.raises(DeploymentError, match="cannot freeze layer type"):
            model_records(model)
        with pytest.raises(DeploymentError, match="cannot freeze layer type"):
            InferenceSession.freeze(model)
        with pytest.raises(DeploymentError, match="cannot freeze layer type"):
            DeployedModel.from_model(model)


@pytest.fixture
def small_model():
    return Sequential(Linear(4, 3, rng=np.random.default_rng(0)), ReLU()).eval()


class TestRemovedOptionsAreRefused:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("conv_tile", 2),
            ("arena", False),
            ("batch_buckets", (1, 4)),
            ("fuse", False),
        ],
    )
    def test_engine_config_fields(self, small_model, field, value):
        with pytest.raises(TypeError, match=field):
            EngineConfig(model=small_model, **{field: value})

    @pytest.mark.parametrize(
        "option", [{"arena": False}, {"fuse": False}, {"conv_tile": 2}]
    )
    def test_session_constructors(self, small_model, option):
        with pytest.raises(TypeError):
            InferenceSession.freeze(small_model, **option)
        with pytest.raises(TypeError):
            InferenceSession.from_deployed(
                DeployedModel.from_model(small_model), **option
            )

    @pytest.mark.parametrize("command", ["predict", "serve"])
    @pytest.mark.parametrize(
        "flags", [["--no-arena"], ["--no-fuse"], ["--conv-tile", "4"]]
    )
    def test_cli_flags_exit_2(self, command, flags, capsys):
        argv = [command, "model.npz"]
        if command == "predict":
            argv += ["--data", "x.npy"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_save_writes_format_v2_only(self, small_model, tmp_path):
        deployed = DeployedModel.from_model(small_model)
        with pytest.raises(TypeError):
            deployed.save(tmp_path / "v1.npz", version=1)
        deployed.save(tmp_path / "v2.npz")
        assert DeployedModel.load(tmp_path / "v2.npz").source_version == 2
