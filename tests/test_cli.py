"""Tests for the command-line interface (Fig. 4 workflow as a tool)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import bilinear_resize, flatten_images, load_synthetic_mnist
from repro.io import save_inputs

ARCH = "121-64CFb32-64CFb32-10F"


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train, test = load_synthetic_mnist(train_size=300, test_size=80, seed=0)

    def preprocess(images):
        return flatten_images(bilinear_resize(images, 11, 11))

    train_path = root / "train.npz"
    test_path = root / "test.npz"
    save_inputs(train_path, preprocess(train.inputs), train.labels)
    save_inputs(test_path, preprocess(test.inputs), test.labels)
    return root, train_path, test_path


@pytest.fixture(scope="module")
def trained_checkpoint(data_files):
    root, train_path, _ = data_files
    checkpoint = root / "ckpt.npz"
    code = main([
        "train", ARCH, "--data", str(train_path), "--out", str(checkpoint),
        "--epochs", "4", "--lr", "0.005",
    ])
    assert code == 0
    return checkpoint


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(
            ["train", ARCH, "--data", "d.npz", "--out", "o.npz"]
        )
        assert args.command == "train"
        assert args.epochs == 10

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "model.npz", "--port", "0", "--executor", "threaded",
             "--threads", "2", "--max-batch", "8"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.executor == "threaded"
        assert args.threads == 2
        assert args.max_batch == 8
        assert args.max_wait_ms == 2.0

    def test_serve_rejects_bad_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "model.npz", "--executor", "smoke-signals"]
            )


class TestTrain:
    def test_creates_checkpoint(self, trained_checkpoint):
        assert trained_checkpoint.exists()

    def test_missing_labels_fails(self, data_files, capsys):
        root, _, _ = data_files
        unlabeled = root / "unlabeled.npz"
        save_inputs(unlabeled, np.zeros((4, 121)))
        code = main([
            "train", ARCH, "--data", str(unlabeled),
            "--out", str(root / "x.npz"),
        ])
        assert code == 2


class TestDeployPredict:
    def test_deploy_then_predict(self, data_files, trained_checkpoint, capsys):
        root, _, test_path = data_files
        artifact = root / "model.npz"
        assert main([
            "deploy", ARCH, "--weights", str(trained_checkpoint),
            "--out", str(artifact),
        ]) == 0
        assert artifact.exists()
        capsys.readouterr()

        assert main(["predict", str(artifact), "--data", str(test_path)]) == 0
        captured = capsys.readouterr()
        predictions = captured.out.strip().splitlines()[0].split()
        assert len(predictions) == 80
        assert all(p.isdigit() and 0 <= int(p) <= 9 for p in predictions)
        assert "accuracy:" in captured.err

    def test_predict_proba(self, data_files, trained_checkpoint, capsys):
        root, _, test_path = data_files
        artifact = root / "model2.npz"
        main(["deploy", ARCH, "--weights", str(trained_checkpoint),
              "--out", str(artifact)])
        capsys.readouterr()
        assert main([
            "predict", str(artifact), "--data", str(test_path), "--proba"
        ]) == 0
        first_row = capsys.readouterr().out.strip().splitlines()[0].split()
        values = [float(v) for v in first_row]
        assert len(values) == 10
        assert sum(values) == pytest.approx(1.0, abs=1e-3)


class TestServeCommand:
    def test_serve_end_to_end(self, data_files, trained_checkpoint):
        import os
        import re
        import subprocess
        import sys as _sys

        root, _, test_path = data_files
        artifact = root / "model_serve.npz"
        assert main([
            "deploy", ARCH, "--weights", str(trained_checkpoint),
            "--out", str(artifact),
        ]) == 0

        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", str(artifact),
             "--port", "0", "--max-batch", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.match(r"serving on (\S+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            from repro.io import load_inputs
            from repro.embedded import DeployedModel
            from repro.serving import ServeClient

            inputs, _ = load_inputs(test_path)
            from repro.engine import Engine

            engine = Engine(model=DeployedModel.load(artifact))
            session = engine.session()
            with ServeClient(match.group(1), int(match.group(2))) as client:
                assert client.ping()
                served = client.predict_proba(inputs)
                labels = client.predict(inputs)
            assert np.array_equal(served, session.predict_proba(inputs))
            assert np.array_equal(labels, session.predict(inputs))
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


class TestProfileInfo:
    def test_profile_lists_all_cells(self, capsys):
        assert main(["profile", ARCH]) == 0
        out = capsys.readouterr().out
        for platform in ("nexus5", "xu3", "honor6x"):
            assert out.count(platform) == 2  # java + cpp rows

    def test_profile_battery_flag(self, capsys):
        assert main(["profile", ARCH, "--battery"]) == 0
        assert "(battery)" in capsys.readouterr().out

    def test_info_reports_compression(self, capsys):
        assert main(["info", ARCH]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "x" in out.splitlines()[-1]


class TestServeEngineFlags:
    """The engine-era serve surface: --model name=path, --precisions."""

    def test_repeatable_model_flag_parses(self):
        args = build_parser().parse_args(
            ["serve", "--model", "mnist=a.npz", "--model", "cifar=b.npz",
             "--precisions", "fp64,fp32"]
        )
        assert args.model is None
        assert args.models == ["mnist=a.npz", "cifar=b.npz"]
        assert args.precisions == "fp64,fp32"

    def test_positional_artifact_still_accepted(self):
        args = build_parser().parse_args(["serve", "model.npz"])
        assert args.model == "model.npz"
        assert args.models == []
        assert args.precisions is None

    def test_no_model_is_an_error(self, capsys):
        assert main(["serve"]) == 2
        assert "no model" in capsys.readouterr().err

    def test_registry_parsing(self):
        from types import SimpleNamespace

        from repro.cli import _parse_model_registry

        args = SimpleNamespace(model=None,
                               models=["a=x.npz", "b=y.npz"])
        models, default = _parse_model_registry(args)
        assert models == {"a": "x.npz", "b": "y.npz"}
        assert default == "a"
        # A bare --model PATH registers as the default name.
        args = SimpleNamespace(model=None, models=["plain.npz"])
        models, default = _parse_model_registry(args)
        assert default in models and models[default] == "plain.npz"
        # Duplicates are rejected.
        args = SimpleNamespace(model="pos.npz", models=["lone.npz"])
        with pytest.raises(ValueError, match="twice"):
            _parse_model_registry(args)

    def test_multi_model_serve_end_to_end(self, data_files,
                                          trained_checkpoint, tmp_path):
        # Two names backed by the same artifact, served from one port,
        # routed per request; fp32 requests hit the pooled fp32 session.
        root, _, test_path = data_files
        artifact = root / "model_multi.npz"
        assert main([
            "deploy", ARCH, "--weights", str(trained_checkpoint),
            "--out", str(artifact),
        ]) == 0

        import os
        import re
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve",
             "--model", f"alpha={artifact}",
             "--model", f"beta={artifact}",
             "--precisions", "fp64,fp32",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.match(r"serving on (\S+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            from repro.embedded import DeployedModel
            from repro.engine import Engine
            from repro.io import load_inputs
            from repro.serving import ServeClient

            inputs, _ = load_inputs(test_path)
            with Engine(model=DeployedModel.load(artifact),
                        precisions=("fp64", "fp32")) as engine:
                expected64 = engine.predict_proba(inputs)
                expected32 = engine.predict_proba(inputs, precision="fp32")
                with ServeClient(match.group(1), int(match.group(2))) as c:
                    a64 = c.predict_proba(inputs, model="alpha")
                    b64 = c.predict_proba(inputs, model="beta")
                    a32 = c.predict_proba(inputs, model="alpha",
                                          precision="fp32")
                assert np.array_equal(a64, expected64)
                assert np.array_equal(b64, expected64)
                assert a32.dtype == np.float32
                assert np.array_equal(a32, expected32)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


class TestServePrecisionFlags:
    def test_bad_precisions_value_errors_cleanly(self, capsys):
        assert main(["serve", "m.npz", "--precisions", "fp16"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_duplicate_precisions_error_cleanly(self, capsys):
        assert main(["serve", "m.npz", "--precisions", "fp64,fp64"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_comma_only_precisions_error_cleanly(self, capsys):
        assert main(["serve", "m.npz", "--precisions", ","]) == 2
        assert "at least one precision" in capsys.readouterr().err

    def test_precisions_alone_sets_pool_and_default(self, monkeypatch):
        # --precisions fp32 with no --precision must NOT re-add fp64:
        # the pool is exactly fp32 and fp32 is the default.
        captured = {}

        from repro.engine import Engine

        def fake_serve(self, host="127.0.0.1", port=None, on_ready=None):
            captured["precisions"] = self.config.precisions
            captured["precision"] = self.config.precision

        monkeypatch.setattr(Engine, "serve", fake_serve)
        monkeypatch.setattr(Engine, "load_sources", lambda self: self)
        assert main(["serve", "m.npz", "--precisions", "fp32"]) == 0
        assert captured["precisions"] == ("fp32",)
        assert captured["precision"] == "fp32"

    def test_explicit_precision_joins_the_pool(self, monkeypatch):
        captured = {}

        from repro.engine import Engine

        def fake_serve(self, host="127.0.0.1", port=None, on_ready=None):
            captured["precisions"] = self.config.precisions
            captured["precision"] = self.config.precision

        monkeypatch.setattr(Engine, "serve", fake_serve)
        monkeypatch.setattr(Engine, "load_sources", lambda self: self)
        assert main(["serve", "m.npz", "--precisions", "fp32",
                     "--precision", "fp64"]) == 0
        assert captured["precisions"] == ("fp64", "fp32")
        assert captured["precision"] == "fp64"


class TestServeFaultSurface:
    def test_port_collision_exits_2_with_clean_error(self, monkeypatch,
                                                     capsys):
        import socket

        from repro.engine import Engine

        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        busy_port = holder.getsockname()[1]

        def fake_serve(self, host="127.0.0.1", port=None, on_ready=None):
            probe = socket.socket()
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind((host, port))
            finally:
                probe.close()

        monkeypatch.setattr(Engine, "serve", fake_serve)
        monkeypatch.setattr(Engine, "load_sources", lambda self: self)
        try:
            assert main(["serve", "m.npz", "--port", str(busy_port)]) == 2
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["serve", "m.npz"], ["route", "--backend", "127.0.0.1:1"]],
        ids=["serve", "route"],
    )
    def test_bad_fault_spec_exits_2(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "*3")
        assert main(argv) == 2
        assert "bad REPRO_FAULTS" in capsys.readouterr().err

    def test_fault_spec_armed_before_engine(self, monkeypatch):
        from repro.engine import Engine
        from repro.testing import faults

        captured = {}

        def fake_serve(self, host="127.0.0.1", port=None, on_ready=None):
            captured["armed"] = faults.is_armed("server.delay_response")

        monkeypatch.setenv(
            "REPRO_FAULTS", "server.delay_response:seconds=0.01"
        )
        monkeypatch.setattr(Engine, "serve", fake_serve)
        monkeypatch.setattr(Engine, "load_sources", lambda self: self)
        try:
            assert main(["serve", "m.npz"]) == 0
        finally:
            faults.reset()
        assert captured["armed"] is True


class TestBuildCommand:
    def test_list_archs(self, capsys):
        assert main(["build", "--list-archs"]) == 0
        out = capsys.readouterr().out
        for name in ("arch1", "arch2", "arch3", "arch3_reduced"):
            assert name in out

    def test_build_flags_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "built.npz"
        assert main([
            "build", "--arch", "arch2", "--train-size", "80",
            "--test-size", "30", "--epochs", "1",
            "--quantize-bits", "12", "--out", str(out),
        ]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "train:" in captured
        assert "quantize: 12-bit" in captured
        assert "format v2" in captured

    def test_build_config_file_with_flag_override(self, tmp_path, capsys):
        import json

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "architecture": "16-8F-10F",
            "train_size": 60, "test_size": 24,
            "epochs": 5, "block_size": 4,
        }))
        out = tmp_path / "built.npz"
        assert main([
            "build", "--config", str(config),
            "--epochs", "1", "--out", str(out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "train: 1 epochs" in captured  # flag overrode the file
        assert "compress: block 4" in captured
        assert "quantize: skipped" in captured

    def test_bad_arch_fails_cleanly(self, capsys):
        assert main(["build", "--arch", "not-an-arch!!"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_arch_fails_cleanly(self, capsys):
        assert main(["build"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_fails_before_training(self, capsys):
        # The output path is probed up front: no epochs are spent, and
        # the failure is the CLI's clean `error:` contract, not a
        # traceback after the run.
        assert main([
            "build", "--arch", "arch2", "--train-size", "50000000",
            "--epochs", "1000",
            "--out", "/proc/definitely/not/writable/x.npz",
        ]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "train:" not in captured.out  # never started training


class TestInspectCommand:
    @pytest.fixture(scope="class")
    def built_artifact(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("inspect") / "built.npz"
        assert main([
            "build", "--arch", "arch2", "--train-size", "60",
            "--test-size", "24", "--epochs", "1",
            "--quantize-bits", "12", "--out", str(out),
            "--precisions", "fp64,fp32",
        ]) == 0
        return out

    def test_inspect_table(self, built_artifact, capsys):
        capsys.readouterr()
        assert main(["inspect", str(built_artifact)]) == 0
        out = capsys.readouterr().out
        assert "format: v2 (quantized)" in out
        assert "bc_linear" in out
        assert "Q" in out  # qformat column
        assert "config hash" in out
        assert "target precisions: fp64,fp32" in out

    def test_inspect_json(self, built_artifact, capsys):
        import json

        capsys.readouterr()
        assert main(["inspect", str(built_artifact), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["quantized"] is True
        assert payload["metadata"]["quantization"]["total_bits"] == 12

    def test_inspect_v1_artifact(self, data_files, trained_checkpoint,
                                 capsys, tmp_path):
        artifact = tmp_path / "v1_style.npz"
        assert main([
            "deploy", ARCH, "--weights", str(trained_checkpoint),
            "--out", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "format: v2" in out  # deploy now writes v2 (unquantized)
        assert "(quantized)" not in out

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/tmp/definitely-absent.npz"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeFailFast:
    def test_missing_artifact_exits_cleanly_before_banner(self, capsys):
        assert main(["serve", "/tmp/definitely-missing.npz",
                     "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "serving on" not in captured.out  # never looked ready
