"""Engine executor policy: auto heuristic, env default, shared pool."""

import numpy as np
import pytest

import repro.engine.config as config_mod
from repro.cli import build_parser
from repro.engine import Engine, EngineConfig
from repro.exceptions import ConfigurationError
from repro.nn import BlockCirculantLinear, Linear, ReLU, Sequential
from repro.runtime import ThreadWorkerPool, ThreadedExecutor


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        BlockCirculantLinear(96, 64, 8, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    ).eval()


class TestConfigPolicy:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        config = EngineConfig()
        assert config.executor == "serial"
        assert config.resolve_executor() == "serial"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threaded")
        assert EngineConfig().executor == "threaded"

    def test_explicit_executor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threaded")
        assert EngineConfig(executor="serial").executor == "serial"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "gpu")
        with pytest.raises(ConfigurationError, match="executor must be"):
            EngineConfig()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor must be"):
            EngineConfig(executor="gpu")

    def test_auto_resolves_threaded_on_multicore(self, monkeypatch):
        monkeypatch.setattr(config_mod, "effective_cpu_count", lambda: 4)
        assert EngineConfig(executor="auto").resolve_executor() == "threaded"

    def test_auto_resolves_serial_on_one_core(self, monkeypatch):
        monkeypatch.setattr(config_mod, "effective_cpu_count", lambda: 1)
        assert EngineConfig(executor="auto").resolve_executor() == "serial"

    def test_threads_validation(self):
        with pytest.raises(ConfigurationError, match="threads must be >= 1"):
            EngineConfig(threads=0)

    def test_resolve_threads_precedence(self, monkeypatch):
        monkeypatch.setattr(config_mod, "effective_cpu_count", lambda: 6)
        assert EngineConfig(threads=3).resolve_threads() == 3
        assert EngineConfig().resolve_threads() == 6

    def test_describe_reports_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        desc = EngineConfig(
            executor="threaded", threads=2, profile=True
        ).describe()
        assert desc["executor"] == "threaded"
        assert desc["resolved_executor"] == "threaded"
        assert desc["threads"] == 2
        assert desc["profile"] is True


class TestRemovedOptionsRejected:
    """The fork pool, its transports and block-row sharding are gone;
    nothing that selected them is accepted any more."""

    def test_sharded_executor_kind_rejected_naming_the_valid_kinds(
        self, monkeypatch
    ):
        with pytest.raises(ConfigurationError) as excinfo:
            EngineConfig(executor="sharded")
        for kind in ("auto", "serial", "threaded"):
            assert kind in str(excinfo.value)
        monkeypatch.setenv("REPRO_EXECUTOR", "sharded")
        with pytest.raises(ConfigurationError, match="executor must be"):
            EngineConfig()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 2),
            ("transport", "shm"),
            ("shard_mode", "rows"),
            ("row_shards", 2),
            ("fault_timeout_s", 5.0),
        ],
    )
    def test_removed_config_fields_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            EngineConfig(**{field: value})
        with pytest.raises(TypeError, match=field):
            Engine(model=small_model(), **{field: value})

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "m.npz", "--workers", "2"],
            ["serve", "m.npz", "--transport", "shm"],
            ["serve", "m.npz", "--executor", "sharded"],
            ["predict", "m.npz", "--data", "x.npy", "--workers", "2"],
        ],
    )
    def test_removed_cli_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestEngineSharedPool:
    def test_threaded_routes_share_one_workpool(self, rng):
        with Engine(
            model=small_model(),
            precisions=("fp64", "fp32"),
            executor="threaded",
            threads=2,
        ) as engine:
            s64 = engine.session(precision="fp64")
            s32 = engine.session(precision="fp32")
            assert isinstance(s64.executor, ThreadedExecutor)
            assert s64.executor.pool is s32.executor.pool
            assert s64.executor.pool is engine._workpool

    def test_threaded_engine_matches_serial_engine(self, rng):
        model = small_model()
        x = rng.normal(size=(21, 96))
        with Engine(model=model, executor="serial") as serial, Engine(
            model=model, executor="threaded", threads=2
        ) as threaded:
            for precision in ("fp64",):
                assert np.array_equal(
                    threaded.predict_proba(x, batch_size=4),
                    serial.predict_proba(x, batch_size=4),
                )
                assert np.array_equal(
                    threaded.predict(x), serial.predict(x)
                )

    def test_health_reports_shared_pool(self):
        with Engine(
            model=small_model(), executor="threaded", threads=2
        ) as engine:
            engine.session()
            pool = engine.executor_info()["shared_pool"]
            assert pool["kind"] == "thread"
            assert pool["workers"] == 2

    def test_serial_engine_has_no_pool(self):
        with Engine(model=small_model(), executor="serial") as engine:
            assert engine._workpool is None
            info = engine.executor_info()
            assert info["kind"] == "serial"
            assert info["workers"] == 1
            assert info["shared_pool"] is None

    def test_executor_info_threaded(self):
        with Engine(
            model=small_model(), executor="threaded", threads=2
        ) as engine:
            info = engine.executor_info()
            assert info["requested"] == "threaded"
            assert info["kind"] == "threaded"
            assert info["workers"] == 2
            assert info["shared_pool"]["kind"] == "thread"

    def test_close_closes_shared_pool(self):
        engine = Engine(model=small_model(), executor="threaded", threads=2)
        pool = engine._workpool
        engine.session()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.ensure_started()

    def test_env_driven_threaded_engine_end_to_end(self, rng, monkeypatch):
        # The CI lane's shape: REPRO_EXECUTOR=threaded with no explicit
        # executor anywhere in the code path.
        monkeypatch.setenv("REPRO_EXECUTOR", "threaded")
        model = small_model()
        x = rng.normal(size=(9, 96))
        with Engine(model=model) as engine:
            assert isinstance(engine._workpool, ThreadWorkerPool)
            monkeypatch.delenv("REPRO_EXECUTOR")
            with Engine(model=model, executor="serial") as serial:
                assert np.array_equal(
                    engine.predict_proba(x, batch_size=3),
                    serial.predict_proba(x, batch_size=3),
                )


class TestEngineProfiling:
    def test_profile_surfaces_op_stats_in_routes(self, rng):
        with Engine(
            model=small_model(), executor="threaded", threads=2, profile=True
        ) as engine:
            engine.predict_proba(rng.normal(size=(8, 96)), batch_size=2)
            routes = engine.describe_routes()
            stats = routes["default/fp64"]["op_stats"]
            assert "bc_linear" in stats
            assert stats["bc_linear"]["total_ns"] > 0

    def test_profile_on_serial_engine(self, rng):
        with Engine(model=small_model(), profile=True) as engine:
            engine.predict(rng.normal(size=(4, 96)))
            stats = engine.session().executor.op_stats()
            assert "bc_linear" in stats and "linear" in stats

    def test_no_profile_no_op_stats_key(self, rng):
        with Engine(model=small_model()) as engine:
            engine.predict(rng.normal(size=(4, 96)))
            assert "op_stats" not in engine.describe_routes()["default/fp64"]
