"""EngineConfig: declarative validation and resolution rules."""

import numpy as np
import pytest

from repro.engine import DEFAULT_MODEL_NAME, EngineConfig
from repro.exceptions import ConfigurationError
from repro.zoo import build_arch1


@pytest.fixture(scope="module")
def model():
    return build_arch1(rng=np.random.default_rng(0)).eval()


class TestModelRegistry:
    def test_single_model_registers_under_default_name(self, model):
        config = EngineConfig(model=model)
        assert sorted(config.models) == [DEFAULT_MODEL_NAME]
        assert config.default_model == DEFAULT_MODEL_NAME
        assert config.resolve_model(None) == DEFAULT_MODEL_NAME

    def test_named_registry_single_entry_becomes_default(self, model):
        config = EngineConfig(models={"mnist": model})
        assert config.default_model == "mnist"

    def test_model_and_models_are_mutually_exclusive(self, model):
        with pytest.raises(ConfigurationError, match="not both"):
            EngineConfig(model=model, models={"a": model})

    def test_several_models_require_explicit_default(self, model):
        with pytest.raises(ConfigurationError, match="default_model"):
            EngineConfig(models={"a": model, "b": model})
        config = EngineConfig(models={"a": model, "b": model},
                              default_model="b")
        assert config.resolve_model(None) == "b"
        assert config.resolve_model("a") == "a"

    def test_unknown_default_model_rejected(self, model):
        with pytest.raises(ConfigurationError, match="not registered"):
            EngineConfig(models={"a": model}, default_model="z")

    def test_unknown_model_resolution_names_the_registry(self, model):
        config = EngineConfig(models={"a": model, "b": model},
                              default_model="a")
        with pytest.raises(ConfigurationError, match=r"unknown model 'c'"):
            config.resolve_model("c")

    def test_bogus_source_rejected(self):
        with pytest.raises(ConfigurationError, match="expected an artifact"):
            EngineConfig(model=42)

    def test_path_source_accepted(self):
        config = EngineConfig(model="some/artifact.npz")
        assert config.describe()["models"][DEFAULT_MODEL_NAME].endswith(
            "artifact.npz"
        )


class TestPrecisions:
    def test_default_pool_is_fp64(self, model):
        config = EngineConfig(model=model)
        assert config.precisions == ("fp64",)
        assert config.precision == "fp64"
        assert config.resolve_precision(None) == "fp64"

    def test_two_precision_pool_and_default(self, model):
        config = EngineConfig(model=model, precisions=("fp64", "fp32"))
        assert config.resolve_precision("fp32") == "fp32"
        assert config.resolve_precision(None) == "fp64"

    def test_unpooled_precision_rejected_at_resolution(self, model):
        config = EngineConfig(model=model)
        with pytest.raises(ConfigurationError, match="not pooled"):
            config.resolve_precision("fp32")

    def test_unknown_precision_rejected_at_construction(self, model):
        with pytest.raises(ValueError):
            EngineConfig(model=model, precisions=("fp61",))

    def test_default_precision_must_be_pooled(self, model):
        with pytest.raises(ConfigurationError, match="not in the pool"):
            EngineConfig(model=model, precisions=("fp64",), precision="fp32")

    def test_duplicate_precisions_rejected(self, model):
        with pytest.raises(ConfigurationError, match="duplicate"):
            EngineConfig(model=model, precisions=("fp64", "fp64"))


class TestExecutorPolicy:
    def test_invalid_choices_rejected(self, model):
        with pytest.raises(ConfigurationError, match="executor"):
            EngineConfig(model=model, executor="gpu")
        with pytest.raises(ConfigurationError, match="threads"):
            EngineConfig(model=model, threads=0)

    def test_batching_limits_validated(self, model):
        with pytest.raises(ConfigurationError, match="max_batch"):
            EngineConfig(model=model, max_batch=0)
        with pytest.raises(ConfigurationError, match="max_wait_ms"):
            EngineConfig(model=model, max_wait_ms=-1)

    def test_row_bound_validated(self, model):
        with pytest.raises(ConfigurationError, match="max_queue_rows"):
            EngineConfig(model=model, max_queue_rows=0)


class TestDescribe:
    def test_describe_is_jsonable_and_complete(self, model):
        import json

        config = EngineConfig(model=model, precisions=("fp64", "fp32"),
                              executor="threaded", threads=3)
        desc = json.loads(json.dumps(config.describe()))
        assert desc["precisions"] == ["fp64", "fp32"]
        assert desc["executor"] == "threaded"
        assert desc["threads"] == 3
        assert desc["models"][DEFAULT_MODEL_NAME] == "Sequential"


class TestErrorTypes:
    def test_unknown_precision_is_a_configuration_error(self, model):
        # The serving front-end answers ConfigurationError as a clean
        # error frame; a bare ValueError would surface as an opaque
        # "internal error" to clients.
        config = EngineConfig(model=model)
        with pytest.raises(ConfigurationError):
            config.resolve_precision("fp16")
        with pytest.raises(ConfigurationError):
            EngineConfig(model=model, precisions=("fp16",))
