"""RouterConfig / parse_address validation."""

import pytest

from repro.exceptions import ConfigurationError
from repro.router import RouterConfig, parse_address


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.7:7341") == ("10.0.0.7", 7341)

    def test_hostname(self):
        assert parse_address("backend-3.local:80") == ("backend-3.local", 80)

    def test_bracketed_ipv6_uses_last_colon(self):
        assert parse_address("[::1]:7341") == ("::1", 7341)

    @pytest.mark.parametrize(
        "bad",
        ["", "nohost", "host:", "host:abc", "host:0", "host:70000", ":7341"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)


class TestRouterConfig:
    def test_static_backends(self):
        config = RouterConfig(backends=("a:1", "b:2"))
        assert config.backends == ("a:1", "b:2")
        assert config.spawn == 0

    def test_list_backends_coerced_to_tuple(self):
        config = RouterConfig(backends=["a:1"])
        assert config.backends == ("a:1",)

    def test_bare_string_backends_rejected(self):
        # A string would iterate per character into nonsense addresses.
        with pytest.raises(ConfigurationError, match="single string"):
            RouterConfig(backends="127.0.0.1:7341")

    def test_duplicate_backends_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            RouterConfig(backends=("a:1", "a:1"))

    def test_malformed_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(backends=("nocolon",))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one backend"):
            RouterConfig()

    def test_spawn_needs_models(self):
        with pytest.raises(ConfigurationError, match="model registry"):
            RouterConfig(spawn=2)

    def test_models_need_spawn(self):
        with pytest.raises(ConfigurationError, match="spawn"):
            RouterConfig(backends=("a:1",), models={"m": "p.npz"})

    def test_spawn_fleet(self):
        config = RouterConfig(spawn=3, models={"default": "m.npz"})
        assert config.spawn == 3
        assert config.backends == ()

    def test_negative_spawn_rejected(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(spawn=-1, models={"m": "p"})

    def test_bad_timeouts_rejected(self):
        for field in (
            "probe_interval_s",
            "probe_timeout_s",
            "connect_timeout_s",
            "request_timeout_s",
        ):
            with pytest.raises(ConfigurationError, match=field):
                RouterConfig(backends=("a:1",), **{field: 0})

    def test_bad_pool_and_attempts_rejected(self):
        with pytest.raises(ConfigurationError, match="pool_size"):
            RouterConfig(backends=("a:1",), pool_size=0)
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RouterConfig(backends=("a:1",), max_attempts=0)

    def test_empty_spawn_precisions_rejected(self):
        with pytest.raises(ConfigurationError, match="spawn_precisions"):
            RouterConfig(spawn=1, models={"m": "p"}, spawn_precisions=())

    def test_describe_is_json_able(self):
        import json

        config = RouterConfig(
            backends=("a:1",),
            spawn=0,
        )
        assert json.loads(json.dumps(config.describe()))["backends"] == ["a:1"]


class TestBuildServeCommand:
    def test_command_shape(self):
        from repro.router import build_serve_command

        config = RouterConfig(
            spawn=2,
            models={"default": "m.npz", "alt": "n.npz"},
            spawn_precisions=("fp64", "fp32"),
            spawn_args=("--max-batch", "64"),
        )
        command = build_serve_command(config)
        assert command[1:5] == ["-m", "repro", "serve", "--port"]
        assert command[5] == "0"
        assert "--model" in command
        assert "default=m.npz" in command and "alt=n.npz" in command
        assert command[command.index("--precisions") + 1] == "fp64,fp32"
        assert command[-2:] == ["--max-batch", "64"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("pool_size", True),
        ("max_attempts", True),
        ("max_attempts", 2.5),
        ("port", True),
        ("port", -5),
        ("port", 70000),
        ("port", 7341.0),
        ("max_payload", float("nan")),
        ("max_payload", 1e9),
        ("max_payload", True),
        ("probe_interval_s", float("nan")),
        ("request_timeout_s", float("inf")),
        ("connect_timeout_s", float("inf")),
        ("probe_timeout_s", True),
    ],
    ids=repr,
)
def test_hostile_numbers_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        RouterConfig(backends=("a:1",), **{field: value})
