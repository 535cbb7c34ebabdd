import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import befaas
from befaas.compiler import (
    compile_deployment,
    function_endpoint,
    read_service,
    validate,
)
from befaas.errors import ValidationFailure
from befaas.webshop import build_app

APP = build_app()


def single_platform_config(**overrides):
    config = {
        "functions": {fn: {"platform": "a"} for fn in APP.function_names},
        "platforms": {"a": {"profile": "scaler", "port": 9001}},
        "external_services": {"kv": "http://127.0.0.1:9900/kv"},
        "load_profile": "default-60s",
        "seed": 1,
    }
    config.update(overrides)
    return config


def split_config():
    config = single_platform_config()
    config["platforms"]["b"] = {"profile": "queuer", "port": 9002}
    for fn in APP.function_names:
        if fn != "frontend":
            config["functions"][fn] = {"platform": "b"}
    return config


class TestValidate:
    def test_valid_seventeen_function_single_platform(self):
        assert validate(APP.function_names, single_platform_config()) == []

    def test_duplicate_name(self):
        violations = validate(["frontend", "frontend"], single_platform_config())
        assert any("duplicate name" in v for v in violations)

    def test_missing_mapping(self):
        config = single_platform_config()
        del config["functions"]["email"]
        violations = validate(APP.function_names, config)
        assert any("missing mapping: email" in v for v in violations)

    def test_missing_mappings_follow_the_application_function_order(self):
        # A fixed hash seed, so that an order taken from a set shows here.
        script = ("from befaas.compiler import validate\n"
                  "from befaas.webshop import build_app\n"
                  "print('\\n'.join(validate(build_app().function_names, {'functions': {},"
                  " 'platforms': {}})))\n")
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(Path(befaas.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        missing = [line.removeprefix("missing mapping: ") for line in done.stdout.splitlines()
                   if line.startswith("missing mapping: ")]
        assert missing == list(APP.function_names)

    def test_unknown_platform_reference(self):
        config = single_platform_config()
        config["functions"]["email"] = {"platform": "ghost"}
        violations = validate(APP.function_names, config)
        assert any("unknown platform" in v for v in violations)

    def test_collects_all_violations_not_fail_fast(self):
        config = single_platform_config()
        del config["functions"]["email"]
        config["functions"]["payment"] = {"platform": "ghost"}
        violations = validate(APP.function_names, config)
        assert len(violations) >= 2

    def test_bad_external_service_entry(self):
        for entry in [
            42, "ftp://127.0.0.1/kv", "unmanaged", {"endpoint": "http://127.0.0.1:9900/kv"},
            {"managed": False}, {"managed": True, "query_delay_ms": -1},
            {"managed": True, "query_delay_ms": "x"}, {"managed": True, "query_delay_ms": True},
            {"managed": True, "query_delay_ms": float("inf")}, {"managed": True, "delay": 1},
        ]:
            config = single_platform_config(external_services={"kv": entry})
            violations = validate(APP.function_names, config)
            assert len(violations) == 1, entry
            assert violations[0].startswith("external service kv: "), entry

    @pytest.mark.parametrize("entry, target", [
        ("http://127.0.0.1:9900/kv", "http://127.0.0.1:9900/kv"), ("managed", 0.0),
        ({"managed": True}, 0.0), ({"managed": True, "query_delay_ms": 8}, 8.0),
        ({"managed": True, "query_delay_ms": 0.5}, 0.5),
    ])
    def test_service_entry_is_a_url_or_a_query_delay(self, entry, target):
        assert read_service(entry) == target
        assert validate(APP.function_names, single_platform_config(
            external_services={"kv": entry})) == []

    def test_unknown_app_checks_everything_but_the_names(self):
        config = single_platform_config(external_services={"kv": "unmanaged"})
        config["functions"]["extra"] = {"platform": "ghost"}
        assert validate(None, config) == [
            "function extra references unknown platform: ghost",
            "external service kv: needs a URL, \"managed\" or "
            "{\"managed\": true, \"query_delay_ms\": ...}, not 'unmanaged'",
        ]


class TestCompile:
    def test_single_platform_endpoints_all_on_one_host(self):
        artifacts = compile_deployment(APP, single_platform_config())
        assert len(artifacts) == 17
        for artifact in artifacts:
            assert set(artifact.endpoint_map) == set(APP.function_names)
            assert all(url.startswith("http://127.0.0.1:9001/fn/") for url in artifact.endpoint_map.values())

    def test_split_deployment_mixes_hosts(self):
        artifacts = {a.fn: a for a in compile_deployment(APP, split_config())}
        frontend_map = artifacts["frontend"].endpoint_map
        assert frontend_map["frontend"].startswith("http://127.0.0.1:9001/")
        assert frontend_map["checkout"].startswith("http://127.0.0.1:9002/")
        # Cross-platform edges resolve identically from both sides.
        assert artifacts["checkout"].endpoint_map == frontend_map

    def test_kv_endpoint_injected_into_every_env(self):
        artifacts = compile_deployment(APP, single_platform_config())
        for artifact in artifacts:
            assert artifact.env["KV"] == "http://127.0.0.1:9900/kv"

    def test_managed_service_gets_a_placeholder(self):
        config = single_platform_config(
            external_services={"kv": {"managed": True, "query_delay_ms": 8}})
        assert {a.env["KV"] for a in compile_deployment(APP, config)} == {"managed"}

    def test_env_overrides_per_function(self):
        config = single_platform_config()
        config["functions"]["frontend"] = {"platform": "a", "env": {"COMPUTE_MS": "5"}}
        artifacts = {a.fn: a for a in compile_deployment(APP, config)}
        assert artifacts["frontend"].env["COMPUTE_MS"] == "5"
        assert "COMPUTE_MS" not in artifacts["email"].env

    def test_compilation_is_pure(self):
        docs_a = [a.to_doc() for a in compile_deployment(APP, single_platform_config())]
        docs_b = [a.to_doc() for a in compile_deployment(APP, single_platform_config())]
        assert json.dumps(docs_a, sort_keys=True) == json.dumps(docs_b, sort_keys=True)

    def test_moving_one_function_changes_only_endpoint_map(self):
        base = {a.fn: a for a in compile_deployment(APP, single_platform_config())}
        moved_config = single_platform_config()
        moved_config["platforms"]["b"] = {"profile": "queuer", "port": 9002}
        moved_config["functions"]["email"] = {"platform": "b"}
        moved = {a.fn: a for a in compile_deployment(APP, moved_config)}
        changed = {
            fn for fn in base if base[fn].endpoint_map != moved[fn].endpoint_map
        }
        assert changed == set(APP.function_names)  # shared map updated everywhere
        for fn in APP.function_names:
            diff = {
                name
                for name in base[fn].endpoint_map
                if base[fn].endpoint_map[name] != moved[fn].endpoint_map[name]
            }
            assert diff == {"email"}
            assert base[fn].env == moved[fn].env

    def test_validation_failures_reraised(self):
        config = single_platform_config()
        del config["functions"]["email"]
        with pytest.raises(ValidationFailure):
            compile_deployment(APP, config)

    def test_endpoint_form(self):
        assert function_endpoint("http://h:1", "frontend") == "http://h:1/fn/frontend"


class TestResolveEndpoint:
    def test_resolve_known(self):
        artifacts = compile_deployment(APP, single_platform_config())
        assert artifacts[0].endpoint_map["checkout"] == "http://127.0.0.1:9001/fn/checkout"

    def test_all_artifacts_agree(self):
        artifacts = compile_deployment(APP, split_config())
        urls = {a.endpoint_map["getcart"] for a in artifacts}
        assert len(urls) == 1
