import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import befaas
from befaas import loadgen
from befaas.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main


@pytest.fixture
def config_file(tmp_path):
    config = {
        "functions": {
            fn: {"platform": "a"}
            for fn in [
                "frontend", "listproducts", "getproduct", "searchproducts",
                "listrecommendations", "getads", "cartkvstorage", "getcart",
                "addcartitem", "emptycart", "currency", "supportedcurrencies",
                "payment", "shipmentquote", "shiporder", "checkout", "email",
            ]
        },
        "platforms": {"a": {"profile": {
            "cold_start_delay_ms": 5,
            "network_delay_ms": 0.5,
            "max_executors": 32,
        }}},
        "external_services": {"kv": "managed"},
        "load_profile": {"phases": [{"duration_s": 3, "rate_start": 1, "rate_end": 1}]},
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_compile_writes_artifacts(config_file, tmp_path, capsys):
    out = tmp_path / "compiled"
    assert main(["compile", "--config", config_file, "--out", str(out)]) == EXIT_OK
    artifacts = json.loads((out / "artifacts.json").read_text())
    assert len(artifacts) == 17
    assert {a["fn"] for a in artifacts} >= {"frontend", "checkout"}
    assert "compiled 17 artifacts" in capsys.readouterr().out


def test_compile_validation_exit_code(tmp_path, capsys):
    config = {"functions": {}, "platforms": {}, "load_profile": "default-60s", "seed": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["compile", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_run_analyze_report_round_trip(config_file, tmp_path, capsys):
    bundle_dir = tmp_path / "bundle"
    assert main(["run", "--config", config_file, "--out", str(bundle_dir)]) == EXIT_OK
    assert (bundle_dir / "events.ndjson").exists()

    analysis_dir = tmp_path / "analysis"
    assert main(["analyze", "--bundle", str(bundle_dir), "--out", str(analysis_dir)]) == EXIT_OK
    for name in ("functions.csv", "breakdown.csv", "coldstarts.csv", "summary.txt"):
        assert (analysis_dir / name).exists()

    assert main(["report", "--bundle", str(bundle_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "per-function execution duration" in out
    assert "frontend" in out


def test_run_runtime_failure_exit_code(config_file, tmp_path, capsys):
    # Point the KV service at a dead endpoint and pre-clobber nothing:
    # the run itself completes (workflows record errors), so break harder:
    # reference an attached platform that is not actually there.
    config = json.loads(Path(config_file).read_text())
    config["platforms"]["a"] = {"admin_endpoint": "http://127.0.0.1:1"}
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "b")])
    assert code == EXIT_RUNTIME
    assert "run failed" in capsys.readouterr().err


def test_seed_and_profile_flags(config_file, tmp_path, monkeypatch):
    blip = loadgen.LoadProfile("blip", (loadgen.Phase(2, 1, 1),))
    monkeypatch.setitem(loadgen.PROFILE_PRESETS, "blip", blip)
    bundle_dir = tmp_path / "seeded"
    code = main(
        [
            "run", "--config", config_file, "--out", str(bundle_dir),
            "--profile", "blip", "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    audit = json.loads((bundle_dir / "audit.json").read_text())
    assert audit["seed"] == 3
    assert audit["profile"] == "blip"
    assert audit["scheduled_workflows"] == 2


def test_run_unknown_profile_is_a_validation_error(config_file, tmp_path, capsys):
    code = main(["run", "--config", config_file, "--out", str(tmp_path / "b"),
                 "--profile", "nosuch"])
    assert code == EXIT_VALIDATION
    assert "validation error: load profile: unknown load profile preset: 'nosuch'" in (
        capsys.readouterr().err)
    assert not (tmp_path / "b").exists()


def test_compile_unknown_app_is_a_validation_error(config_file, tmp_path, capsys):
    config = json.loads(Path(config_file).read_text())
    config["app"] = "nosuch"
    path = tmp_path / "nosuch.json"
    path.write_text(json.dumps(config))
    assert main(["compile", "--config", str(path), "--out", str(tmp_path / "o")]) == (
        EXIT_VALIDATION)
    assert capsys.readouterr().err == "validation error: unknown application: 'nosuch'\n"
    assert not (tmp_path / "o").exists()


def test_run_into_unwritable_out_is_a_runtime_failure(config_file, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setitem(loadgen.PROFILE_PRESETS, "blip",
                        loadgen.LoadProfile("blip", (loadgen.Phase(1, 1, 1),)))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code = main(["run", "--config", config_file, "--profile", "blip",
                 "--out", str(blocker / "bundle")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run failed: ") and "Not a directory" in err[0]


def test_run_with_a_raising_workflow_marks_the_bundle_incomplete(config_file, tmp_path,
                                                                 monkeypatch, capsys):
    real_workflow = loadgen.execute_workflow

    def broken_workflow(*args, arrival_index, **kwargs):
        if arrival_index == 1:
            raise AttributeError("broken workflow")
        return real_workflow(*args, arrival_index=arrival_index, **kwargs)

    monkeypatch.setattr(loadgen, "execute_workflow", broken_workflow)
    monkeypatch.setitem(loadgen.PROFILE_PRESETS, "blip",
                        loadgen.LoadProfile("blip", (loadgen.Phase(1, 2, 2),)))
    bundle_dir = tmp_path / "b"
    code = main(["run", "--config", config_file, "--profile", "blip", "--out", str(bundle_dir)])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "run failed: AttributeError: broken workflow" in err
    assert f"partial bundle: {bundle_dir}" in err
    audit = json.loads((bundle_dir / "audit.json").read_text())
    assert audit["incomplete"] is True
    assert audit["scheduled_workflows"] == 2
    records = [json.loads(line) for line in
               (bundle_dir / "client_records.ndjson").read_text().splitlines()]
    assert records and {r["arrival_index"] for r in records} == {0}
    assert (bundle_dir / "events.ndjson").read_text().strip()


@pytest.mark.parametrize("text", ["{not json", "[1]"])
@pytest.mark.parametrize("command", ["compile", "run"])
def test_config_that_is_not_a_json_object_is_a_validation_error(tmp_path, capsys, command,
                                                                 text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"validation error: config {path}: ")
    assert not out.exists()


MISTYPED = {
    "function entry": lambda c: c["functions"].update(frontend="a"),
    "env": lambda c: c["functions"]["frontend"].update(env="x"),
    "seed": lambda c: c.update(seed="x"),
    "port": lambda c: c["platforms"]["a"].update(port="abc"),
    "external_services": lambda c: c.update(external_services=["kv"]),
    "negative query_delay_ms": lambda c: c["external_services"].update(
        kv={"managed": True, "query_delay_ms": -1}),
    "non-numeric query_delay_ms": lambda c: c["external_services"].update(
        kv={"managed": True, "query_delay_ms": "x"}),
    "profile field": lambda c: c["platforms"]["a"]["profile"].update(
        queue_polcy="queue_when_busy"),
    "platform key": lambda c: c["platforms"]["a"].update(prot=7100),
    "admin_endpoint": lambda c: c["platforms"].update(b={"admin_endpoint": 5}),
    "admin_endpoint with port": lambda c: c["platforms"].update(
        a={"admin_endpoint": "http://127.0.0.1:1", "port": 7100}),
    "boolean port": lambda c: c["platforms"]["a"].update(port=True),
    "port out of range": lambda c: c["platforms"]["a"].update(port=-1),
    "phase duration_s": lambda c: c["load_profile"]["phases"][0].update(duration_s="60"),
    "phase key": lambda c: c["load_profile"]["phases"][0].update(rate=1),
    "workflow weight": lambda c: c.update(
        workflows=[{"name": "w", "weight": "0.5", "steps": ["home"]}]),
    "workflows object": lambda c: c.update(workflows={"w": {"weight": 1, "steps": ["home"]}}),
    "string invoke_overhead_ms": lambda c: c["platforms"]["a"]["profile"].update(
        invoke_overhead_ms="5"),
    "boolean clock_skew_ms": lambda c: c["platforms"]["a"]["profile"].update(clock_skew_ms=True),
    "fractional max_executors": lambda c: c["platforms"]["a"]["profile"].update(
        max_executors=2.7),
    "boolean delay": lambda c: c["platforms"]["a"]["profile"].update(network_delay_ms=True),
    "string lognormal mu": lambda c: c["platforms"]["a"]["profile"].update(
        network_delay_ms={"dist": "lognormal", "mu": "1", "sigma": 0.5}),
    "boolean lognormal sigma": lambda c: c["platforms"]["a"]["profile"].update(
        cold_start_delay_ms={"dist": "lognormal", "mu": 1, "sigma": True}),
    "load profile key": lambda c: c["load_profile"].update(nmae="x"),
    "load profile name": lambda c: c["load_profile"].update(name=5),
}

# compile reads neither the seed, nor the platform profiles, nor the load side
RUN_ONLY = {"seed", "profile field", "phase duration_s", "phase key", "workflow weight",
            "workflows object", "string invoke_overhead_ms", "boolean clock_skew_ms",
            "fractional max_executors", "boolean delay", "string lognormal mu",
            "boolean lognormal sigma", "load profile key", "load profile name"}


@pytest.mark.parametrize("command, defect", [
    (command, defect) for command in ("compile", "run") for defect in MISTYPED
    if command == "run" or defect not in RUN_ONLY
])
def test_mistyped_config_entry_is_one_validation_error(config_file, tmp_path, command, defect):
    config = json.loads(Path(config_file).read_text())
    MISTYPED[defect](config)
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(befaas.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "befaas.cli", command, "--config", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_VALIDATION, done.stderr
    assert done.stderr.startswith("validation error: ") and done.stderr.count("\n") == 1
    assert not out.exists()
