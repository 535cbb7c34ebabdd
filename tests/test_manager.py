import json
import os
import time
from pathlib import Path

import pytest

from befaas import analyzer, httpjson, manager
from befaas.bundle import ResultsBundle
from befaas.compiler import validate
from befaas.errors import RuntimeFailure, ValidationFailure
from befaas.manager import ExperimentPlan, collect_logs, run_experiment
from befaas.simplatform import AdminClient, DelaySpec, SimPlatform, profile_from_config
from befaas.webshop import build_app

APP = build_app()

FAST_PROFILE = {
    "cold_start_delay_ms": 5,
    "invoke_overhead_ms": 0,
    "network_delay_ms": 0.5,
    "max_executors": 32,
    "queue_policy": "scale_up",
}

MINI_LOAD = {"phases": [{"duration_s": 4, "rate_start": 2, "rate_end": 2}]}


def make_config(**overrides):
    config = {
        "functions": {fn: {"platform": "a"} for fn in APP.function_names},
        "platforms": {"a": {"profile": dict(FAST_PROFILE)}},
        "external_services": {"kv": "managed"},
        "load_profile": MINI_LOAD,
        "seed": 21,
    }
    config.update(overrides)
    return config


def test_mini_run_produces_complete_bundle(tmp_path):
    out = str(tmp_path / "bundle")
    plan = ExperimentPlan(config=make_config(), out_dir=out)
    bundle = run_experiment(plan)

    # All five files exist.
    for name in ("config.json", "client_records.ndjson", "events.ndjson", "rejects.log", "audit.json"):
        assert os.path.exists(os.path.join(out, name))

    # Config snapshot is byte-identical to the plan's input bytes.
    assert (tmp_path / "bundle" / "config.json").read_bytes() == plan.snapshot_bytes()

    # 8 workflows at 2/s over 4 s; every record's context appears in the logs.
    assert bundle.audit["scheduled_workflows"] == 8
    contexts = {e["context_id"] for e in bundle.events}
    for record in bundle.client_records:
        assert record["status"] == "ok"
        assert record["context_id"] in contexts

    # Conservation: starts == ends per function in a fault-free run.
    for fn in APP.function_names:
        starts = sum(
            1 for e in bundle.events if e["fn"] == fn and e["event_kind"] == "invocation_start"
        )
        ends = sum(
            1 for e in bundle.events if e["fn"] == fn and e["event_kind"] == "invocation_end"
        )
        assert starts == ends

    assert bundle.rejects == []
    assert not bundle.incomplete

    # Every deployed function appears in the audit trail; teardown complete.
    trail = bundle.audit["trail"]
    deployed = {e["target"] for e in trail if e["action"] == "deploy_function"}
    assert deployed == set(APP.function_names)
    removed = {e["target"] for e in trail if e["action"] == "remove_function"}
    assert removed == {f"a/{fn}" for fn in APP.function_names}
    assert any(e["action"] == "stop_platform" for e in trail)
    assert any(e["action"] == "stop_service" for e in trail)

    # audit.json keeps one launch lag per scheduled workflow: the benchmark
    # adds each to its workflow's first-step latency.
    lags = json.loads((tmp_path / "bundle" / "audit.json").read_text())["launch_lags_ms"]
    assert len(lags) == 8 and all(type(lag) is float and lag >= 0 for lag in lags)

    # The bundle reads back identically.
    again = ResultsBundle.read(out)
    assert len(again.events) == len(bundle.events)
    assert len(again.client_records) == len(bundle.client_records)


def test_attached_platform_is_not_stopped_and_reports_zero_deployments(tmp_path, make_platform):
    platform = make_platform(platform_id="external-a", profile=FAST_PROFILE)
    config = make_config(platforms={"a": {"admin_endpoint": platform.base_url}})
    plan = ExperimentPlan(config=config, out_dir=str(tmp_path / "bundle"))
    httpjson.close_thread_connections()
    bundle = run_experiment(plan)
    assert bundle.audit["scheduled_workflows"] == 8
    # Every admin call ran off the calling thread, which caches no connection.
    assert httpjson._connections() == {}
    # Functions removed from the attached platform, which keeps running.
    assert platform.stats()["deployment_count"] == 0
    assert AdminClient(platform.base_url).ping() == "external-a"


def test_second_run_on_attached_platform_holds_only_its_own_contexts(tmp_path, make_platform):
    platform = make_platform(platform_id="external-a", profile=FAST_PROFILE)
    config = make_config(platforms={"a": {"admin_endpoint": platform.base_url}},
                         load_profile={"phases": [{"duration_s": 1, "rate_start": 2,
                                                   "rate_end": 2}]})
    contexts = []
    for run in ("first", "second"):
        bundle = run_experiment(ExperimentPlan(config=config, out_dir=str(tmp_path / run)))
        assert bundle.client_records
        assert {e["context_id"] for e in bundle.events} == {
            r["context_id"] for r in bundle.client_records}
        contexts.append({e["context_id"] for e in bundle.events})
    assert contexts[0].isdisjoint(contexts[1])


def test_garbage_log_line_lands_in_rejects(tmp_path, make_platform):
    platform = make_platform(platform_id="external-a", profile=FAST_PROFILE)
    config = make_config(platforms={"a": {"admin_endpoint": platform.base_url}})

    # Deploy and run a single workflow by hand, then poison one stream.
    from befaas.compiler import compile_deployment
    from befaas.loadgen import WORKFLOW_PRESETS, execute_workflow
    from befaas.simplatform import KVService

    kv = KVService()
    kv.start()
    try:
        resolved = json.loads(json.dumps(config))
        resolved["external_services"]["kv"] = kv.endpoint
        resolved["platforms"]["a"] = {"admin_endpoint": platform.base_url}
        client = AdminClient(platform.base_url)
        artifacts = compile_deployment(APP, resolved)
        for artifact in artifacts:
            client.deploy(artifact.to_doc())
        execute_workflow(WORKFLOW_PRESETS[0], artifacts[0].endpoint_map["frontend"])
        platform.deployments["frontend"].lines.append("%% not an event %%")

        events, rejects, errors = collect_logs(
            {"a": client}, {"a": list(APP.function_names)}
        )
        assert rejects == ["%% not an event %%"]
        assert errors == {}
        assert len(events) > 0
    finally:
        kv.stop()


def collect_beside_broken(make_platform, monkeypatch, answer, status=200):
    """Collect from a live platform "a" and one "b" that answers ``answer``
    with ``status``."""
    platform = make_platform(platform_id="alive", profile=FAST_PROFILE)
    from test_platform import artifact_for

    platform.deploy_artifact(artifact_for("sleepy", platform))
    import befaas.httpjson as httpjson
    from befaas.compiler import function_endpoint

    httpjson.post_json(function_endpoint(platform.base_url, "sleepy"), {"payload": {}})

    # The "broken" platform answers every admin request with ``answer``.
    broken = "http://127.0.0.1:1/broken"
    real_exchange = httpjson._exchange
    monkeypatch.setattr(httpjson, "_exchange", lambda method, url, body, timeout: (
        (status, json.dumps(answer).encode()) if url.startswith(broken)
        else real_exchange(method, url, body, timeout)))
    events, rejects, errors = collect_logs(
        {"a": AdminClient(platform.base_url), "b": AdminClient(broken)},
        {"a": ["sleepy"], "b": ["ghost"]},
    )
    assert "a" not in errors
    assert len(events) >= 2 and {e["platform"] for e in events} == {"alive"}
    return rejects, errors


@pytest.mark.parametrize("answer", [{}, {"lines": "not a list"}, {"lines": [42]}])
def test_log_answer_without_lines_recorded_others_collected(make_platform, monkeypatch, answer):
    rejects, errors = collect_beside_broken(make_platform, monkeypatch, answer)
    assert "no list of lines" in errors["b"]
    assert rejects == []


@pytest.mark.parametrize("answer", [{"error": "boom"}, {"error": None}])
def test_foreign_error_answer_recorded_others_collected(make_platform, monkeypatch, answer):
    rejects, errors = collect_beside_broken(make_platform, monkeypatch, answer, status=404)
    assert errors["b"] == "HTTP 404: unknown error"
    assert rejects == []


GOOD_EVENT = {"event_kind": "invocation_start", "ts_us": 1, "fn": "ghost", "context_id": "c",
              "pair_id": "p"}


@pytest.mark.parametrize("line", [json.dumps(dict(GOOD_EVENT, event_kind=["invocation_start"])),
                                  json.dumps(dict(GOOD_EVENT, context_id=5))])
def test_mistyped_log_line_rejected_others_collected(make_platform, monkeypatch, line):
    rejects, errors = collect_beside_broken(make_platform, monkeypatch, {"lines": [line]})
    assert rejects == [line]
    assert errors == {}


def test_unreachable_platform_recorded_others_collected(make_platform):
    platform = make_platform(platform_id="alive", profile=FAST_PROFILE)
    from test_platform import artifact_for

    platform.deploy_artifact(artifact_for("sleepy", platform))
    import befaas.httpjson as httpjson
    from befaas.compiler import function_endpoint

    httpjson.post_json(function_endpoint(platform.base_url, "sleepy"), {"payload": {}})

    dead = AdminClient("http://127.0.0.1:1")
    events, rejects, errors = collect_logs(
        {"a": AdminClient(platform.base_url), "b": dead},
        {"a": ["sleepy"], "b": ["ghost"]},
    )
    assert "b" in errors
    assert len(events) >= 2


def test_deployment_collision_fails_run_but_writes_bundle_and_tears_down(tmp_path, make_platform):
    platform = make_platform(platform_id="external-a", profile=FAST_PROFILE)
    from test_platform import artifact_for

    # Pre-occupy the function name so the experiment's deploy collides.
    platform.deploy_artifact(
        artifact_for("frontend", platform, app=APP, env={})
    )
    config = make_config(platforms={"a": {"admin_endpoint": platform.base_url}})
    out = str(tmp_path / "bundle")
    with pytest.raises(RuntimeFailure) as err:
        run_experiment(ExperimentPlan(config=config, out_dir=out))
    assert err.value.bundle_dir == out
    assert os.path.exists(os.path.join(out, "audit.json"))
    with open(os.path.join(out, "audit.json")) as fh:
        audit = json.load(fh)
    assert audit["incomplete"] is True
    assert any(e["status"] == "error" for e in audit["trail"])
    # Every artifact was attempted, and teardown removed each function the
    # experiment deployed alongside the collision.
    deployed = [e["target"] for e in audit["trail"] if e["action"] == "deploy_function"]
    assert set(deployed) == set(APP.function_names) - {"frontend"}
    removed = [e["target"] for e in audit["trail"]
               if e["phase"] == "teardown" and e["action"] == "remove_function"
               and e["status"] == "ok" and "detail" not in e]
    assert sorted(removed) == sorted(f"a/{fn}" for fn in deployed)
    # The pre-occupied frontend belongs to someone else and stays.
    assert platform.stats()["deployment_count"] == 1


class _SlowAdminPlatform(SimPlatform):
    """Answers every deploy, log fetch and remove after 100 ms."""

    def route(self, method, path, doc):
        if path == "/admin/deploy" or path.startswith(("/admin/logs/", "/admin/remove/")):
            time.sleep(0.1)
        return super().route(method, path, doc)


def test_each_lifecycle_phase_issues_its_admin_calls_concurrently(tmp_path):
    platform = _SlowAdminPlatform("slow-admin", profile_from_config(FAST_PROFILE))
    platform.start()
    try:
        config = make_config(platforms={"a": {"admin_endpoint": platform.base_url}},
                             load_profile={"phases": [{"duration_s": 1, "rate_start": 2,
                                                       "rate_end": 2}]})
        bundle = run_experiment(ExperimentPlan(config=config, out_dir=str(tmp_path / "bundle")))
    finally:
        platform.stop()
    trail = bundle.audit["trail"]

    def ts_us(action: str) -> int:
        return max(e["ts_us"] for e in trail if e["action"] == action)

    assert len(APP.function_names) == 17
    assert sum(e["action"] == "deploy_function" for e in trail) == 17
    assert sum(e["action"] == "remove_function" and e["status"] == "ok" for e in trail) == 17
    # Sequential calls would need 17 x 100 ms = 1.7 s per phase.
    assert (ts_us("deploy_function") - ts_us("compile")) / 1e6 < 0.5
    assert (ts_us("collected") - ts_us("finish_profile")) / 1e6 < 0.5
    assert (ts_us("remove_function") - ts_us("collected")) / 1e6 < 0.5


@pytest.fixture
def constructions(monkeypatch):
    """How often run_experiment constructs a platform and a KV service."""
    counts = {"SimPlatform": 0, "KVService": 0}
    for name in counts:
        def counting(*args, _name=name, _real=getattr(manager, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(manager, name, counting)
    return counts


BAD_CONFIGS = {
    "unknown app": lambda c: c.update(app="nosuch"),
    "unknown load profile preset": lambda c: c.update(load_profile="nosuch"),
    "unknown platform profile preset": lambda c: c["platforms"]["a"].update(profile="nosuch"),
    "missing mapping": lambda c: c["functions"].pop("email"),
    "unknown workflow step": lambda c: c.update(
        workflows=[{"name": "typo", "weight": 1, "steps": ["home", "viewProdcut"]}]),
    "negative query delay": lambda c: c["external_services"].update(
        slow={"managed": True, "query_delay_ms": -1}),
    "non-numeric query delay": lambda c: c["external_services"].update(
        typo={"managed": True, "query_delay_ms": "x"}),
    "endpoint service form": lambda c: c["external_services"].update(
        linked={"endpoint": "http://127.0.0.1:9900/kv"}),
    "unknown profile field": lambda c: c["platforms"].update(
        b={"profile": dict(FAST_PROFILE, queue_polcy="queue_when_busy")}),
    "platform host key": lambda c: c["platforms"].update(
        c={"profile": "scaler", "host": "127.0.0.1"}),
    "mistyped platform key": lambda c: c["platforms"].update(d={"profile": "scaler", "prot": 1}),
    "admin endpoint not a URL": lambda c: c["platforms"].update(e={"admin_endpoint": 5}),
    "admin endpoint with a profile": lambda c: c["platforms"].update(
        f={"admin_endpoint": "http://127.0.0.1:1", "profile": "scaler"}),
    "admin endpoint with a port": lambda c: c["platforms"].update(
        g={"admin_endpoint": "http://127.0.0.1:1", "port": 7100}),
    "boolean port": lambda c: c["platforms"].update(h={"profile": "scaler", "port": True}),
    "port out of range": lambda c: c["platforms"].update(i={"profile": "scaler", "port": 65536}),
    "fractional seed": lambda c: c.update(seed=1.5),
    "boolean seed": lambda c: c.update(seed=True),
    "string seed": lambda c: c.update(seed="7"),
    "string phase duration": lambda c: c.update(
        load_profile={"phases": [{"duration_s": "60", "rate_start": 2, "rate_end": 2}]}),
    "boolean phase duration": lambda c: c.update(
        load_profile={"phases": [{"duration_s": True, "rate_start": 2, "rate_end": 2}]}),
    "missing phase duration": lambda c: c.update(
        load_profile={"phases": [{"rate_start": 2, "rate_end": 2}]}),
    "unknown phase key": lambda c: c.update(
        load_profile={"phases": [{"duration_s": 4, "rate_start": 2, "rate_end": 2, "rate": 2}]}),
    "string workflow weight": lambda c: c.update(
        workflows=[{"name": "w", "weight": "0.5", "steps": ["home"]}]),
    "numeric workflow name": lambda c: c.update(
        workflows=[{"name": 5, "weight": 1, "steps": ["home"]}]),
    "unknown workflow key": lambda c: c.update(
        workflows=[{"name": "w", "weight": 1, "steps": ["home"], "think_ms": 0}]),
    "string workflow steps": lambda c: c.update(
        workflows=[{"name": "w", "weight": 1, "steps": "home"}]),
    "workflows object": lambda c: c.update(
        workflows={"w": {"weight": 1, "steps": ["home"]}}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_fails_before_anything_is_constructed(tmp_path, constructions, name):
    config = make_config()
    BAD_CONFIGS[name](config)
    with pytest.raises(ValidationFailure) as err:
        run_experiment(ExperimentPlan(config=config, out_dir=str(tmp_path / "x")))
    assert len(err.value.violations) == 1, err.value.violations
    assert constructions == {"SimPlatform": 0, "KVService": 0}
    assert not (tmp_path / "x").exists()


def test_check_reports_every_bad_entry_at_once(tmp_path, constructions):
    config = make_config()
    for spoil in BAD_CONFIGS.values():
        spoil(config)
    with pytest.raises(ValidationFailure) as err:
        run_experiment(ExperimentPlan(config=config, out_dir=str(tmp_path / "x")))
    # The unknown app hides the missing mapping: there is no function list.
    # Rows that set the same key overwrite one another: the seed (3 rows),
    # the load profile (5) and the workflows (6).
    assert len(err.value.violations) == len(BAD_CONFIGS) - 1 - 2 - 4 - 5
    assert constructions == {"SimPlatform": 0, "KVService": 0}


BAD_DELAYS = {
    "string lognormal mu": {"network_delay_ms": {"dist": "lognormal", "mu": "1", "sigma": 0.5}},
    "boolean lognormal sigma": {"cold_start_delay_ms": {"dist": "lognormal", "mu": 1,
                                                        "sigma": True}},
    "negative lognormal sigma": {"network_delay_ms": {"dist": "lognormal", "mu": 1,
                                                      "sigma": -0.5}},
    "other dist": {"network_delay_ms": {"dist": "normal", "mu": 1, "sigma": 0.5}},
    "lognormal without sigma": {"network_delay_ms": {"dist": "lognormal", "mu": 1}},
    "unknown lognormal key": {"network_delay_ms": {"dist": "lognormal", "mu": 1, "sigma": 0.5,
                                                   "shift": 2}},
    "string delay": {"cold_start_delay_ms": "5"},
    "two negative delays": {"cold_start_delay_ms": -3, "network_delay_ms": -1},
}


@pytest.mark.parametrize("name", sorted(BAD_DELAYS))
def test_each_bad_delay_field_is_its_own_violation(tmp_path, constructions, name):
    bad = BAD_DELAYS[name]
    config = make_config()
    config["platforms"]["a"]["profile"].update(bad)
    with pytest.raises(ValidationFailure) as err:
        run_experiment(ExperimentPlan(config=config, out_dir=str(tmp_path / "x")))
    assert err.value.violations == [
        f"platform a: {field} must be {DelaySpec.FORM}, not {value!r}"
        for field, value in bad.items()]
    assert constructions == {"SimPlatform": 0, "KVService": 0}


def test_failed_bundle_write_still_tears_down(tmp_path, make_platform):
    platform = make_platform(platform_id="external-a", profile=FAST_PROFILE)
    config = make_config(platforms={"a": {"admin_endpoint": platform.base_url}},
                         load_profile={"phases": [{"duration_s": 1, "rate_start": 2,
                                                   "rate_end": 2}]})
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    with pytest.raises(NotADirectoryError):
        run_experiment(ExperimentPlan(config=config, out_dir=str(blocker / "bundle")))
    assert platform.stats()["deployment_count"] == 0


def test_federated_run_annotates_platforms(tmp_path):
    config = make_config()
    config["platforms"]["b"] = {"profile": dict(FAST_PROFILE)}
    for fn in APP.function_names:
        if fn != "frontend":
            config["functions"][fn] = {"platform": "b"}
    bundle = run_experiment(ExperimentPlan(config=config, out_dir=str(tmp_path / "fed")))

    by_platform = {}
    for event in bundle.events:
        by_platform.setdefault(event["platform"], set()).add(event["fn"])
    assert by_platform["a"] == {"frontend"}
    assert "frontend" not in by_platform["b"]
    assert len(by_platform["b"]) == 16

    trees = analyzer.assemble(bundle.events)
    for tree in trees:
        platforms = {span.platform for span in tree.spans}
        assert platforms == {"a", "b"}


def test_readme_example_config_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert validate(APP.function_names, config) == []
    manager._check(ExperimentPlan(config=config, out_dir=""))


def test_profile_and_seed_overrides(tmp_path):
    *_, seed = manager._check(
        ExperimentPlan(config=make_config(), out_dir=str(tmp_path / "o"), seed=99))
    assert seed == 99
    _, profile, workflows, _, _ = manager._check(
        ExperimentPlan(config=make_config(), out_dir="", profile="default-60s"))
    assert profile.name == "default-60s"
    assert workflows[0].name == "browser"
