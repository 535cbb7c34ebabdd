import gc
import json
import math
import random
import socket
import statistics
import threading
import time
import warnings
from urllib.parse import urlsplit

import pytest

from befaas import analyzer, httpjson, loadgen, registry
from befaas.compiler import Application, DeploymentArtifact, compile_deployment, function_endpoint
from befaas.errors import TransportCallError, TransportError
from befaas.simplatform import (
    AdminClient,
    DelaySpec,
    KVService,
    PROFILE_PRESETS,
    PlatformProfile,
    profile_from_config,
)
from befaas.tracing import wrap_handler
from befaas.webshop import build_app
from localharness import LocalHarness

APP = build_app()


def _sleepy(payload, ctx):
    time.sleep(float((payload or {}).get("sleep_s", 0)))
    return {"ok": True}


def _boom(payload, ctx):
    raise RuntimeError("injected failure")


TEST_APP = Application(
    name="unittest-app",
    handlers={
        "sleepy": wrap_handler(_sleepy),
        "boom": wrap_handler(_boom),
    },
    entrypoint="sleepy",
)
registry.register_app(TEST_APP)


def artifact_for(fn, platform, app=TEST_APP, env=None):
    endpoint_map = {
        name: function_endpoint(platform.base_url, name) for name in app.function_names
    }
    return DeploymentArtifact(
        fn=fn, app=app.name, platform_id=platform.platform_id,
        endpoint_map=endpoint_map, env=env or {},
    ).to_doc()


def invoke(platform, fn, payload=None, timeout=30.0):
    url = function_endpoint(platform.base_url, fn)
    return httpjson.post_json(url, {"payload": payload or {}}, timeout)


def platform_events(platform, fn):
    return [json.loads(line) for line in platform.fetch_logs(fn)]


# ---------------------------------------------------------------------------
# Deploy / logs / remove
# ---------------------------------------------------------------------------


class TestAdminSurface:
    def test_deploy_returns_endpoint_of_expected_form(self, make_platform):
        platform = make_platform()
        endpoint = platform.deploy_artifact(artifact_for("sleepy", platform))
        assert endpoint == f"{platform.base_url}/fn/sleepy"

    def test_duplicate_deploy_rejected(self, make_platform):
        platform = make_platform()
        client = AdminClient(platform.base_url)
        client.deploy(artifact_for("sleepy", platform))
        with pytest.raises(TransportCallError) as err:
            client.deploy(artifact_for("sleepy", platform))
        assert err.value.status == 409

    def test_seventeen_artifacts_seventeen_endpoints(self, make_platform):
        platform = make_platform()
        config = {
            "functions": {fn: {"platform": "sim"} for fn in APP.function_names},
            "platforms": {"sim": {"profile": "scaler", "port": platform._port}},
            "external_services": {"kv": "http://127.0.0.1:1/kv"},
        }
        endpoints = {
            platform.deploy_artifact(a.to_doc()) for a in compile_deployment(APP, config)
        }
        assert len(endpoints) == 17
        assert platform.stats()["deployment_count"] == 17

    def test_logs_empty_before_any_invocation(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        assert platform.fetch_logs("sleepy") == []

    def test_logs_at_least_two_lines_per_invocation(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        n = 5
        for _ in range(n):
            invoke(platform, "sleepy")
        assert len(platform.fetch_logs("sleepy")) >= 2 * n

    def test_unknown_fn_logs_is_error(self, make_platform):
        platform = make_platform()
        client = AdminClient(platform.base_url)
        with pytest.raises(TransportCallError) as err:
            client.logs("ghost")
        assert err.value.status == 404

    def test_handler_error_marks_invocation_end(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("boom", platform))
        with pytest.raises(TransportCallError) as err:
            invoke(platform, "boom")
        assert err.value.status == 500
        events = platform_events(platform, "boom")
        ends = [e for e in events if e["event_kind"] == "invocation_end"]
        assert ends and all(e.get("error") for e in ends)

    def test_remove_then_invoke_is_transport_error(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        platform.remove_function("sleepy")
        with pytest.raises(TransportCallError) as err:
            invoke(platform, "sleepy")
        assert err.value.status == 404
        assert err.value.body["error"]["kind"] == "unreachable"

    def test_remove_retains_logs(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        before = platform.fetch_logs("sleepy")
        platform.remove_function("sleepy")
        assert platform.fetch_logs("sleepy") == before

    def test_teardown_keeps_logs_and_counters(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        before = platform.fetch_logs("sleepy")
        platform.teardown()
        counts = platform.stats()["functions"]["sleepy"]
        assert (counts["executors_created"], counts["invocations"]) == (1, 1)
        assert platform.fetch_logs("sleepy") == before != []

    def test_redeploy_starts_a_fresh_record(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        invoke(platform, "sleepy")
        first = set(platform.fetch_logs("sleepy"))
        platform.remove_function("sleepy")
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        second = platform.fetch_logs("sleepy")
        assert second and first.isdisjoint(second)
        assert {e["event_kind"] for e in platform_events(platform, "sleepy")} == {
            "invocation_start", "cold_start", "invocation_end"}
        counts = platform.stats()["functions"]["sleepy"]
        assert (counts["executors_created"], counts["invocations"]) == (1, 1)

    def test_remove_all_reports_zero_deployments(self, make_platform):
        platform = make_platform()
        for fn in TEST_APP.function_names:
            platform.deploy_artifact(artifact_for(fn, platform))
        for fn in TEST_APP.function_names:
            platform.remove_function(fn)
        assert platform.stats()["deployment_count"] == 0

    def test_teardown_idempotent(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        platform.teardown()
        platform.teardown()
        assert platform.stats()["deployment_count"] == 0


def exchange(method, url, doc=None):
    """(status, decoded body) of one real HTTP exchange."""
    try:
        if method == "GET":
            return 200, httpjson.get_json(url)
        return 200, httpjson.post_json(url, doc)
    except TransportCallError as exc:
        return exc.status, exc.body


# The wire contract of both servers. A str body on /admin/deploy names the
# function whose artifact is sent; "sleepy" is deployed before each case.
ROUTES = [
    ("platform", "POST", "/admin/deploy", "boom", 200, None),
    ("platform", "POST", "/admin/deploy", "sleepy", 409, "client"),
    ("platform", "POST", "/admin/remove/sleepy", {}, 200, None),
    ("platform", "POST", "/admin/remove/ghost", {}, 404, "client"),
    ("platform", "GET", "/admin/logs/sleepy", None, 200, None),
    ("platform", "GET", "/admin/logs/ghost", None, 404, "client"),
    ("platform", "GET", "/admin/ping", None, 200, None),
    ("platform", "GET", "/admin/stats", None, 200, None),
    ("platform", "POST", "/admin/teardown", {}, 404, "client"),
    ("platform", "POST", "/fn/sleepy", {"payload": {}}, 200, None),
    ("platform", "POST", "/fn/ghost", {"payload": {}}, 404, "unreachable"),
    ("platform", "GET", "/fn/x", None, 404, "client"),
    ("platform", "POST", "/nope", {}, 404, "client"),
    ("platform", "GET", "/nope", None, 404, "client"),
    ("kv", "GET", "/ping", None, 200, None),
    ("kv", "POST", "/kv", {"op": "get", "key": "k"}, 200, None),
    ("kv", "POST", "/kv", {"op": "bogus", "key": "k"}, 400, "client"),
    ("kv", "POST", "/kv", {"op": "set", "key": "k"}, 400, "client"),
    ("kv", "POST", "/nope", {}, 404, "client"),
    ("kv", "GET", "/kv", None, 404, "client"),
    # Malformed bodies; appended last so the ids of the rows above stay put.
    ("platform", "POST", "/admin/deploy", {"fn": "x"}, 400, "client"),
    ("platform", "POST", "/admin/deploy", {"fn": ["x"], "app": "unittest-app",
                                           "platform_id": "p", "endpoint_map": {}, "env": {}},
     400, "client"),
    ("platform", "POST", "/admin/deploy", [1, 2], 400, "client"),
    ("platform", "POST", "/fn/sleepy", [1, 2], 400, "client"),
    ("kv", "POST", "/kv", [1, 2], 400, "client"),
    # Well-formed artifacts naming an unknown app, or a function the app lacks.
    ("platform", "POST", "/admin/deploy", {"fn": "x", "app": "nope", "platform_id": "p",
                                           "endpoint_map": {}, "env": {}}, 400, "client"),
    ("platform", "POST", "/admin/deploy", {"fn": "nofn", "app": "unittest-app",
                                           "platform_id": "p", "endpoint_map": {}, "env": {}},
     400, "client"),
]
NO_ROUTE = {("platform", "GET", "/fn/x"), ("platform", "POST", "/nope"),
            ("platform", "GET", "/nope"), ("kv", "POST", "/nope"), ("kv", "GET", "/kv"),
            ("platform", "POST", "/admin/teardown")}


@pytest.mark.parametrize("server, method, path, body, status, kind", ROUTES)
def test_route_contract(make_platform, make_kv, server, method, path, body, status, kind):
    if server == "platform":
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        base_url = platform.base_url
        if isinstance(body, str):
            body = artifact_for(body, platform)
    else:
        base_url = make_kv().endpoint[: -len("/kv")]
    got_status, doc = exchange(method, base_url + path, body)
    assert got_status == status
    assert (doc["error"]["kind"] if "error" in doc else None) == kind
    if (server, method, path) in NO_ROUTE:
        assert doc["error"]["message"] == f"no route: {path}"


def test_artifact_document_round_trips():
    artifact = DeploymentArtifact(fn="f", app="a", platform_id="p",
                                  endpoint_map={"f": "http://h/fn/f"}, env={"K": "v"})
    assert artifact.to_doc() == {"fn": "f", "app": "a", "platform_id": "p",
                                 "endpoint_map": {"f": "http://h/fn/f"}, "env": {"K": "v"}}
    assert DeploymentArtifact.from_doc(artifact.to_doc()) == artifact
    with pytest.raises(ValueError, match="^bad artifact fields: app, env$"):
        DeploymentArtifact.from_doc(dict(artifact.to_doc(), app=1, env=[]))


def test_non_integer_content_length_is_400_and_closes(make_platform):
    url = urlsplit(make_platform().base_url)
    with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
        sock.sendall(b"POST /admin/ping HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n")
        reply = b""
        while chunk := sock.recv(4096):  # the server closes the connection
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert json.loads(body)["error"]["kind"] == "client"


# ---------------------------------------------------------------------------
# Cold starts and executor life cycle
# ---------------------------------------------------------------------------


class TestColdStarts:
    def test_first_invocation_is_cold_and_delayed(self, make_platform):
        platform = make_platform(cold_start_delay_ms=80, network_delay_ms=0)
        platform.deploy_artifact(artifact_for("sleepy", platform))
        t0 = time.perf_counter()
        invoke(platform, "sleepy")
        elapsed_ms = (time.perf_counter() - t0) * 1000
        assert elapsed_ms >= 80
        kinds = [e["event_kind"] for e in platform_events(platform, "sleepy")]
        assert kinds.count("cold_start") == 1

    def test_second_sequential_invocation_reuses_executor(self, make_platform):
        platform = make_platform(cold_start_delay_ms=20)
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        invoke(platform, "sleepy")
        kinds = [e["event_kind"] for e in platform_events(platform, "sleepy")]
        assert kinds.count("cold_start") == 1
        assert platform.stats()["functions"]["sleepy"]["executors_created"] == 1

    def test_burst_of_five_forces_five_cold_starts(self, make_platform):
        # Forced by per-executor concurrency 1 plus the selection rule:
        # five overlapping requests cannot share any executor.
        platform = make_platform(cold_start_delay_ms=150, max_executors=8)
        platform.deploy_artifact(artifact_for("sleepy", platform))
        barrier = threading.Barrier(5)
        errors = []

        def hit():
            barrier.wait()
            try:
                invoke(platform, "sleepy", {"sleep_s": 0.05})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                httpjson.close_thread_connections()

        threads = [threading.Thread(target=hit) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        kinds = [e["event_kind"] for e in platform_events(platform, "sleepy")]
        assert kinds.count("cold_start") == 5
        assert platform.stats()["functions"]["sleepy"]["executors_created"] == 5

    def test_idle_timeout_reclaims_executor(self, make_platform):
        platform = make_platform(
            cold_start_delay_ms=10, executor_idle_timeout_s=0.2, network_delay_ms=0
        )
        platform.deploy_artifact(artifact_for("sleepy", platform))
        invoke(platform, "sleepy")
        time.sleep(0.35)
        invoke(platform, "sleepy")
        kinds = [e["event_kind"] for e in platform_events(platform, "sleepy")]
        assert kinds.count("cold_start") == 2

    def test_cold_start_counts_deterministic_across_runs(self, make_platform):
        def run_once(seed):
            platform = make_platform(
                platform_id=f"det-{seed}", cold_start_delay_ms=5, seed=seed
            )
            platform.deploy_artifact(artifact_for("sleepy", platform))
            for _ in range(6):
                invoke(platform, "sleepy")
            return platform.stats()["functions"]["sleepy"]["executors_created"]

        assert run_once(1) == run_once(2) == 1


# ---------------------------------------------------------------------------
# Capacity and queue policies
# ---------------------------------------------------------------------------


class TestQueuePolicies:
    def _burst(self, platform, count, sleep_s):
        results, errors = [], []
        barrier = threading.Barrier(count)

        def hit():
            barrier.wait()
            try:
                results.append(invoke(platform, "sleepy", {"sleep_s": sleep_s}))
            except TransportCallError as exc:
                errors.append(exc.status)
            finally:
                httpjson.close_thread_connections()

        threads = [threading.Thread(target=hit) for _ in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results, errors

    def test_scale_up_at_capacity_throttles(self, make_platform):
        platform = make_platform(max_executors=2, queue_policy="scale_up")
        platform.deploy_artifact(artifact_for("sleepy", platform))
        results, errors = self._burst(platform, 6, sleep_s=0.3)
        assert errors and all(status == 429 for status in errors)
        assert len(results) == 6 - len(errors)

    def test_queue_when_busy_never_throttles(self, make_platform):
        platform = make_platform(max_executors=2, queue_policy="queue_when_busy")
        platform.deploy_artifact(artifact_for("sleepy", platform))
        results, errors = self._burst(platform, 6, sleep_s=0.1)
        assert errors == []
        assert len(results) == 6
        # Capacity invariant: never more executors than the cap.
        assert platform.stats()["functions"]["sleepy"]["executors_created"] <= 2

    def test_queue_serializes_on_single_executor(self, make_platform):
        platform = make_platform(max_executors=1, queue_policy="queue_when_busy")
        platform.deploy_artifact(artifact_for("sleepy", platform))
        t0 = time.perf_counter()
        results, errors = self._burst(platform, 3, sleep_s=0.1)
        elapsed = time.perf_counter() - t0
        assert errors == [] and len(results) == 3
        assert elapsed >= 0.3  # strictly serialized


# ---------------------------------------------------------------------------
# KV service
# ---------------------------------------------------------------------------


class TestKVService:
    def test_set_then_get(self, make_kv):
        kv = make_kv()
        assert httpjson.post_json(kv.endpoint, {"op": "set", "key": "k", "value": "v"})["ok"]
        doc = httpjson.post_json(kv.endpoint, {"op": "get", "key": "k"})
        assert doc == {"found": True, "value": "v"}

    def test_get_absent_is_not_found_not_error(self, make_kv):
        kv = make_kv()
        assert httpjson.post_json(kv.endpoint, {"op": "get", "key": "nope"}) == {
            "found": False,
            "value": None,
        }

    def test_delete(self, make_kv):
        kv = make_kv()
        httpjson.post_json(kv.endpoint, {"op": "set", "key": "k", "value": 1})
        assert httpjson.post_json(kv.endpoint, {"op": "delete", "key": "k"})["existed"]
        assert not httpjson.post_json(kv.endpoint, {"op": "get", "key": "k"})["found"]
        httpjson.post_json(kv.endpoint, {"op": "set", "key": "n", "value": None})
        assert httpjson.post_json(kv.endpoint, {"op": "get", "key": "n"})["found"]
        assert httpjson.post_json(kv.endpoint, {"op": "delete", "key": "n"})["existed"]

    def test_set_without_value_rejected(self, make_kv):
        kv = make_kv()
        with pytest.raises(TransportCallError) as err:
            httpjson.post_json(kv.endpoint, {"op": "set", "key": "k"})
        assert err.value.status == 400

    def test_per_direction_delay_visible_in_round_trip(self, make_kv):
        # Wall-clock oracle: 8 ms per direction means >= 16 ms client RTT.
        kv = make_kv(query_delay_ms=8)
        httpjson.post_json(kv.endpoint, {"op": "set", "key": "w", "value": 0})  # warm connection
        t0 = time.perf_counter()
        httpjson.post_json(kv.endpoint, {"op": "get", "key": "w"})
        assert (time.perf_counter() - t0) * 1000 >= 16

    def test_in_memory_harness_matches_served_store(self, make_kv):
        ops = [
            {"op": "get", "key": "k"},
            {"op": "set", "key": "k", "value": {"n": 1}},
            {"op": "get", "key": "k"},
            {"op": "set", "key": "k"},
            {"op": "bogus", "key": "k"},
            {"op": "get", "key": 7},
            {"key": "k"},
            {"op": "set", "key": "none", "value": None},
            {"op": "delete", "key": "none"},
            {"op": "delete", "key": "k"},
            {"op": "delete", "key": "k"},
            {"op": "get", "key": "k"},
        ]
        kv, harness = make_kv(), LocalHarness()

        def local(doc):
            try:
                return 200, harness.transport(harness.env["KV"], doc)
            except TransportCallError as exc:
                return exc.status, exc.body

        served = [exchange("POST", kv.endpoint, doc) for doc in ops]
        assert [local(doc) for doc in ops] == served
        assert [status for status, _ in served] == [200, 200, 200, 400, 400, 400, 400] + [200] * 5


# ---------------------------------------------------------------------------
# Profiles and clock skew
# ---------------------------------------------------------------------------


class TestProfiles:
    def test_presets_contrast_queue_policies(self):
        assert PROFILE_PRESETS["scaler"].queue_policy == "scale_up"
        assert PROFILE_PRESETS["scaler"].cold_start_delay_ms.constant_ms == 250
        assert PROFILE_PRESETS["queuer"].queue_policy == "queue_when_busy"
        assert PROFILE_PRESETS["queuer"].cold_start_delay_ms.constant_ms == 500

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PlatformProfile(invoke_overhead_ms=-1)
        with pytest.raises(ValueError):
            PlatformProfile(max_executors=0)
        for bad in (-3, True, "5", {"dist": "lognormal", "mu": "1", "sigma": 0.5},
                    {"dist": "lognormal", "mu": 1, "sigma": True}):
            with pytest.raises(ValueError):
                DelaySpec.parse(bad)

    def test_inline_profile_reads_each_field_by_its_type(self):
        profile = profile_from_config({
            "name": "x", "cold_start_delay_ms": 5, "invoke_overhead_ms": 1,
            "executor_idle_timeout_s": 2, "max_executors": 3,
            "queue_policy": "queue_when_busy",
            "network_delay_ms": {"dist": "lognormal", "mu": 1, "sigma": 0.5},
            "clock_skew_ms": 4,
        })
        assert profile == PlatformProfile(
            "x", DelaySpec(5.0), 1.0, 2.0, 3, "queue_when_busy", DelaySpec(mu=1.0, sigma=0.5), 4.0)
        assert [type(v) for v in (profile.invoke_overhead_ms, profile.executor_idle_timeout_s,
                                  profile.max_executors, profile.clock_skew_ms)] == [
            float, float, int, float]

    def test_absent_or_null_profile_field_keeps_its_default(self):
        profile = profile_from_config({"executor_idle_timeout_s": None, "max_executors": None})
        assert profile == profile_from_config({}) == PlatformProfile()
        assert (profile.executor_idle_timeout_s, profile.max_executors) == (math.inf, None)

    def test_lognormal_delay_sampling_is_seeded(self):
        import random

        spec = DelaySpec.parse({"dist": "lognormal", "mu": 2.0, "sigma": 0.5})
        a = [spec.sample(random.Random(7)) for _ in range(3)]
        b = [spec.sample(random.Random(7)) for _ in range(3)]
        assert a == b
        assert all(x > 0 for x in a)

    def test_clock_skew_shifts_event_timestamps(self, make_platform):
        from befaas.clock import now_us

        platform = make_platform(profile={"clock_skew_ms": 500, "network_delay_ms": 0})
        platform.deploy_artifact(artifact_for("sleepy", platform))
        before = now_us()
        invoke(platform, "sleepy")
        after = now_us()
        start = [
            e for e in platform_events(platform, "sleepy")
            if e["event_kind"] == "invocation_start"
        ][0]
        # Timestamp sits ~500 ms ahead of the true window.
        assert start["ts_us"] > after + 400_000
        assert start["ts_us"] < before + 600_000

    def test_platform_stopped_means_transport_error(self, make_platform):
        platform = make_platform()
        platform.deploy_artifact(artifact_for("sleepy", platform))
        url = function_endpoint(platform.base_url, "sleepy")
        platform.stop()
        with pytest.raises(TransportError):
            httpjson.post_json(url, {"payload": {}}, timeout=2.0)


def test_shorter_timeout_holds_on_a_reused_connection(make_platform):
    platform = make_platform()
    platform.deploy_artifact(artifact_for("sleepy", platform))
    invoke(platform, "sleepy")  # caches this thread's connection with the default timeout
    t0 = time.perf_counter()
    with pytest.raises(TransportError):
        invoke(platform, "sleepy", {"sleep_s": 1.0}, timeout=0.2)
    assert time.perf_counter() - t0 < 0.6


def test_timed_out_request_is_not_sent_again(make_platform):
    platform = make_platform()
    platform.deploy_artifact(artifact_for("sleepy", platform))
    invoke(platform, "sleepy", timeout=0.2)  # a reused connection gets a retry
    with pytest.raises(TransportError):
        invoke(platform, "sleepy", {"sleep_s": 0.5}, timeout=0.2)
    time.sleep(0.3)  # time enough for a second copy to arrive
    starts = [e for e in platform_events(platform, "sleepy")
              if e["event_kind"] == "invocation_start"]
    assert len(starts) == 2


def test_a_client_gone_before_its_reply_prints_no_traceback(make_platform, capfd):
    platform = make_platform()
    platform.deploy_artifact(artifact_for("sleepy", platform))
    with pytest.raises(TransportError):
        invoke(platform, "sleepy", {"sleep_s": 0.3}, timeout=0.1)
    time.sleep(0.5)  # the server writes its reply to the closed connection meanwhile
    assert "Traceback" not in capfd.readouterr().err
    # Any other error in a handler thread is still reported.
    try:
        raise ValueError("not a connection error")
    except ValueError:
        platform._server.handle_error(None, ("127.0.0.1", 0))
    assert "ValueError: not a connection error" in capfd.readouterr().err


@pytest.mark.parametrize("server", ["platform", "kv"])
def test_stop_returns_at_once_and_closes_the_serve_loop(make_platform, make_kv, server):
    if server == "platform":
        service = make_platform()
        ping = f"{service.base_url}/admin/ping"
    else:
        service = make_kv()
        ping = service.endpoint[: -len("/kv")] + "/ping"
    httpjson.get_json(ping)
    httpjson.close_thread_connections()
    time.sleep(0.05)  # inside the 0.5 s poll that serve_forever would wait out
    served = service._server
    t0 = time.perf_counter()
    service.stop()
    assert time.perf_counter() - t0 < 0.1
    assert not served.thread.is_alive()
    assert served.wake_r.fileno() == -1 and served.wake_w.fileno() == -1


@pytest.mark.parametrize("server", ["platform", "kv"])
def test_stop_closes_the_keep_alive_connections_clients_hold(make_platform, make_kv, server):
    if server == "platform":
        service = make_platform()
        service.deploy_artifact(artifact_for("sleepy", service))
        url, doc = function_endpoint(service.base_url, "sleepy"), {"payload": {}}
    else:
        service = make_kv()
        url, doc = service.endpoint, {"op": "get", "key": "k"}
    before = set(threading.enumerate())
    httpjson.post_json(url, doc)  # leaves this thread's connection open
    handlers = [t for t in set(threading.enumerate()) - before
                if t.name.endswith("(process_request_thread)")]
    assert handlers
    service.stop()
    for thread in handlers:
        thread.join(timeout=1.0)
        assert not thread.is_alive()
    with pytest.raises(TransportError):
        httpjson.post_json(url, doc, timeout=2.0)


def deploy_webshop(platform, kv):
    config = {
        "functions": {fn: {"platform": "sim"} for fn in APP.function_names},
        "platforms": {"sim": {"admin_endpoint": platform.base_url}},
        "external_services": {"kv": kv.endpoint},
    }
    for artifact in compile_deployment(APP, config):
        platform.deploy_artifact(artifact.to_doc())


def handler_threads(before):
    return [t for t in set(threading.enumerate()) - before
            if t.name.endswith("(process_request_thread)")]


def test_handler_threads_close_the_connections_their_functions_opened(make_platform, make_kv):
    kv, platform = make_kv(), make_platform()
    deploy_webshop(platform, kv)
    before = set(threading.enumerate())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        # frontend -> getcart -> cartkvstorage -> KV: each call closes its
        # connection when it ends, so the three inner handler threads end
        # too; the test's kept-alive connection holds the inbound one.
        invoke(platform, "frontend", {"action": "viewCart", "user_id": "u1"})
        deadline = time.monotonic() + 2.0
        while len(alive := handler_threads(before)) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(alive) == 1
        httpjson.close_thread_connections()
        platform.stop()
        kv.stop()
        for thread in alive:
            thread.join(timeout=5.0)
        gc.collect()
    assert handler_threads(before) == []
    assert [str(w.message) for w in caught if "unclosed <socket" in str(w.message)] == []


def test_no_call_inside_a_trace_waits_out_a_reused_connections_reply_stall(make_platform,
                                                                           make_kv):
    # Every delay is zero, so each network and query share is transport cost
    # alone. The frontend's handler thread serves all 40 requests of the one
    # kept-alive client connection. A connection a handler thread kept from
    # one call to the next would make a reply wait >= 40 ms (the delayed-ACK
    # timer); the second KV query of every addToCart would. The bound on
    # every share is half that, not the median's 5 ms: a pause of this
    # process (5-15 ms, now and then) can land inside any one share.
    kv, platform = make_kv(), make_platform()
    deploy_webshop(platform, kv)
    frontend = function_endpoint(platform.base_url, "frontend")
    for action in ("search", "addToCart"):
        spec = loadgen.WorkflowSpec(action, 1.0, (action,))
        for i in range(20):
            records = loadgen.execute_workflow(spec, frontend, random.Random(i), i,
                                               close_connections=False)
            assert records[0].status == "ok", records[0]
    events = [json.loads(line) for fn in APP.function_names for line in platform.fetch_logs(fn)]
    breakdowns = [analyzer.decompose(tree) for tree in analyzer.assemble(events)]
    networks = [edge.network_us / 1000 for b in breakdowns for edge in b.per_call]
    queries = [query.query_us / 1000 for b in breakdowns for query in b.per_query]
    assert len(breakdowns) == 40 and len(networks) == 60 and len(queries) == 40
    for shares in (networks, queries):
        assert statistics.median(shares) < 5.0 and max(shares) < 20.0, sorted(shares)[-5:]
