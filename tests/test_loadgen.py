import collections
import http.server
import json
import math
import random
import statistics
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from befaas import httpjson, loadgen
from befaas.compiler import function_endpoint
from befaas.errors import TransportCallError
from befaas.loadgen import (
    LoadProfile,
    Phase,
    PROFILE_PRESETS,
    WORKFLOW_PRESETS,
    WorkflowSpec,
    draw_workflow_sequence,
    execute_workflow,
    generate_arrivals,
    rate_at,
    run_profile,
)

from test_platform import TEST_APP, artifact_for, deploy_webshop  # reuse the test apps


def profile_integral(profile, t_s):
    """Closed-form integral of the rate over [0, t_s]."""
    total = 0.0
    offset = 0.0
    for phase in profile.phases:
        total += phase.integral(t_s - offset)
        offset += phase.duration_s
    return total


def numeric_integral(profile, t_end, dt=0.001):
    """Independent summation oracle for the rate integral."""
    total = 0.0
    steps = int(t_end / dt)
    for i in range(steps):
        total += rate_at(profile, i * dt) * dt
    return total


# ---------------------------------------------------------------------------
# rate_at
# ---------------------------------------------------------------------------


class TestRateAt:
    def test_default_constant_twenty(self):
        profile = PROFILE_PRESETS["default"]
        for t in (0, 1, 450, 899.999):
            assert rate_at(profile, t) == 20

    def test_growth_linear_midpoint(self):
        assert rate_at(PROFILE_PRESETS["growth"], 450) == 10

    def test_spike_boundaries_take_later_phase(self):
        spike = PROFILE_PRESETS["spike"]
        assert rate_at(spike, 299) == 3.5
        assert rate_at(spike, 300) == 20
        assert rate_at(spike, 900) == 3.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rate_at(PROFILE_PRESETS["default"], -1)
        with pytest.raises(ValueError):
            rate_at(PROFILE_PRESETS["default"], 900)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase(0, 1, 1)
        with pytest.raises(ValueError):
            Phase(10, -1, 1)


# ---------------------------------------------------------------------------
# Arrival generation
# ---------------------------------------------------------------------------


def assert_prefix_counts(profile):
    """Check that floor(integral) arrivals lie before every phase boundary;
    return the arrivals."""
    arrivals = generate_arrivals(profile)
    boundary = 0.0
    for phase in profile.phases:
        boundary += phase.duration_s
        expected = math.floor(profile_integral(profile, boundary) + 1e-9)
        got = sum(1 for t in arrivals if t <= boundary + 1e-9)
        assert got == expected
    return arrivals


# Phases whose running total ends a hair below an integer, and a phase with
# no rate at all; (phases, arrival count).
_SUM_TO_ONE = (Phase(1, 0.7, 0.7), Phase(1, 0.2, 0.2), Phase(1, 0.1, 0.1))
BOUNDARY_CASES = {
    "thirty-tenths": (tuple(Phase(1, 0.1, 0.1) for _ in range(30)), 3),
    "sum-to-one": (_SUM_TO_ONE + (Phase(1, 1, 1),), 2),
    "zero-rate-phase": (_SUM_TO_ONE + (Phase(5, 0, 0), Phase(1, 1, 1)), 2),
}


class TestDeterministicArrivals:
    def test_default_profile_exactly_18000(self):
        arrivals = generate_arrivals(PROFILE_PRESETS["default"])
        assert len(arrivals) == 18_000

    def test_constant_two_per_second_spacing(self):
        profile = LoadProfile("c", (Phase(60, 2, 2),))
        arrivals = generate_arrivals(profile)
        assert len(arrivals) == 120
        gaps = {round(b - a, 9) for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {0.5}

    def test_spike_integrates_to_14100(self):
        # 3.5*300 + 20*600 + 3.5*300 = 14,100; cross-check the closed-form
        # integral against a numeric summation oracle.
        spike = PROFILE_PRESETS["spike"]
        assert len(generate_arrivals(spike)) == 14_100
        assert profile_integral(spike, spike.total_duration_s) == pytest.approx(14_100)
        assert numeric_integral(spike, spike.total_duration_s, dt=0.01) == pytest.approx(
            14_100, rel=1e-3
        )

    def test_growth_fills_9000(self):
        growth = PROFILE_PRESETS["growth"]
        assert len(generate_arrivals(growth)) == 9000
        assert numeric_integral(growth, 900, dt=0.01) == pytest.approx(9000, rel=1e-3)

    def test_arrivals_sorted_within_duration(self):
        arrivals = generate_arrivals(PROFILE_PRESETS["spike-60s"])
        assert arrivals == sorted(arrivals)
        assert all(0 < t <= 60 for t in arrivals)

    @given(
        st.lists(
            st.tuples(
                st.floats(5, 60),      # duration
                st.floats(0, 10),      # rate start
                st.floats(0, 10),      # rate end
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_counts_match_integral_floor(self, raw_phases):
        # Arrival-count exactness at every phase boundary.
        phases = tuple(Phase(d, rs, re) for d, rs, re in raw_phases)
        assert_prefix_counts(LoadProfile("gen", phases))

    @pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
    def test_boundary_cases_place_each_arrival_once(self, name):
        phases, count = BOUNDARY_CASES[name]
        profile = LoadProfile(name, phases)
        arrivals = assert_prefix_counts(profile)
        assert len(arrivals) == count
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------


class TestWorkflowSpecs:
    def test_presets_span_one_to_nine_requests(self):
        lengths = {len(w.steps) for w in WORKFLOW_PRESETS}
        assert all(1 <= n <= 9 for n in lengths)
        assert max(lengths) == 9 and min(lengths) == 3

    def test_preset_weights_sum_to_one(self):
        assert sum(w.weight for w in WORKFLOW_PRESETS) == pytest.approx(1.0)

    def test_step_bounds_enforced(self):
        with pytest.raises(ValueError):
            WorkflowSpec("too-long", 1.0, tuple(["home"] * 10))
        with pytest.raises(ValueError):
            WorkflowSpec("empty", 1.0, ())

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError, match="viewProdcut"):
            WorkflowSpec("typo", 1.0, ("home", "viewProdcut"))

    @pytest.mark.parametrize("action", sorted(loadgen.ACTIONS))
    def test_every_action_builds_a_payload(self, action):
        assert loadgen.build_action(action, {}, random.Random(0))["action"] == action

    @pytest.mark.parametrize("weights", [(0.4, 0.3, 0.2, 0.1), None])
    def test_weighted_draw_frequencies(self, weights):
        # Multinomial oracle: empirical frequencies within +/-2 % absolute
        # over 10,000 draws, for a custom weight vector and the presets.
        if weights is None:
            workflows = WORKFLOW_PRESETS
        else:
            workflows = tuple(
                WorkflowSpec(f"wf{i}", w, ("home",)) for i, w in enumerate(weights)
            )
        n = 10_000
        sequence = draw_workflow_sequence(workflows, n, seed=11)
        counts = collections.Counter(s.name for s in sequence)
        for spec in workflows:
            assert abs(counts[spec.name] / n - spec.weight) < 0.02

    def test_draw_is_seed_deterministic(self):
        a = [s.name for s in draw_workflow_sequence(WORKFLOW_PRESETS, 500, seed=3)]
        b = [s.name for s in draw_workflow_sequence(WORKFLOW_PRESETS, 500, seed=3)]
        assert a == b


# ---------------------------------------------------------------------------
# Execution against the simulated platform
# ---------------------------------------------------------------------------


def deploy_sleepy(platform):
    platform.deploy_artifact(artifact_for("sleepy", platform))
    return function_endpoint(platform.base_url, "sleepy")


SLEEPY_WORKFLOW = WorkflowSpec("hammer", 1.0, ("home", "home", "home"))


class TestExecuteWorkflow:
    def test_browser_workflow_record_shape(self, make_platform):
        # 'sleepy' accepts any payload, so any 3-step workflow exercises
        # the sequential record-keeping path.
        platform = make_platform()
        endpoint = deploy_sleepy(platform)
        browser = WORKFLOW_PRESETS[0]
        records = execute_workflow(browser, endpoint, random.Random(1))
        assert [r.step for r in records] == [0, 1, 2]
        assert all(r.status == "ok" for r in records)
        assert all(r.recv_ts_us >= r.send_ts_us for r in records)
        assert all(r.workflow == "browser" for r in records)
        assert all(r.context_id for r in records)

    def test_workflow_against_stopped_platform_records_transport_error(self, make_platform):
        platform = make_platform()
        endpoint = deploy_sleepy(platform)
        platform.stop()
        records = execute_workflow(SLEEPY_WORKFLOW, endpoint, random.Random(1), timeout_s=2.0)
        assert records[0].status == "transport_error"
        assert len(records) == 1  # abandoned after the failing step


def test_no_step_of_a_workflow_waits_out_a_reused_connections_reply_stall(
        make_platform, make_kv, monkeypatch):
    # Every delay is zero, so a step's client latency is the harness's own
    # cost: a few ms. A connection kept from one step to the next would
    # make the reply of every later step wait >= 40 ms (the delayed-ACK
    # timer). The bound on every latency is half that, not the median's
    # 5 ms: a pause of this process (5-15 ms, now and then) can land
    # inside any one request.
    kv, platform = make_kv(), make_platform()
    deploy_webshop(platform, kv)
    frontend = function_endpoint(platform.base_url, "frontend")
    cached_at_send = []
    real_post_json = httpjson.post_json

    def watched_post_json(url, doc, timeout):
        cached_at_send.append(dict(httpjson._connections()))
        return real_post_json(url, doc, timeout)

    monkeypatch.setattr(httpjson, "post_json", watched_post_json)
    window_shopper = next(w for w in WORKFLOW_PRESETS if w.name == "window-shopper")
    records = [record for i in range(20)
               for record in execute_workflow(window_shopper, frontend, random.Random(i), i)]
    assert len(records) == 100 and all(r.status == "ok" for r in records)
    # Each step, the first included, finds the thread holding no connection.
    assert cached_at_send == [{}] * 100
    latencies = [(r.recv_ts_us - r.send_ts_us) / 1000 for r in records]
    assert statistics.median(latencies) < 5.0 and max(latencies) < 20.0, sorted(latencies)[-5:]


@pytest.fixture
def raw_frontend():
    """Start a bare HTTP server that answers every POST with ``status`` and
    ``body``."""
    servers = []

    def factory(body: bytes, status: int = 200) -> str:
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/fn/frontend"

    yield factory
    httpjson.close_thread_connections()
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("body", [b"garbage", b"[]"])
def test_ok_reply_that_is_not_an_object_is_an_error(raw_frontend, body):
    endpoint = raw_frontend(body)
    with pytest.raises(TransportCallError) as err:
        httpjson.post_json(endpoint, {"payload": {}})
    assert err.value.status == 200
    assert err.value.body["error"] == {
        "message": f"non-object JSON response from {endpoint}", "kind": "server"}

    records = execute_workflow(SLEEPY_WORKFLOW, endpoint, random.Random(1))
    assert [(r.status, r.context_id) for r in records] == [("error:200", None)] * 3


@pytest.mark.parametrize("status, doc", [
    (200, {"_befaas": "x", "payload": {}}),
    (200, {"_befaas": {"ctx": 5}, "payload": {}}),
    (500, {"_befaas": ["x"], "error": {"message": "boom", "kind": "server"}}),
    (400, {"_befaas": {"ctx": None}, "error": {"message": "bad", "kind": "client"}}),
])
def test_malformed_trace_envelope_reads_as_no_context(raw_frontend, status, doc):
    endpoint = raw_frontend(json.dumps(doc).encode(), status)
    records = execute_workflow(SLEEPY_WORKFLOW, endpoint, random.Random(1))
    expected = "ok" if status == 200 else f"error:{status}"
    assert [(r.status, r.context_id) for r in records] == [(expected, None)] * 3


class TestRunProfile:
    def test_count_and_determinism(self, make_platform):
        platform = make_platform()
        endpoint = deploy_sleepy(platform)
        profile = LoadProfile("quick", (Phase(5, 2, 2),))
        result = run_profile(profile, (SLEEPY_WORKFLOW,), endpoint, seed=9)
        assert result.scheduled == 10
        assert len(result.records) == 30
        assert all(r.status == "ok" for r in result.records)
        assert sorted({r.arrival_index for r in result.records}) == list(range(10))
        rerun_types = draw_workflow_sequence((SLEEPY_WORKFLOW,), 10, seed=9)
        assert result.workflow_sequence == [s.name for s in rerun_types]

    def test_schedule_fidelity(self, make_platform):
        # 99 % of launches within 50 ms of schedule at desk-scale rates.
        platform = make_platform()
        endpoint = deploy_sleepy(platform)
        profile = LoadProfile("fidelity", (Phase(4, 10, 10),))
        result = run_profile(profile, (SLEEPY_WORKFLOW,), endpoint, seed=1)
        lags = sorted(result.launch_lags_ms)
        p99 = lags[int(len(lags) * 0.99) - 1]
        assert p99 <= 50

    def test_records_in_arrival_order_and_threads_joined(self, monkeypatch):
        def fake_workflow(spec, endpoint, rng, arrival_index):
            time.sleep(0.05 * (arrival_index % 2))  # odd arrivals finish last
            return [loadgen.ClientRecord(spec.name, arrival_index, step, action, 0, 0, "ok",
                                         None)
                    for step, action in enumerate(spec.steps)]

        monkeypatch.setattr(loadgen, "execute_workflow", fake_workflow)
        baseline = threading.active_count()
        profile = LoadProfile("fast", (Phase(0.5, 20, 20),))
        result = run_profile(profile, (SLEEPY_WORKFLOW,), "http://unused", seed=3)
        assert threading.active_count() == baseline
        assert [(r.arrival_index, r.step) for r in result.records] == [
            (index, step) for index in range(10) for step in range(3)]

    def test_raising_workflow_is_reraised_after_the_others_finish(self, monkeypatch):
        finished = []

        def fake_workflow(spec, endpoint, rng, arrival_index):
            if arrival_index == 1:
                raise RuntimeError("workflow 1 broke")
            time.sleep(0.1)
            finished.append(arrival_index)
            return [loadgen.ClientRecord(spec.name, arrival_index, 0, "home", 0, 0, "ok", None)]

        monkeypatch.setattr(loadgen, "execute_workflow", fake_workflow)
        profile = LoadProfile("fast", (Phase(0.5, 8, 8),))
        with pytest.raises(RuntimeError, match="workflow 1 broke") as raised:
            run_profile(profile, (SLEEPY_WORKFLOW,), "http://unused", seed=3)
        assert sorted(finished) == [0, 2, 3]
        partial = raised.value.load_result
        assert [r.arrival_index for r in partial.records] == [0, 2, 3]
        assert partial.scheduled == 4 and len(partial.launch_lags_ms) == 4

    def test_profile_from_config_variants(self):
        assert loadgen.profile_from_config("spike").name == "spike"
        inline = loadgen.profile_from_config(
            {"phases": [{"duration_s": 10, "rate_start": 1, "rate_end": 2}]}
        )
        assert inline.total_duration_s == 10
        with pytest.raises(ValueError):
            loadgen.profile_from_config("warp")
