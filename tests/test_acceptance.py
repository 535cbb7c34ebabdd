"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with:

    pytest tests/test_acceptance.py -v -s

Criteria 2 and 8 share one desk-scale run (same plan, same seed); the
reproducibility check performs the second run itself.
"""
import itertools
import json
import math
import statistics
import threading
from contextlib import contextmanager

import pytest

from befaas import analyzer, httpjson, loadgen
from befaas.analyzer import assemble, cold_start_report, decompose, naive_one_way, rtt_one_way, stats
from befaas.compiler import compile_deployment, function_endpoint
from befaas.loadgen import WORKFLOW_PRESETS, WorkflowSpec, generate_arrivals, rate_at
from befaas.manager import ExperimentPlan, run_experiment
from befaas.simplatform import AdminClient, KVService, SimPlatform, profile_from_config
from befaas.webshop import build_app

APP = build_app()
SEED = 42

FAST_PROFILE = {
    "cold_start_delay_ms": 20,
    "invoke_overhead_ms": 0.5,
    "network_delay_ms": 1,
    "max_executors": 64,
    "queue_policy": "scale_up",
}


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def desk_scale_config(**platform_overrides):
    profile = dict(FAST_PROFILE, **platform_overrides)
    return {
        "functions": {fn: {"platform": "a"} for fn in APP.function_names},
        "platforms": {"a": {"profile": profile}},
        "external_services": {"kv": {"managed": True, "query_delay_ms": 1}},
        "load_profile": "default-60s",
        "seed": SEED,
    }


def run_desk_scale(config, out_dir):
    return run_experiment(ExperimentPlan(config=config, out_dir=str(out_dir)))


def workflow_success_fraction(bundle):
    expected = {w.name: len(w.steps) for w in WORKFLOW_PRESETS}
    per_wf: dict[int, list[dict]] = {}
    for record in bundle.client_records:
        per_wf.setdefault(record["arrival_index"], []).append(record)
    ok = sum(
        1
        for recs in per_wf.values()
        if all(r["status"] == "ok" for r in recs)
        and len(recs) == expected[recs[0]["workflow"]]
    )
    return ok / bundle.audit["scheduled_workflows"], per_wf


def assert_desk_scale_invariants(bundle):
    """The criterion-2 assertion block (reused by the federated run)."""
    success, per_wf = workflow_success_fraction(bundle)
    assert success >= 0.99, f"workflow success {success:.3f} < 0.99"
    assert bundle.audit["scheduled_workflows"] == 120

    for recs in per_wf.values():
        assert 1 <= len(recs) <= 9

    trees = assemble(bundle.events)
    contexts_with_roots = 0
    non_error = 0
    for tree in trees:
        if tree.has_errors:
            continue
        non_error += 1
        if tree.root is not None and not tree.orphans:
            contexts_with_roots += 1
    assert non_error > 0
    assert contexts_with_roots == non_error, "non-error context without a single-rooted tree"

    # Client ground truth ties into the platform logs, and the workload
    # touches every one of the 17 functions.
    event_contexts = {e["context_id"] for e in bundle.events}
    for record in bundle.client_records:
        if record["status"] == "ok":
            assert record["context_id"] in event_contexts
    assert {e["fn"] for e in bundle.events} == set(APP.function_names)
    return trees


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-run1")
    return run_desk_scale(desk_scale_config(), out)


# ---------------------------------------------------------------------------
# 1. Load-profile arithmetic
# ---------------------------------------------------------------------------


def test_criterion_1_load_profile_arithmetic():
    with criterion(1, "load-profile arithmetic"):
        default = loadgen.PROFILE_PRESETS["default"]
        assert default.total_duration_s == 900
        assert len(generate_arrivals(default)) == 18_000  # exact

        spike = loadgen.PROFILE_PRESETS["spike"]
        assert len(generate_arrivals(spike)) == 14_100  # exact

        growth = loadgen.PROFILE_PRESETS["growth"]
        assert rate_at(growth, 450) == 10.0  # exact piecewise evaluation


# ---------------------------------------------------------------------------
# 2. End-to-end desk-scale run
# ---------------------------------------------------------------------------


def test_criterion_2_desk_scale_run(desk_run):
    with criterion(2, "end-to-end desk-scale run"):
        assert_desk_scale_invariants(desk_run)


# ---------------------------------------------------------------------------
# 3. Decomposition recovery
# ---------------------------------------------------------------------------


def test_criterion_3_decomposition_recovery(tmp_path):
    with criterion(3, "decomposition recovery"):
        compute_ms, network_ms, kv_ms = 5.0, 10.0, 8.0
        kv = KVService(query_delay_ms=kv_ms)
        kv.start()
        platform = SimPlatform(
            "a",
            profile_from_config(
                {
                    "cold_start_delay_ms": 0,
                    "invoke_overhead_ms": 0,
                    "network_delay_ms": network_ms,
                    "max_executors": 4,
                    "queue_policy": "scale_up",
                }
            ),
        )
        platform.start()
        try:
            config = {
                "functions": {
                    fn: {"platform": "a", "env": {"COMPUTE_MS": str(compute_ms)}}
                    for fn in APP.function_names
                },
                "platforms": {
                    "a": {"admin_endpoint": platform.base_url}
                },
                "external_services": {"kv": kv.endpoint},
            }
            artifacts = compile_deployment(APP, config)
            client = AdminClient(platform.base_url)
            chain_fns = {"frontend", "addcartitem", "cartkvstorage"}
            for artifact in artifacts:
                if artifact.fn in chain_fns:
                    client.deploy(artifact.to_doc())
            frontend = artifacts[0].endpoint_map["frontend"]

            spec = WorkflowSpec("cart-hammer", 1.0, ("addToCart",))
            import random

            try:
                for i in range(210):
                    records = loadgen.execute_workflow(
                        spec, frontend, random.Random(i), i, close_connections=False
                    )
                    assert records[0].status == "ok", records[0]
            finally:
                httpjson.close_thread_connections()

            events = []
            for fn in chain_fns:
                events.extend(json.loads(line) for line in client.logs(fn))
            trees = [t for t in assemble(events) if not t.has_errors and t.root is not None]
            assert len(trees) >= 200

            computes = {fn: [] for fn in chain_fns}
            networks = {("frontend", "addcartitem"): [], ("addcartitem", "cartkvstorage"): []}
            queries = []
            for tree in trees:
                breakdown = decompose(tree)
                # Conservation per synchronous tree: within 1 ms, and with
                # zero injected skew no component may come back negative.
                assert abs(tree.root.duration_us - breakdown.total_us) <= 1_000
                assert not breakdown.flagged
                for span_compute in breakdown.per_span:
                    computes[span_compute.span.fn].append(span_compute.compute_us / 1000)
                for edge in breakdown.per_call:
                    networks[(edge.caller_fn, edge.target)].append(edge.network_us / 1000)
                for query in breakdown.per_query:
                    queries.append(query.query_us / 1000)

            for fn, samples in computes.items():
                median = statistics.median(samples)
                assert abs(median - compute_ms) <= 2.0, f"compute[{fn}] median {median:.2f}"
            for edge, samples in networks.items():
                median = statistics.median(samples)
                assert abs(median - 2 * network_ms) <= 2.0, f"network[{edge}] median {median:.2f}"
            assert len(queries) >= 2 * len(trees)
            query_median = statistics.median(queries)
            assert abs(query_median - 2 * kv_ms) <= 2.0, f"query median {query_median:.2f}"
        finally:
            platform.teardown()
            platform.stop()
            kv.stop()


# ---------------------------------------------------------------------------
# 4. Cold-start detection
# ---------------------------------------------------------------------------


def test_criterion_4_cold_start_detection():
    with criterion(4, "cold-start detection"):
        platform = SimPlatform("burst", profile_from_config("scaler"))
        platform.start()
        try:
            config = {
                "functions": {fn: {"platform": "a"} for fn in APP.function_names},
                "platforms": {
                    "a": {"admin_endpoint": platform.base_url}
                },
                "external_services": {"kv": "http://127.0.0.1:1/kv"},
            }
            artifacts = {a.fn: a for a in compile_deployment(APP, config)}
            client = AdminClient(platform.base_url)
            client.deploy(artifacts["listproducts"].to_doc())
            endpoint = function_endpoint(platform.base_url, "listproducts")

            def burst(count):
                barrier = threading.Barrier(count)
                failures = []

                def hit():
                    barrier.wait()
                    try:
                        httpjson.post_json(endpoint, {"payload": {}})
                    except Exception as exc:  # noqa: BLE001
                        failures.append(exc)
                    finally:
                        httpjson.close_thread_connections()

                threads = [threading.Thread(target=hit) for _ in range(count)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert failures == []

            burst(10)
            events = [json.loads(line) for line in client.logs("listproducts")]
            report = cold_start_report(assemble(events))
            created = platform.stats()["functions"]["listproducts"]["executors_created"]
            assert report.counts_by_fn.get("listproducts", 0) == 10  # exactly 10
            assert created == 10
            assert report.total == created  # analyzer equals platform ground truth

            # Second burst, idle timeout infinite: zero new cold starts.
            burst(10)
            events = [json.loads(line) for line in client.logs("listproducts")]
            report = cold_start_report(assemble(events))
            assert report.counts_by_fn.get("listproducts", 0) == 10
            assert platform.stats()["functions"]["listproducts"]["executors_created"] == 10
        finally:
            platform.teardown()
            platform.stop()


# ---------------------------------------------------------------------------
# 5. Federated deployment
# ---------------------------------------------------------------------------


def test_criterion_5_federated_deployment(tmp_path):
    with criterion(5, "federated deployment"):
        config = desk_scale_config()
        config["platforms"]["b"] = {"profile": dict(FAST_PROFILE)}
        for fn in APP.function_names:
            if fn != "frontend":
                config["functions"][fn] = {"platform": "b"}
        bundle = run_desk_scale(config, tmp_path / "federated")
        trees = assert_desk_scale_invariants(bundle)
        for tree in trees:
            if tree.has_errors or tree.root is None:
                continue
            platforms = {span.platform for span in tree.root.walk()}
            assert platforms == {"a", "b"}, f"trace missing a platform: {platforms}"


# ---------------------------------------------------------------------------
# 6. Skew robustness
# ---------------------------------------------------------------------------


def test_criterion_6_skew_robustness():
    with criterion(6, "skew robustness"):
        network_ms, skew_ms = 10.0, 50.0
        kv = KVService(query_delay_ms=1)
        kv.start()
        base = {
            "cold_start_delay_ms": 0,
            "invoke_overhead_ms": 0,
            "network_delay_ms": network_ms,
            "max_executors": 4,
            "queue_policy": "scale_up",
        }
        platform_a = SimPlatform("a", profile_from_config(base))
        platform_b = SimPlatform("b", profile_from_config(dict(base, clock_skew_ms=skew_ms)))
        platform_a.start()
        platform_b.start()
        try:
            config = {
                "functions": {
                    fn: {"platform": "a" if fn == "frontend" else "b"}
                    for fn in APP.function_names
                },
                "platforms": {
                    "a": {"admin_endpoint": platform_a.base_url},
                    "b": {"admin_endpoint": platform_b.base_url},
                },
                "external_services": {"kv": kv.endpoint},
            }
            artifacts = compile_deployment(APP, config)
            clients = {"a": AdminClient(platform_a.base_url), "b": AdminClient(platform_b.base_url)}
            chain_fns = {"frontend", "addcartitem", "cartkvstorage"}
            for artifact in artifacts:
                if artifact.fn in chain_fns:
                    clients[artifact.platform_id].deploy(artifact.to_doc())
            frontend = artifacts[0].endpoint_map["frontend"]

            import random

            spec = WorkflowSpec("cart-hammer", 1.0, ("addToCart",))
            try:
                for i in range(30):
                    records = loadgen.execute_workflow(
                        spec, frontend, random.Random(i), i, close_connections=False
                    )
                    assert records[0].status == "ok"
            finally:
                httpjson.close_thread_connections()

            events = []
            events.extend(json.loads(line) for line in clients["a"].logs("frontend"))
            for fn in ("addcartitem", "cartkvstorage"):
                events.extend(json.loads(line) for line in clients["b"].logs(fn))

            rtt_errors_ms = []
            naive_errors_ms = []
            for tree in assemble(events):
                if tree.root is None or tree.has_errors:
                    continue
                breakdown = decompose(tree)
                for edge in breakdown.per_call:
                    if (edge.caller_fn, edge.target) != ("frontend", "addcartitem"):
                        continue
                    estimate = rtt_one_way(edge)
                    rtt_errors_ms.append(abs(estimate.value_us / 1000 - network_ms))
                    outbound, _ = naive_one_way(edge)
                    naive_errors_ms.append(abs(outbound / 1000 - network_ms))

            assert len(rtt_errors_ms) >= 25
            assert statistics.median(rtt_errors_ms) <= 3.0, statistics.median(rtt_errors_ms)
            assert statistics.median(naive_errors_ms) >= 40.0, statistics.median(naive_errors_ms)
        finally:
            platform_a.teardown()
            platform_a.stop()
            platform_b.teardown()
            platform_b.stop()
            kv.stop()


# ---------------------------------------------------------------------------
# 7. Statistics oracle
# ---------------------------------------------------------------------------


def brute_force_stats(samples):
    """Independent reference: direct formula on the sorted list plus a
    linear fence scan."""
    xs = sorted(float(x) for x in samples)
    n = len(xs)

    def quantile(p):
        h = (n - 1) * p
        lo = math.floor(h)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

    q1, median, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [x for x in xs if lo_fence <= x <= hi_fence]
    outliers = tuple(x for x in xs if x < lo_fence or x > hi_fence)
    return (n, xs[0], q1, median, q3, xs[-1], inside[0], inside[-1], outliers)


def test_criterion_7_statistics_oracle():
    with criterion(7, "statistics oracle"):
        checked = 0
        for size in range(1, 9):
            for combo in itertools.combinations_with_replacement(range(11), size):
                s = stats(combo)
                got = (s.n, s.min, s.q1, s.median, s.q3, s.max, s.whisker_low, s.whisker_high, s.outliers)
                assert got == brute_force_stats(combo), combo  # exact
                checked += 1
        assert checked == sum(
            math.comb(10 + k, k) for k in range(1, 9)
        )


# ---------------------------------------------------------------------------
# 8. Reproducibility
# ---------------------------------------------------------------------------


def tree_shape_multiset(events):
    return sorted(t.shape_signature() for t in assemble(events) if t.root is not None)


def test_criterion_8_reproducibility(desk_run, tmp_path):
    with criterion(8, "reproducibility"):
        second = run_desk_scale(desk_scale_config(), tmp_path / "run2")
        assert desk_run.audit["workflow_sequence"] == second.audit["workflow_sequence"]
        shapes_one = tree_shape_multiset(desk_run.events)
        shapes_two = tree_shape_multiset(second.events)
        assert shapes_one == shapes_two
        assert len(shapes_one) > 0
