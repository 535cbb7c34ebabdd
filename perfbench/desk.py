"""``desk-mix``: ``manager.run_experiment`` as a user runs it, open loop.

Four back-to-back experiments share the run's seconds. Each runs the
preset four-workflow mix at one constant rate against a desk-scale
``scaler`` platform (50 ms cold start, 1 ms invoke overhead, 2 ms network
per direction, 64 executors, ``scale_up``), a managed KV service with a
4 ms query delay, and ``COMPUTE_MS=1`` on every function. This is the one
workload that loads the injected sleeps, cold starts, the KV store, the
launch schedule, log collection and bundle writing. Four experiments
give four set-up and wrap-up times, of which the median is reported.
"""
from __future__ import annotations

import os
import statistics

from befaas import analyzer, loadgen, manager, registry
from befaas.clock import now_us
from befaas.simplatform import SimPlatform

import common

EXPERIMENTS = 4
RATE = 5.0
NETWORK_MS = 2.0
INVOKE_MS = 1.0
QUERY_MS = 4.0
PLATFORM = "desk"
PROFILE = {
    "name": "scaler",
    "cold_start_delay_ms": 50,
    "invoke_overhead_ms": INVOKE_MS,
    "network_delay_ms": NETWORK_MS,
    "max_executors": 64,
    "queue_policy": "scale_up",
}


def experiment_config(app, seed: int, seconds: float) -> dict:
    return {
        "app": app.name,
        "functions": {fn: {"platform": PLATFORM, "env": {"COMPUTE_MS": 1}}
                      for fn in app.function_names},
        "platforms": {PLATFORM: {"profile": PROFILE}},
        "external_services": {"kv": {"managed": True, "query_delay_ms": QUERY_MS}},
        "load_profile": {"name": "desk-mix",
                         "phases": [{"duration_s": seconds, "rate_start": RATE,
                                     "rate_end": RATE}]},
        "seed": seed,
    }


class _RecordingPlatform(SimPlatform):
    """SimPlatform that remembers its instances, for their executor counts."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingPlatform.instances.append(self)


def _audit_us(bundle, action: str) -> int:
    return next(e["ts_us"] for e in bundle.audit["trail"] if e["action"] == action)


def experiment(app, seed: int, seconds: float, out_dir: str) -> dict:
    """One ``run_experiment`` call and the numbers taken from it."""
    _RecordingPlatform.instances = []
    manager.SimPlatform = _RecordingPlatform
    try:
        called_us = now_us()
        plan = manager.ExperimentPlan(config=experiment_config(app, seed, seconds),
                                      out_dir=out_dir)
        bundle = manager.run_experiment(plan)
        returned_us = now_us()
    finally:
        manager.SimPlatform = SimPlatform
    (platform,) = _RecordingPlatform.instances
    load_start, load_end = _audit_us(bundle, "start_profile"), _audit_us(bundle, "finish_profile")
    cold_claims = sum(f["executors_created"] for f in platform.stats()["functions"].values())
    return {
        "bundle": bundle,
        "setup_s": (load_start - called_us) / 1e6,
        "load_s": (load_end - load_start) / 1e6,
        "wrapup_s": (returned_us - load_end) / 1e6,
        "cold_claims": cold_claims,
    }


def _latencies_ms(bundle) -> list[float]:
    """Frontend request latencies; a workflow's first step counts from when
    it was due, i.e. its launch lag is added."""
    lags = bundle.audit["launch_lags_ms"]
    out = []
    for r in bundle.client_records:
        latency = (r["recv_ts_us"] - r["send_ts_us"]) / 1000.0
        if r["step"] == 0:
            latency += lags[r["arrival_index"]]
        out.append(latency)
    return out


def _inflight_mean(bundle, load_s: float) -> float:
    spans: dict[int, list[int]] = {}
    for r in bundle.client_records:
        span = spans.setdefault(r["arrival_index"], [r["send_ts_us"], r["recv_ts_us"]])
        span[0], span[1] = min(span[0], r["send_ts_us"]), max(span[1], r["recv_ts_us"])
    return sum(end - start for start, end in spans.values()) / 1e6 / load_s


def run(seed: int, seconds: float, work_dir: str, tracer=None) -> dict:
    app = registry.get_app("webshop")
    checks = common.Checks()
    expected_steps = {spec.name: len(spec.steps) for spec in loadgen.WORKFLOW_PRESETS}
    share = seconds / EXPERIMENTS

    runs = []
    latencies, network, queries, inflight = [], [], [], []
    scheduled = ok_workflows = 0
    for k in range(EXPERIMENTS):
        label = f"desk-mix#{k}"
        bundle_dir = os.path.join(work_dir, f"bundle-{k}")
        result = experiment(app, seed * EXPERIMENTS + k, share, bundle_dir)
        bundle = result["bundle"]
        records = bundle.client_records
        trees = analyzer.assemble(bundle.events)
        ok_trees = common.check_traces(checks, label, records, trees, len(bundle.rejects),
                                       result["cold_claims"], app.call_graph)
        checks.expect(not bundle.incomplete, f"{label}: bundle marked incomplete")

        per_wf: dict[int, list] = {}
        for r in records:
            per_wf.setdefault(r["arrival_index"], []).append(r)
        ok_workflows += sum(
            1 for recs in per_wf.values()
            if all(r["status"] == "ok" for r in recs)
            and len(recs) == expected_steps[recs[0]["workflow"]]
        )
        scheduled += bundle.audit["scheduled_workflows"]
        latencies += _latencies_ms(bundle)
        ok = [t for t, _ in ok_trees.values()]
        network += common.warm_network_us(ok)
        queries += common.query_us(ok)
        inflight.append(_inflight_mean(bundle, result["load_s"]))

        analysis = common.run_analyze(bundle_dir, os.path.join(work_dir, f"analysis-{k}"),
                                      os.path.join(work_dir, f"analyze-stats-{k}.json"),
                                      bool(tracer))
        if tracer:
            tracer.load_child(analysis)
        result["analyze_s"], result["peak_mb"] = analysis["wall_s"], analysis["peak_mb"]
        result.pop("bundle")
        runs.append(result)

    load_s = sum(r["load_s"] for r in runs)
    return {
        "metrics": {
            "wf_per_s": ok_workflows / load_s,
            "req_p50_ms": common.percentile(latencies, 50),
            "req_p99_ms": common.percentile(latencies, 99),
            "ok_ratio": ok_workflows / scheduled,
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "wrapup_s": statistics.median(r["wrapup_s"] for r in runs),
            "analyze_peak_mb": statistics.median(r["peak_mb"] for r in runs),
        },
        "unsteady": {
            "analyze_s": statistics.median(r["analyze_s"] for r in runs),
            "network_excess_ms": common.median_us_as_ms(network) - (2 * NETWORK_MS + INVOKE_MS),
            "query_excess_ms": common.median_us_as_ms(queries) - 2 * QUERY_MS,
        },
        "attempted": scheduled,
        "failed": scheduled - ok_workflows,
        "checks": checks,
        "info": {
            "rate_wf_per_s": RATE,
            "experiments": EXPERIMENTS,
            "scheduled": scheduled,
            "requests": len(latencies),
            "latency_samples": len(latencies),
            "beyond_p99": common.beyond(len(latencies), 99),
            "inflight_mean": [round(x, 3) for x in inflight],
            "cold_starts": sum(r["cold_claims"] for r in runs),
            "load_s": load_s,
        },
    }
