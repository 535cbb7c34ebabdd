"""``floor-browse``: the harness's own request-path cost, closed loop.

One in-process ``SimPlatform`` with every injected delay at 0 serves the
webshop; ``nproc`` client threads each keep one keep-alive connection and
run ``loadgen.execute_workflow`` back to back with the read-only
``browser`` and ``currency-switcher`` workflows. Every millisecond of
request latency here is harness cost: transport, HTTP server, tracing and
executor claim.

After the timed phase the workload runs ``befaas analyze`` (``ANALYSES``
times, medians reported) on the bundle of the first ``ANALYZED_WORKFLOWS``
workflows: a fixed amount of work, so that the analysis numbers do not
grow when throughput improves.
"""
from __future__ import annotations

import os
import random
import statistics
import threading
import time
from urllib.parse import urlsplit

from befaas import analyzer, compiler, httpjson, loadgen, manager, registry
from befaas.simplatform import AdminClient, PlatformProfile, SimPlatform

import common

SETUPS = 3
ANALYSES = 3
ANALYZED_WORKFLOWS = 300
PLATFORM = "floor"
BROWSE = tuple(s for s in loadgen.WORKFLOW_PRESETS if s.name in ("browser", "currency-switcher"))


class Deployment:
    """The webshop on one zero-delay platform."""

    def __init__(self, app, seed: int):
        start = time.perf_counter()
        self.platform = SimPlatform(PLATFORM, PlatformProfile(name=PLATFORM), seed=seed)
        base_url = self.platform.start()
        config = {
            "functions": {fn: {"platform": PLATFORM} for fn in app.function_names},
            "platforms": {PLATFORM: {"profile": {}, "port": urlsplit(base_url).port}},
        }
        self.config = config
        self.artifacts = compiler.compile_deployment(app, config)
        self.client = AdminClient(base_url)
        for artifact in self.artifacts:
            self.client.deploy(artifact.to_doc())
        self.frontend = self.artifacts[0].endpoint_map[app.entrypoint]
        self.setup_s = time.perf_counter() - start

    def teardown(self) -> float:
        start = time.perf_counter()
        for artifact in self.artifacts:
            self.client.remove(artifact.fn)
        self.platform.teardown()
        self.platform.stop()
        httpjson.close_thread_connections()
        return time.perf_counter() - start


def closed_loop(frontend: str, seed: int, seconds: float, threads: int):
    """``threads`` clients run browse workflows back to back until the deadline.

    Returns one (start s, records) pair per workflow, in start order, and
    the wall time until the last workflow finished.
    """
    results: list[tuple[float, list]] = []
    lock = threading.Lock()
    weights = [spec.weight for spec in BROWSE]
    start = time.perf_counter()
    deadline = start + seconds

    def client(index: int) -> None:
        rng = random.Random(f"{seed}:floor:{index}")
        n = 0
        try:
            while time.perf_counter() < deadline:
                spec = rng.choices(BROWSE, weights=weights)[0]
                began = time.perf_counter() - start
                records = loadgen.execute_workflow(
                    spec, frontend, rng, arrival_index=index * 1_000_000 + n,
                    close_connections=False,
                )
                n += 1
                with lock:
                    results.append((began, records))
        finally:
            httpjson.close_thread_connections()

    workers = [threading.Thread(target=client, args=(i,), name=f"floor-client-{i}")
               for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    results.sort(key=lambda item: item[0])
    return results, elapsed


def run(seed: int, seconds: float, work_dir: str, tracer=None) -> dict:
    app = registry.get_app("webshop")
    checks = common.Checks()
    threads = os.cpu_count() or 1

    setups, teardowns = [], []
    for _ in range(SETUPS - 1):
        deployment = Deployment(app, seed)
        setups.append(deployment.setup_s)
        teardowns.append(deployment.teardown())
    deployment = Deployment(app, seed)
    setups.append(deployment.setup_s)
    try:
        if tracer:
            tracer.start_phase()
        workflows, elapsed = closed_loop(deployment.frontend, seed, seconds, threads)
        if tracer:
            tracer.end_phase(len(workflows))
        events, rejects, errors = manager.collect_logs(
            {PLATFORM: deployment.client}, {PLATFORM: [a.fn for a in deployment.artifacts]})
        checks.expect(not errors, f"floor-browse: log collection failed: {errors}")
        cold_claims = sum(f["executors_created"]
                          for f in deployment.platform.stats()["functions"].values())
    finally:
        teardowns.append(deployment.teardown())

    records = [r.to_doc() for _, recs in workflows for r in recs]
    trees = analyzer.assemble(events)
    ok_trees = common.check_traces(checks, "floor-browse", records, trees, len(rejects),
                                   cold_claims, app.call_graph)
    checks.expect(len(trees) == len(records),
                  f"floor-browse: {len(trees)} trees for {len(records)} requests")

    ok_workflows = sum(1 for _, recs in workflows if all(r.status == "ok" for r in recs))
    latencies_ms = [(r["recv_ts_us"] - r["send_ts_us"]) / 1000.0 for r in records]

    # befaas analyze on the bundle of the first workflows of the run.
    first = [rec for _, recs in workflows[:ANALYZED_WORKFLOWS] for rec in recs]
    contexts = {r.context_id for r in first}
    bundle_dir = os.path.join(work_dir, "bundle")
    common.write_bundle(
        bundle_dir, deployment.config, [r.to_doc() for r in first],
        [e for e in events if e["context_id"] in contexts], [],
        {"seed": seed, "profile": "floor-browse", "scheduled_workflows": len(first),
         "launch_lags_ms": [], "incomplete": False, "trail": []},
    )
    analyses = []
    for _ in range(ANALYSES):
        analyses.append(common.run_analyze(bundle_dir, os.path.join(work_dir, "analysis"),
                                           os.path.join(work_dir, "analyze-stats.json"),
                                           bool(tracer)))
        if tracer:
            tracer.load_child(analyses[-1])

    return {
        "metrics": {
            "wf_per_s": ok_workflows / elapsed,
            "req_p50_ms": common.percentile(latencies_ms, 50),
            "req_p99_ms": common.percentile(latencies_ms, 99),
            "ok_ratio": ok_workflows / len(workflows),
            "setup_s": statistics.median(setups),
            "wrapup_s": statistics.median(teardowns),
            "analyze_peak_mb": statistics.median(a["peak_mb"] for a in analyses),
        },
        "unsteady": {
            "analyze_s": statistics.median(a["wall_s"] for a in analyses),
            "network_excess_ms": common.median_us_as_ms(
                common.warm_network_us(t for t, _ in ok_trees.values())),
        },
        "attempted": len(workflows),
        "failed": len(workflows) - ok_workflows,
        "checks": checks,
        "info": {
            "clients": threads,
            "workflows": len(workflows),
            "requests": len(records),
            "latency_samples": len(latencies_ms),
            "beyond_p99": common.beyond(len(latencies_ms), 99),
            "events": len(events),
            "timed_s": elapsed,
        },
    }
