"""Shared pieces of the harness benchmark: statistics, bundles, checks.

Nothing here imports ``befaas`` at module load: ``run.py`` puts the
checkout's ``src`` on the path first, and the workload modules import the
program after that.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: The webshop's frontend callees per action, for a successful request.
#: ``viewProduct`` also calls ``currency`` when the session has a currency.
FRONTEND_CALLEES = {
    "home": {"listproducts", "getads", "listrecommendations", "supportedcurrencies"},
    "viewProduct": {"getproduct", "getads", "listrecommendations"},
    "search": {"searchproducts"},
    "setCurrency": {"supportedcurrencies"},
    "addToCart": {"addcartitem"},
    "viewCart": {"getcart"},
    "emptyCart": {"emptycart"},
    "checkout": {"checkout"},
    "viewOrderConfirmation": {"listrecommendations", "getads"},
}

#: Actions whose frontend issues a parallel call block.
PARALLEL_ACTIONS = {"home", "viewProduct", "viewOrderConfirmation"}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics, ``p`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    h = (len(ordered) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def median_us_as_ms(values_us) -> float:
    """Median of integer-microsecond samples, in ms.

    The samples are whole microseconds, so a plain median of sub-ms values
    repeats to the digit; the grouped median interpolates inside the
    median's 1 us class and keeps the reading continuous.
    """
    if not values_us:
        raise ValueError("median of an empty sample")
    return statistics.median_grouped(values_us, 1) / 1000.0


def beyond(n: int, p: float) -> int:
    """Samples that lie above the ``p``-th percentile of ``n`` samples."""
    return n - math.ceil(n * p / 100.0)


# ---------------------------------------------------------------------------
# Results bundles and the analyze child
# ---------------------------------------------------------------------------


def write_bundle(out_dir: str, config: dict, records: list, events: list, rejects: list,
                 audit: dict) -> None:
    """Write a results bundle in the layout ``befaas analyze`` reads."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    for name, docs in (("client_records.ndjson", records), ("events.ndjson", events)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    with open(os.path.join(out_dir, "rejects.log"), "w", encoding="utf-8") as fh:
        for line in rejects:
            fh.write(line + "\n")
    with open(os.path.join(out_dir, "audit.json"), "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_analyze(bundle_dir: str, out_dir: str, stats_path: str, traced: bool = False) -> dict:
    """Run ``befaas analyze`` in a child; return its stats with the wall time.

    The stats (see ``analyze_child.py``) carry the child's peak RSS and,
    when ``traced``, its analyzer-layer spans.
    """
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "analyze_child.py"), stats_path,
            "1" if traced else "0", "analyze", "--bundle", bundle_dir, "--out", out_dir]
    start = time.perf_counter()
    code = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"befaas analyze exited with {code} on {bundle_dir}")
    with open(stats_path, "r", encoding="utf-8") as fh:
        stats = json.load(fh)
    stats["wall_s"] = wall
    stats["peak_mb"] = stats["peak_kb"] / 1024.0
    return stats


# ---------------------------------------------------------------------------
# Correctness checks on assembled traces
# ---------------------------------------------------------------------------


class Checks:
    """Collects failed correctness checks; a run with any is not correct."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 50:
            self.failures.append(message)


def check_traces(checks: Checks, label: str, records: list, trees: list, rejects: int,
                 cold_claims: int, call_graph: dict) -> dict:
    """Check one run's traces against its client records.

    Every ok client request must have a single-rooted trace rooted at the
    frontend with no orphans or anomalies, every span's callees must match
    the static call graph (the frontend's per action), the analyzer's
    cold-start count must equal the platform's cold executor claims, and
    compute + network + query must equal the root duration for every tree
    without a parallel block. Returns the ok trees by context id, with the
    action of the request that made each.
    """
    from befaas import analyzer

    checks.expect(rejects == 0, f"{label}: {rejects} rejected log lines")
    by_ctx = {tree.context_id: tree for tree in trees}
    anomalies = sum(len(t.anomalies) for t in trees)
    orphans = sum(len(t.orphans) for t in trees)
    checks.expect(anomalies == 0, f"{label}: {anomalies} trace anomalies")
    checks.expect(orphans == 0, f"{label}: {orphans} orphan spans")

    ok_trees = {}
    for record in records:
        if record["status"] != "ok":
            continue
        tree = by_ctx.get(record["context_id"])
        if tree is None or tree.root is None:
            checks.expect(False, f"{label}: ok {record['action']} request has no trace")
            continue
        checks.expect(not tree.orphans, f"{label}: {record['action']} trace is not single-rooted")
        checks.expect(tree.root.fn == "frontend", f"{label}: trace rooted at {tree.root.fn}")
        _check_shape(checks, label, tree, record["action"], call_graph)
        ok_trees[tree.context_id] = (tree, record["action"])

    cold = analyzer.cold_start_report(trees).total
    checks.expect(cold == cold_claims,
                  f"{label}: analyzer counts {cold} cold starts, platform made {cold_claims}")

    for tree, action in ok_trees.values():
        if action in PARALLEL_ACTIONS:
            continue
        b = analyzer.decompose(tree)
        checks.expect(
            b.compute_us + b.network_us + b.query_us == tree.root.duration_us,
            f"{label}: {action} components sum to {b.total_us} us, root took "
            f"{tree.root.duration_us} us",
        )
    return ok_trees


def _check_shape(checks: Checks, label: str, tree, action: str, call_graph: dict) -> None:
    for span in tree.root.walk():
        called = {c.fn for c in span.children} | {
            c.target for c in span.outgoing if c.kind == "external"
        }
        if span.fn == "frontend":
            expected = set(FRONTEND_CALLEES.get(action, ()))
            if action == "viewProduct":
                called.discard("currency")
        else:
            expected = set(call_graph.get(span.fn, ()))
        checks.expect(
            called == expected,
            f"{label}: {action}: {span.fn} called {sorted(called)}, expected {sorted(expected)}",
        )
        checks.expect(
            len(span.children) == sum(1 for c in span.outgoing if c.kind == "function"),
            f"{label}: {action}: {span.fn} has an outgoing call without a callee span",
        )


def warm_network_us(trees) -> list[int]:
    """Network share of every call edge whose callee was warm."""
    from befaas import analyzer

    out = []
    for tree in trees:
        for edge in analyzer.decompose(tree).per_call:
            if edge.callee is not None and not edge.callee.cold_start:
                out.append(edge.network_us)
    return out


def query_us(trees) -> list[int]:
    """Query share of every external (KV) call."""
    from befaas import analyzer

    return [q.query_us for tree in trees for q in analyzer.decompose(tree).per_query]


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
