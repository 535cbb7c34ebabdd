"""Traced run: spans around the calls into each befaas layer.

Wrappers go where the code looks the names up at call time. Class methods
(``CallContext.call``, ``SimPlatform.handle_invoke``, ``FunctionHost.claim``,
``KVService.handle``, ``AdminClient.deploy`` ...) are replaced on the
class. Functions imported by name are replaced in every module that holds
the name: ``precise_sleep_ms`` in ``befaas.clock``, ``befaas.simplatform``
and ``befaas.webshop.functions``, ``compile_deployment`` in
``befaas.compiler`` and ``befaas.manager``. ``HandlerRuntime.transport``
binds ``httpjson.post_json`` when the module loads, so the HTTP layer is
wrapped one level down, on ``http.client.HTTPConnection``.

Spans stay in memory as tuples and are only turned into metrics after
the run; the analyze child (``analyze_child.py``) writes its spans to a
file at exit.
"""
from __future__ import annotations

import contextlib
import http.client
import statistics
import threading
import time

import common

#: Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "loadgen.launch_lag_p99_ms": "req_p99_ms on desk-mix",
    "loadgen.inflight_peak": "req_p99_ms on desk-mix",
    "loadgen.requests": "base of the per-request ratios",
    "httpjson.connects_per_request": "req_p50_ms and wf_per_s on floor-browse",
    "tracing.call_hop_p50_ms": "req_p50_ms on floor-browse",
    "tracing.fanout_overhead_p50_ms": "req_p50_ms on floor-browse",
    "tracing.events_per_request": "wrapup_s on desk-mix, analyze_peak_mb",
    "simplatform.claim_wait_p99_ms": "req_p99_ms on desk-mix",
    "simplatform.cold_starts": "req_p99_ms on desk-mix",
    "simplatform.cold_start_ratio": "req_p99_ms on desk-mix",
    "simplatform.threads_peak": "req_p99_ms on desk-mix",
    "simplatform.throttles": "ok_ratio on desk-mix",
    "simplatform.cpu_util": "wf_per_s on floor-browse",
    "simplatform.kv_ops_per_workflow": "analyzer.query_excess_ms on desk-mix",
    "simplatform.kv_write_share": "analyzer.query_excess_ms on desk-mix",
    "simplatform.kv_handle_excess_p50_ms": "analyzer.query_excess_ms on desk-mix",
    "clock.sleeps": "analyzer.network_excess_ms and analyzer.query_excess_ms on desk-mix",
    "clock.overshoot_p50_us": "analyzer.network_excess_ms and analyzer.query_excess_ms on desk-mix",
    "clock.overshoot_p99_us": "analyzer.network_excess_ms and analyzer.query_excess_ms on desk-mix",
    "clock.sleep_cpu_share": "req_p50_ms on desk-mix",
    "compiler.compile_ms": "setup_s on every workload",
    "manager.deploy_p50_ms": "setup_s on floor-browse and desk-mix",
    "manager.collect_s": "wrapup_s on desk-mix",
    "manager.log_mb": "wrapup_s on desk-mix",
    "manager.read_s": "analyzer.analyze_s",
    "analyzer.assemble_s": "analyzer.analyze_s",
    "analyzer.decompose_s": "analyzer.analyze_s",
    "analyzer.export_s": "analyzer.analyze_s",
    "analyzer.cold_report_calls": "analyzer.analyze_s",
    "analyzer.peak_bytes_per_event": "analyze_peak_mb",
    "analyzer.analyze_s": "a user's wait for befaas analyze (too unsteady here to gate)",
    "analyzer.network_excess_ms": "delay fidelity (too unsteady here to gate)",
    "analyzer.query_excess_ms": "delay fidelity (too unsteady here to gate)",
}

LAYERS = ("loadgen", "httpjson", "tracing", "simplatform", "clock", "compiler", "manager",
          "analyzer")

#: Per-layer metrics a workload cannot measure, and why. They read 0.
NOT_MEASURED = {
    "floor-browse": {
        "loadgen.launch_lag_p99_ms": "closed loop: there is no launch schedule",
        "simplatform.kv_ops_per_workflow": "the browse workflows make no KV call",
        "simplatform.kv_write_share": "the browse workflows make no KV call",
        "simplatform.kv_handle_excess_p50_ms": "the browse workflows make no KV call",
        "clock.sleeps": "every injected delay is 0, so no sleep is taken",
        "clock.overshoot_p50_us": "every injected delay is 0, so no sleep is taken",
        "clock.overshoot_p99_us": "every injected delay is 0, so no sleep is taken",
        "clock.sleep_cpu_share": "every injected delay is 0, so no sleep is taken",
        "analyzer.query_excess_ms": "the browse workflows make no KV call",
    },
    "desk-mix": {},
}


class Tracer:
    """Records spans (layer, name, thread, start ns, end ns, attrs)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.child_spans: list[tuple] = []
        self.child_stats: list[dict] = []
        self.windows: list[tuple[int, int, float, int]] = []  # t0, t1, cpu s, workflows
        self._phase: tuple[int, float] | None = None
        self._inflight = 0
        self.inflight_peak = 0
        self.threads_peak = 0
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- phases ---------------------------------------------------------------

    def start_phase(self) -> None:
        self._phase = (time.perf_counter_ns(), common.cpu_seconds())

    def end_phase(self, workflows: int) -> None:
        t0, cpu0 = self._phase
        self.windows.append((t0, time.perf_counter_ns(), common.cpu_seconds() - cpu0, workflows))
        self._phase = None

    def _in_window(self, t0: int) -> bool:
        return any(w0 <= t0 <= w1 for w0, w1, _, _ in self.windows)

    # -- installing wrappers ------------------------------------------------------

    def _patch(self, owner, attr: str, layer: str, name: str, attrs=None, around=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        spans = self.spans

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            with around(args) if around else contextlib.nullcontext():
                t0 = time.perf_counter_ns()
                try:
                    result = func(*args, **kwargs)
                except BaseException as exc:
                    spans.append((layer, name, tid, t0, time.perf_counter_ns(),
                                  {"raised": type(exc).__name__}))
                    raise
                t1 = time.perf_counter_ns()
            spans.append((layer, name, tid, t0, t1, attrs(args, result) if attrs else None))
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def _patch_sleep(self, module) -> None:
        func = module.precise_sleep_ms
        spans = self.spans

        def precise_sleep_ms(delay_ms):
            tid = threading.get_ident()
            cpu0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            func(delay_ms)
            t1 = time.perf_counter_ns()
            spans.append(("clock", "precise_sleep_ms", tid, t0, t1,
                          {"ms": delay_ms, "cpu_ns": time.thread_time_ns() - cpu0}))

        self._patches.append((module, "precise_sleep_ms", func))
        module.precise_sleep_ms = precise_sleep_ms

    @contextlib.contextmanager
    def _count_inflight(self, args):
        with self._lock:
            self._inflight += 1
            self.inflight_peak = max(self.inflight_peak, self._inflight)
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    @contextlib.contextmanager
    def _start_profile(self, args):
        self.start_phase()
        yield

    def _end_profile(self, args, result):
        self.end_phase(result.scheduled)
        return {"lags": result.launch_lags_ms}

    @contextlib.contextmanager
    def _sample_threads(self, args):
        self.threads_peak = max(self.threads_peak, threading.active_count())
        yield

    @contextlib.contextmanager
    def installed(self):
        """Install every parent-process wrapper; restore the originals on exit."""
        from befaas import clock, compiler, loadgen, manager, simplatform, tracing
        from befaas.webshop import functions

        def invoke_attrs(args, result):
            request = args[2] if isinstance(args[2], dict) else {}
            envelope = result[1] if isinstance(result[1], dict) else {}
            token = request.get(tracing.ENVELOPE_KEY) or envelope.get(tracing.ENVELOPE_KEY) or {}
            return {"fn": args[1], "ctx": token.get("ctx"), "status": result[0]}

        def call_attrs(args, result):
            return {"ctx": args[0].context_id, "pair": args[0].pair_id, "target": args[1]}

        def post_attrs(args, result):
            token = result.get(tracing.ENVELOPE_KEY) if isinstance(result, dict) else None
            return {"ctx": token.get("ctx")} if isinstance(token, dict) else None

        def logs_attrs(args, result):
            return {"bytes": sum(len(line) for line in result)}

        try:
            self._patch(loadgen, "execute_workflow", "loadgen", "execute_workflow",
                        attrs=lambda a, r: {"requests": len(r)}, around=self._count_inflight)
            # The load phase of run_experiment is the timed phase of desk-mix.
            self._patch(loadgen, "run_profile", "loadgen", "run_profile",
                        attrs=self._end_profile, around=self._start_profile)
            self._patch(loadgen.httpjson, "post_json", "httpjson", "post_json", attrs=post_attrs)
            self._patch(loadgen.httpjson, "get_json", "httpjson", "get_json")
            for attr in ("connect", "request", "getresponse"):
                self._patch(http.client.HTTPConnection, attr, "httpjson", attr)
            for attr in ("call", "call_parallel", "call_external"):
                self._patch(tracing.CallContext, attr, "tracing", attr, attrs=call_attrs)
            self._patch(tracing.LogEvent, "to_line", "tracing", "to_line")
            self._patch(simplatform.SimPlatform, "handle_invoke", "simplatform", "handle_invoke",
                        attrs=invoke_attrs, around=self._sample_threads)
            self._patch(simplatform.FunctionHost, "claim", "simplatform", "claim",
                        attrs=lambda a, r: {"cold": r[1]}, around=self._sample_threads)
            self._patch(simplatform.KVService, "handle", "simplatform", "kv_handle",
                        attrs=lambda a, r: {"op": a[1].get("op"),
                                            "delay_ms": a[0].query_delay_ms})
            for module in (clock, simplatform, functions):
                self._patch_sleep(module)
            for module in (compiler, manager):
                self._patch(module, "compile_deployment", "compiler", "compile_deployment")
            self._patch(manager, "run_experiment", "manager", "run_experiment")
            self._patch(manager, "collect_logs", "manager", "collect_logs")
            for attr in ("deploy", "remove"):
                self._patch(simplatform.AdminClient, attr, "manager", attr)
            self._patch(simplatform.AdminClient, "logs", "manager", "logs", attrs=logs_attrs)
            yield self
        finally:
            self.uninstall()

    def install_analyzer(self) -> None:
        """Wrappers for the ``befaas analyze`` child."""
        from befaas import analyzer, manager

        self._patch(manager.ResultsBundle, "read", "manager", "read",
                    attrs=lambda a, r: {"events": len(r.events)})
        for attr in ("assemble", "decompose", "export", "cold_start_report", "summarize"):
            self._patch(analyzer, attr, "analyzer", attr)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- the analyze child --------------------------------------------------------

    def load_child(self, stats: dict) -> None:
        """Take in the spans and stats of one traced analyze child."""
        spans = [tuple(span) for span in stats["spans"]]
        self.child_spans.extend(spans)
        events = sum(s[5]["events"] for s in spans if s[1] == "read" and s[5])
        self.child_stats.append({
            "cpu_s": stats["cpu_s"],
            "run_s": stats["run_s"],
            "peak_bytes": (stats["peak_kb"] - stats["base_kb"]) * 1024,
            "events": events,
        })

    # -- metrics ------------------------------------------------------------------

    def _select(self, name: str, spans=None, windowed: bool = True) -> list[tuple]:
        """Spans of one name that returned, in the timed windows by default."""
        return [s for s in (self.spans if spans is None else spans)
                if s[1] == name and not (s[5] or {}).get("raised")
                and (not windowed or self._in_window(s[3]))]

    def per_layer(self, traced: dict, plain: dict) -> dict[str, float]:
        ms = lambda ns: ns / 1e6  # noqa: E731
        invokes = self._select("handle_invoke")
        frontend = [s for s in invokes if s[5] and s[5]["fn"] == "frontend"]
        requests = len(frontend)
        workflows = sum(w[3] for w in self.windows)

        claims = self._select("claim")
        cold = sum(1 for s in claims if s[5] and s[5]["cold"])
        kv = self._select("kv_handle")
        sleeps = [s for s in self._select("precise_sleep_ms") if s[5]["ms"] > 0]
        overshoot_us = [(s[4] - s[3]) / 1e3 - s[5]["ms"] * 1e3 for s in sleeps]
        lags = [lag for s in self._select("run_profile", windowed=False) for lag in s[5]["lags"]]
        connects = self._select("connect")

        cpu_util = sum(w[2] for w in self.windows) / (
            sum(w[1] - w[0] for w in self.windows) / 1e9)

        def durations(name, spans=None, windowed=False):
            return [s[4] - s[3] for s in self._select(name, spans, windowed)]

        def median_or_0(values):
            return statistics.median(values) if values else 0.0

        def p99_or_0(values):
            return common.percentile(values, 99) if values else 0.0

        exports = max(len(self._select("export", self.child_spans, False)), 1)
        reads = self._select("read", self.child_spans, False)
        collects = durations("collect_logs")
        log_bytes = sum(s[5]["bytes"] for s in self._select("logs", windowed=False))
        peak_bpe = [c["peak_bytes"] / c["events"] for c in self.child_stats if c["events"]]

        metrics = {
            "loadgen.launch_lag_p99_ms": p99_or_0(lags),
            "loadgen.inflight_peak": float(self.inflight_peak),
            "loadgen.requests": float(requests),
            "httpjson.connects_per_request": len(connects) / max(requests, 1),
            "tracing.call_hop_p50_ms": ms(median_or_0(self._call_hops(invokes))),
            "tracing.fanout_overhead_p50_ms": ms(median_or_0(self._fanout_overheads())),
            "tracing.events_per_request": len(self._select("to_line")) / max(requests, 1),
            "simplatform.claim_wait_p99_ms": ms(p99_or_0([s[4] - s[3] for s in claims])),
            "simplatform.cold_starts": float(cold),
            "simplatform.cold_start_ratio": cold / max(len(claims), 1),
            "simplatform.threads_peak": float(self.threads_peak),
            "simplatform.throttles": float(sum(1 for s in invokes if s[5] and s[5]["status"] == 429)),
            "simplatform.cpu_util": cpu_util,
            "simplatform.kv_ops_per_workflow": len(kv) / max(workflows, 1),
            "simplatform.kv_write_share": sum(
                1 for s in kv if s[5] and s[5]["op"] in ("set", "delete")) / max(len(kv), 1),
            "simplatform.kv_handle_excess_p50_ms": ms(median_or_0(
                [s[4] - s[3] - 2e6 * s[5]["delay_ms"] for s in kv if s[5]])),
            "clock.sleeps": float(len(sleeps)),
            "clock.overshoot_p50_us": median_or_0(overshoot_us),
            "clock.overshoot_p99_us": p99_or_0(overshoot_us),
            "clock.sleep_cpu_share": sum(s[5]["cpu_ns"] for s in sleeps) / max(
                sum(s[4] - s[3] for s in sleeps), 1),
            "compiler.compile_ms": ms(median_or_0(durations("compile_deployment"))),
            "manager.deploy_p50_ms": ms(median_or_0(durations("deploy"))),
            "manager.collect_s": median_or_0(collects) / 1e9,
            "manager.log_mb": log_bytes / 1e6 / max(len(collects), 1),
            "manager.read_s": median_or_0([s[4] - s[3] for s in reads]) / 1e9,
            "analyzer.assemble_s": median_or_0(durations("assemble", self.child_spans)) / 1e9,
            "analyzer.decompose_s": sum(durations("decompose", self.child_spans)) / 1e9 / exports,
            "analyzer.export_s": median_or_0(durations("export", self.child_spans)) / 1e9,
            "analyzer.cold_report_calls": len(
                self._select("cold_start_report", self.child_spans, False)) / exports,
            "analyzer.peak_bytes_per_event": median_or_0(peak_bpe),
        }
        # Untraced figures too unsteady on a shared VM to be end-to-end metrics.
        for name in ("analyze_s", "network_excess_ms", "query_excess_ms"):
            metrics[f"analyzer.{name}"] = plain["unsteady"].get(name, 0.0)
        for layer, seconds in self.self_times().items():
            metrics[f"{layer}.self_s"] = seconds
        for name in ("wf_per_s", "req_p50_ms", "analyze_s"):
            both = [run["metrics"].get(name, run["unsteady"].get(name)) for run in (plain, traced)]
            metrics[f"bench.trace_overhead_{name}_pct"] = 100.0 * (both[1] - both[0]) / both[0]
        return metrics

    def _call_hops(self, invokes) -> list[int]:
        """``CallContext.call`` time minus the callee's ``handle_invoke`` time."""
        by_key: dict[tuple, list[tuple]] = {}
        for s in invokes:
            if s[5] and s[5]["ctx"]:
                by_key.setdefault((s[5]["ctx"], s[5]["fn"]), []).append(s)
        hops = []
        for call in self._select("call"):
            for callee in by_key.get((call[5]["ctx"], call[5]["target"]), ()):
                if call[3] <= callee[3] and callee[4] <= call[4]:
                    hops.append((call[4] - call[3]) - (callee[4] - callee[3]))
                    break
        return hops

    def _fanout_overheads(self) -> list[int]:
        """``call_parallel`` time minus its slowest member call."""
        members: dict[tuple, list[tuple]] = {}
        for call in self._select("call"):
            members.setdefault((call[5]["ctx"], call[5]["pair"]), []).append(call)
        out = []
        for block in self._select("call_parallel"):
            inside = [c[4] - c[3] for c in members.get((block[5]["ctx"], block[5]["pair"]), ())
                      if block[3] <= c[3] and c[4] <= block[4]]
            if inside:
                out.append((block[4] - block[3]) - max(inside))
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer over the whole traced run, in seconds.

        A span's self time is its duration minus the part covered by its
        children: the spans nested in it on the same thread, and the
        callee's ``handle_invoke`` on the server thread for an HTTP wait,
        a function call or a frontend request.
        """
        totals = {layer: 0.0 for layer in LAYERS}
        for spans in (self.spans, self.child_spans):
            children = _nest(spans)
            for index, span in enumerate(spans):
                if span[0] in totals:
                    covered = _covered(span, [spans[c] for c in children.get(index, ())])
                    totals[span[0]] += (span[4] - span[3] - covered) / 1e9
        return totals


def _nest(spans: list[tuple]) -> dict[int, list[int]]:
    """Children of each span: same-thread nesting plus linked callees."""
    by_thread: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span[2], []).append(index)
    children: dict[int, list[int]] = {}
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][3], -spans[i][4]))
        stack: list[int] = []
        for i in indices:
            while stack and spans[stack[-1]][4] < spans[i][4]:
                stack.pop()
            if stack:
                children.setdefault(stack[-1], []).append(i)
            stack.append(i)

    # The member calls of a parallel block run on threads of their own.
    linked = [(i, s) for i, s in enumerate(spans) if "ctx" in (s[5] or {})]
    blocks: dict[tuple, list[int]] = {}
    for index, span in linked:
        if span[1] == "call_parallel":
            blocks.setdefault((span[5]["ctx"], span[5]["pair"]), []).append(index)
    for index, span in linked:
        if span[1] != "call":
            continue
        for block in blocks.get((span[5]["ctx"], span[5]["pair"]), ()):
            b = spans[block]
            if b[2] != span[2] and b[3] <= span[3] and span[4] <= b[4]:
                children.setdefault(block, []).append(index)
                break

    # Link each handle_invoke to the innermost span that waited for it:
    # the caller's call (same context, target = fn) or the client's
    # post_json that got back the frontend's context.
    waiting: dict[tuple, list[int]] = {}
    for index, span in linked:
        attrs = span[5]
        if span[1] == "call":
            waiting.setdefault((attrs["ctx"], attrs["target"]), []).append(index)
        elif span[1] == "post_json" and attrs.get("ctx"):
            waiting.setdefault((attrs["ctx"], "frontend"), []).append(index)
    for index, span in linked:
        attrs = span[5]
        if span[1] != "handle_invoke" or not attrs["ctx"]:
            continue
        for waiter in waiting.get((attrs["ctx"], attrs["fn"]), ()):
            w = spans[waiter]
            if w[3] <= span[3] and span[4] <= w[4] and w[2] != span[2]:
                inner = waiter
                descended = True
                while descended:
                    descended = False
                    for c in children.get(inner, ()):
                        if spans[c][2] == w[2] and spans[c][3] <= span[3] and span[4] <= spans[c][4]:
                            inner, descended = c, True
                            break
                children.setdefault(inner, []).append(index)
                break
    return children


def _covered(span: tuple, kids: list[tuple]) -> int:
    """Length of the union of the children's intervals, clipped to the span."""
    total, end = 0, span[3]
    for k0, k1 in sorted((max(k[3], span[3]), min(k[4], span[4])) for k in kids):
        if k1 <= end:
            continue
        total += k1 - max(k0, end)
        end = k1
    return total
