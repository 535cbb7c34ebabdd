"""Post-experiment drill-down over collected log events.

Events group by context id into call trees: every invocation becomes a
span, and a child hangs off the outgoing-call record whose minted pair id
it carries. Per-span latency splits into

* compute: span runtime minus time spent inside outgoing calls (with
  overlapping parallel call intervals merged first, so concurrent waiting
  is never subtracted twice),
* network: an outgoing function call's duration minus the callee's own
  runtime,
* query: the full duration of an external-service call.

For a fully synchronous tree these components sum exactly to the root's
end-to-end duration. All functions here are pure over the event
collection; nothing mutates shared state.
"""
from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

# ---------------------------------------------------------------------------
# Spans and call trees
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class OutgoingCall:
    """One call_*/external_* pair recorded by the calling function; a
    function call links to its callee's span when that was traced."""

    call_pair_id: str
    target: str
    kind: str  # "function" | "external"
    start_us: int
    end_us: int
    error: bool = False
    callee: Span | None = field(default=None, repr=False, compare=False)

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass(slots=True)
class Span:
    """One reconstructed invocation."""

    fn: str
    context_id: str
    pair_id: str
    start_us: int
    end_us: int
    executor_id: str
    platform: str
    cold_start: bool = False
    error: bool = False
    outgoing: list[OutgoingCall] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def walk(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class CallTree:
    """All spans of one context, rooted at the entry invocation."""

    context_id: str
    root: Span | None
    spans: list[Span]
    orphans: list[tuple[Span, str]] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(s.error for s in self.spans) or any(
            c.error for s in self.spans for c in s.outgoing
        )

    def shape_signature(self) -> str:
        """Canonical structural form: function names, child shapes sorted,
        external targets sorted. Ids and timestamps excluded."""

        def sig(span: Span) -> str:
            externals = ",".join(sorted(c.target for c in span.outgoing if c.kind == "external"))
            children = ",".join(sorted(sig(c) for c in span.children))
            return f"{span.fn}[{externals}]({children})"

        return "" if self.root is None else sig(self.root)


_INVOCATION_KINDS = frozenset(("invocation_start", "invocation_end", "cold_start"))
_CALL_KINDS = frozenset(("call_start", "call_end", "external_start", "external_end"))

# A compact row holds the fields of one event that assembly reads. Its
# first five fields identify the event for deduplication.
_KIND, _TS, _FN, _PAIR, _CALL_PAIR, _TARGET, _EXECUTOR, _PLATFORM, _ERROR = range(9)


def assemble(events: Iterable[Mapping]) -> list[CallTree]:
    """Group events by context and reconstruct one call tree per context.

    Events are read once, in one pass, so ``events`` may be a generator
    or a bundle file streamed from disk. Each is kept only as a compact
    row whose strings exist once per call, and a context's rows are freed
    as its tree is built.

    Collection is idempotent: duplicate records are dropped (keyed by
    context, pair, call pair, kind, and timestamp). Spans whose parent
    call record is missing land on the orphan list with a reason;
    structural anomalies (unpaired events) are reported, never raised.
    """
    strings: dict = {}
    intern = strings.setdefault
    by_context: dict[str, list[tuple]] = {}
    for event in events:
        context_id, kind = event["context_id"], event["event_kind"]
        ts, fn, pair_id = event["ts_us"], event["fn"], event["pair_id"]
        rows = by_context.get(context_id)
        if rows is None:
            rows = by_context[intern(context_id, context_id)] = []
        if kind not in _INVOCATION_KINDS and kind not in _CALL_KINDS:
            continue
        call_pair_id, target = event.get("call_pair_id"), event.get("target")
        executor_id, platform = event.get("executor_id", ""), event.get("platform", "")
        rows.append((
            intern(kind, kind), ts, intern(fn, fn), intern(pair_id, pair_id),
            intern(call_pair_id, call_pair_id), intern(target, target),
            intern(executor_id, executor_id), intern(platform, platform),
            bool(event.get("error")),
        ))
    strings.clear()  # the rows hold every string; free the table before the trees
    return [_assemble_context(ctx, by_context.pop(ctx)) for ctx in sorted(by_context)]


def _target(row: tuple | None) -> str:
    return "?" if row is None or row[_TARGET] is None else row[_TARGET]


def _assemble_context(context_id: str, rows: list[tuple]) -> CallTree:
    anomalies: list[str] = []

    # One pass drops duplicates and slots each row by its invocation pair
    # id (invocation_*, cold_start) or by its outgoing call (call_*,
    # external_*).
    seen: set[tuple] = set()
    invocations: dict[str, dict[str, tuple]] = {}
    outgoing_slots: dict[tuple[str, str], dict[str, tuple]] = {}
    for row in rows:
        ident = row[:_TARGET]
        if ident in seen:
            continue
        seen.add(ident)
        kind, call_pair_id = row[_KIND], row[_CALL_PAIR]
        if kind in _INVOCATION_KINDS:
            invocations.setdefault(row[_PAIR], {})[kind] = row
        else:
            key = (row[_PAIR], "" if call_pair_id is None else call_pair_id)
            outgoing_slots.setdefault(key, {})[kind] = row

    # Pair invocation_start/_end into spans, keyed by the invocation pair id.
    spans: dict[str, Span] = {}
    for pair_id, slot in invocations.items():
        start, end = slot.get("invocation_start"), slot.get("invocation_end")
        if start is None or end is None:
            missing = "invocation_start" if start is None else "invocation_end"
            row = start or end
            fn = row[_FN] if row else "?"
            anomalies.append(f"{fn}/{pair_id}: missing {missing}")
            continue
        spans[pair_id] = Span(
            fn=start[_FN],
            context_id=context_id,
            pair_id=pair_id,
            start_us=start[_TS],
            end_us=end[_TS],
            executor_id=start[_EXECUTOR],
            platform=start[_PLATFORM],
            cold_start="cold_start" in slot,
            error=end[_ERROR],
        )

    # Pair call_*/external_* into outgoing records on their spans.
    for (pair_id, call_pair_id), slot in outgoing_slots.items():
        start = slot.get("call_start") or slot.get("external_start")
        end = slot.get("call_end") or slot.get("external_end")
        if start is None or end is None:
            target = _target(start or end)
            anomalies.append(f"call {call_pair_id} to {target}: unpaired events")
            continue
        span = spans.get(pair_id)
        if span is None:
            anomalies.append(f"call {call_pair_id}: no enclosing invocation {pair_id}")
            continue
        span.outgoing.append(
            OutgoingCall(
                call_pair_id=call_pair_id,
                target=_target(start),
                kind="external" if start[_KIND] == "external_start" else "function",
                start_us=start[_TS],
                end_us=end[_TS],
                error=end[_ERROR],
            )
        )

    # Link children: a span's pair id was minted by exactly one outgoing
    # call record of its parent. Visiting spans in start order appends each
    # parent's children in start order.
    minted_by: dict[str, tuple[Span, OutgoingCall]] = {}
    for span in spans.values():
        span.outgoing.sort(key=lambda c: c.start_us)
        for call in span.outgoing:
            if call.kind == "function":
                minted_by[call.call_pair_id] = (span, call)
    parentless: list[Span] = []
    for span in sorted(spans.values(), key=lambda s: s.start_us):
        if span.pair_id in minted_by:
            parent, call = minted_by[span.pair_id]
            parent.children.append(span)
            call.callee = span
        else:
            parentless.append(span)

    # The chain root is the earliest parentless span (its token was minted
    # on entry, not by any caller in this context); any other parentless
    # span lost its parent's events.
    root = parentless[0] if parentless else None
    orphans = [(s, "no matching parent call event") for s in parentless[1:]]

    return CallTree(
        context_id=context_id,
        root=root,
        spans=list(spans.values()),
        orphans=orphans,
        anomalies=anomalies,
    )


# ---------------------------------------------------------------------------
# Latency decomposition
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SpanCompute:
    span: Span
    compute_us: int
    flagged: bool = False


@dataclass(slots=True)
class EdgeNetwork:
    caller_fn: str
    target: str
    call: OutgoingCall
    callee: Span | None
    network_us: int
    flagged: bool = False


@dataclass(slots=True)
class QuerySample:
    fn: str
    target: str
    query_us: int


@dataclass
class LatencyBreakdown:
    """Compute/network/query split for one call tree."""

    tree: CallTree
    per_span: list[SpanCompute]
    per_call: list[EdgeNetwork]
    per_query: list[QuerySample]
    flagged: bool = False

    @property
    def compute_us(self) -> int:
        return sum(s.compute_us for s in self.per_span)

    @property
    def network_us(self) -> int:
        return sum(c.network_us for c in self.per_call)

    @property
    def query_us(self) -> int:
        return sum(q.query_us for q in self.per_query)

    @property
    def total_us(self) -> int:
        return self.compute_us + self.network_us + self.query_us


def _merged_length_us(intervals: Sequence[tuple[int, int]]) -> int:
    """Total covered length after merging overlaps (parallel call blocks)."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def decompose(tree: CallTree) -> LatencyBreakdown:
    """Split a tree's time into compute, network, and query components.

    Negative components (possible under clock skew) are flagged and
    clamped to zero in the reported value.
    """
    per_span: list[SpanCompute] = []
    per_call: list[EdgeNetwork] = []
    per_query: list[QuerySample] = []
    flagged = False

    for span in tree.root.walk() if tree.root is not None else ():
        intervals = [(c.start_us, c.end_us) for c in span.outgoing]
        compute = span.duration_us - _merged_length_us(intervals)
        bad = compute < 0
        per_span.append(SpanCompute(span, max(compute, 0), flagged=bad))
        flagged = flagged or bad

        for call in span.outgoing:
            if call.kind == "external":
                per_query.append(QuerySample(span.fn, call.target, call.duration_us))
                continue
            # Without callee events the whole call duration counts as network.
            network = call.duration_us - (call.callee.duration_us if call.callee else 0)
            bad = network < 0
            per_call.append(
                EdgeNetwork(span.fn, call.target, call, call.callee, max(network, 0), flagged=bad)
            )
            flagged = flagged or bad

    return LatencyBreakdown(tree, per_span, per_call, per_query, flagged=flagged)


@dataclass(frozen=True)
class OneWayEstimate:
    """Half the network share of a round trip; flagged when negative."""

    value_us: float
    flagged: bool = False


def approx_one_way(rtt_us: float, callee_runtime_us: float) -> OneWayEstimate:
    """One-way network latency from caller-side RTT and callee runtime.

    Assumes both directions took comparably long, which keeps the estimate
    valid across skewed clocks (only same-clock differences enter). A
    negative result indicates skew or a measurement anomaly and comes back
    flagged, not raised. Only request-response calls can be estimated;
    one-way (fire-and-forget) messaging has no RTT to halve.
    """
    if rtt_us < 0:
        raise ValueError("rtt must be >= 0")
    value = (rtt_us - callee_runtime_us) / 2.0
    if value < 0:
        return OneWayEstimate(value, flagged=True)
    return OneWayEstimate(value)


def naive_one_way(edge: EdgeNetwork) -> tuple[float, float] | None:
    """Per-direction estimates from cross-clock timestamp differences.

    Outbound: callee start minus caller call_start; inbound: caller
    call_end minus callee end. Corrupted by any clock skew between the two
    platforms; useful as the contrast case for the RTT-based estimate.
    """
    if edge.callee is None:
        return None
    outbound = float(edge.callee.start_us - edge.call.start_us)
    inbound = float(edge.call.end_us - edge.callee.end_us)
    return outbound, inbound


def rtt_one_way(edge: EdgeNetwork) -> OneWayEstimate | None:
    """RTT-based one-way estimate for a linked call edge."""
    if edge.callee is None:
        return None
    return approx_one_way(edge.call.duration_us, edge.callee.duration_us)


# ---------------------------------------------------------------------------
# Cold starts
# ---------------------------------------------------------------------------


@dataclass
class ColdStartReport:
    counts_by_fn: dict[str, int]
    cold_tree_latencies_us: list[int]
    warm_tree_latencies_us: list[int]

    @property
    def total(self) -> int:
        return sum(self.counts_by_fn.values())


def cold_start_report(trees: Sequence[CallTree]) -> ColdStartReport:
    """Count cold starts per function and split root latencies into trees
    that contain at least one cold start versus warm-only trees."""
    counts: dict[str, int] = {}
    cold_lat: list[int] = []
    warm_lat: list[int] = []
    for tree in trees:
        if tree.root is None:
            continue
        tree_cold = False
        for span in tree.root.walk():
            if span.cold_start:
                counts[span.fn] = counts.get(span.fn, 0) + 1
                tree_cold = True
        (cold_lat if tree_cold else warm_lat).append(tree.root.duration_us)
    return ColdStartReport(counts, cold_lat, warm_lat)


# ---------------------------------------------------------------------------
# Distribution statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryStats:
    """Boxplot statistics: quartiles, 1.5*IQR whiskers, outliers beyond."""

    n: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def _interpolate(ordered: Sequence[float], p: float) -> float:
    # Linear interpolation between order statistics (the h = (n-1)p rule).
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def stats(samples: Sequence[float]) -> SummaryStats:
    """Summary statistics for a non-empty sample.

    Quartiles use linear interpolation between order statistics; whiskers
    sit at the most extreme samples within 1.5*IQR of the quartiles, and
    anything beyond is an outlier.
    """
    if len(samples) == 0:
        raise ValueError("stats() requires at least one sample")
    ordered = sorted(float(x) for x in samples)
    q1 = _interpolate(ordered, 0.25)
    median = _interpolate(ordered, 0.50)
    q3 = _interpolate(ordered, 0.75)
    iqr = q3 - q1
    low_fence, high_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [x for x in ordered if low_fence <= x <= high_fence]
    outliers = tuple(x for x in ordered if x < low_fence or x > high_fence)
    return SummaryStats(
        n=len(ordered),
        min=ordered[0],
        q1=q1,
        median=median,
        q3=q3,
        max=ordered[-1],
        whisker_low=inside[0],
        whisker_high=inside[-1],
        outliers=outliers,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export(trees: Sequence[CallTree], out_dir: str) -> dict[str, str]:
    """Write the report artifacts for an assembled run.

    Produces functions.csv (one row per span), breakdown.csv (one row per
    tree), coldstarts.csv (per function), and summary.txt with per-function
    boxplot statistics and the stacked compute/network/query aggregates.
    Durations are microseconds throughout.
    """
    os.makedirs(out_dir, exist_ok=True)
    breakdowns = _tree_totals(trees)
    report = cold_start_report(trees)
    durations = _durations_by_fn(trees)

    functions_csv = os.path.join(out_dir, "functions.csv")
    with open(functions_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "fn",
                "context_id",
                "pair_id",
                "platform",
                "start_us",
                "end_us",
                "duration_us",
                "cold_start",
                "error",
            ]
        )
        for tree in trees:
            for span in tree.spans:
                writer.writerow(
                    [
                        span.fn,
                        span.context_id,
                        span.pair_id,
                        span.platform,
                        span.start_us,
                        span.end_us,
                        span.duration_us,
                        int(span.cold_start),
                        int(span.error),
                    ]
                )

    breakdown_csv = os.path.join(out_dir, "breakdown.csv")
    with open(breakdown_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "context_id",
                "root_fn",
                "end_to_end_us",
                "compute_us",
                "network_us",
                "query_us",
                "flagged",
            ]
        )
        for breakdown in breakdowns:
            if breakdown.tree.root is None:
                continue
            writer.writerow(
                [
                    breakdown.tree.context_id,
                    breakdown.tree.root.fn,
                    breakdown.tree.root.duration_us,
                    breakdown.compute_us,
                    breakdown.network_us,
                    breakdown.query_us,
                    int(breakdown.flagged),
                ]
            )

    coldstarts_csv = os.path.join(out_dir, "coldstarts.csv")
    with open(coldstarts_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fn", "cold_starts", "invocations"])
        for fn in sorted(durations):
            writer.writerow([fn, report.counts_by_fn.get(fn, 0), len(durations[fn])])

    summary_txt = os.path.join(out_dir, "summary.txt")
    with open(summary_txt, "w", encoding="utf-8") as fh:
        fh.write(_format_summary(durations, breakdowns, report))

    return {
        "functions.csv": functions_csv,
        "breakdown.csv": breakdown_csv,
        "coldstarts.csv": coldstarts_csv,
        "summary.txt": summary_txt,
    }


def summarize(trees: Sequence[CallTree]) -> str:
    """Plain-text report: per-function boxplot statistics, the stacked
    compute/network/query aggregates, and the cold-start tally."""
    breakdowns = _tree_totals(trees)
    return _format_summary(_durations_by_fn(trees), breakdowns, cold_start_report(trees))


class _TreeTotals(NamedTuple):
    """A tree's latency breakdown reduced to the sums the reports print."""

    tree: CallTree
    compute_us: int
    network_us: int
    query_us: int
    flagged: bool


def _tree_totals(trees: Sequence[CallTree]) -> list[_TreeTotals]:
    # Each breakdown is dropped once summed, so its per-span records never
    # all exist at once.
    totals = []
    for tree in trees:
        b = decompose(tree)
        totals.append(_TreeTotals(tree, b.compute_us, b.network_us, b.query_us, b.flagged))
    return totals


def _durations_by_fn(trees: Sequence[CallTree]) -> dict[str, list[int]]:
    by_fn: dict[str, list[int]] = {}
    for tree in trees:
        for span in tree.spans:
            by_fn.setdefault(span.fn, []).append(span.duration_us)
    return by_fn


def _format_summary(
    by_fn: dict[str, list[int]],
    breakdowns: Sequence[_TreeTotals],
    report: ColdStartReport,
) -> str:
    lines: list[str] = []
    lines.append("per-function execution duration (us)")
    lines.append(
        f"{'fn':<20}{'n':>7}{'min':>10}{'q1':>10}{'median':>10}"
        f"{'q3':>10}{'max':>10}{'wlow':>10}{'whigh':>10}{'outliers':>9}"
    )
    for fn in sorted(by_fn):
        s = stats(by_fn[fn])
        lines.append(
            f"{fn:<20}{s.n:>7}{s.min:>10.0f}{s.q1:>10.0f}{s.median:>10.0f}"
            f"{s.q3:>10.0f}{s.max:>10.0f}{s.whisker_low:>10.0f}"
            f"{s.whisker_high:>10.0f}{len(s.outliers):>9}"
        )

    lines.append("")
    lines.append("per-tree latency components (us)")
    rooted = [b for b in breakdowns if b.tree.root is not None]
    if rooted:
        for label, values in (
            ("end-to-end", [b.tree.root.duration_us for b in rooted]),
            ("compute", [b.compute_us for b in rooted]),
            ("network", [b.network_us for b in rooted]),
            ("query", [b.query_us for b in rooted]),
        ):
            total = float(sum(values))
            lines.append(
                f"{label:<12} total={total:>14.0f}  median={statistics.median(values):>10.0f}"
                f"  mean={total / len(values):>10.0f}"
            )

    lines.append("")
    lines.append(f"cold starts: {report.total} across {len(report.counts_by_fn)} functions")
    for fn in sorted(report.counts_by_fn):
        lines.append(f"  {fn:<20}{report.counts_by_fn[fn]:>6}")
    if report.cold_tree_latencies_us:
        lines.append(
            f"cold-affected trees: n={len(report.cold_tree_latencies_us)}"
            f" median={statistics.median(report.cold_tree_latencies_us):.0f}us"
        )
    if report.warm_tree_latencies_us:
        lines.append(
            f"warm-only trees:     n={len(report.warm_tree_latencies_us)}"
            f" median={statistics.median(report.warm_tree_latencies_us):.0f}us"
        )
    return "\n".join(lines) + "\n"
