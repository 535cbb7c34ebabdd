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

Analysis never holds a whole bundle. :func:`iter_trees` makes two
passes: the first reads the events once and spills compact rows to
unnamed temporary files, one per first character of the context id,
which take about the rows' size on disk; the second reads one partition
back at a time and yields its trees in context order. :func:`export` and
:func:`summarize` read the trees once: rows are written as each tree
arrives, and only the numbers the summary needs (span durations,
cold-start tallies, per-tree component sums) are kept.
"""
from __future__ import annotations

import csv
import marshal
import math
import os
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .bundle import CALL_KINDS, INVOCATION_KINDS

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


# A compact row holds the fields of one event that assembly reads. Its
# first five fields identify the event for deduplication.
_KIND, _TS, _FN, _PAIR, _CALL_PAIR, _TARGET, _EXECUTOR, _PLATFORM, _ERROR = range(9)


# Events buffered, across all partitions, before their rows are written
# out. A larger chunk raises the peak: 16,384 cost 2.4 MB more than 1,024
# on a bundle of 14,000 events.
_SPILL_ROWS = 1024


def iter_trees(events: Iterable[Mapping]) -> Iterator[CallTree]:
    """Group events by context and yield one call tree per context, in
    sorted context order.

    Events are read once, so ``events`` may be a generator or a bundle file
    streamed from disk. Each is kept only as a compact row whose strings
    exist once per chunk of rows. Rows go to one unnamed temporary file per
    partition, the first character of the context id, so only one
    partition's rows are in memory at a time while its trees are built.

    Collection is idempotent: duplicate records are dropped (keyed by
    context, pair, call pair, kind, and timestamp). Spans whose parent
    call record is missing land on the orphan list with a reason;
    structural anomalies (unpaired events) are reported, never raised. A
    context whose events are all of other kinds yields a tree without
    spans.
    """
    partitions: dict[str, IO[bytes]] = {}
    try:
        _spill(events, partitions)
        # Partitions in key order, and contexts in order within each, are
        # the contexts in sorted order.
        for key in sorted(partitions):
            with partitions.pop(key) as fh:
                by_context = _read_partition(fh)
            for context_id in sorted(by_context):
                yield _assemble_context(context_id, by_context.pop(context_id))
    finally:
        for fh in partitions.values():
            fh.close()


def assemble(events: Iterable[Mapping]) -> list[CallTree]:
    """The trees of :func:`iter_trees` as a list."""
    return list(iter_trees(events))


def _spill(events: Iterable[Mapping], partitions: dict[str, IO[bytes]]) -> None:
    """Write the compact rows of ``events`` to ``partitions``, one temporary
    file per first character of the context id, a chunk at a time."""
    strings: dict = {}
    intern = strings.setdefault
    chunk: dict[str, list[tuple]] = {}
    buffered = 0
    for event in events:
        context_id, kind = event["context_id"], event["event_kind"]
        ts, fn, pair_id = event["ts_us"], event["fn"], event["pair_id"]
        rows = chunk.get(context_id)
        if rows is None:
            rows = chunk[intern(context_id, context_id)] = []
        if kind in INVOCATION_KINDS or kind in CALL_KINDS:
            call_pair_id, target = event.get("call_pair_id"), event.get("target")
            executor_id, platform = event.get("executor_id", ""), event.get("platform", "")
            rows.append((
                intern(kind, kind), ts, intern(fn, fn), intern(pair_id, pair_id),
                intern(call_pair_id, call_pair_id), intern(target, target),
                intern(executor_id, executor_id), intern(platform, platform),
                bool(event.get("error")),
            ))
        buffered += 1
        if buffered == _SPILL_ROWS:
            _write_chunk(chunk, partitions)
            strings.clear()
            buffered = 0
    _write_chunk(chunk, partitions)


def _write_chunk(chunk: dict[str, list[tuple]], partitions: dict[str, IO[bytes]]) -> None:
    # One length-prefixed marshal record per partition: marshal writes a
    # string shared by several rows once, and reading a whole record back
    # with marshal.loads avoids marshal.load's many small reads.
    by_key: dict[str, dict[str, list[tuple]]] = {}
    for context_id, rows in chunk.items():
        by_key.setdefault(context_id[:1], {})[context_id] = rows
    chunk.clear()
    for key, part in by_key.items():
        fh = partitions.get(key)
        if fh is None:
            fh = partitions[key] = tempfile.TemporaryFile()
        record = marshal.dumps(part)
        fh.write(len(record).to_bytes(8, "little"))
        fh.write(record)


def _read_partition(fh: IO[bytes]) -> dict[str, list[tuple]]:
    """A partition's rows by context, each context's rows in event order."""
    fh.seek(0)
    by_context: dict[str, list[tuple]] = {}
    while header := fh.read(8):
        for context_id, rows in marshal.loads(fh.read(int.from_bytes(header, "little"))).items():
            earlier = by_context.get(context_id)
            if earlier is None:
                by_context[context_id] = rows
            else:
                earlier.extend(rows)
    return by_context


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
        if kind in INVOCATION_KINDS:
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


def cold_start_report(trees: Iterable[CallTree]) -> ColdStartReport:
    """Count cold starts per function and split root latencies into trees
    that contain at least one cold start versus warm-only trees."""
    return _fold(trees).cold


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


def export(trees: Iterable[CallTree], out_dir: str) -> dict[str, str]:
    """Write the report artifacts for an assembled run.

    Produces functions.csv (one row per span), breakdown.csv (one row per
    rooted tree), coldstarts.csv (per function), and summary.txt with
    per-function boxplot statistics and the stacked compute/network/query
    aggregates. Durations are microseconds throughout. ``trees`` is read
    once, and each tree's rows are written as it arrives.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("functions.csv", "breakdown.csv", "coldstarts.csv", "summary.txt")}

    with open(paths["functions.csv"], "w", newline="", encoding="utf-8") as functions_fh, \
            open(paths["breakdown.csv"], "w", newline="", encoding="utf-8") as breakdown_fh:
        functions, breakdown = csv.writer(functions_fh), csv.writer(breakdown_fh)
        functions.writerow(["fn", "context_id", "pair_id", "platform", "start_us", "end_us",
                            "duration_us", "cold_start", "error"])
        breakdown.writerow(["context_id", "root_fn", "end_to_end_us", "compute_us",
                            "network_us", "query_us", "flagged"])

        def write_rows(tree: CallTree, sums: tuple[int, ...] | None, flagged: bool) -> None:
            functions.writerows(
                [span.fn, span.context_id, span.pair_id, span.platform, span.start_us,
                 span.end_us, span.duration_us, int(span.cold_start), int(span.error)]
                for span in tree.spans
            )
            if sums is not None:
                breakdown.writerow([tree.context_id, tree.root.fn, *sums, int(flagged)])

        totals = _fold(trees, write_rows)

    with open(paths["coldstarts.csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fn", "cold_starts", "invocations"])
        for fn in sorted(totals.durations):
            writer.writerow([fn, totals.cold.counts_by_fn.get(fn, 0), len(totals.durations[fn])])

    with open(paths["summary.txt"], "w", encoding="utf-8") as fh:
        fh.write(_format_summary(totals))

    return paths


def summarize(trees: Iterable[CallTree]) -> str:
    """Plain-text report: per-function boxplot statistics, the stacked
    compute/network/query aggregates, and the cold-start tally."""
    return _format_summary(_fold(trees))


@dataclass
class _RunTotals:
    """What the reports keep of a run's trees: span durations by function,
    the cold-start tally, and the end-to-end time and the compute, network
    and query sums of each rooted tree."""

    durations: dict[str, list[int]] = field(default_factory=dict)
    cold: ColdStartReport = field(default_factory=lambda: ColdStartReport({}, [], []))
    components: tuple[list[int], ...] = field(default_factory=lambda: ([], [], [], []))


def _fold(
    trees: Iterable[CallTree],
    each: Callable[[CallTree, tuple[int, ...] | None, bool], None] | None = None,
) -> _RunTotals:
    """Read ``trees`` once into the run's totals; pass each tree, its
    end-to-end and component sums (None without a root) and whether its
    breakdown was flagged to ``each``."""
    totals = _RunTotals()
    counts = totals.cold.counts_by_fn
    for tree in trees:
        for span in tree.spans:
            totals.durations.setdefault(span.fn, []).append(span.duration_us)
        sums, flagged = None, False
        if tree.root is not None:
            tree_cold = False
            for span in tree.root.walk():
                if span.cold_start:
                    counts[span.fn] = counts.get(span.fn, 0) + 1
                    tree_cold = True
            latencies = totals.cold.cold_tree_latencies_us if tree_cold \
                else totals.cold.warm_tree_latencies_us
            latencies.append(tree.root.duration_us)
            b = decompose(tree)
            sums = (tree.root.duration_us, b.compute_us, b.network_us, b.query_us)
            flagged = b.flagged
            for values, value in zip(totals.components, sums):
                values.append(value)
        if each is not None:
            each(tree, sums, flagged)
    return totals


def _format_summary(totals: _RunTotals) -> str:
    by_fn, report = totals.durations, totals.cold
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
    if totals.components[0]:
        for label, values in zip(("end-to-end", "compute", "network", "query"), totals.components):
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
