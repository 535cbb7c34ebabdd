import csv
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import befaas
from befaas import analyzer
from befaas.analyzer import (
    CallTree,
    OutgoingCall,
    Span,
    approx_one_way,
    assemble,
    cold_start_report,
    decompose,
    naive_one_way,
    rtt_one_way,
    stats,
)
from befaas.bundle import ResultsBundle

import synthbundle
from treeshape import depth, node_count


# ---------------------------------------------------------------------------
# Fixture events built directly from the tracing protocol rules
# ---------------------------------------------------------------------------


def ev(kind, ts, fn, ctx, pair, call_pair=None, target=None, error=False, **extra):
    doc = {
        "event_kind": kind,
        "ts_us": ts,
        "fn": fn,
        "context_id": ctx,
        "pair_id": pair,
        "executor_id": f"x-{fn}",
        "platform": extra.pop("platform", "sim"),
    }
    if call_pair is not None:
        doc["call_pair_id"] = call_pair
    if target is not None:
        doc["target"] = target
    if error:
        doc["error"] = True
    doc.update(extra)
    return doc


def add_to_cart_chain(ctx="ctx1"):
    """frontend -> addcartitem -> cartkvstorage, with one KV get/set pair.

    Timing layout (us):
      frontend        [0, 100_000], calls addcartitem over [5_000, 95_000]
      addcartitem     [15_000, 85_000], calls cartkvstorage over [20_000, 80_000]
      cartkvstorage   [30_000, 70_000], two KV externals of 16_000 each
    """
    return [
        ev("invocation_start", 0, "frontend", ctx, "p-root"),
        ev("cold_start", 1, "frontend", ctx, "p-root"),
        ev("call_start", 5_000, "frontend", ctx, "p-root", "cp-add", "addcartitem"),
        ev("invocation_start", 15_000, "addcartitem", ctx, "cp-add"),
        ev("call_start", 20_000, "addcartitem", ctx, "cp-add", "cp-kvfn", "cartkvstorage"),
        ev("invocation_start", 30_000, "cartkvstorage", ctx, "cp-kvfn"),
        ev("external_start", 32_000, "cartkvstorage", ctx, "cp-kvfn", "cp-get", "kv"),
        ev("external_end", 48_000, "cartkvstorage", ctx, "cp-kvfn", "cp-get", "kv"),
        ev("external_start", 50_000, "cartkvstorage", ctx, "cp-kvfn", "cp-set", "kv"),
        ev("external_end", 66_000, "cartkvstorage", ctx, "cp-kvfn", "cp-set", "kv"),
        ev("invocation_end", 70_000, "cartkvstorage", ctx, "cp-kvfn"),
        ev("call_end", 80_000, "addcartitem", ctx, "cp-add", "cp-kvfn", "cartkvstorage"),
        ev("invocation_end", 85_000, "addcartitem", ctx, "cp-add"),
        ev("call_end", 95_000, "frontend", ctx, "p-root", "cp-add", "addcartitem"),
        ev("invocation_end", 100_000, "frontend", ctx, "p-root"),
    ]


class TestAssemble:
    def test_chain_fixture_one_tree_depth_three(self):
        trees = assemble(add_to_cart_chain())
        assert len(trees) == 1
        tree = trees[0]
        assert tree.root.fn == "frontend"
        assert depth(tree) == 3
        assert node_count(tree) == 3
        assert tree.orphans == [] and tree.anomalies == []
        leaf = tree.root.children[0].children[0]
        assert leaf.fn == "cartkvstorage"
        assert [c.kind for c in leaf.outgoing] == ["external", "external"]
        assert tree.root.cold_start is True

    def test_single_invocation_single_node_tree(self):
        events = [
            ev("invocation_start", 0, "frontend", "c", "p"),
            ev("invocation_end", 10, "frontend", "c", "p"),
        ]
        trees = assemble(events)
        assert node_count(trees[0]) == 1
        assert trees[0].root.duration_us == 10

    def test_deleting_callee_events_keeps_outgoing_record_no_orphan(self):
        events = [e for e in add_to_cart_chain() if e["fn"] != "cartkvstorage"]
        tree = assemble(events)[0]
        assert tree.orphans == []
        middle = tree.root.children[0]
        assert middle.fn == "addcartitem"
        assert middle.children == []
        assert [c.target for c in middle.outgoing] == ["cartkvstorage"]

    def test_deleting_middle_span_yields_one_orphan(self):
        events = [e for e in add_to_cart_chain() if e["fn"] != "addcartitem"]
        tree = assemble(events)[0]
        assert tree.root.fn == "frontend"
        assert len(tree.orphans) == 1
        orphan, reason = tree.orphans[0]
        assert orphan.fn == "cartkvstorage"
        assert "parent" in reason

    def test_duplicate_events_are_deduplicated(self):
        events = add_to_cart_chain()
        # Same context, pair, kind, timestamp and function: a duplicate,
        # whatever its other fields say. The first copy is kept.
        again = dict(events[-1], error=True, executor_id="x-other")
        trees = assemble(events + list(events) + [again])
        assert node_count(trees[0]) == 3
        leaf = trees[0].root.children[0].children[0]
        assert len(leaf.outgoing) == 2
        assert trees[0].root.error is False

    def test_unpaired_events_reported_not_raised(self):
        events = add_to_cart_chain()[:-1]  # drop frontend invocation_end
        tree = assemble(events)[0]
        assert any("frontend" in a for a in tree.anomalies)
        # The remaining chain still assembles below the missing root.
        assert tree.root.fn == "addcartitem"

    def test_contexts_are_independent(self):
        events = add_to_cart_chain("c1") + add_to_cart_chain("c2")
        trees = assemble(events)
        assert [t.context_id for t in trees] == ["c1", "c2"]
        assert all(node_count(t) == 3 for t in trees)

    def test_missing_fn_or_target_reads_question_mark(self):
        events = [
            ev("invocation_start", 0, "frontend", "c", "p"),
            ev("cold_start", 1, "frontend", "c", "p-lost"),
            ev("call_start", 5, "frontend", "c", "p", "cp-open"),
            ev("external_start", 6, "frontend", "c", "p", "cp-bare"),
            ev("external_end", 9, "frontend", "c", "p", "cp-bare"),
            ev("invocation_end", 10, "frontend", "c", "p"),
        ]
        tree = assemble(events)[0]
        assert sorted(tree.anomalies) == [
            "?/p-lost: missing invocation_start",
            "call cp-open to ?: unpaired events",
        ]
        assert [(c.target, c.kind) for c in tree.root.outgoing] == [("?", "external")]

    def test_one_shot_generator_gives_the_same_trees(self):
        events = add_to_cart_chain("c1") + add_to_cart_chain("c2")[:-1]
        trees = assemble(events)
        assert len(trees) == 2 and trees[1].anomalies
        assert assemble(e for e in events) == trees

    def test_peak_memory_per_event_of_analyzing_a_bundle(self, tmp_path):
        bundle_dir = synthbundle.write_bundle(str(tmp_path / "bundle"), 300, seed=12)
        events = len(ResultsBundle.read(bundle_dir).events)
        tracemalloc.start()
        try:
            trees = assemble(ResultsBundle.read(bundle_dir).events)
            analyzer.export(trees, str(tmp_path / "analysis"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Holding each event as its parsed dict took ~1,400 B per event;
        # compact rows and slotted spans take ~260 B.
        assert peak / events < 500, f"{peak / events:.0f} B per event over {events} events"

    def test_streamed_export_peak_memory_per_event(self, tmp_path):
        bundle_dir = synthbundle.write_bundle(str(tmp_path / "bundle"), 3_000, seed=12)
        events = len(ResultsBundle.read(bundle_dir).events)
        tracemalloc.start()
        try:
            analyzer.export(analyzer.iter_trees(ResultsBundle.read(bundle_dir).events),
                            str(tmp_path / "analysis"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Rows spilled to disk by partition and trees written as they are
        # built leave ~40 B per event; holding every row and every tree
        # took ~200 B.
        assert peak / events < 80, f"{peak / events:.0f} B per event over {events} events"

    @pytest.mark.parametrize("spill_rows", [4, 1024])
    def test_contexts_in_sorted_order_across_partitions(self, tmp_path, monkeypatch, spill_rows):
        # Few rows per chunk spill each partition several times, and split
        # contexts over chunks.
        monkeypatch.setattr(analyzer, "_SPILL_ROWS", spill_rows)
        contexts = ["a", "", "Z", "ab", "0", "é", "aa"]
        chains = [add_to_cart_chain(ctx) for ctx in contexts]
        notes = [ev("note", ts, "frontend", "9", "p-note") for ts in range(3)]
        events = [e for group in itertools.zip_longest(*chains, notes) for e in group if e]

        trees = assemble(events)
        assert [t.context_id for t in trees] == sorted(contexts + ["9"])
        for tree in trees:
            if tree.context_id == "9":
                assert tree.spans == [] and tree.root is None and tree.anomalies == []
            else:
                one = [e for e in events if e["context_id"] == tree.context_id]
                assert tree == assemble(one)[0]

        streamed = analyzer.export(analyzer.iter_trees(events), str(tmp_path / "streamed"))
        listed = analyzer.export(trees, str(tmp_path / "listed"))
        for name, path in streamed.items():
            assert Path(path).read_bytes() == Path(listed[name]).read_bytes()
        assert analyzer.summarize(analyzer.iter_trees(events)) == analyzer.summarize(trees)


class TestDecompose:
    def test_chain_fixture_components(self):
        tree = assemble(add_to_cart_chain())[0]
        breakdown = decompose(tree)
        # Per the fixture layout: frontend compute 100-90, addcartitem
        # 70-60, cartkvstorage 40-32; networks (90-70) and (60-40);
        # queries 16 each.
        by_fn = {s.span.fn: s.compute_us for s in breakdown.per_span}
        assert by_fn == {"frontend": 10_000, "addcartitem": 10_000, "cartkvstorage": 8_000}
        networks = {(c.caller_fn, c.target): c.network_us for c in breakdown.per_call}
        assert networks == {
            ("frontend", "addcartitem"): 20_000,
            ("addcartitem", "cartkvstorage"): 20_000,
        }
        assert [q.query_us for q in breakdown.per_query] == [16_000, 16_000]
        # Conservation for a synchronous tree: exact.
        assert breakdown.total_us == tree.root.duration_us

    def test_textbook_example(self):
        # Span runtime 50 ms with one 30 ms call whose callee ran 20 ms:
        # compute 20 ms, network 10 ms.
        events = [
            ev("invocation_start", 0, "a", "c", "p"),
            ev("call_start", 10_000, "a", "c", "p", "cp", "b"),
            ev("invocation_start", 15_000, "b", "c", "cp"),
            ev("invocation_end", 35_000, "b", "c", "cp"),
            ev("call_end", 40_000, "a", "c", "p", "cp", "b"),
            ev("invocation_end", 50_000, "a", "c", "p"),
        ]
        breakdown = decompose(assemble(events)[0])
        assert breakdown.per_span[0].compute_us == 20_000
        assert breakdown.per_call[0].network_us == 10_000

    def test_span_without_calls_is_pure_compute(self):
        events = [
            ev("invocation_start", 0, "a", "c", "p"),
            ev("invocation_end", 7_000, "a", "c", "p"),
        ]
        breakdown = decompose(assemble(events)[0])
        assert breakdown.compute_us == 7_000
        assert breakdown.network_us == 0 and breakdown.query_us == 0

    def test_overlapping_parallel_calls_merge_before_subtraction(self):
        # Two calls covering [10, 40] and [20, 50]: merged waiting is 40,
        # not 70, so compute stays non-negative.
        events = [
            ev("invocation_start", 0, "a", "c", "p"),
            ev("call_start", 10, "a", "c", "p", "cp1", "b"),
            ev("call_start", 20, "a", "c", "p", "cp2", "b"),
            ev("call_end", 40, "a", "c", "p", "cp1", "b"),
            ev("call_end", 50, "a", "c", "p", "cp2", "b"),
            ev("invocation_end", 60, "a", "c", "p"),
        ]
        breakdown = decompose(assemble(events)[0])
        assert breakdown.per_span[0].compute_us == 20
        assert breakdown.per_span[0].flagged is False

    def test_negative_component_flagged_and_clamped(self):
        # Callee claims to run longer than the call took (skewed clock).
        events = [
            ev("invocation_start", 0, "a", "c", "p"),
            ev("call_start", 10, "a", "c", "p", "cp", "b"),
            ev("invocation_start", 50_000, "b", "c", "cp"),
            ev("invocation_end", 80_000, "b", "c", "cp"),
            ev("call_end", 20_010, "a", "c", "p", "cp", "b"),
            ev("invocation_end", 30_000, "a", "c", "p"),
        ]
        breakdown = decompose(assemble(events)[0])
        edge = breakdown.per_call[0]
        assert edge.flagged is True
        assert edge.network_us == 0
        assert breakdown.flagged is True


class TestOneWay:
    def test_arithmetic(self):
        assert approx_one_way(100_000, 40_000).value_us == 30_000
        assert approx_one_way(40_000, 40_000).value_us == 0

    def test_negative_flagged_not_raised(self):
        estimate = approx_one_way(10_000, 40_000)
        assert estimate.flagged is True
        assert estimate.value_us == -15_000

    def test_rtt_rejects_negative_rtt(self):
        with pytest.raises(ValueError):
            approx_one_way(-1, 0)

    def test_edge_helpers_on_skewed_fixture(self):
        # Callee clock +50 ms: naive direction estimates are corrupted by
        # +/-50 ms while the RTT-based estimate stays at the true 10 ms.
        skew = 50_000
        events = [
            ev("invocation_start", 0, "a", "c", "p"),
            ev("call_start", 1_000, "a", "c", "p", "cp", "b"),
            ev("invocation_start", 11_000 + skew, "b", "c", "cp", platform="other"),
            ev("invocation_end", 31_000 + skew, "b", "c", "cp", platform="other"),
            ev("call_end", 41_000, "a", "c", "p", "cp", "b"),
            ev("invocation_end", 42_000, "a", "c", "p"),
        ]
        breakdown = decompose(assemble(events)[0])
        edge = breakdown.per_call[0]
        outbound, inbound = naive_one_way(edge)
        assert outbound == 10_000 + skew
        assert inbound == 10_000 - skew
        assert rtt_one_way(edge).value_us == 10_000


class TestColdStartReport:
    def test_counts_and_partition(self):
        warm = add_to_cart_chain("warm-ctx")
        warm = [e for e in warm if e["event_kind"] != "cold_start"]
        trees = assemble(add_to_cart_chain("cold-ctx") + warm)
        report = cold_start_report(trees)
        assert report.counts_by_fn == {"frontend": 1}
        assert report.total == 1
        assert len(report.cold_tree_latencies_us) == 1
        assert len(report.warm_tree_latencies_us) == 1


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def stats_oracle(samples):
    """Brute-force reference: numpy quantiles plus a direct fence scan."""
    xs = sorted(float(x) for x in samples)
    q1, med, q3 = (float(np.quantile(xs, p, method="linear")) for p in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [x for x in xs if lo <= x <= hi]
    outliers = tuple(x for x in xs if x < lo or x > hi)
    return (len(xs), xs[0], q1, med, q3, xs[-1], inside[0], inside[-1], outliers)


def as_tuple(s):
    return (s.n, s.min, s.q1, s.median, s.q3, s.max, s.whisker_low, s.whisker_high, s.outliers)


def assert_matches_oracle(samples):
    got = as_tuple(stats(samples))
    expected = stats_oracle(samples)
    assert got[:8] == pytest.approx(expected[:8])
    assert got[8] == expected[8]


class TestStats:
    def test_one_to_nine(self):
        s = stats(range(1, 10))
        assert (s.q1, s.median, s.q3) == (3, 5, 7)
        assert (s.whisker_low, s.whisker_high) == (1, 9)
        assert s.outliers == ()

    def test_hundred_is_outlier(self):
        s = stats(list(range(1, 10)) + [100])
        assert s.outliers == (100,)
        assert s.whisker_high == 9
        assert s.max == 100

    def test_single_sample(self):
        s = stats([42])
        assert as_tuple(s) == (1, 42, 42, 42, 42, 42, 42, 42, ())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats([])

    def test_exhaustive_small_sets_sizes_up_to_four(self):
        # Smaller slice of the exhaustive oracle; the acceptance suite
        # runs the full size<=8 sweep.
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement(range(11), size):
                assert_matches_oracle(combo)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_random_floats(self, xs):
        assert_matches_oracle(xs)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


class TestExport:
    def test_csv_row_counts_and_conservation(self, tmp_path):
        trees = assemble(add_to_cart_chain("c1") + add_to_cart_chain("c2"))
        paths = analyzer.export(trees, str(tmp_path))

        with open(paths["functions.csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(len(t.spans) for t in trees)

        with open(paths["breakdown.csv"]) as fh:
            breakdown_rows = list(csv.DictReader(fh))
        assert len(breakdown_rows) == 2
        for row in breakdown_rows:
            total = int(row["compute_us"]) + int(row["network_us"]) + int(row["query_us"])
            assert abs(total - int(row["end_to_end_us"])) <= 1000

        with open(paths["coldstarts.csv"]) as fh:
            cold_rows = {r["fn"]: r for r in csv.DictReader(fh)}
        assert cold_rows["frontend"]["cold_starts"] == "2"

        summary = (tmp_path / "summary.txt").read_text()
        assert "frontend" in summary and "cold starts" in summary

    def test_export_shapes_deterministic(self, tmp_path):
        trees = assemble(add_to_cart_chain())
        a = analyzer.export(trees, str(tmp_path / "a"))
        b = analyzer.export(trees, str(tmp_path / "b"))
        for name in a:
            assert Path(a[name]).read_text() == Path(b[name]).read_text()

    def test_report_matches_golden_text(self, tmp_path):
        # Two cold chains, a warm-only chain and a chain whose middle span
        # is gone: an orphan, four rooted trees (an even-sized median) and
        # a cold/warm split.
        warm = [e for e in add_to_cart_chain("warm") if e["event_kind"] != "cold_start"]
        orphan = [e for e in add_to_cart_chain("orphan") if e["fn"] != "addcartitem"]
        events = add_to_cart_chain("c1") + add_to_cart_chain("c2") + warm + orphan
        paths = analyzer.export(assemble(events), str(tmp_path))
        got = {}
        for name, path in paths.items():
            with open(path, newline="") as fh:  # keep the csv files' \r\n
                got[name] = fh.read()
        assert got == GOLDEN_REPORT

    @pytest.mark.parametrize("command", ["report", "analyze"])
    def test_report_runs_without_numpy(self, tmp_path, command):
        # Analysis reads a bundle offline: neither numpy nor any runtime
        # module (platforms, load generator, tracing, HTTP server, thread
        # pools) may be imported on the way.
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "audit.json").write_text("{}")
        (bundle / "events.ndjson").write_text(
            "".join(json.dumps(e) + "\n" for e in add_to_cart_chain())
        )
        blocked = ["numpy", "befaas.manager", "befaas.simplatform", "befaas.loadgen",
                   "befaas.tracing", "befaas.httpjson", "http.server", "http.client",
                   "socketserver", "concurrent.futures"]
        args = [command, "--bundle", str(bundle)]
        if command == "analyze":
            args += ["--out", str(tmp_path / "analysis")]
        script = (
            f"import sys; sys.modules.update(dict.fromkeys({blocked!r}))\n"
            "from befaas.cli import main\n"
            f"sys.exit(main({args!r}))\n"
        )
        src = os.path.dirname(os.path.dirname(befaas.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        if command == "report":
            assert "cold starts: 1 across 1 functions" in done.stdout
        else:
            summary = (tmp_path / "analysis" / "summary.txt").read_text()
            assert "cold starts: 1 across 1 functions" in summary

    def test_cli_leaves_no_resource_warning(self, tmp_path):
        # Under -X dev, a file or spill file left open warns on collection;
        # -W error turns each warning into an "Exception ignored" on stderr.
        bundle_dir = synthbundle.write_bundle(str(tmp_path / "bundle"), 200, seed=3)
        expected = analyzer.export(analyzer.iter_trees(ResultsBundle.read(bundle_dir).events),
                                   str(tmp_path / "in-process"))
        src = os.path.dirname(os.path.dirname(befaas.__file__))
        strict = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning"]
        early_close = (
            "import sys\n"
            "from befaas.analyzer import iter_trees\n"
            "from befaas.bundle import ResultsBundle\n"
            "trees = iter_trees(ResultsBundle.read(sys.argv[1]).events)\n"
            "next(trees)\n"
            "del trees\n"
        )
        runs = {
            "analyze": ["-m", "befaas.cli", "analyze", "--bundle", bundle_dir,
                        "--out", str(tmp_path / "analysis")],
            "report": ["-m", "befaas.cli", "report", "--bundle", bundle_dir],
            "early close": ["-c", early_close, bundle_dir],
        }
        done = {}
        for name, args in runs.items():
            done[name] = subprocess.run(
                strict + args, env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, text=True, timeout=120,
            )
            assert (done[name].returncode, done[name].stderr) == (0, ""), name
        for name, path in expected.items():
            got = tmp_path / "analysis" / name
            assert got.read_bytes() == Path(path).read_bytes(), name
        assert done["report"].stdout == Path(expected["summary.txt"]).read_text()

    def test_shape_signature_ignores_ids(self):
        sig1 = assemble(add_to_cart_chain("c1"))[0].shape_signature()
        sig2 = assemble(add_to_cart_chain("c2"))[0].shape_signature()
        assert sig1 == sig2
        assert "frontend" in sig1 and "cartkvstorage[kv,kv]" in sig1


def _csv(text):
    return text.replace("\n", "\r\n")


GOLDEN_REPORT = {
    "functions.csv": _csv(
        """fn,context_id,pair_id,platform,start_us,end_us,duration_us,cold_start,error
frontend,c1,p-root,sim,0,100000,100000,1,0
addcartitem,c1,cp-add,sim,15000,85000,70000,0,0
cartkvstorage,c1,cp-kvfn,sim,30000,70000,40000,0,0
frontend,c2,p-root,sim,0,100000,100000,1,0
addcartitem,c2,cp-add,sim,15000,85000,70000,0,0
cartkvstorage,c2,cp-kvfn,sim,30000,70000,40000,0,0
frontend,orphan,p-root,sim,0,100000,100000,1,0
cartkvstorage,orphan,cp-kvfn,sim,30000,70000,40000,0,0
frontend,warm,p-root,sim,0,100000,100000,0,0
addcartitem,warm,cp-add,sim,15000,85000,70000,0,0
cartkvstorage,warm,cp-kvfn,sim,30000,70000,40000,0,0
"""
    ),
    "breakdown.csv": _csv(
        """context_id,root_fn,end_to_end_us,compute_us,network_us,query_us,flagged
c1,frontend,100000,28000,40000,32000,0
c2,frontend,100000,28000,40000,32000,0
orphan,frontend,100000,10000,90000,0,0
warm,frontend,100000,28000,40000,32000,0
"""
    ),
    "coldstarts.csv": _csv(
        """fn,cold_starts,invocations
addcartitem,0,3
cartkvstorage,0,4
frontend,3,4
"""
    ),
    "summary.txt": """\
per-function execution duration (us)
fn                        n       min        q1    median        q3       max      wlow     whigh outliers
addcartitem               3     70000     70000     70000     70000     70000     70000     70000        0
cartkvstorage             4     40000     40000     40000     40000     40000     40000     40000        0
frontend                  4    100000    100000    100000    100000    100000    100000    100000        0

per-tree latency components (us)
end-to-end   total=        400000  median=    100000  mean=    100000
compute      total=         94000  median=     28000  mean=     23500
network      total=        210000  median=     40000  mean=     52500
query        total=         96000  median=     32000  mean=     24000

cold starts: 3 across 1 functions
  frontend                 3
cold-affected trees: n=3 median=100000us
warm-only trees:     n=1 median=100000us
""",
}
