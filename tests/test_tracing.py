import json
import re
import threading
import time

import pytest

from befaas.bundle import parse_event_line
from befaas.errors import BusinessError, CalleeError, ConfigurationError, TransportCallError
from befaas.tracing import (
    COLD_START_MARKER,
    ENVELOPE_KEY,
    HandlerRuntime,
    detect_cold_start,
    envelope_status,
    new_id,
    wrap_handler,
)

HEX32 = re.compile(r"^[0-9a-f]{32}$")


class TestNewId:
    def test_length_and_alphabet(self):
        value = new_id()
        assert HEX32.match(value)

    def test_successive_calls_distinct(self):
        assert new_id() != new_id()

    def test_million_draws_no_duplicates(self):
        # Independent oracle: collect a large draw set and check for any
        # collision directly. At 128 bits the birthday bound makes a
        # duplicate essentially impossible (~1.5e-27 for 1e6 draws).
        n = 1_000_000
        draws = {new_id() for _ in range(n)}
        assert len(draws) == n


class TestColdStartDetection:
    def test_fresh_environment(self):
        env = {}
        assert detect_cold_start(env) is True
        assert HEX32.match(env[COLD_START_MARKER])

    def test_second_call_warm(self):
        env = {}
        detect_cold_start(env)
        marker = env[COLD_START_MARKER]
        assert detect_cold_start(env) is False
        assert env[COLD_START_MARKER] == marker

    def test_distinct_environments_distinct_markers(self):
        env_a, env_b = {}, {}
        assert detect_cold_start(env_a) is True
        assert detect_cold_start(env_b) is True
        assert env_a[COLD_START_MARKER] != env_b[COLD_START_MARKER]


def make_runtime(fn="testfn", lines=None, transport=None, endpoint_map=None, env=None):
    return HandlerRuntime(
        fn=fn,
        platform="unit",
        executor_env={},
        endpoint_map=endpoint_map or {},
        env=env or {},
        emit=(lines if lines is not None else []).append,
        transport=transport or (lambda url, doc: {"payload": None}),
    )


def events_of(lines):
    return [json.loads(line) for line in lines]


class TestWrapHandler:
    def test_root_request_mints_fresh_token(self):
        lines = []
        handler = wrap_handler(lambda payload, ctx: {"ok": True})
        envelope = handler({"payload": {}}, make_runtime(lines=lines))
        events = events_of(lines)
        assert [e["event_kind"] for e in events] == [
            "invocation_start",
            "cold_start",
            "invocation_end",
        ]
        assert HEX32.match(events[0]["context_id"])
        assert HEX32.match(events[0]["pair_id"])
        assert envelope[ENVELOPE_KEY]["ctx"] == events[0]["context_id"]
        assert envelope["payload"] == {"ok": True}

    def test_token_propagation(self):
        lines = []
        handler = wrap_handler(lambda payload, ctx: payload)
        token = {"ctx": "c" * 32, "pair": "d" * 32}
        handler({ENVELOPE_KEY: token, "payload": 1}, make_runtime(lines=lines))
        events = events_of(lines)
        assert all(e["context_id"] == "c" * 32 for e in events)
        assert all(e["pair_id"] == "d" * 32 for e in events)

    def test_invocation_events_share_identity(self):
        lines = []
        handler = wrap_handler(lambda payload, ctx: None)
        handler({"payload": {}}, make_runtime(lines=lines))
        events = events_of(lines)
        for key in ("fn", "context_id", "pair_id", "executor_id"):
            assert len({e[key] for e in events}) == 1

    def test_sleeping_handler_duration(self):
        # Wall-clock oracle: a 20 ms handler must show >= 20,000 us.
        lines = []
        handler = wrap_handler(lambda payload, ctx: time.sleep(0.020))
        handler({"payload": {}}, make_runtime(lines=lines))
        events = {e["event_kind"]: e for e in events_of(lines)}
        assert events["invocation_end"]["ts_us"] - events["invocation_start"]["ts_us"] >= 20_000

    def test_business_error_still_ends_invocation(self):
        lines = []

        def boom(payload, ctx):
            raise BusinessError("bad input", kind="client")

        envelope = wrap_handler(boom)({"payload": {}}, make_runtime(lines=lines))
        events = events_of(lines)
        assert events[-1]["event_kind"] == "invocation_end"
        assert events[-1]["error"] is True
        assert envelope["error"]["kind"] == "client"
        assert envelope_status(envelope) == 400

    def test_unexpected_exception_becomes_server_error(self):
        envelope = wrap_handler(lambda p, c: 1 / 0)({"payload": {}}, make_runtime())
        assert envelope["error"]["kind"] == "server"
        assert envelope_status(envelope) == 500

    def test_cold_start_only_on_first_invocation(self):
        lines = []
        runtime = make_runtime(lines=lines)
        handler = wrap_handler(lambda payload, ctx: None)
        handler({"payload": {}}, runtime)
        handler({"payload": {}}, runtime)
        kinds = [e["event_kind"] for e in events_of(lines)]
        assert kinds.count("cold_start") == 1


class TestCallFunction:
    def make_callee_transport(self, callee_lines):
        callee = wrap_handler(lambda payload, ctx: {"echo": payload})
        callee_runtime = make_runtime(fn="callee", lines=callee_lines)

        def transport(url, doc):
            assert url == "http://x/fn/callee"
            envelope = callee(doc, callee_runtime)
            status = envelope_status(envelope)
            if status != 200:
                raise TransportCallError(status, envelope)
            return envelope

        return transport

    def test_single_call_links_pair_ids(self):
        caller_lines, callee_lines = [], []
        transport = self.make_callee_transport(callee_lines)

        def logic(payload, ctx):
            return ctx.call("callee", {"x": 1})

        runtime = make_runtime(
            lines=caller_lines,
            transport=transport,
            endpoint_map={"callee": "http://x/fn/callee"},
        )
        wrap_handler(logic)({"payload": {}}, runtime)

        caller_events = events_of(caller_lines)
        callee_events = events_of(callee_lines)
        calls = [e for e in caller_events if e["event_kind"].startswith("call_")]
        assert [e["event_kind"] for e in calls] == ["call_start", "call_end"]
        assert all(e["target"] == "callee" for e in calls)
        minted = calls[0]["call_pair_id"]
        assert callee_events[0]["pair_id"] == minted
        assert callee_events[0]["context_id"] == caller_events[0]["context_id"]

    def test_unknown_target_is_config_error_without_events(self):
        lines = []

        def logic(payload, ctx):
            ctx.call("ghost", {})

        envelope = wrap_handler(logic)(
            {"payload": {}}, make_runtime(lines=lines)
        )
        assert envelope["error"]["kind"] == "server"
        kinds = [e["event_kind"] for e in events_of(lines)]
        assert not any(k.startswith("call_") for k in kinds)

    def test_parallel_block_mints_distinct_pair_ids(self):
        caller_lines, callee_lines = [], []
        transport = self.make_callee_transport(callee_lines)

        def logic(payload, ctx):
            return ctx.call_parallel([("callee", {"i": 0}), ("callee", {"i": 1})])

        runtime = make_runtime(
            lines=caller_lines,
            transport=transport,
            endpoint_map={"callee": "http://x/fn/callee"},
        )
        wrap_handler(logic)({"payload": {}}, runtime)
        events = events_of(caller_lines)
        starts = [e for e in events if e["event_kind"] == "call_start"]
        assert len(starts) == 2
        assert starts[0]["call_pair_id"] != starts[1]["call_pair_id"]
        assert starts[0]["context_id"] == starts[1]["context_id"]

    def run_block(self, transport, calls):
        """Run one parallel block in a handler; return its outcome and the caller's lines."""
        lines, outcome = [], {}

        def logic(payload, ctx):
            try:
                outcome["result"] = ctx.call_parallel(calls)
            except CalleeError as exc:
                outcome["error"] = exc
                outcome["ends_at_raise"] = sum(
                    1 for e in events_of(lines) if e["event_kind"] == "call_end")

        runtime = make_runtime(lines=lines, transport=transport,
                               endpoint_map={"callee": "http://x/fn/callee"})
        wrap_handler(logic)({"payload": {}}, runtime)
        return outcome, lines

    def test_parallel_results_keep_argument_order(self):
        def transport(url, doc):
            index = doc["payload"]["i"]
            time.sleep(0.01 * (4 - index))  # later members return first
            return {"payload": index}

        baseline = threading.active_count()
        outcome, _ = self.run_block(transport, [("callee", {"i": i}) for i in range(4)])
        assert outcome["result"] == [0, 1, 2, 3]
        assert threading.active_count() == baseline

    def test_parallel_reraises_first_failure_in_argument_order_after_all_ends(self):
        def transport(url, doc):
            index = doc["payload"]["i"]
            time.sleep({1: 0.05, 2: 0.1, 3: 0.0}.get(index, 0.0))
            if index in (1, 3):  # member 3 fails first, member 1 comes first
                raise TransportCallError(500, {"error": {"message": f"m{index}"}})
            return {"payload": index}

        baseline = threading.active_count()
        outcome, lines = self.run_block(transport, [("callee", {"i": i}) for i in range(4)])
        assert str(outcome["error"]) == "call to callee failed: m1"
        assert outcome["ends_at_raise"] == 4
        ends = [e for e in events_of(lines) if e["event_kind"] == "call_end"]
        assert sum(1 for e in ends if e.get("error")) == 2
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("body", [{"error": "boom"}, {"error": None}, {}, []])
    def test_foreign_error_body_reads_as_a_server_error(self, body):
        def transport(url, doc):
            raise TransportCallError(502, body)

        lines = []
        runtime = make_runtime(lines=lines, transport=transport,
                               endpoint_map={"callee": "http://x/fn/callee"})
        envelope = wrap_handler(lambda payload, ctx: ctx.call("callee", {}))(
            {"payload": {}}, runtime)
        assert envelope["error"] == {
            "message": "call to callee failed: HTTP 502: unknown error", "kind": "server"}
        ends = [e for e in events_of(lines) if e["event_kind"] == "call_end"]
        assert len(ends) == 1 and ends[0]["error"]

    def test_empty_parallel_block(self):
        outcome, lines = self.run_block(lambda url, doc: {"payload": None}, [])
        assert outcome["result"] == []
        assert not any(e["event_kind"].startswith("call_") for e in events_of(lines))

    def test_token_wire_size_constant(self):
        # The envelope token must not vary in size between calls to the
        # same target (fixed-length ids).
        sizes = set()
        for _ in range(20):
            token = {"ctx": new_id(), "pair": new_id()}
            sizes.add(len(json.dumps({ENVELOPE_KEY: token}, separators=(",", ":"))))
        assert len(sizes) == 1


class TestCallExternal:
    def test_missing_service_endpoint(self):
        def logic(payload, ctx):
            ctx.call_external("kv", "get", {"key": "k"})

        envelope = wrap_handler(logic)({"payload": {}}, make_runtime())
        assert envelope["error"]["kind"] == "server"
        assert "kv" in envelope["error"]["message"]

    def test_kv_round_trip_logs_two_event_pairs(self):
        # KV round-trip oracle: set then get on the same key returns the
        # stored value and leaves exactly two external event pairs.
        store = {}
        lines = []

        def kv_transport(url, doc):
            assert url == "http://x/kv"
            if doc["op"] == "set":
                store[doc["key"]] = doc["value"]
                return {"ok": True}
            return {"found": doc["key"] in store, "value": store.get(doc["key"])}

        def logic(payload, ctx):
            ctx.call_external("kv", "set", {"key": "a", "value": 41})
            return ctx.call_external("kv", "get", {"key": "a"})

        runtime = make_runtime(lines=lines, transport=kv_transport, env={"KV": "http://x/kv"})
        envelope = wrap_handler(logic)({"payload": {}}, runtime)
        assert envelope["payload"] == {"found": True, "value": 41}
        kinds = [e["event_kind"] for e in events_of(lines)]
        assert kinds.count("external_start") == 2
        assert kinds.count("external_end") == 2
        targets = {e["target"] for e in events_of(lines) if "target" in e}
        assert targets == {"kv"}


class TestParseEventLine:
    def test_round_trip(self):
        lines = []
        wrap_handler(lambda p, c: None)({"payload": {}}, make_runtime(lines=lines))
        for line in lines:
            doc = parse_event_line(line)
            assert doc["fn"] == "testfn"

    def test_unknown_fields_are_kept(self):
        line = json.dumps(
            {
                "event_kind": "invocation_start",
                "ts_us": 1,
                "fn": "f",
                "context_id": "c",
                "pair_id": "p",
                "mystery": 7,
            }
        )
        assert parse_event_line(line)["mystery"] == 7

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            json.dumps({"event_kind": "bogus", "ts_us": 1, "fn": "f", "context_id": "c", "pair_id": "p"}),
            json.dumps({"event_kind": "invocation_start", "fn": "f", "context_id": "c", "pair_id": "p"}),
            json.dumps(["a", "list"]),
            json.dumps({"event_kind": ["invocation_start"], "ts_us": 1, "fn": "f",
                        "context_id": "c", "pair_id": "p"}),
            json.dumps({"event_kind": "invocation_start", "ts_us": 1, "fn": "f",
                        "context_id": 5, "pair_id": "p"}),
            json.dumps({"event_kind": "call_start", "ts_us": 1, "fn": "f", "context_id": "c",
                        "pair_id": "p", "target": None}),
            json.dumps({"event_kind": "invocation_end", "ts_us": 1, "fn": "f", "context_id": "c",
                        "pair_id": "p", "error": "no"}),
            json.dumps({"event_kind": "invocation_start", "ts_us": True, "fn": "f",
                        "context_id": "c", "pair_id": "p"}),
        ],
    )
    def test_rejects_bad_lines(self, line):
        with pytest.raises(ValueError):
            parse_event_line(line)


def test_config_error_type():
    with pytest.raises(ConfigurationError):
        raise ConfigurationError("x")
