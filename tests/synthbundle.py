"""A seeded generator of well-formed results bundles, for tests that need
a bundle of a given size without running an experiment.

Each context is one frontend request. The frontend makes one to three
steps: a call to a leaf function, a parallel block of two or three leaf
calls, or a call to ``cart``, which calls ``cartkvstorage``, which makes
one or two KV calls. About one span in ten is a cold start on a fresh
executor. Events are written grouped by function, as log collection
writes them, so the events of one context are spread over the file.

    python tests/synthbundle.py <out_dir> <contexts> [seed]
"""
from __future__ import annotations

import json
import random
import sys
from typing import Iterator

from befaas.bundle import ResultsBundle

FUNCTIONS = ("frontend", "cart", "cartkvstorage", "product", "currency", "recommend")
LEAVES = ("product", "currency", "recommend")
COLD_SHARE = 0.1
WARM_EXECUTORS = 4


def _hex(rng: random.Random) -> str:
    return f"{rng.getrandbits(128):032x}"


def _context(seed: int, index: int) -> tuple[list[dict], dict]:
    """The events and the client record of context ``index``."""
    rng = random.Random(f"{seed}:{index}")
    context_id = _hex(rng)
    pools = random.Random(seed)
    warm = {fn: [_hex(pools) for _ in range(WARM_EXECUTORS)] for fn in FUNCTIONS}
    events: list[dict] = []

    def emit(kind, ts, fn, pair_id, executor_id, call_pair_id=None, target=None):
        doc = {"event_kind": kind, "ts_us": ts, "fn": fn, "context_id": context_id,
               "pair_id": pair_id, "executor_id": executor_id, "platform": "sim"}
        if call_pair_id is not None:
            doc["call_pair_id"] = call_pair_id
        if target is not None:
            doc["target"] = target
        events.append(doc)

    def invoke(fn: str, pair_id: str, t: int) -> int:
        cold = rng.random() < COLD_SHARE
        executor_id = _hex(rng) if cold else rng.choice(warm[fn])
        emit("invocation_start", t, fn, pair_id, executor_id)
        if cold:
            emit("cold_start", t + 1, fn, pair_id, executor_id)
        t += rng.randint(50, 500)
        if fn == "frontend":
            for _ in range(rng.randint(1, 3)):
                step = rng.random()
                if step < 0.4:
                    t = call(fn, pair_id, executor_id, [rng.choice(LEAVES)], t)
                elif step < 0.7:
                    t = call(fn, pair_id, executor_id, rng.sample(LEAVES, rng.randint(2, 3)), t)
                else:
                    t = call(fn, pair_id, executor_id, ["cart"], t)
        elif fn == "cart":
            t = call(fn, pair_id, executor_id, ["cartkvstorage"], t)
        elif fn == "cartkvstorage":
            for _ in range(rng.randint(1, 2)):
                call_pair_id, query_us = _hex(rng), rng.randint(200, 3000)
                emit("external_start", t, fn, pair_id, executor_id, call_pair_id, "kv")
                emit("external_end", t + query_us, fn, pair_id, executor_id, call_pair_id, "kv")
                t += query_us + rng.randint(10, 100)
        end = t + rng.randint(50, 500)
        emit("invocation_end", end, fn, pair_id, executor_id)
        return end

    def call(fn: str, pair_id: str, executor_id: str, targets: list[str], t: int) -> int:
        """One call, or a parallel block when ``targets`` has several."""
        block_end = t
        for offset, target in enumerate(targets):
            call_pair_id, start = _hex(rng), t + offset * 20
            emit("call_start", start, fn, pair_id, executor_id, call_pair_id, target)
            done = invoke(target, call_pair_id, start + rng.randint(100, 2000))
            end = done + rng.randint(100, 2000)
            emit("call_end", end, fn, pair_id, executor_id, call_pair_id, target)
            block_end = max(block_end, end)
        return block_end + rng.randint(10, 100)

    start = 1_700_000_000_000_000 + index * 50_000
    end = invoke("frontend", _hex(rng), start)
    record = {"workflow": "synthetic", "arrival_index": index, "step": 0,
              "action": "browse", "send_ts_us": start - 300, "recv_ts_us": end + 300,
              "status": "ok", "context_id": context_id}
    return events, record


def _events(contexts: int, seed: int) -> Iterator[dict]:
    for fn in FUNCTIONS:
        for index in range(contexts):
            yield from (e for e in _context(seed, index)[0] if e["fn"] == fn)


def _records(contexts: int, seed: int) -> Iterator[dict]:
    for index in range(contexts):
        yield _context(seed, index)[1]


def write_bundle(out_dir: str, contexts: int, seed: int = 0) -> str:
    """Write a bundle of ``contexts`` requests into ``out_dir``; return it."""
    ResultsBundle(
        out_dir=out_dir,
        client_records=_records(contexts, seed),
        events=_events(contexts, seed),
        rejects=[],
        audit={"seed": seed, "scheduled_workflows": contexts, "incomplete": False,
               "trail": []},
    ).write(json.dumps({"synthetic": {"contexts": contexts, "seed": seed}}).encode())
    return out_dir


if __name__ == "__main__":
    write_bundle(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) if len(sys.argv) > 3 else 0)
