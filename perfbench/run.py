"""Harness benchmark of befaas: one command, two workloads.

    python3 perfbench/run.py --workload floor-browse --seed 1 --seconds 48 --trace 0

Runs from the root of a checkout against the code under ``src``. With
``--trace 0`` it measures the workload and prints every end-to-end
metric; with ``--trace 1`` it runs the workload twice for half the time
each, untraced and then with the layer wrappers of ``tracer.py``
installed, and prints every per-layer metric plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed correctness check
prints the failures to standard error and exits with 1 after printing
the result. The full result, with the run environment, is also written
to ``.perfbench_out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("floor-browse", "desk-mix")


def _load_workload(name: str):
    if name == "floor-browse":
        import floor as module
    else:
        import desk as module
    return module


def _units() -> dict[str, str]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _run_once(module, args, work_dir: str, seconds: float, tracer=None) -> dict:
    os.makedirs(work_dir, exist_ok=True)
    try:
        return module.run(args.seed, seconds, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "befaas")):
        print(f"no befaas sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    module = _load_workload(args.workload)
    units = _units()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_root = os.path.join(common.OUT_ROOT, "work", tag)
    started = time.time()
    if args.trace:
        import tracer as tracing_layer

        half = args.seconds / 2.0
        plain = _run_once(module, args, os.path.join(work_root, "plain"), half)
        layers = tracing_layer.Tracer()
        with layers.installed():
            traced = _run_once(module, args, os.path.join(work_root, "traced"), half, layers)
        metrics = layers.per_layer(traced, plain)
        runs = [plain, traced]
    else:
        result = _run_once(module, args, work_root, args.seconds)
        metrics, runs = result["metrics"], [result]
        layers = None
    shutil.rmtree(work_root, ignore_errors=True)

    failures = [f for run in runs for f in run["checks"].failures]
    doc = {
        "correct": not failures,
        "attempted": int(sum(run["attempted"] for run in runs)),
        "failed": int(sum(run["failed"] for run in runs)),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(doc, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, started=started, environment=common.environment(),
                  info=[run["info"] for run in runs],
                  unsteady=[run["unsteady"] for run in runs], failures=failures)
    if layers:
        record["self_time_s"] = {k[:-7]: v for k, v in metrics.items() if k.endswith(".self_s")}
        record["missing"] = tracing_layer.NOT_MEASURED[args.workload]
        record["moves"] = tracing_layer.MOVES
    results_dir = os.path.join(common.OUT_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for run in runs:
        print("info " + json.dumps(run["info"], sort_keys=True))
        print("unsteady " + json.dumps(run["unsteady"], sort_keys=True))
    if args.trace:
        for layer, seconds in sorted(record["self_time_s"].items()):
            print(f"self time {layer:<12} {seconds:10.4f} s")
        for name, reason in sorted(record["missing"].items()):
            print(f"not measured on {args.workload}: {name}: {reason}")
    for name, entry in doc["metrics"].items():
        print(f"{name:<40} {entry['value']:>14.4f} {entry['unit']}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
