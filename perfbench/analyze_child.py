"""``befaas analyze`` in a child process that reports its own peak memory.

    python3 perfbench/analyze_child.py <stats.json> <trace 0|1> analyze --bundle <dir> --out <dir>

Runs ``befaas.cli`` as ``__main__``, exactly as ``python -m befaas.cli``
does, and writes to ``stats.json`` the process's CPU and run time and its
peak RSS. The peak is ``VmHWM``, the high-water mark of this process's own
address space: ``ru_maxrss`` would start at the parent's RSS, because
Linux carries the old address space's peak over ``exec``. With trace 1
the analyzer-layer wrappers are installed first and the spans are written
too.
"""
from __future__ import annotations

import json
import os
import runpy
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def _status_kb(field: str) -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def main() -> int:
    stats_path, traced = sys.argv.pop(1), sys.argv.pop(1) == "1"
    layers = None
    if traced:
        import tracer

        layers = tracer.Tracer()
        layers.install_analyzer()
    base_kb = _status_kb("VmRSS")
    cpu0, wall0 = common.cpu_seconds(), time.perf_counter()
    try:
        runpy.run_module("befaas.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        if layers:
            layers.uninstall()
    stats = {
        "cpu_s": common.cpu_seconds() - cpu0,
        "run_s": time.perf_counter() - wall0,
        "peak_kb": _status_kb("VmHWM"),
        "base_kb": base_kb,
        "spans": layers.spans if layers else [],
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
