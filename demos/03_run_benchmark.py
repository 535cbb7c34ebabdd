"""Run a complete benchmark experiment.

One call does everything: check the config, provision the managed
key-value service and a simulated platform, compile and deploy all 17
functions, drive the load profile, collect the logs, tear the whole
deployment down again, and write the results bundle. The same flow is available on the command line:

    befaas run --config config.json --out bundle/
    befaas analyze --bundle bundle/ --out analysis/
"""
import os

from befaas.analyzer import assemble, export
from befaas.manager import ExperimentPlan, run_experiment
from befaas.webshop import build_app

app = build_app()

config = {
    "functions": {fn: {"platform": "a"} for fn in app.function_names},
    "platforms": {
        "a": {
            "profile": {
                "cold_start_delay_ms": 25,
                "invoke_overhead_ms": 0.5,
                "network_delay_ms": 1,
                "max_executors": 32,
                "queue_policy": "scale_up",
            }
        }
    },
    "external_services": {"kv": {"managed": True, "query_delay_ms": 2}},
    # 2 workflows/s for 20 s: 40 customer sessions.
    "load_profile": {"phases": [{"duration_s": 20, "rate_start": 2, "rate_end": 2}]},
    "seed": 42,
}

out_dir = os.path.join(os.path.dirname(__file__), "_bundle")
bundle = run_experiment(ExperimentPlan(config=config, out_dir=out_dir))

print(f"bundle written to {bundle.out_dir}:")
for name in sorted(os.listdir(bundle.out_dir)):
    print(f"  {name}")

ok = sum(1 for r in bundle.client_records if r["status"] == "ok")
print(f"\nclient records: {len(bundle.client_records)} ({ok} ok)")
print(f"log events:     {len(bundle.events)}")
print(f"reject lines:   {len(bundle.rejects)}")

# The analyzer exports CSVs plus a plain-text summary of per-function
# duration distributions and the compute/network/query split.
trees = assemble(bundle.events)
paths = export(trees, os.path.join(out_dir, "analysis"))
print()
print(open(paths["summary.txt"]).read())
