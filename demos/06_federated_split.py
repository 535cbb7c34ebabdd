"""A federated deployment: the application split across two platforms.

Deployment location is a pure configuration choice: canonical function
names resolve through the endpoint map that the compiler hands every
artifact, so moving a function to another platform never touches
application code. Here the frontend runs on platform "edge" while all 16
backend functions run on "cloud" -- every trace then spans both.
"""
import os

from befaas.analyzer import assemble
from befaas.manager import ExperimentPlan, run_experiment
from befaas.webshop import build_app

app = build_app()

fast = {
    "cold_start_delay_ms": 15,
    "network_delay_ms": 1,
    "max_executors": 32,
}

config = {
    "functions": {
        fn: {"platform": "edge" if fn == "frontend" else "cloud"}
        for fn in app.function_names
    },
    "platforms": {"edge": {"profile": dict(fast)}, "cloud": {"profile": dict(fast)}},
    "external_services": {"kv": {"managed": True, "query_delay_ms": 1}},
    "load_profile": {"phases": [{"duration_s": 10, "rate_start": 2, "rate_end": 2}]},
    "seed": 7,
}

out_dir = os.path.join(os.path.dirname(__file__), "_bundle_federated")
bundle = run_experiment(ExperimentPlan(config=config, out_dir=out_dir))

trees = [t for t in assemble(bundle.events) if t.root is not None]
print(f"{len(trees)} traces collected")
both = sum(1 for t in trees if {s.platform for s in t.root.walk()} == {"edge", "cloud"})
print(f"{both} traces span both platforms")

# A closer look at one checkout: the frontend span sits on the edge
# platform, everything below it in the cloud.
checkout = max(trees, key=lambda t: len(t.spans))
for span in checkout.root.walk():
    print(f"  {span.fn:<20} on {span.platform}")
