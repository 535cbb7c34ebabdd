"""Drill-down latency decomposition with known ground truth.

Configure the simulation with exact delays (5 ms compute per function,
10 ms per network direction, 8 ms per KV direction), hammer the
add-to-cart chain, and check that the analyzer recovers precisely those
numbers from the timestamps alone:

    compute = span runtime - time inside outgoing calls
    network = call duration - callee runtime          (~2 x 10 ms per hop)
    query   = external call duration                   (~2 x 8 ms per op)
"""
import json
import random
import statistics

from befaas.analyzer import assemble, decompose
from befaas.compiler import compile_deployment
from befaas.loadgen import WorkflowSpec, execute_workflow
from befaas.simplatform import AdminClient, KVService, SimPlatform, profile_from_config
from befaas.webshop import build_app

COMPUTE_MS, NETWORK_MS, KV_MS = 5.0, 10.0, 8.0
REQUESTS = 60

app = build_app()
kv = KVService(query_delay_ms=KV_MS)
kv.start()
platform = SimPlatform(
    "drill", profile_from_config({"cold_start_delay_ms": 0, "network_delay_ms": NETWORK_MS})
)
platform.start()

config = {
    "functions": {
        fn: {"platform": "a", "env": {"COMPUTE_MS": str(COMPUTE_MS)}}
        for fn in app.function_names
    },
    "platforms": {"a": {"admin_endpoint": platform.base_url}},
    "external_services": {"kv": kv.endpoint},
}
artifacts = compile_deployment(app, config)
client = AdminClient(platform.base_url)
chain = ("frontend", "addcartitem", "cartkvstorage")
for artifact in artifacts:
    if artifact.fn in chain:
        client.deploy(artifact.to_doc())

spec = WorkflowSpec("cart-hammer", 1.0, ("addToCart",))
frontend = artifacts[0].endpoint_map["frontend"]
for i in range(REQUESTS):
    execute_workflow(spec, frontend, random.Random(i), i, close_connections=False)

events = []
for fn in chain:
    events.extend(json.loads(line) for line in client.logs(fn))

computes, networks, queries = [], [], []
for tree in assemble(events):
    breakdown = decompose(tree)
    computes.extend(s.compute_us / 1000 for s in breakdown.per_span)
    networks.extend(c.network_us / 1000 for c in breakdown.per_call)
    queries.extend(q.query_us / 1000 for q in breakdown.per_query)
    # For a synchronous chain the components account for the whole
    # end-to-end duration, to the microsecond.
    assert abs(tree.root.duration_us - breakdown.total_us) <= 1000

print(f"configured: compute {COMPUTE_MS} ms, network {2 * NETWORK_MS} ms/hop, query {2 * KV_MS} ms/op")
print(f"recovered medians over {REQUESTS} requests:")
print(f"  compute  {statistics.median(computes):6.2f} ms  (n={len(computes)})")
print(f"  network  {statistics.median(networks):6.2f} ms  (n={len(networks)})")
print(f"  query    {statistics.median(queries):6.2f} ms  (n={len(queries)})")

platform.teardown()
platform.stop()
kv.stop()
