"""Trace a single request through the webshop.

Starts one simulated platform and the key-value service, deploys the
three functions behind the add-to-cart action, sends one request, and
shows what the instrumentation recorded: the raw NDJSON log lines and
the call tree reconstructed from them.
"""
import json

from befaas import httpjson
from befaas.analyzer import assemble
from befaas.compiler import compile_deployment
from befaas.simplatform import AdminClient, KVService, SimPlatform, profile_from_config
from befaas.webshop import build_app

app = build_app()

# A platform with visible, constant delays: 30 ms cold start, 5 ms per
# network direction; the KV service answers with 4 ms per direction.
kv = KVService(query_delay_ms=4)
kv.start()
platform = SimPlatform(
    "demo", profile_from_config({"cold_start_delay_ms": 30, "network_delay_ms": 5})
)
platform.start()

config = {
    "functions": {fn: {"platform": "a"} for fn in app.function_names},
    "platforms": {"a": {"admin_endpoint": platform.base_url}},
    "external_services": {"kv": kv.endpoint},
}
artifacts = compile_deployment(app, config)
client = AdminClient(platform.base_url)
chain = ("frontend", "addcartitem", "cartkvstorage")
for artifact in artifacts:
    if artifact.fn in chain:
        client.deploy(artifact.to_doc())

# One add-to-cart request. No token is attached, so the frontend mints a
# fresh context id and the whole chain inherits it.
frontend_url = artifacts[0].endpoint_map["frontend"]
response = httpjson.post_json(
    frontend_url,
    {"payload": {"action": "addToCart", "user_id": "u-demo", "product_id": "OLJCESPC7Z", "quantity": 2}},
)
print("response:", json.dumps(response["payload"]))
print()

# The raw material of every analysis: one JSON event per line, captured
# from each function's logging stream.
events = []
print("raw log lines:")
for fn in chain:
    for line in client.logs(fn):
        print(f"  {line}")
        events.append(json.loads(line))
print()

# Reassembled: one rooted tree for the context, children linked by the
# pair ids the callers minted.
tree = assemble(events)[0]


def show(span, depth=0):
    pad = "  " * depth
    cold = " (cold start)" if span.cold_start else ""
    print(f"{pad}{span.fn}: {span.duration_us / 1000:.1f} ms on {span.platform}{cold}")
    for call in span.outgoing:
        if call.kind == "external":
            print(f"{pad}  -> {call.target}: {call.duration_us / 1000:.1f} ms round trip")
    for child in span.children:
        show(child, depth + 1)


print(f"call tree for context {tree.context_id[:12]}..:")
show(tree.root)

platform.teardown()
platform.stop()
kv.stop()
