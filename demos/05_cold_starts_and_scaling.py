"""Cold starts under burst load, and the two queue policies.

Every executor serves one request at a time. A burst of concurrent
requests on a fresh deployment therefore forces one cold start per
request -- if the platform scales up. The two shipped profiles contrast
the strategies: "scaler" creates executors (and rejects at its cap),
"queuer" parks requests in FIFO order instead.
"""
import json
import threading

from befaas import httpjson
from befaas.analyzer import assemble, cold_start_report
from befaas.compiler import compile_deployment, function_endpoint
from befaas.simplatform import AdminClient, SimPlatform, profile_from_config
from befaas.webshop import build_app

app = build_app()


def burst(endpoint, count):
    barrier = threading.Barrier(count)

    def hit():
        barrier.wait()
        try:
            httpjson.post_json(endpoint, {"payload": {}})
        finally:
            httpjson.close_thread_connections()

    threads = [threading.Thread(target=hit) for _ in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


for preset in ("scaler", "queuer"):
    platform = SimPlatform(preset, profile_from_config(preset))
    platform.start()
    config = {
        "functions": {fn: {"platform": "a"} for fn in app.function_names},
        "platforms": {"a": {"admin_endpoint": platform.base_url}},
        "external_services": {"kv": "http://127.0.0.1:1/kv"},
    }
    artifacts = {a.fn: a for a in compile_deployment(app, config)}
    AdminClient(platform.base_url).deploy(artifacts["listproducts"].to_doc())
    endpoint = function_endpoint(platform.base_url, "listproducts")

    burst(endpoint, 8)   # fresh deployment: cold starts
    burst(endpoint, 8)   # warm pool: reuse

    events = [json.loads(line) for line in platform.fetch_logs("listproducts")]
    report = cold_start_report(assemble(events))
    stats = platform.stats()["functions"]["listproducts"]
    profile = platform.profile
    print(
        f"{preset:<8} policy={profile.queue_policy:<16} cap={profile.max_executors:<3}"
        f" invocations={stats['invocations']:<3} executors={stats['executors_created']:<3}"
        f" cold starts={report.total}"
    )
    # The analyzer's cold-start count always equals the platform's own
    # executor-creation count: two independent views of the same events.
    assert report.total == stats["executors_created"]

    platform.teardown()
    platform.stop()

# scaler: 8 executors for the first burst, all reused by the second.
# queuer: capped at 2 executors; 14 of 16 requests waited in the queue,
# and only 2 cold starts ever happened.
