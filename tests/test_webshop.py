import hashlib
import json
import random
import statistics
from concurrent.futures import Future
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from befaas import analyzer, httpjson, loadgen, tracing
from befaas.errors import TransportCallError
from befaas.webshop import CALL_GRAPH, KV_SERVICE, build_app
from befaas.webshop import catalog
from befaas.webshop.money import NANOS_PER_UNIT, Money

from localharness import LocalHarness
from treeshape import depth, node_count


@pytest.fixture
def shop():
    return LocalHarness()


def ok_payload(envelope):
    assert "error" not in envelope, envelope.get("error")
    return envelope["payload"]


# ---------------------------------------------------------------------------
# Static structure
# ---------------------------------------------------------------------------


def test_roster_is_the_canonical_seventeen():
    app = build_app()
    assert len(app.function_names) == 17
    assert set(app.function_names) == set(CALL_GRAPH) - {KV_SERVICE}
    assert app.entrypoint == "frontend"


def test_call_graph_is_acyclic_with_frontend_entry():
    # Kahn's algorithm as an independent acyclicity check.
    nodes = set(CALL_GRAPH) | {KV_SERVICE}
    indegree = {n: 0 for n in nodes}
    for callees in CALL_GRAPH.values():
        for callee in callees:
            indegree[callee] += 1
    # frontend is the unique entry: nothing calls it, it reaches the rest.
    entries = [n for n in CALL_GRAPH if indegree[n] == 0]
    assert entries == ["frontend"]
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for callee in CALL_GRAPH.get(node, ()):
            indegree[callee] -= 1
            if indegree[callee] == 0:
                ready.append(callee)
    assert seen == len(nodes)


# ---------------------------------------------------------------------------
# Frontend actions
# ---------------------------------------------------------------------------


def test_view_product_returns_details_ads_recommendations(shop):
    product_id = catalog.product_ids()[0]
    payload = ok_payload(shop.frontend({"action": "viewProduct", "id": product_id}))
    assert payload["product"] == catalog.get(product_id)
    assert len(payload["ads"]) == 2
    assert product_id not in payload["recommendations"]
    assert len(payload["recommendations"]) == 3


def test_unknown_action_is_client_error_with_no_backend_calls(shop):
    envelope = shop.frontend({"action": "teleport"})
    assert envelope["error"]["kind"] == "client"
    frontend_events = [e for e in shop.events() if e["fn"] == "frontend"]
    assert not any(e["event_kind"].startswith("call_") for e in frontend_events)
    assert [e for e in shop.events() if e["fn"] != "frontend"] == []


def test_home_spawns_async_block_of_four(shop):
    payload = ok_payload(shop.frontend({"action": "home"}))
    assert payload["user_id"].startswith("u-")
    assert len(payload["products"]) == 10
    trees = analyzer.assemble(shop.events())
    assert len(trees) == 1
    root = trees[0].root
    assert root.fn == "frontend"
    assert len(root.children) >= 4
    assert {c.fn for c in root.children} >= {
        "listproducts",
        "getads",
        "listrecommendations",
        "supportedcurrencies",
    }


def test_search_hits_description_and_name(shop):
    payload = ok_payload(shop.frontend({"action": "search", "query": "kitchen"}))
    names = {p["name"] for p in payload["results"]}
    assert "Salt & Pepper Shakers" in names


def test_set_currency_validates_against_supported(shop):
    assert ok_payload(shop.frontend({"action": "setCurrency", "currency": "EUR"})) == {
        "currency": "EUR"
    }
    envelope = shop.frontend({"action": "setCurrency", "currency": "XXX"})
    assert envelope["error"]["kind"] == "client"


# ---------------------------------------------------------------------------
# Cart semantics
# ---------------------------------------------------------------------------


def merge_oracle(adds):
    """Independent cart-merge oracle: accumulate quantities in a dict."""
    acc = {}
    for product_id, quantity in adds:
        acc[product_id] = acc.get(product_id, 0) + quantity
    return acc


def cart_items(shop, user):
    return ok_payload(shop.frontend({"action": "viewCart", "user_id": user}))["cart"]["items"]


def add_item(shop, user, product_id, quantity):
    return ok_payload(
        shop.frontend(
            {"action": "addToCart", "user_id": user, "product_id": product_id, "quantity": quantity}
        )
    )


def test_add_to_empty_cart(shop):
    add_item(shop, "u1", "OLJCESPC7Z", 2)
    assert cart_items(shop, "u1") == [{"product_id": "OLJCESPC7Z", "quantity": 2}]


def test_add_merges_quantities(shop):
    adds = [("OLJCESPC7Z", 2), ("OLJCESPC7Z", 3)]
    for product_id, quantity in adds:
        add_item(shop, "u1", product_id, quantity)
    expected = merge_oracle(adds)
    got = {i["product_id"]: i["quantity"] for i in cart_items(shop, "u1")}
    assert got == expected  # {(p1: 5)}


@given(
    st.lists(
        st.tuples(st.sampled_from(catalog.product_ids()[:4]), st.integers(1, 5)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=25, deadline=None)
def test_cart_merge_matches_oracle(adds):
    shop = LocalHarness()
    for product_id, quantity in adds:
        add_item(shop, "u1", product_id, quantity)
    got = {i["product_id"]: i["quantity"] for i in cart_items(shop, "u1")}
    assert got == merge_oracle(adds)


def test_add_to_cart_trace_chain(shop):
    add_item(shop, "u1", "OLJCESPC7Z", 1)
    trees = analyzer.assemble(shop.events())
    tree = trees[0]
    assert depth(tree) == 3  # frontend -> addcartitem -> cartkvstorage
    chain = [tree.root.fn, tree.root.children[0].fn, tree.root.children[0].children[0].fn]
    assert chain == ["frontend", "addcartitem", "cartkvstorage"]
    leaf = tree.root.children[0].children[0]
    external = [c for c in leaf.outgoing if c.kind == "external"]
    assert len(external) >= 1
    assert all(c.target == KV_SERVICE for c in external)


def test_invalid_quantity_rejected(shop):
    envelope = shop.frontend(
        {"action": "addToCart", "user_id": "u1", "product_id": "OLJCESPC7Z", "quantity": 0}
    )
    assert envelope["error"]["kind"] == "client"


def test_empty_cart_clears_state(shop):
    add_item(shop, "u1", "OLJCESPC7Z", 2)
    ok_payload(shop.frontend({"action": "emptyCart", "user_id": "u1"}))
    assert cart_items(shop, "u1") == []
    assert shop.kv_store == {}


def test_state_isolation_between_fresh_deployments():
    first = LocalHarness()
    add_item(first, "u1", "OLJCESPC7Z", 2)
    fresh = LocalHarness()
    assert cart_items(fresh, "u1") == []


# ---------------------------------------------------------------------------
# Checkout
# ---------------------------------------------------------------------------

CARD = "4242424242424242"
ADDRESS = {"street": "1 Main St", "city": "Springfield", "zip": "12345"}


def checkout_total_oracle(items, user_currency):
    """Recompute the order total independently with Decimal arithmetic."""
    import json
    from importlib import resources

    rates = json.loads(
        resources.files("befaas.webshop").joinpath("data/currency_rates.json").read_text()
    )

    def conv(nanos, from_code, to_code):
        value = Decimal(nanos) * Decimal(rates[to_code]) / Decimal(rates[from_code])
        return int(value.to_integral_value(rounding="ROUND_HALF_EVEN"))

    subtotal = 0
    for item in items:
        price = Money.from_doc(catalog.get(item["product_id"])["price"])
        unit = conv(price.to_nanos(), price.currency_code, user_currency)
        subtotal += unit * item["quantity"]
    units = sum(i["quantity"] for i in items)
    shipping_usd = 5 * NANOS_PER_UNIT + 750_000_000 * units
    shipping = conv(shipping_usd, "USD", user_currency)
    return subtotal + shipping, shipping


def do_checkout(shop, user, currency="EUR", card=CARD):
    return shop.frontend(
        {
            "action": "checkout",
            "user_id": user,
            "currency": currency,
            "card_number": card,
            "address": ADDRESS,
        }
    )


def test_checkout_total_matches_independent_recomputation(shop):
    items = [("OLJCESPC7Z", 2), ("1YMWWN1N4O", 1)]
    for product_id, quantity in items:
        add_item(shop, "buyer", product_id, quantity)
    order = ok_payload(do_checkout(shop, "buyer", "EUR"))["order"]

    expected_total, expected_shipping = checkout_total_oracle(
        [{"product_id": p, "quantity": q} for p, q in items], "EUR"
    )
    assert Money.from_doc(order["total"]).to_nanos() == expected_total
    assert Money.from_doc(order["shipping_cost"]).to_nanos() == expected_shipping
    assert order["total"]["currency_code"] == "EUR"
    assert order["tracking_id"].startswith("TRK-")
    assert cart_items(shop, "buyer") == []  # cart emptied by checkout


def test_checkout_empty_cart_is_client_error_without_payment(shop):
    envelope = do_checkout(shop, "nobody")
    assert envelope["error"]["kind"] == "client"
    assert [e for e in shop.events() if e["fn"] == "payment"] == []


def test_payment_rejection_aborts_and_preserves_cart(shop):
    add_item(shop, "u1", "OLJCESPC7Z", 1)
    envelope = do_checkout(shop, "u1", card="1234567890123456")
    assert envelope["error"]["kind"] == "client"
    assert "rejected" in envelope["error"]["message"]
    assert cart_items(shop, "u1") == [{"product_id": "OLJCESPC7Z", "quantity": 1}]


def test_checkout_tree_larger_than_view_cart_tree(shop):
    add_item(shop, "u1", "OLJCESPC7Z", 1)
    view_shop = LocalHarness()
    add_item(view_shop, "u1", "OLJCESPC7Z", 1)
    view_shop.lines = {fn: [] for fn in view_shop.app.function_names}
    view_shop.frontend({"action": "viewCart", "user_id": "u1"})
    view_tree = analyzer.assemble(view_shop.events())[0]

    shop.lines = {fn: [] for fn in shop.app.function_names}
    ok_payload(do_checkout(shop, "u1"))
    checkout_tree = analyzer.assemble(shop.events())[0]
    assert node_count(checkout_tree) > node_count(view_tree)


# ---------------------------------------------------------------------------
# Trace-level properties over random action sequences
# ---------------------------------------------------------------------------

ACTIONS = st.sampled_from(["home", "viewProduct", "search", "addToCart", "viewCart", "emptyCart"])


def run_action(shop, action, rng):
    if action == "home":
        return shop.frontend({"action": "home"})
    if action == "viewProduct":
        return shop.frontend({"action": "viewProduct", "id": rng.choice(catalog.product_ids())})
    if action == "search":
        return shop.frontend({"action": "search", "query": "a"})
    if action == "addToCart":
        return shop.frontend(
            {
                "action": "addToCart",
                "user_id": "u1",
                "product_id": rng.choice(catalog.product_ids()),
                "quantity": rng.randint(1, 3),
            }
        )
    return shop.frontend({"action": action, "user_id": "u1"})


@given(st.lists(ACTIONS, min_size=1, max_size=6), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_every_traced_edge_is_in_the_static_graph(actions, seed):
    shop = LocalHarness()
    rng = random.Random(seed)
    for action in actions:
        envelope = run_action(shop, action, rng)
        assert "error" not in envelope

    trees = analyzer.assemble(shop.events())
    assert len(trees) == len(actions)
    for tree in trees:
        # Exactly one root per context, no orphans, no anomalies.
        assert tree.root is not None and tree.root.fn == "frontend"
        assert tree.orphans == [] and tree.anomalies == []
        assert node_count(tree) == len(tree.spans)
        for span in tree.spans:
            for call in span.outgoing:
                assert call.target in CALL_GRAPH[span.fn], (
                    f"edge {span.fn}->{call.target} not in static graph")
        # Timestamp nesting: outgoing intervals inside their span.
        for span in tree.spans:
            assert span.end_us >= span.start_us
            for call in span.outgoing:
                assert span.start_us <= call.start_us <= call.end_us <= span.end_us


# ---------------------------------------------------------------------------
# The application as a whole
# ---------------------------------------------------------------------------


def test_compute_ms_is_spent_once_in_every_function():
    # The host may not run this process for a few ms at any moment: a lone
    # precise_sleep_ms(3), with the cyclic GC off, overshoots by 3 ms or
    # more about once in 1,000 calls. That only adds time, so every share
    # must reach COMPUTE_MS, while the upper bound holds for each function's
    # median over three rounds: spending COMPUTE_MS twice raises them all.
    product_id = "OLJCESPC7Z"
    requests = [
        {"action": "home"},
        {"action": "viewProduct", "id": product_id, "currency": "EUR"},
        {"action": "search", "query": "kitchen"},
        {"action": "setCurrency", "currency": "EUR"},
        {"action": "addToCart", "user_id": "u1", "product_id": product_id, "quantity": 2},
        {"action": "viewCart", "user_id": "u1"},
        {"action": "checkout", "user_id": "u1", "currency": "EUR", "card_number": CARD,
         "address": ADDRESS},
        {"action": "viewOrderConfirmation", "order": {"order_id": "ORD-1"}},
        {"action": "emptyCart", "user_id": "u1"},
    ]
    assert {r["action"] for r in requests} == loadgen.ACTIONS
    shares: dict[str, list[int]] = {}
    for _ in range(3):
        shop = LocalHarness(env_extra={"COMPUTE_MS": "3"})
        for request in requests:
            ok_payload(shop.frontend(request))
        for tree in analyzer.assemble(shop.events()):
            for share in analyzer.decompose(tree).per_span:
                shares.setdefault(share.span.fn, []).append(share.compute_us)
    assert set(shares) == set(shop.app.function_names)
    for fn, values in shares.items():
        assert min(values) >= 3_000, (fn, values)
        assert statistics.median(values) < 6_000, (fn, values)


def _sequential_fan_out(calls):
    """httpjson.fan_out without threads, so that ids are drawn in one order."""
    futures = []
    for call in calls:
        future = Future()
        try:
            future.set_result(call())
        except Exception as exc:  # noqa: BLE001 - handed back like a pool would
            future.set_exception(exc)
        futures.append(future)
    return futures


#: Requests the frontend refuses, one per kind of refusal.
ERROR_REQUESTS = [
    {"action": "teleport"},
    {},
    "not an object",
    {"action": "search"},
    {"action": "viewProduct", "id": "NOSUCHTHING"},
    {"action": "addToCart", "user_id": "u1", "product_id": "OLJCESPC7Z", "quantity": 0},
    {"action": "checkout", "user_id": "nobody", "currency": "EUR", "card_number": CARD,
     "address": ADDRESS},
]


def traffic_dump(shop: LocalHarness) -> list[str]:
    """Drive 40 seeded preset workflows and the error requests through ``shop``.

    Returns one JSON line per request body, response or error, frontend
    envelope, and event (without its timestamp), in the order they occur.
    """
    dump = []
    forward = shop.transport

    def transport(url, doc):
        dump.append(json.dumps(["request", url, doc]))
        try:
            response = forward(url, doc)
        except TransportCallError as exc:
            dump.append(json.dumps(["error", exc.status, exc.body]))
            raise
        dump.append(json.dumps(["response", response]))
        return response

    shop.transport = transport
    specs = loadgen.draw_workflow_sequence(loadgen.WORKFLOW_PRESETS, 40, seed=16)
    for index, spec in enumerate(specs):
        rng, state = random.Random(index), {}
        for action in spec.steps:
            envelope = shop.frontend(loadgen.build_action(action, state, rng))
            dump.append(json.dumps(["frontend", spec.name, envelope]))
            loadgen._update_state(action, envelope.get("payload"), state)
    for payload in ERROR_REQUESTS:
        dump.append(json.dumps(["frontend", "error", shop.frontend(payload)]))
    for fn in shop.app.function_names:
        for line in shop.lines[fn]:
            event = json.loads(line)
            del event["ts_us"]
            dump.append(json.dumps(["event", event]))
    return dump


#: sha256 of the traffic dump, recorded before the webshop states each rule
#: once; every request body, response and event must stay byte-identical.
TRAFFIC_DIGEST = "33a6830590ab5ecdcc91d3d4ff6268011301f055e1cadb18a1e3a21daa5131fd"


def test_traffic_on_the_wire_is_pinned(monkeypatch):
    monkeypatch.setattr(tracing, "_id_rng", random.Random(16))
    monkeypatch.setattr(httpjson, "fan_out", _sequential_fan_out)
    dump = traffic_dump(LocalHarness())
    assert sum(line.startswith('["frontend", "error"') for line in dump) == len(ERROR_REQUESTS)
    digest = hashlib.sha256("\n".join(dump).encode()).hexdigest()
    assert digest == TRAFFIC_DIGEST
