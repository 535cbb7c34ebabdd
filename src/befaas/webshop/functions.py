"""The built-in e-commerce benchmark: a webshop in 17 functions.

All customer requests enter through ``frontend``, which routes actions to
the backend functions. Persistent state (the shopping carts) lives in the
external key-value service behind ``cartkvstorage``; every function is
stateless between invocations. :func:`build_app` makes each function spend
the ``COMPUTE_MS`` of its deployment's env before its logic, so experiments
can dial in a known computation share.
"""
from __future__ import annotations

import functools

from ..clock import precise_sleep_ms
from ..compiler import Application
from ..errors import BusinessError
from ..tracing import CallContext, new_id, wrap_handler
from . import catalog
from .money import Money, add, convert, multiply, supported_codes

#: External service used for persistence (the only stateful dependency).
KV_SERVICE = "kv"

#: Static caller -> callee adjacency, including the external KV node.
#: Acyclic, with frontend as the unique entry point.
CALL_GRAPH: dict[str, tuple[str, ...]] = {
    "frontend": (
        "listproducts",
        "getproduct",
        "searchproducts",
        "listrecommendations",
        "getads",
        "supportedcurrencies",
        "currency",
        "getcart",
        "addcartitem",
        "emptycart",
        "checkout",
    ),
    "listproducts": (),
    "getproduct": (),
    "searchproducts": (),
    "listrecommendations": ("listproducts",),
    "getads": (),
    "supportedcurrencies": (),
    "currency": (),
    "getcart": ("cartkvstorage",),
    "addcartitem": ("cartkvstorage",),
    "emptycart": ("cartkvstorage",),
    "cartkvstorage": (KV_SERVICE,),
    "payment": (),
    "shipmentquote": (),
    "shiporder": (),
    "email": (),
    "checkout": (
        "getcart",
        "currency",
        "payment",
        "shipmentquote",
        "shiporder",
        "emptycart",
        "email",
    ),
}

_ADS = [
    {"text": "Hairdryer on sale, 50% off", "product_id": "2ZYFJ3GM2N"},
    {"text": "Bike for sale, only this week", "product_id": "A1B2C3D4E5"},
    {"text": "Kitchen bundle deal", "product_id": "9SIQT8TOJO"},
    {"text": "Style up with new watches", "product_id": "1YMWWN1N4O"},
]


def _work(logic, payload, ctx: CallContext):
    """Spend the deployment's ``COMPUTE_MS``, then run ``logic``."""
    ms = float(ctx.env.get("COMPUTE_MS", "0"))
    if ms > 0:
        precise_sleep_ms(ms)
    return logic(payload, ctx)


def _require(payload, *keys) -> dict:
    """The named fields of ``payload`` in argument order; each must be set."""
    if not isinstance(payload, dict):
        raise BusinessError("payload must be an object")
    missing = [k for k in keys if payload.get(k) in (None, "")]
    if missing:
        raise BusinessError(f"missing field(s): {', '.join(missing)}")
    return {k: payload[k] for k in keys}


# ---------------------------------------------------------------------------
# Catalog functions
# ---------------------------------------------------------------------------


def listproducts(payload, ctx: CallContext):
    return {"products": catalog.PRODUCTS}


def getproduct(payload, ctx: CallContext):
    _require(payload, "id")
    product = catalog.get(payload["id"])
    if product is None:
        raise BusinessError(f"no such product: {payload['id']}")
    return {"product": product}


def searchproducts(payload, ctx: CallContext):
    _require(payload, "query")
    return {"results": catalog.search(payload["query"])}


def listrecommendations(payload, ctx: CallContext):
    exclude = set((payload or {}).get("product_ids", []))
    products = ctx.call("listproducts", {})["products"]
    ids = sorted(p["id"] for p in products if p["id"] not in exclude)
    return {"product_ids": ids[:3]}


def getads(payload, ctx: CallContext):
    key = str((payload or {}).get("context_key", ""))
    offset = sum(key.encode()) % len(_ADS)
    return {"ads": [_ADS[offset], _ADS[(offset + 1) % len(_ADS)]]}


# ---------------------------------------------------------------------------
# Currency functions
# ---------------------------------------------------------------------------


def supportedcurrencies(payload, ctx: CallContext):
    return {"codes": supported_codes()}


def currency(payload, ctx: CallContext):
    _require(payload, "amount", "to_code")
    amount = Money.from_doc(payload["amount"])
    return {"amount": convert(amount, payload["to_code"]).to_doc()}


# ---------------------------------------------------------------------------
# Cart functions
# ---------------------------------------------------------------------------


def _cart_key(user_id: str) -> str:
    return f"cart:{user_id}"


def cartkvstorage(payload, ctx: CallContext):
    """Cart persistence: the only function talking to the KV service."""
    _require(payload, "op", "user_id")
    op, user_id = payload["op"], payload["user_id"]
    key = _cart_key(user_id)
    if op == "get":
        reply = ctx.call_external(KV_SERVICE, "get", {"key": key})
        items = reply["value"]["items"] if reply.get("found") else []
        return {"user_id": user_id, "items": items}
    if op == "add_item":
        _require(payload, "product_id", "quantity")
        quantity = int(payload["quantity"])
        if quantity < 1:
            raise BusinessError("quantity must be >= 1")
        reply = ctx.call_external(KV_SERVICE, "get", {"key": key})
        items = reply["value"]["items"] if reply.get("found") else []
        for item in items:
            if item["product_id"] == payload["product_id"]:
                item["quantity"] += quantity
                break
        else:
            items.append({"product_id": payload["product_id"], "quantity": quantity})
        ctx.call_external(KV_SERVICE, "set", {"key": key, "value": {"items": items}})
        return {"user_id": user_id, "items": items}
    if op == "clear":
        ctx.call_external(KV_SERVICE, "delete", {"key": key})
        return {"user_id": user_id, "items": []}
    raise BusinessError(f"unknown cart op: {op}")


def getcart(payload, ctx: CallContext):
    return ctx.call("cartkvstorage", {"op": "get", **_require(payload, "user_id")})


def addcartitem(payload, ctx: CallContext):
    fields = _require(payload, "user_id", "product_id", "quantity")
    quantity = int(fields["quantity"])
    if quantity < 1:
        raise BusinessError("quantity must be >= 1")
    return ctx.call("cartkvstorage", {"op": "add_item", **fields, "quantity": quantity})


def emptycart(payload, ctx: CallContext):
    return ctx.call("cartkvstorage", {"op": "clear", **_require(payload, "user_id")})


# ---------------------------------------------------------------------------
# Order functions
# ---------------------------------------------------------------------------


def _luhn_ok(card_number: str) -> bool:
    digits = [int(c) for c in card_number if c.isdigit()]
    if len(digits) < 12:
        return False
    total = 0
    for i, digit in enumerate(reversed(digits)):
        if i % 2 == 1:
            digit *= 2
            if digit > 9:
                digit -= 9
        total += digit
    return total % 10 == 0


def payment(payload, ctx: CallContext):
    _require(payload, "amount", "card_number")
    if not _luhn_ok(str(payload["card_number"])):
        raise BusinessError("card rejected: invalid number")
    return {"transaction_id": f"TXN-{new_id()[:16]}"}


def shipmentquote(payload, ctx: CallContext):
    _require(payload, "address", "items")
    units = sum(int(item["quantity"]) for item in payload["items"])
    cost = add(Money("USD", 5, 0), multiply(Money("USD", 0, 750_000_000), units))
    return {"cost": cost.to_doc()}


def shiporder(payload, ctx: CallContext):
    _require(payload, "address", "items")
    return {"tracking_id": f"TRK-{new_id()[:16]}"}


def email(payload, ctx: CallContext):
    _require(payload, "order")
    # No real mail: confirmations are acknowledged, not delivered.
    return {"sent": True}


def checkout(payload, ctx: CallContext):
    """Order orchestration across seven backend functions."""
    _require(payload, "user_id", "currency", "card_number", "address")
    user_id, user_currency = payload["user_id"], payload["currency"]

    cart = ctx.call("getcart", {"user_id": user_id})
    items = cart["items"]
    if not items:
        raise BusinessError("cart is empty")

    total = Money(user_currency, 0, 0)
    for item in items:
        product = catalog.get(item["product_id"])
        if product is None:
            raise BusinessError(f"no such product: {item['product_id']}")
        converted = ctx.call(
            "currency", {"amount": product["price"], "to_code": user_currency}
        )["amount"]
        total = add(total, multiply(Money.from_doc(converted), int(item["quantity"])))

    ctx.call("payment", {"amount": total.to_doc(), "card_number": payload["card_number"]})

    quote = ctx.call("shipmentquote", {"address": payload["address"], "items": items})
    shipping = ctx.call("currency", {"amount": quote["cost"], "to_code": user_currency})[
        "amount"
    ]
    total = add(total, Money.from_doc(shipping))

    tracking = ctx.call("shiporder", {"address": payload["address"], "items": items})
    ctx.call("emptycart", {"user_id": user_id})

    order = {
        "order_id": f"ORD-{new_id()[:16]}",
        "items": items,
        "shipping_cost": shipping,
        "total": total.to_doc(),
        "tracking_id": tracking["tracking_id"],
    }
    ctx.call("email", {"order": order})
    return {"order": order}


# ---------------------------------------------------------------------------
# Frontend
# ---------------------------------------------------------------------------


def _session(payload) -> str:
    user_id = (payload or {}).get("user_id")
    return user_id if user_id else f"u-{new_id()[:12]}"


def frontend(payload, ctx: CallContext):
    """Single entry point: routes customer actions to backend functions."""
    _require(payload, "action")
    action = payload["action"]

    if action == "home":
        user_id = _session(payload)
        products, ads, recs, currencies = ctx.call_parallel(
            [
                ("listproducts", {}),
                ("getads", {"context_key": user_id}),
                ("listrecommendations", {"product_ids": []}),
                ("supportedcurrencies", {}),
            ]
        )
        return {
            "user_id": user_id,
            "products": products["products"],
            "ads": ads["ads"],
            "recommendations": recs["product_ids"],
            "currencies": currencies["codes"],
        }

    if action == "viewProduct":
        _require(payload, "id")
        product = ctx.call("getproduct", {"id": payload["id"]})["product"]
        ads, recs = ctx.call_parallel(
            [
                ("getads", {"context_key": payload["id"]}),
                ("listrecommendations", {"product_ids": [payload["id"]]}),
            ]
        )
        user_currency = payload.get("currency")
        price = product["price"]
        if user_currency and user_currency != price["currency_code"]:
            price = ctx.call("currency", {"amount": price, "to_code": user_currency})[
                "amount"
            ]
        return {
            "product": product,
            "price": price,
            "ads": ads["ads"],
            "recommendations": recs["product_ids"],
        }

    if action == "search":
        return {"results": ctx.call("searchproducts", _require(payload, "query"))["results"]}

    if action == "setCurrency":
        _require(payload, "currency")
        codes = ctx.call("supportedcurrencies", {})["codes"]
        if payload["currency"] not in codes:
            raise BusinessError(f"unsupported currency: {payload['currency']}")
        return {"currency": payload["currency"]}

    if action == "addToCart":
        fields = _require(payload, "user_id", "product_id", "quantity")
        return {"cart": ctx.call("addcartitem", fields)}

    if action == "viewCart":
        return {"cart": ctx.call("getcart", _require(payload, "user_id"))}

    if action == "emptyCart":
        return {"cart": ctx.call("emptycart", _require(payload, "user_id"))}

    if action == "checkout":
        fields = _require(payload, "user_id", "currency", "card_number", "address")
        return {"order": ctx.call("checkout", fields)["order"]}

    if action == "viewOrderConfirmation":
        _require(payload, "order")
        recs, ads = ctx.call_parallel(
            [
                ("listrecommendations", {"product_ids": []}),
                ("getads", {"context_key": payload["order"].get("order_id", "")}),
            ]
        )
        return {
            "order": payload["order"],
            "recommendations": recs["product_ids"],
            "ads": ads["ads"],
        }

    raise BusinessError(f"unknown action: {action}")


#: Every function, in deploy order.
_FUNCTIONS = (
    frontend, listproducts, getproduct, searchproducts, listrecommendations, getads,
    cartkvstorage, getcart, addcartitem, emptycart, currency, supportedcurrencies,
    payment, shipmentquote, shiporder, checkout, email,
)


def build_app() -> Application:
    """Instrument every function and return the deployable application.

    Each function spends the deployment's ``COMPUTE_MS`` before its logic.
    """
    handlers = {
        logic.__name__: wrap_handler(functools.partial(_work, logic)) for logic in _FUNCTIONS
    }
    return Application(
        name="webshop", handlers=handlers, entrypoint="frontend", call_graph=CALL_GRAPH
    )
