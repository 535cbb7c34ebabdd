"""Open-loop load generation: phased arrival rates and customer workflows.

A load profile is an ordered list of phases, each interpolating linearly
between a start and end rate (workflows per second). Arrivals are
deterministic: an arrival fires whenever the running integral of the
rate crosses an integer, so the arrival count over any prefix is exactly
the floor of the integrated rate — runs are reproducible to the request.

Workflows are short scripted customer sessions (1 to 9 frontend requests
each, think time zero). Arrivals are launched on schedule regardless of
how slow earlier workflows are responding; slow launches are recorded as
lag, never silently dropped.
"""
from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import httpjson
from .clock import now_us
from .compiler import READ_FIELD, read_object
from .errors import TransportCallError, TransportError, ValidationFailure
from .tracing import ENVELOPE_KEY

# ---------------------------------------------------------------------------
# Load profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    duration_s: float
    rate_start: float
    rate_end: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("phase duration must be > 0")
        if self.rate_start < 0 or self.rate_end < 0:
            raise ValueError("rates must be >= 0")

    def integral(self, t: float) -> float:
        """Workflows accumulated in this phase up to local time ``t``."""
        t = min(max(t, 0.0), self.duration_s)
        slope = (self.rate_end - self.rate_start) / self.duration_s
        return self.rate_start * t + 0.5 * slope * t * t


@dataclass(frozen=True)
class LoadProfile:
    name: str
    phases: tuple[Phase, ...]

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)


def rate_at(profile: LoadProfile, t_s: float) -> float:
    """Piecewise-linear rate at time ``t_s``.

    At a phase boundary the later phase applies; ``t_s`` must lie in
    [0, total duration).
    """
    if t_s < 0 or t_s >= profile.total_duration_s:
        raise ValueError(f"t={t_s} outside [0, {profile.total_duration_s})")
    offset = 0.0
    for phase in profile.phases:
        if t_s < offset + phase.duration_s:
            local = t_s - offset
            slope = (phase.rate_end - phase.rate_start) / phase.duration_s
            return phase.rate_start + slope * local
        offset += phase.duration_s
    raise AssertionError("unreachable")


def _invert_phase(phase: Phase, target: float) -> float:
    """Local time at which this phase's running integral reaches ``target`` > 0.

    The root of 0.5*slope*t^2 + rate_start*t = target in range, in the form
    that also holds for a flat phase (slope 0).
    """
    slope = (phase.rate_end - phase.rate_start) / phase.duration_s
    disc = phase.rate_start**2 + 2.0 * slope * target
    return 2.0 * target / (phase.rate_start + math.sqrt(max(disc, 0.0)))


def generate_arrivals(profile: LoadProfile) -> list[float]:
    """Arrival timestamps (seconds from run start) for a whole profile.

    The k-th arrival lies where the integrated rate first reaches k, so
    exactly floor(integral) arrivals occur.
    """
    # k counts over the whole profile, so an arrival that one phase places
    # at its end (within the tolerance) is not placed again by the next;
    # a phase with no rate adds nothing to the total and places none.
    arrivals: list[float] = []
    offset = 0.0
    cumulative = 0.0
    k = 1
    for phase in profile.phases:
        phase_total = phase.integral(phase.duration_s)
        while k <= cumulative + phase_total + 1e-9:
            local = _invert_phase(phase, k - cumulative)
            arrivals.append(offset + min(local, phase.duration_s))
            k += 1
        cumulative += phase_total
        offset += phase.duration_s
    return arrivals


_MIN = 60.0

#: Shipped profiles. The three full-scale ones carry the canonical
#: parameters (constant 20/s for 15 min; linear 0->20 over 15 min; spike
#: 3.5/s -> 20/s after 5 min, high for 10 min, back to 3.5/s for 5 min);
#: the -60s variants are desk-scale versions for quick experiments.
PROFILE_PRESETS: dict[str, LoadProfile] = {
    "default": LoadProfile("default", (Phase(15 * _MIN, 20, 20),)),
    "growth": LoadProfile("growth", (Phase(15 * _MIN, 0, 20),)),
    "spike": LoadProfile(
        "spike",
        (Phase(5 * _MIN, 3.5, 3.5), Phase(10 * _MIN, 20, 20), Phase(5 * _MIN, 3.5, 3.5)),
    ),
    "default-60s": LoadProfile("default-60s", (Phase(60, 2, 2),)),
    "growth-60s": LoadProfile("growth-60s", (Phase(60, 0, 4),)),
    "spike-60s": LoadProfile(
        "spike-60s", (Phase(15, 1, 1), Phase(30, 4, 4), Phase(15, 1, 1))
    ),
}


def profile_from_config(value) -> LoadProfile:
    """Resolve a config entry: preset name, or an inline profile object of
    a string ``name`` (``"inline"`` if absent) and ``phases``, a non-empty
    list of objects of :class:`Phase`'s fields."""
    if isinstance(value, str):
        if value not in PROFILE_PRESETS:
            raise ValueError(f"unknown load profile preset: {value!r}")
        return PROFILE_PRESETS[value]
    if isinstance(value, dict):
        return read_object(LoadProfile, {"name": "inline", **value}, read_field=_READ_PROFILE)
    raise ValueError(f"unrecognized load profile: {value!r}")


def workflows_from_config(value) -> tuple[WorkflowSpec, ...]:
    """Resolve a config entry: absent (``None``) means the presets, else
    objects of :class:`WorkflowSpec`'s fields, read by :func:`_read_entries`."""
    return WORKFLOW_PRESETS if value is None else _read_entries(WorkflowSpec, value, "workflow")


def _read_entries(cls, entries, what: str) -> tuple:
    """One ``cls`` per object in the non-empty list ``entries``, each read by
    :func:`befaas.compiler.read_object`. Raises ValueError for another
    ``entries``, and ValidationFailure with the lines of every entry, each
    led by the ``what`` and its index."""
    if not (isinstance(entries, list) and entries):
        raise ValueError(f"{what}s must be a non-empty list, not {entries!r}")
    read, problems = [], []
    for index, doc in enumerate(entries):
        try:
            read.append(read_object(cls, doc, f"{what} {index}: "))
        except ValidationFailure as exc:
            problems += exc.violations
    if problems:
        raise ValidationFailure(problems)
    return tuple(read)


#: An inline load profile's phases are read once its own fields check out.
_READ_PROFILE = {**READ_FIELD, "tuple[Phase, ...]": (
    "a list", lambda v: type(v) is list, lambda v: _read_entries(Phase, v, "phase"))}


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------


#: The frontend actions a workflow step may name; :func:`build_action`
#: builds the request payload of each.
ACTIONS = frozenset({
    "home", "viewProduct", "search", "setCurrency", "addToCart", "viewCart", "emptyCart",
    "checkout", "viewOrderConfirmation",
})


@dataclass(frozen=True)
class WorkflowSpec:
    """A named customer session: ordered frontend actions, zero think time."""

    name: str
    weight: float
    steps: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= len(self.steps) <= 9:
            raise ValueError("workflows must issue between 1 and 9 requests")
        if self.weight <= 0:
            raise ValueError("weight must be > 0")
        unknown = [step for step in self.steps if step not in ACTIONS]
        if unknown:
            raise ValueError(f"unknown workflow steps: {unknown}")


#: Four shipped customer sessions spanning the 1-9 request range.
WORKFLOW_PRESETS: tuple[WorkflowSpec, ...] = (
    WorkflowSpec("browser", 0.45, ("home", "viewProduct", "search")),
    WorkflowSpec(
        "window-shopper", 0.25, ("home", "viewProduct", "addToCart", "viewCart", "emptyCart")
    ),
    WorkflowSpec(
        "buyer",
        0.15,
        (
            "home",
            "viewProduct",
            "addToCart",
            "viewCart",
            "setCurrency",
            "checkout",
            "viewOrderConfirmation",
            "home",
            "viewProduct",
        ),
    ),
    WorkflowSpec("currency-switcher", 0.15, ("home", "setCurrency", "viewProduct")),
)

#: Card number fixture that passes the checksum in the payment function.
VALID_CARD = "4242424242424242"

_NON_BASE_CURRENCIES = ("EUR", "GBP", "JPY", "CHF", "CAD")


def _catalog_ids() -> list[str]:
    from .webshop import catalog

    return catalog.product_ids()


def build_action(action: str, state: dict, rng: random.Random) -> dict:
    """Request payload for one workflow step, given the session state."""
    if action == "home":
        return {"action": "home", "user_id": state.get("user_id")}
    if action == "viewProduct":
        product_id = rng.choice(_catalog_ids())
        state["product_id"] = product_id
        payload = {"action": "viewProduct", "id": product_id}
        if state.get("currency"):
            payload["currency"] = state["currency"]
        return payload
    if action == "search":
        return {"action": "search", "query": rng.choice(["kitchen", "sale", "watch", "bike"])}
    if action == "setCurrency":
        state["currency"] = rng.choice(_NON_BASE_CURRENCIES)
        return {"action": "setCurrency", "currency": state["currency"]}
    if action == "addToCart":
        return {
            "action": "addToCart",
            "user_id": _user(state, rng),
            "product_id": state.get("product_id") or rng.choice(_catalog_ids()),
            "quantity": rng.randint(1, 3),
        }
    if action in ("viewCart", "emptyCart"):
        return {"action": action, "user_id": _user(state, rng)}
    if action == "checkout":
        return {
            "action": "checkout",
            "user_id": _user(state, rng),
            "currency": state.get("currency", "USD"),
            "card_number": VALID_CARD,
            "address": {"street": "1 Main St", "city": "Springfield", "zip": "12345"},
        }
    if action == "viewOrderConfirmation":
        return {"action": "viewOrderConfirmation", "order": state.get("order") or {}}
    raise ValueError(f"unknown workflow action: {action!r}")


def _user(state: dict, rng: random.Random) -> str:
    if not state.get("user_id"):
        state["user_id"] = f"u-{rng.getrandbits(48):012x}"
    return state["user_id"]


def _update_state(action: str, response_payload: dict, state: dict) -> None:
    if action == "home" and isinstance(response_payload, dict):
        state.setdefault("user_id", response_payload.get("user_id"))
    if action == "checkout" and isinstance(response_payload, dict):
        state["order"] = response_payload.get("order")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class ClientRecord:
    """Client-side ground truth for one frontend request."""

    workflow: str
    arrival_index: int
    step: int
    action: str
    send_ts_us: int
    recv_ts_us: int
    status: str
    context_id: str | None

    def to_doc(self) -> dict:
        return dict(self.__dict__)


@dataclass
class LoadRunResult:
    """All client records of a run plus scheduling fidelity metrics."""

    records: list[ClientRecord]
    workflow_sequence: list[str]
    launch_lags_ms: list[float]
    scheduled: int


def execute_workflow(
    spec: WorkflowSpec,
    frontend_endpoint: str,
    rng: random.Random | None = None,
    arrival_index: int = 0,
    timeout_s: float = httpjson.DEFAULT_TIMEOUT_S,
    close_connections: bool = True,
) -> list[ClientRecord]:
    """Run one workflow: steps sequentially, each awaiting the previous.

    A transport failure abandons the remaining steps of this workflow (but
    never affects other workflows); the failing step is recorded.

    By default each step opens its own connection: the calling thread's
    connections are closed after each step's record, so no step waits out
    the reply stall of a reused connection (see :mod:`befaas.httpjson`).
    The close falls after ``recv_ts_us`` is taken, so it is not part of
    the client latency; the connect is. Callers that hammer workflows
    from one thread can pass ``close_connections=False`` to keep one
    connection warm across steps and workflows (and close it themselves).
    """
    rng = rng or random.Random()
    state: dict = {}
    records: list[ClientRecord] = []
    try:
        for step, action in enumerate(spec.steps):
            payload = build_action(action, state, rng)
            send = now_us()
            status = "ok"
            context_id = None
            try:
                doc = httpjson.post_json(frontend_endpoint, {"payload": payload}, timeout_s)
                context_id = _context_of(doc)
                _update_state(action, doc.get("payload"), state)
            except TransportCallError as exc:
                status = f"error:{exc.status}"
                context_id = _context_of(exc.body)
            except TransportError:
                status = "transport_error"
            records.append(
                ClientRecord(
                    workflow=spec.name,
                    arrival_index=arrival_index,
                    step=step,
                    action=action,
                    send_ts_us=send,
                    recv_ts_us=now_us(),
                    status=status,
                    context_id=context_id,
                )
            )
            if close_connections:
                httpjson.close_thread_connections()
            if status == "transport_error":
                break
    finally:
        if close_connections:
            httpjson.close_thread_connections()
    return records


def _context_of(doc: dict) -> str | None:
    """The context id of a reply or an error body; a trace envelope that is
    not an object, or a context that is not a string, reads as none."""
    token = doc.get(ENVELOPE_KEY)
    context_id = token.get("ctx") if isinstance(token, dict) else None
    return context_id if isinstance(context_id, str) else None


def draw_workflow_sequence(
    workflows: tuple[WorkflowSpec, ...], count: int, seed: int
) -> list[WorkflowSpec]:
    """Seeded weighted draw of ``count`` workflow types."""
    rng = random.Random(f"{seed}:workflow-types")
    weights = [w.weight for w in workflows]
    return rng.choices(workflows, weights=weights, k=count)


def run_profile(
    profile: LoadProfile,
    workflows: tuple[WorkflowSpec, ...],
    frontend_endpoint: str,
    seed: int = 0,
) -> LoadRunResult:
    """Drive the frontend with a full profile, open loop.

    Each arrival submits :func:`execute_workflow` to a thread pool at its
    scheduled offset; workflows run concurrently while their own steps
    stay sequential. Workflow types come from a seeded weighted draw, and
    per-workflow randomness is derived from (seed, arrival index), so a
    fixed seed reproduces the exact same session sequence. The records
    come back in arrival order. A workflow that raises does not stop the
    others: the first exception in arrival order is re-raised once every
    workflow has finished, carrying as ``load_result`` the result of the
    workflows that did finish.
    """
    arrivals = generate_arrivals(profile)
    sequence = draw_workflow_sequence(workflows, len(arrivals), seed)

    lags_ms: list[float] = []
    # A worker per arrival at most, so a slow workflow never delays a launch;
    # the pool starts a thread only when no worker is idle.
    with ThreadPoolExecutor(max_workers=len(arrivals) or 1) as pool:
        futures = []
        start = time.perf_counter()
        for index, (at_s, spec) in enumerate(zip(arrivals, sequence)):
            delay = at_s - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            lags_ms.append(max(0.0, (time.perf_counter() - start - at_s) * 1000.0))
            rng = random.Random(f"{seed}:workflow:{index}")
            futures.append(pool.submit(
                execute_workflow, spec, frontend_endpoint, rng, arrival_index=index))

    errors = [future.exception() for future in futures if future.exception() is not None]
    result = LoadRunResult(
        records=[record for future in futures if future.exception() is None
                 for record in future.result()],
        workflow_sequence=[spec.name for spec in sequence],
        launch_lags_ms=lags_ms,
        scheduled=len(arrivals),
    )
    if errors:
        errors[0].load_result = result
        raise errors[0]
    return result
