"""Function instrumentation: trace tokens, cold-start detection, log events.

Every benchmark function is wrapped by :func:`wrap_handler`. The wrapper
owns the tracing protocol:

* a *context id* is minted once per function chain (by the first function
  that receives a request without a token) and propagated unchanged;
* a *pair id* is minted by the caller for every outgoing call and becomes
  the callee invocation's own pair id, linking parent and child spans;
* every activity edge is timestamped and emitted as one NDJSON line on the
  executor's logging stream, in the form :class:`befaas.bundle.LogEvent`
  declares;
* cold starts are detected through a marker variable in the executor-local
  environment: absent means fresh executor.

Handlers stay transport-agnostic: the token travels inside the request
body envelope ``{"_befaas": {"ctx": ..., "pair": ...}, "payload": ...}``
so any transport that moves JSON documents can carry it. The envelope adds
a constant number of bytes per call for a fixed function-name length.
"""
from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, MutableMapping

from . import httpjson
from .bundle import LogEvent
from .clock import now_us
from .errors import (
    BusinessError,
    CalleeError,
    ConfigurationError,
    ThrottleError,
    TransportCallError,
    TransportError,
    error_body,
)

# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------

#: Executor-environment variable marking a warmed executor. Its value is a
#: random key that doubles as the executor id on every emitted event.
COLD_START_MARKER = "EXECUTOR_KEY"

#: Request/response envelope key carrying the trace token.
ENVELOPE_KEY = "_befaas"

_id_lock = threading.Lock()
_id_rng = random.Random()


def new_id() -> str:
    """Return a fresh 128-bit identifier as 32 lowercase hex characters.

    Draws are independent; collisions are negligible without coordination
    (birthday bound ~1.5e-27 for a million draws).
    """
    with _id_lock:
        value = _id_rng.getrandbits(128)
    return f"{value:032x}"


def detect_cold_start(env: MutableMapping[str, str]) -> bool:
    """Check and stamp the executor-local cold-start marker.

    Returns True iff the marker was absent (fresh executor); as a side
    effect the marker is set to a fresh random key, so a second call on
    the same environment returns False.
    """
    if COLD_START_MARKER in env:
        return False
    env[COLD_START_MARKER] = new_id()
    return True


# ---------------------------------------------------------------------------
# Handler runtime and call context
# ---------------------------------------------------------------------------

Transport = Callable[[str, dict], dict]


@dataclass
class HandlerRuntime:
    """Everything the host platform injects into one invocation.

    ``executor_env`` persists across invocations on the same executor
    instance; ``env`` is the per-deployment configuration (external-service
    endpoints, overrides); ``emit`` appends one line to the executor's
    logging stream; ``clock_us`` is the platform clock (may be skewed).
    """

    fn: str
    platform: str
    executor_env: MutableMapping[str, str]
    endpoint_map: Mapping[str, str] = field(default_factory=dict)
    env: Mapping[str, str] = field(default_factory=dict)
    emit: Callable[[str], None] = lambda line: print(line, flush=True)
    clock_us: Callable[[], int] = now_us
    transport: Transport = httpjson.post_json


class CallContext:
    """Per-invocation facade handed to business logic.

    Exposes outgoing calls that mint pair ids, propagate the context id and
    emit ``call_*``/``external_*`` events on the invocation's clock.
    """

    def __init__(self, runtime: HandlerRuntime, context_id: str, pair_id: str):
        self._runtime = runtime
        self.context_id = context_id
        self.pair_id = pair_id
        self._executor_id = runtime.executor_env[COLD_START_MARKER]
        self._emit_lock = threading.Lock()

    @property
    def env(self) -> Mapping[str, str]:
        return self._runtime.env

    @property
    def fn(self) -> str:
        return self._runtime.fn

    def _event(self, kind: str, **extra: Any) -> None:
        event = LogEvent(
            event_kind=kind,
            ts_us=self._runtime.clock_us(),
            fn=self._runtime.fn,
            context_id=self.context_id,
            pair_id=self.pair_id,
            executor_id=self._executor_id,
            platform=self._runtime.platform,
            **extra,
        )
        # Parallel call blocks emit from several threads onto one stream.
        with self._emit_lock:
            self._runtime.emit(event.to_line())

    def _round_trip(self, kind: str, target: str, call_pair_id: str, endpoint: str,
                    request: dict) -> dict:
        """Send ``request`` between a ``<kind>_start`` and a ``<kind>_end`` event.

        A transport failure still emits the end event, marked as an error,
        before it propagates. Every call opens its own connection, which is
        closed after the end event, outside the span: a connection kept for
        the next call from the same thread would add its reply stall (see
        :mod:`befaas.httpjson`) to that call, so whether a call stalled
        would depend on which thread ran the handler.
        """
        self._event(f"{kind}_start", call_pair_id=call_pair_id, target=target)
        try:
            response = self._runtime.transport(endpoint, request)
        except (TransportError, TransportCallError):
            self._event(f"{kind}_end", call_pair_id=call_pair_id, target=target, error=True)
            raise
        else:
            self._event(f"{kind}_end", call_pair_id=call_pair_id, target=target)
            return response
        finally:
            httpjson.close_thread_connections()

    # -- outgoing function calls -------------------------------------------

    def call(self, target: str, payload: Any) -> Any:
        """Invoke another benchmark function and return its payload.

        The target is resolved through the deployment's endpoint map; an
        unknown name is a configuration error and emits nothing.
        """
        endpoint = self._runtime.endpoint_map.get(target)
        if endpoint is None:
            raise ConfigurationError(f"{self.fn}: no endpoint for function {target!r}")
        call_pair_id = new_id()
        request = {
            ENVELOPE_KEY: {"ctx": self.context_id, "pair": call_pair_id},
            "payload": payload,
        }
        try:
            response = self._round_trip("call", target, call_pair_id, endpoint, request)
        except TransportCallError as exc:
            if exc.status == 429:
                raise ThrottleError(f"{target} throttled the call") from exc
            if exc.kind == "unreachable":
                raise TransportError(f"{target} unreachable: {exc.message}") from exc
            raise CalleeError(target, exc.message, exc.kind) from exc
        return response.get("payload")

    def call_parallel(self, calls: list[tuple[str, Any]]) -> list[Any]:
        """Issue several calls concurrently and idle until all returned.

        Each member runs :meth:`call` on a pool thread of
        :func:`httpjson.fan_out`, off the handler thread, and like every
        call opens its own connection and closes it when it ends. Results
        come back in argument order. If any call failed, the first failure
        in argument order is re-raised -- after every call has completed,
        so the event stream always shows the full block. An empty block
        returns ``[]``.
        """
        futures = httpjson.fan_out(
            [functools.partial(self.call, target, payload) for target, payload in calls])
        return [future.result() for future in futures]

    # -- outgoing external-service calls -----------------------------------

    def call_external(self, service: str, operation: str, payload: dict) -> dict:
        """Call an external service (black box: no token is forwarded).

        The endpoint comes from the injected environment under the
        upper-cased service name.
        """
        endpoint = self._runtime.env.get(service.upper())
        if endpoint is None:
            raise ConfigurationError(f"{self.fn}: no endpoint for service {service!r}")
        request = {"op": operation, **payload}
        return self._round_trip("external", service, new_id(), endpoint, request)


def wrap_handler(business_logic: Callable[[Any, CallContext], Any]):
    """Wrap business logic into an instrumented handler.

    The returned handler takes ``(request_doc, runtime)`` and returns a
    response envelope. It extracts or mints the trace token, emits
    invocation (and possibly cold-start) events, and hands the business
    logic a :class:`CallContext`. Business exceptions are caught: the
    invocation_end event still fires (with an error marker) and the error
    propagates to the caller inside the response envelope.
    """

    def handler(request: Any, runtime: HandlerRuntime) -> dict:
        token = request.get(ENVELOPE_KEY) if isinstance(request, dict) else None
        if isinstance(token, dict) and "ctx" in token and "pair" in token:
            context_id, pair_id = str(token["ctx"]), str(token["pair"])
        else:
            # Chain root: first function to see the request mints both ids.
            context_id, pair_id = new_id(), new_id()

        cold = detect_cold_start(runtime.executor_env)
        ctx = CallContext(runtime, context_id, pair_id)
        ctx._event("invocation_start")
        if cold:
            ctx._event("cold_start")

        payload = request.get("payload") if isinstance(request, dict) else request
        try:
            result = business_logic(payload, ctx)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            ctx._event("invocation_end", error=True)
            kind = exc.kind if isinstance(exc, (BusinessError, CalleeError)) else "server"
            known = (BusinessError, CalleeError, TransportError, ThrottleError, ConfigurationError)
            message = str(exc) if isinstance(exc, known) else f"{type(exc).__name__}: {exc}"
            return {ENVELOPE_KEY: {"ctx": context_id}, **error_body(message, kind)}
        ctx._event("invocation_end")
        return {ENVELOPE_KEY: {"ctx": context_id}, "payload": result}

    return handler


def envelope_status(envelope: dict) -> int:
    """HTTP status a platform should answer with for a handler envelope."""
    error = envelope.get("error")
    if not error:
        return 200
    return 400 if error.get("kind") == "client" else 500
