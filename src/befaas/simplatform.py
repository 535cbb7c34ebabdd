"""Simulated FaaS platforms and the simulated key-value service.

A :class:`SimPlatform` is a real HTTP server hosting deployed functions
behind ``/fn/<name>`` plus the minimal admin interface every platform must
offer: deploy, fetch logs, remove. Cold starts, routing overhead and
network transit are injected as real sleeps on real sockets, so the
timestamps functions take are genuine measurements, not bookkeeping.

Executor model: one executor serves one request at a time. An idle
executor is always preferred; otherwise the platform either scales up (and
the request pays the cold-start delay) or, at the executor cap, applies
its queue policy: ``scale_up`` rejects with HTTP 429, ``queue_when_busy``
parks the request in FIFO order until an executor frees up.
"""
from __future__ import annotations

import json
import math
import random
import selectors
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import httpjson, registry
from .clock import now_us, precise_sleep_ms
from .compiler import READ_FIELD, DeploymentArtifact, function_endpoint, is_number, read_object
from .errors import ConfigurationError, ThrottleError, TransportCallError, error_body
from .tracing import HandlerRuntime, envelope_status

# ---------------------------------------------------------------------------
# Delay specifications and platform profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelaySpec:
    """A constant delay or a log-normal(mu, sigma) distribution, in ms."""

    constant_ms: float | None = None
    mu: float | None = None
    sigma: float | None = None

    FORM = 'a number >= 0 or {"dist": "lognormal", "mu": <number>, "sigma": <number >= 0>}'

    @staticmethod
    def accepts(value) -> bool:
        """Whether ``value`` has the whole shape of :attr:`FORM`."""
        if is_number(value):
            return value >= 0
        return (type(value) is dict and value.keys() == {"dist", "mu", "sigma"}
                and value["dist"] == "lognormal"
                and is_number(value["mu"]) and is_number(value["sigma"]) and value["sigma"] >= 0)

    @classmethod
    def parse(cls, value) -> "DelaySpec":
        """Read a delay of :attr:`FORM`; raise ValueError for anything else."""
        if not cls.accepts(value):
            raise ValueError(f"a delay must be {cls.FORM}, not {value!r}")
        if is_number(value):
            return cls(constant_ms=float(value))
        return cls(mu=float(value["mu"]), sigma=float(value["sigma"]))

    def sample(self, rng: random.Random) -> float:
        if self.constant_ms is not None:
            return self.constant_ms
        return rng.lognormvariate(self.mu, self.sigma)


@dataclass(frozen=True)
class PlatformProfile:
    """Tunable behavior of one simulated platform."""

    name: str = "custom"
    cold_start_delay_ms: DelaySpec = DelaySpec(0.0)
    invoke_overhead_ms: float = 0.0
    executor_idle_timeout_s: float = math.inf
    max_executors: int | None = None
    queue_policy: str = "scale_up"
    network_delay_ms: DelaySpec = DelaySpec(0.0)
    clock_skew_ms: float = 0.0

    def __post_init__(self):
        if self.invoke_overhead_ms < 0:
            raise ValueError("invoke_overhead_ms must be >= 0")
        if self.executor_idle_timeout_s < 0:
            raise ValueError("executor_idle_timeout_s must be >= 0")
        if self.max_executors is not None and self.max_executors < 1:
            raise ValueError("max_executors must be >= 1")
        if self.queue_policy not in ("scale_up", "queue_when_busy"):
            raise ValueError(f"unknown queue_policy: {self.queue_policy}")


#: Shipped presets contrasting the two queuing mechanisms at desk scale.
#: Values are chosen for visibility in analysis output, not fidelity to
#: any real provider.
PROFILE_PRESETS: dict[str, PlatformProfile] = {
    "scaler": PlatformProfile(
        name="scaler",
        cold_start_delay_ms=DelaySpec(250.0),
        invoke_overhead_ms=1.0,
        max_executors=64,
        queue_policy="scale_up",
        network_delay_ms=DelaySpec(2.0),
    ),
    "queuer": PlatformProfile(
        name="queuer",
        cold_start_delay_ms=DelaySpec(500.0),
        invoke_overhead_ms=1.0,
        max_executors=2,
        queue_policy="queue_when_busy",
        network_delay_ms=DelaySpec(2.0),
    ),
}


#: A delay field is checked in full before it is read, so each bad one is
#: its own violation line.
_READ_FIELD = {**READ_FIELD, "DelaySpec": (DelaySpec.FORM, DelaySpec.accepts, DelaySpec.parse)}


def profile_from_config(value) -> PlatformProfile:
    """Resolve a config entry: preset name or inline field dict.

    An inline dict sets any of :class:`PlatformProfile`'s fields, each
    checked and read by its declared type by
    :func:`befaas.compiler.read_object`, never converted from another type.
    A field that is absent or ``null`` keeps its default, so ``null`` is
    "no limit" for ``executor_idle_timeout_s`` and ``max_executors``.
    """
    if isinstance(value, str):
        if value not in PROFILE_PRESETS:
            raise ConfigurationError(f"unknown platform profile preset: {value!r}")
        return PROFILE_PRESETS[value]
    if isinstance(value, dict):
        return read_object(PlatformProfile, value, read_field=_READ_FIELD)
    raise ConfigurationError(f"unrecognized profile entry: {value!r}")


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class Executor:
    """One runtime instance; serves a single request at a time."""

    __slots__ = ("env", "busy", "last_used")

    def __init__(self, env_seed: dict[str, str]):
        self.env: dict[str, str] = dict(env_seed)
        self.busy = True  # born claimed
        self.last_used = time.monotonic()


class FunctionHost:
    """Executor pool, queue policy, and log capture for one deployment."""

    def __init__(self, artifact: DeploymentArtifact, handler, profile: PlatformProfile):
        self.artifact = artifact
        self.handler = handler
        self.profile = profile
        self.lines: list[str] = []
        self.executors: list[Executor] = []
        self.created = 0
        self.invocations = 0
        self.removed = False
        self._cond = threading.Condition()
        self._fifo: deque = deque()

    # -- pool management -----------------------------------------------------

    def _purge_idle(self) -> None:
        timeout = self.profile.executor_idle_timeout_s
        if math.isinf(timeout):
            return
        cutoff = time.monotonic() - timeout
        self.executors = [e for e in self.executors if e.busy or e.last_used >= cutoff]

    def _try_claim(self) -> tuple[Executor, bool] | None:
        """Take an idle executor, or create one if capacity allows."""
        self._purge_idle()
        for executor in self.executors:
            if not executor.busy:
                executor.busy = True
                return executor, False
        cap = self.profile.max_executors
        if cap is None or len(self.executors) < cap:
            executor = Executor(dict(self.artifact.env))
            self.executors.append(executor)
            self.created += 1
            return executor, True
        return None

    def claim(self) -> tuple[Executor, bool]:
        """Claim an executor per the queue policy.

        Returns (executor, is_cold). Raises ThrottleError under scale_up
        at capacity. Atomic: no two requests ever take the same idle
        executor.
        """
        with self._cond:
            if self.removed:
                raise ConfigurationError(f"function removed: {self.artifact.fn}")
            if self.profile.queue_policy == "scale_up":
                claimed = self._try_claim()
                if claimed is None:
                    raise ThrottleError(f"{self.artifact.fn}: all executors busy")
                return claimed
            # queue_when_busy: FIFO — only the head of the queue may claim.
            ticket = object()
            self._fifo.append(ticket)
            try:
                while True:
                    if self.removed:
                        raise ConfigurationError(f"function removed: {self.artifact.fn}")
                    if self._fifo[0] is ticket:
                        claimed = self._try_claim()
                        if claimed is not None:
                            return claimed
                    self._cond.wait()
            finally:
                self._fifo.remove(ticket)
                self._cond.notify_all()

    def release(self, executor: Executor) -> None:
        with self._cond:
            executor.busy = False
            executor.last_used = time.monotonic()
            self.invocations += 1
            self._cond.notify_all()

    def mark_removed(self) -> None:
        with self._cond:
            self.removed = True
            self.executors.clear()
            self._cond.notify_all()

    def live_executors(self) -> int:
        with self._cond:
            return len(self.executors)


# ---------------------------------------------------------------------------
# Platform
# ---------------------------------------------------------------------------


class _Served:
    """The lifecycle the platform and the KV service share: :meth:`start`
    serves ``route(method, path, doc) -> (status, doc)`` on 127.0.0.1 at the
    given port (0: a free one), :meth:`stop` closes the server, and
    ``base_url`` is its address."""

    def __init__(self, name: str, port: int = 0):
        self._name = name
        self._port = port
        self._server: _JSONServer | None = None

    def start(self) -> str:
        """Serve, unless already serving; return the base URL."""
        if self._server is None:
            self._server = _JSONServer(self._port, self.route, self._name)
            self._port = self._server.server_address[1]
        return self.base_url

    def stop(self) -> None:
        """Close the server. Idempotent."""
        if self._server is not None:
            self._server.stop()
            self._server = None

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._port}"


class SimPlatform(_Served):
    """One simulated FaaS platform: function hosting plus admin API."""

    def __init__(self, platform_id: str, profile: PlatformProfile, port: int = 0, seed: int = 0):
        super().__init__(f"platform-{platform_id}", port)
        self.platform_id = platform_id
        self.profile = profile
        # The host of each function's latest deployment, kept after removal
        # so its logs and counters stay readable until the next deploy.
        self.deployments: dict[str, FunctionHost] = {}
        self._admin_lock = threading.Lock()
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        skew_us = int(profile.clock_skew_ms * 1000)
        self.clock_us = (lambda: now_us() + skew_us) if skew_us else now_us

    def stop(self) -> None:
        """Remove every function, then close the server. Idempotent."""
        self.teardown()
        super().stop()

    def _sample_ms(self, spec: DelaySpec) -> float:
        if spec.constant_ms is not None:
            return spec.constant_ms
        with self._rng_lock:
            return spec.sample(self._rng)

    # -- admin operations ------------------------------------------------------

    def deploy_artifact(self, doc: dict) -> str:
        """Deploy one artifact; the function becomes reachable immediately
        but no executor exists until the first invocation. A missing or
        mistyped artifact field, or an unknown app or function, raises
        ``ValueError``; a function already deployed and not removed raises
        ``ConfigurationError``."""
        artifact = DeploymentArtifact.from_doc(doc)
        try:
            handler = registry.get_app(artifact.app).handlers.get(artifact.fn)
        except ConfigurationError as exc:
            raise ValueError(str(exc)) from None
        if handler is None:
            raise ValueError(f"app {artifact.app!r} has no function {artifact.fn!r}")
        with self._admin_lock:
            if self._live_host(artifact.fn) is not None:
                raise ConfigurationError(f"already deployed: {artifact.fn}")
            self.deployments[artifact.fn] = FunctionHost(artifact, handler, self.profile)
        return function_endpoint(self.base_url, artifact.fn)

    def _live_host(self, fn: str) -> FunctionHost | None:
        host = self.deployments.get(fn)
        return None if host is None or host.removed else host

    def fetch_logs(self, fn: str) -> list[str]:
        """The captured lines of ``fn``'s latest deployment, in emission
        order per executor; still readable after removal."""
        host = self.deployments.get(fn)
        if host is None:
            raise ConfigurationError(f"unknown function: {fn}")
        return list(host.lines)

    def remove_function(self, fn: str) -> None:
        with self._admin_lock:
            host = self._live_host(fn)
            if host is None:
                raise ConfigurationError(f"unknown function: {fn}")
            host.mark_removed()

    def teardown(self) -> None:
        """Remove every deployed function. Idempotent."""
        with self._admin_lock:
            for host in self.deployments.values():
                host.mark_removed()

    def stats(self) -> dict:
        with self._admin_lock:
            functions = {
                fn: {
                    "executors_created": host.created,
                    "live_executors": host.live_executors(),
                    "invocations": host.invocations,
                }
                for fn, host in sorted(self.deployments.items())
            }
            return {
                "platform": self.platform_id,
                "deployment_count": sum(not host.removed for host in self.deployments.values()),
                "functions": functions,
            }

    # -- HTTP ------------------------------------------------------------------

    def route(self, method: str, path: str, doc: dict) -> tuple[int, dict]:
        """Answer one request of the platform contract; every body is JSON.

        A new platform is anything that serves these routes:

        - ``POST /fn/<name>``: invoke; the function's response envelope,
          404 ``unreachable`` for an unknown function, 429 ``throttle``.
        - ``POST /admin/deploy``: deploy an artifact document; answers
          ``{"endpoint": url}``, 400 for a malformed artifact or one that
          names an unknown app or function, 409 if the function is already
          deployed.
        - ``POST /admin/remove/<name>``: ``{"ok": true}``, 404 if unknown
          or already removed.
        - ``GET /admin/logs/<name>``: ``{"lines": [...]}`` of the function's
          latest deployment, which stay readable after remove until the
          function is deployed again; 404 if never deployed.
        - ``GET /admin/stats``: the document of :meth:`stats`.
        - ``GET /admin/ping``: ``{"platform": platform_id}``.

        Any other request is 404 ``no route: <path>``; a body that is not a
        JSON object is 400 on every route.
        """
        if method == "POST" and path.startswith("/fn/"):
            return self.handle_invoke(path[len("/fn/"):], doc)
        try:
            if method == "POST" and path == "/admin/deploy":
                return 200, {"endpoint": self.deploy_artifact(doc)}
            if method == "POST" and path.startswith("/admin/remove/"):
                self.remove_function(path[len("/admin/remove/"):])
                return 200, {"ok": True}
            if method == "GET" and path.startswith("/admin/logs/"):
                return 200, {"lines": self.fetch_logs(path[len("/admin/logs/"):])}
        except ConfigurationError as exc:
            return 409 if path == "/admin/deploy" else 404, error_body(str(exc), "client")
        except ValueError as exc:
            return 400, error_body(str(exc), "client")
        if method == "GET" and path == "/admin/stats":
            return 200, self.stats()
        if method == "GET" and path == "/admin/ping":
            return 200, {"platform": self.platform_id}
        return 404, error_body(f"no route: {path}", "client")

    # -- invocation ------------------------------------------------------------

    def handle_invoke(self, fn: str, request: dict) -> tuple[int, dict]:
        host = self._live_host(fn)
        if host is None:
            return 404, error_body(f"no such function: {fn}", "unreachable")

        precise_sleep_ms(self.profile.invoke_overhead_ms)
        try:
            executor, cold = host.claim()
        except ThrottleError as exc:
            return 429, error_body(str(exc), "throttle")
        except ConfigurationError as exc:
            return 404, error_body(str(exc), "unreachable")

        try:
            if cold:
                precise_sleep_ms(self._sample_ms(self.profile.cold_start_delay_ms))
            precise_sleep_ms(self._sample_ms(self.profile.network_delay_ms))
            runtime = HandlerRuntime(
                fn=fn,
                platform=self.platform_id,
                executor_env=executor.env,
                endpoint_map=host.artifact.endpoint_map,
                env=host.artifact.env,
                emit=host.lines.append,
                clock_us=self.clock_us,
            )
            envelope = host.handler(request, runtime)
            precise_sleep_ms(self._sample_ms(self.profile.network_delay_ms))
        finally:
            host.release(executor)
        return envelope_status(envelope), envelope


class _JSONServer(ThreadingHTTPServer):
    """Serves ``route(method, path, doc) -> (status, doc)`` over HTTP.

    Its loop selects on the listening socket and on one end of a socket
    pair; :meth:`stop` writes a byte to the other end, so a stop wakes
    the loop at once instead of waiting out ``serve_forever``'s 0.5 s poll.
    It keeps the socket of every open connection, so that :meth:`stop`
    can also shut the keep-alive connections clients still hold.
    """

    daemon_threads = True
    # Bursts open many connections at once; the socketserver default
    # backlog of 5 would push the overflow into 1 s SYN retransmits.
    request_queue_size = 128

    def __init__(self, port: int, route, name: str):
        super().__init__(("127.0.0.1", port), _JSONHandler)
        self.route = route
        self.wake_r, self.wake_w = socket.socketpair()
        self.thread = threading.Thread(target=self._serve, name=name, daemon=True)
        self.connections: set[socket.socket] = set()
        self.connections_lock = threading.Lock()
        self.thread.start()

    def process_request(self, request, client_address) -> None:
        with self.connections_lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self.connections_lock:
            self.connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A client that left before its reply (a timed-out call) is no server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self.wake_r, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self.wake_r in ready:
                    return
                self._handle_request_noblock()

    def stop(self) -> None:
        self.wake_w.send(b"\0")
        self.thread.join()
        self.server_close()
        # A handler thread waiting for the next request on a keep-alive
        # connection reads end of file, answers nothing more and ends.
        with self.connections_lock:
            connections = list(self.connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # the handler closed it meanwhile
                pass
        self.wake_r.close()
        self.wake_w.close()


class _JSONHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 120
    server: _JSONServer

    def log_message(self, *args):  # keep benchmark output clean
        pass

    def _handle(self) -> None:
        # Always drain the body first: an unread body desyncs keep-alive,
        # and a body of unknown length cannot be drained, so it closes.
        header = self.headers.get("Content-Length", "0")
        if not header.isdecimal():
            self.close_connection = True
            self._respond(400, error_body(f"bad Content-Length: {header!r}", "client"))
            return
        length = int(header)
        body = self.rfile.read(length) if length else b"{}"
        try:
            doc = json.loads(body)
        except ValueError:
            doc = None
        if not isinstance(doc, dict):
            self._respond(400, error_body("request body is not a JSON object", "client"))
            return
        self._respond(*self.server.route(self.command, self.path, doc))

    do_GET = do_POST = _handle

    def _respond(self, status: int, doc: dict) -> None:
        body = json.dumps(doc, separators=(",", ":")).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


# ---------------------------------------------------------------------------
# Simulated key-value service
# ---------------------------------------------------------------------------


def apply_kv(store: dict, request: dict) -> tuple[int, dict]:
    """Validate one KV request, apply it to ``store``; return (status, doc).

    Ops are ``get``, ``set`` (needs a ``value``) and ``delete`` of a str
    ``key``. A get of an absent key is a not-found result, not an error.
    """
    op = request.get("op")
    key = request.get("key")
    if op not in ("get", "set", "delete") or not isinstance(key, str):
        return 400, error_body(f"bad kv request: {request}", "client")
    if op == "get":
        return 200, {"found": key in store, "value": store.get(key)}
    if op == "set":
        if "value" not in request:
            return 400, error_body("set requires a value", "client")
        store[key] = request["value"]
        return 200, {"ok": True}
    existed = key in store
    store.pop(key, None)
    return 200, {"ok": True, "existed": existed}


class KVService(_Served):
    """Single-node key-value store over HTTP with injected query latency.

    Operations are serialized under one lock (linearizable by
    construction); each request sleeps ``query_delay_ms`` per direction.
    """

    def __init__(self, query_delay_ms: float = 0.0):
        if query_delay_ms < 0:
            raise ValueError("query_delay_ms must be >= 0")
        super().__init__("kv-service")
        self.query_delay_ms = query_delay_ms
        self._store: dict[str, object] = {}
        self._lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        return f"{self.base_url}/kv"

    def handle(self, request: dict) -> tuple[int, dict]:
        precise_sleep_ms(self.query_delay_ms)
        with self._lock:
            status, doc = apply_kv(self._store, request)
        precise_sleep_ms(self.query_delay_ms)
        return status, doc

    def route(self, method: str, path: str, doc: dict) -> tuple[int, dict]:
        """``POST /kv`` runs :meth:`handle`; ``GET /ping`` answers ``{"ok": true}``."""
        if method == "POST" and path == "/kv":
            return self.handle(doc)
        if method == "GET" and path == "/ping":
            return 200, {"ok": True}
        return 404, error_body(f"no route: {path}", "client")


# ---------------------------------------------------------------------------
# Admin client (uniform handle for in-process and attached platforms)
# ---------------------------------------------------------------------------


class AdminClient:
    """Drives a platform's admin API over HTTP."""

    def __init__(self, admin_endpoint: str, timeout: float = 60.0):
        self.admin_endpoint = admin_endpoint.rstrip("/")
        self.timeout = timeout

    def ping(self) -> str:
        return httpjson.get_json(f"{self.admin_endpoint}/admin/ping", self.timeout)["platform"]

    def deploy(self, artifact_doc: dict) -> str:
        doc = httpjson.post_json(f"{self.admin_endpoint}/admin/deploy", artifact_doc, self.timeout)
        return doc["endpoint"]

    def logs(self, fn: str) -> list[str]:
        """The raw log lines of ``fn``; an answer without a list of string
        lines is a broken server, raised as ``TransportCallError``."""
        url = f"{self.admin_endpoint}/admin/logs/{fn}"
        lines = httpjson.get_json(url, self.timeout).get("lines")
        if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
            message = f"no list of lines in the log answer from {url}"
            raise TransportCallError(200, error_body(message, "server"))
        return lines

    def remove(self, fn: str) -> None:
        httpjson.post_json(f"{self.admin_endpoint}/admin/remove/{fn}", {}, self.timeout)

    def stats(self) -> dict:
        return httpjson.get_json(f"{self.admin_endpoint}/admin/stats", self.timeout)
