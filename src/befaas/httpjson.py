"""Minimal JSON-over-HTTP client with per-thread connection reuse.

Every wire exchange in this package is a JSON document over HTTP, and the
latency analysis only works if the client adds microseconds, not
milliseconds. Keep-alive connections are cached per (thread, host, port)
with TCP_NODELAY set, and each call's timeout applies to the cached
connection it uses. Against ``simplatform``'s servers on localhost (2 vCPUs,
Python 3.11) a round trip on a fresh connection takes ~0.5 ms, but one on a
reused connection takes ~44 ms: those servers write the headers and the
body of a reply separately with Nagle's algorithm on, so the body waits for
the client's delayed ACK.

No hop of a ``befaas run`` reuses a connection, so none pays the stall:
a function's calls and KV queries close the calling thread's connections
when they end (:meth:`befaas.tracing.CallContext._round_trip`), the
lifecycle admin calls run through :func:`fan_out`, and the load generator
closes its connection after each request
(:func:`befaas.loadgen.execute_workflow`). The stall remains only on the
connections a caller keeps: ``execute_workflow(close_connections=False)``
and admin calls made one after another from one thread.
"""
from __future__ import annotations

import http.client
import json
import socket
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable
from urllib.parse import urlsplit

from .errors import TransportCallError, TransportError, error_body

DEFAULT_TIMEOUT_S = 30.0

_local = threading.local()


def _connections() -> dict:
    cache = getattr(_local, "connections", None)
    if cache is None:
        cache = {}
        _local.connections = cache
    return cache


def _get_connection(host: str, port: int, timeout: float) -> http.client.HTTPConnection:
    cache = _connections()
    key = (host, port)
    conn = cache.get(key)
    if conn is None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        cache[key] = conn
    elif conn.timeout != timeout:
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
    return conn


def _drop_connection(host: str, port: int) -> None:
    conn = _connections().pop((host, port), None)
    if conn is not None:
        try:
            conn.close()
        except OSError:
            pass


def close_thread_connections() -> None:
    """Close every cached connection owned by the calling thread."""
    cache = _connections()
    for conn in cache.values():
        try:
            conn.close()
        except OSError:
            pass
    cache.clear()


def fan_out(calls: list[Callable[[], object]]) -> list[Future]:
    """Run each zero-argument call on its own pool thread; wait for all.

    Each call's cached connections are closed as it ends, so every call
    opens its own whichever thread runs it: the traffic does not depend on
    thread reuse. Returns the finished futures in call order.
    """
    def run(call: Callable[[], object]) -> object:
        try:
            return call()
        finally:
            close_thread_connections()

    if not calls:
        return []
    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        return [pool.submit(run, call) for call in calls]


def _split(url: str) -> tuple[str, int, str]:
    parts = urlsplit(url)
    if parts.scheme != "http" or parts.hostname is None:
        raise TransportError(f"unsupported URL: {url}")
    return parts.hostname, parts.port or 80, parts.path or "/"


def _exchange(method: str, url: str, body: bytes | None, timeout: float) -> tuple[int, bytes]:
    host, port, path = _split(url)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    # A cached connection may have gone stale while idle, so a reused one
    # gets one retry on a fresh socket. A stale keep-alive socket still
    # takes the request but fails on the read (RemoteDisconnected): the
    # server closed it before the request came, so it never saw it. A
    # timeout is not retried, because that server did get the request.
    reused = (host, port) in _connections()
    for may_retry in (reused, False):
        try:
            conn = _get_connection(host, port, timeout)
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except (http.client.HTTPException, OSError) as exc:
            _drop_connection(host, port)
            if not may_retry or isinstance(exc, TimeoutError):
                raise TransportError(f"{method} {url}: {exc!r}") from exc


def _decode(status: int, data: bytes, url: str) -> dict:
    try:
        doc = json.loads(data) if data else {}
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        # Every exchange is a JSON object; anything else is a broken server,
        # even under a 2xx status.
        doc = error_body(f"non-object JSON response from {url}", "server")
    elif 200 <= status < 300:
        return doc
    raise TransportCallError(status, doc)


def post_json(url: str, doc: dict, timeout: float = DEFAULT_TIMEOUT_S) -> dict:
    """POST ``doc`` as JSON; return the decoded 2xx body.

    Raises TransportError when no response arrives and TransportCallError
    for non-2xx statuses and for bodies that are not a JSON object.
    """
    body = json.dumps(doc, separators=(",", ":")).encode()
    status, data = _exchange("POST", url, body, timeout)
    return _decode(status, data, url)


def get_json(url: str, timeout: float = DEFAULT_TIMEOUT_S) -> dict:
    """GET and decode a JSON document; same error contract as post_json."""
    status, data = _exchange("GET", url, None, timeout)
    return _decode(status, data, url)
