"""In-memory test harness: runs instrumented handlers without sockets.

Dispatches function calls and KV operations directly through the token
envelope protocol, so the tracing behavior under test is exactly the
production path minus HTTP and injected delays. One warm executor per
function; carts live in a plain dict, updated by the served KV store's
own ``apply_kv``.
"""
from __future__ import annotations

import json

from befaas import registry
from befaas.errors import TransportCallError
from befaas.simplatform import apply_kv
from befaas.tracing import ENVELOPE_KEY, HandlerRuntime, envelope_status


class LocalHarness:
    def __init__(self, app=None, env_extra: dict | None = None, platform: str = "local"):
        self.app = app or registry.get_app("webshop")
        self.platform = platform
        self.kv_store: dict = {}
        self.lines: dict[str, list[str]] = {fn: [] for fn in self.app.function_names}
        self.executor_envs: dict[str, dict] = {fn: {} for fn in self.app.function_names}
        self.endpoint_map = {fn: f"http://local/fn/{fn}" for fn in self.app.function_names}
        self.env = {"KV": "http://local/kv"}
        if env_extra:
            self.env.update(env_extra)

    # -- transport -----------------------------------------------------------

    def transport(self, url: str, doc: dict) -> dict:
        if url.endswith("/kv"):
            status, response = apply_kv(self.kv_store, doc)
        else:
            name = url.rsplit("/", 1)[-1]
            response = self.app.handlers[name](doc, self._runtime(name))
            status = envelope_status(response)
        if status != 200:
            raise TransportCallError(status, response)
        return response

    def _runtime(self, name: str) -> HandlerRuntime:
        return HandlerRuntime(
            fn=name,
            platform=self.platform,
            executor_env=self.executor_envs[name],
            endpoint_map=self.endpoint_map,
            env=self.env,
            emit=self.lines[name].append,
            transport=self.transport,
        )

    # -- driving -------------------------------------------------------------

    def invoke(self, fn: str, payload, token: dict | None = None) -> dict:
        """Invoke a function directly; returns the response envelope."""
        request = {"payload": payload}
        if token:
            request[ENVELOPE_KEY] = token
        handler = self.app.handlers[fn]
        return handler(request, self._runtime(fn))

    def frontend(self, payload) -> dict:
        return self.invoke(self.app.entrypoint, payload)

    def events(self) -> list[dict]:
        out = []
        for lines in self.lines.values():
            out.extend(json.loads(line) for line in lines)
        return out
