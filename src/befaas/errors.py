"""Shared error taxonomy.

Errors cross module boundaries (a platform throttle surfaces inside a
handler's outgoing call, a callee's business error propagates through the
caller's wrapper), so they live in one place.
"""
from __future__ import annotations


def error_body(message: str, kind: str) -> dict:
    """The body of every error answer. A platform answers kind ``client``
    with 400, 404 or 409, ``server`` with 500, ``unreachable`` with 404 and
    ``throttle`` with 429."""
    return {"error": {"message": message, "kind": kind}}


class BefaasError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(BefaasError):
    """A name, endpoint, or config entry could not be resolved."""


class ValidationFailure(BefaasError):
    """Deployment config validation failed; carries the full violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class BusinessError(BefaasError):
    """Raised by application code inside a handler.

    ``kind`` is "client" for caller mistakes (unknown action, bad input)
    and "server" for internal failures; it selects the HTTP status the
    platform answers with.
    """

    def __init__(self, message: str, kind: str = "client"):
        super().__init__(message)
        self.kind = kind


class TransportError(BefaasError):
    """The request never produced an HTTP response (refused, reset, timeout)."""


class TransportCallError(BefaasError):
    """A non-2xx HTTP response, or a body that is not a JSON object. Reads
    the body's error as ``message`` and ``kind``; a body without one reads
    as kind ``server``, with the exception's own text as message."""

    def __init__(self, status: int, body: dict):
        self.body = body if isinstance(body, dict) else {}
        error = self.body.get("error")
        error = error if isinstance(error, dict) else {}
        super().__init__(f"HTTP {status}: {error.get('message', 'unknown error')}")
        self.status = status
        self.message = error.get("message", str(self))
        self.kind = error.get("kind", "server")


class ThrottleError(BefaasError):
    """The platform rejected the request because all executors were busy."""


class CalleeError(BefaasError):
    """An outgoing function call returned an error response."""

    def __init__(self, target: str, message: str, kind: str = "server"):
        super().__init__(f"call to {target} failed: {message}")
        self.target = target
        self.kind = kind


class RuntimeFailure(BefaasError):
    """An experiment failed mid-run; teardown completed."""

    def __init__(self, message: str, bundle_dir: str | None = None):
        super().__init__(message)
        self.bundle_dir = bundle_dir


class TeardownIncomplete(BefaasError):
    """Experiment teardown could not destroy every provisioned resource."""

    def __init__(self, message: str, leftovers: list[str]):
        super().__init__(message)
        self.leftovers = leftovers
