"""Deployment compilation: config + application -> per-function artifacts.

"Compilation" here is configuration binding, not source rewriting: an
artifact pairs a handler reference with the full endpoint map and the
resolved environment (external-service endpoints plus per-function
overrides). Because function names are globally unique and each platform
exposes one URL scheme, every endpoint is known before anything is
deployed, which is what lets a function call any other function no matter
where either of them landed.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Iterable, Mapping, Sequence, get_origin, get_type_hints

from .errors import ValidationFailure

#: Scheme for function endpoints on a platform host.
FUNCTION_PATH = "/fn/{name}"

#: Default deterministic ports for managed platforms that omit one, so that
#: standalone compilation stays pure. At run time the manager compiles each
#: started platform as an attached one, at the address it actually bound.
DEFAULT_PORT_BASE = 7100


@dataclass(frozen=True)
class DeploymentArtifact:
    """Everything one function needs to run on its target platform."""

    fn: str
    app: str
    platform_id: str
    endpoint_map: Mapping[str, str]
    env: Mapping[str, str]

    def to_doc(self) -> dict:
        return {name: dict(value) if isinstance(value, Mapping) else value
                for name, value in vars(self).items()}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "DeploymentArtifact":
        """Read an artifact document; raise ValueError naming every field
        that is missing or not of its declared type."""
        bad = [name for name, kind in _ARTIFACT_TYPES.items()
               if not isinstance(doc.get(name), kind)]
        if bad:
            raise ValueError(f"bad artifact fields: {', '.join(bad)}")
        return cls(**{name: doc[name] for name in _ARTIFACT_TYPES})


#: The runtime type of each artifact field, read from its annotation once.
_ARTIFACT_TYPES = {name: get_origin(hint) or hint
                   for name, hint in get_type_hints(DeploymentArtifact).items()}


@dataclass(frozen=True)
class Application:
    """A benchmark application: named, instrumented handlers plus metadata."""

    name: str
    handlers: Mapping[str, object]
    entrypoint: str
    call_graph: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def function_names(self) -> tuple[str, ...]:
        return tuple(self.handlers)


def function_endpoint(host_url: str, name: str) -> str:
    """Endpoint URL for ``name`` on a platform reachable at ``host_url``."""
    return host_url.rstrip("/") + FUNCTION_PATH.format(name=name)


def platform_host_url(entry: Mapping, index: int) -> str:
    """Base URL of a platform from its config entry.

    Attached platforms carry an explicit admin endpoint; managed ones listen
    on 127.0.0.1 at their configured port, falling back to a deterministic
    default port so compilation never depends on runtime state.
    """
    if "admin_endpoint" in entry:
        return entry["admin_endpoint"].rstrip("/")
    return f"http://127.0.0.1:{entry.get('port') or DEFAULT_PORT_BASE + index}"


def read_service(value) -> str | float:
    """Read one external-service entry: the URL of a service to link, or the
    query delay in ms of a KV service to start (``"managed"``, or
    ``{"managed": true}`` with an optional ``"query_delay_ms"``).

    Raises ValueError for any other form.
    """
    if isinstance(value, str) and value.startswith("http"):
        return value
    if value == "managed":
        return 0.0
    if (isinstance(value, Mapping) and value.get("managed") is True
            and set(value) <= {"managed", "query_delay_ms"}):
        delay = value.get("query_delay_ms", 0)
        if not is_number(delay) or not 0 <= delay < float("inf"):
            raise ValueError(f"query_delay_ms must be a number >= 0, not {delay!r}")
        return float(delay)
    raise ValueError(
        f'needs a URL, "managed" or {{"managed": true, "query_delay_ms": ...}}, not {value!r}')


def is_number(value) -> bool:
    """A number in a JSON document is an integer or a float, never a boolean."""
    return type(value) in (int, float)


#: How a config value is checked and read into a field of each declared
#: type: what it must be, the check, the conversion.
READ_FIELD = {
    "float": ("a number", is_number, float),
    "str": ("a string", lambda v: type(v) is str, str),
    "int | None": ("an integer", lambda v: type(v) is int, int),
    "tuple[str, ...]": ("a list of strings",
                        lambda v: type(v) is list and all(type(s) is str for s in v), tuple),
}


def read_object(cls, doc, where: str = "", read_field=READ_FIELD):
    """Read a ``cls`` from the config object ``doc``, each field checked and
    read by its declared type's entry in ``read_field``.

    A field without a default is required; one with a default keeps it when
    absent or ``null``. Raises ValidationFailure with one line, led by
    ``where``, for a ``doc`` that is not an object and per field that is
    unknown, missing or of another type.
    """
    if not isinstance(doc, dict):
        raise ValidationFailure([f"{where}must be an object, not {doc!r}"])
    declared = {f.name: f for f in fields(cls)}
    problems = [f"{where}unknown field {name!r}" for name in doc if name not in declared]
    for name, f in declared.items():
        given = doc.get(name)
        if given is None and f.default is not MISSING:
            continue
        must_be, check, _ = read_field[f.type]
        if name not in doc:
            problems.append(f"{where}missing field {name!r}")
        elif not check(given):
            problems.append(f"{where}{name} must be {must_be}, not {given!r}")
    if problems:
        raise ValidationFailure(problems)
    return cls(**{name: read_field[declared[name].type][2](given)
                  for name, given in doc.items() if given is not None})


def validate(function_names: Sequence[str] | None, config: Mapping) -> list[str]:
    """Check a deployment config; return the full list of violations.

    Verifies global name uniqueness, a total function->platform mapping,
    the form of every platform entry, and that every referenced platform
    and external service resolves.
    Without ``function_names`` (an unknown application) the config's
    function names are not checked against the application's. Never
    fail-fast: callers get everything that is wrong at once.
    """
    violations: list[str] = []

    seen: dict[str, None] = {}  # the application's function order
    for name in function_names or ():
        if name in seen:
            violations.append(f"duplicate name: {name}")
        seen[name] = None

    functions = config.get("functions")
    if not isinstance(functions, Mapping):
        violations.append("config missing 'functions' mapping")
        functions = {}
    platforms = config.get("platforms")
    if not isinstance(platforms, Mapping):
        violations.append("config missing 'platforms' mapping")
        platforms = {}

    for name in seen:
        if name not in functions:
            violations.append(f"missing mapping: {name}")
    for name, entry in functions.items():
        if function_names is not None and name not in seen:
            violations.append(f"unknown function in config: {name}")
        entry = entry or {}
        if not isinstance(entry, Mapping):
            violations.append(f"function {name}: entry must be an object")
            continue
        platform_id = entry.get("platform")
        if platform_id is None:
            violations.append(f"function {name} has no platform assignment")
        elif not isinstance(platform_id, str) or platform_id not in platforms:
            violations.append(f"function {name} references unknown platform: {platform_id}")
        if not isinstance(entry.get("env") or {}, Mapping):
            violations.append(f"function {name}: env must be an object")

    for platform_id, entry in platforms.items():
        problem = _platform_problem(entry)
        if problem:
            violations.append(f"platform {platform_id}: {problem}")

    services = config.get("external_services") or {}
    if not isinstance(services, Mapping):
        violations.append("config 'external_services' must be a mapping")
        services = {}
    for service, value in services.items():
        try:
            read_service(value)
        except ValueError as exc:
            violations.append(f"external service {service}: {exc}")

    return violations


def _platform_problem(entry) -> str | None:
    """What is wrong with one platform entry, if anything."""
    if not isinstance(entry, Mapping):
        return f"entry must be an object, not {entry!r}"
    unknown = sorted(set(entry) - {"admin_endpoint", "profile", "port"})
    if unknown:
        return f"unknown key: {', '.join(map(repr, unknown))}"
    if "admin_endpoint" in entry:
        url = entry["admin_endpoint"]
        if len(entry) > 1:
            return "an 'admin_endpoint' entry takes no 'profile' or 'port'"
        if not (isinstance(url, str) and url.startswith("http://")):
            return f"admin_endpoint must be an http URL, not {url!r}"
        return None
    if "profile" not in entry:
        return "needs 'profile' or 'admin_endpoint'"
    port = entry.get("port", 0)
    if type(port) is not int or not 0 <= port <= 65535:
        return f"port must be an integer in [0, 65535], not {port!r}"
    return None


def compile_deployment(app: Application, config: Mapping) -> list[DeploymentArtifact]:
    """Produce one artifact per function with a shared, total endpoint map.

    Pure: identical (app, config) inputs yield identical artifacts. The
    endpoint map covers every application function; external-service
    endpoints land in each artifact's env under the upper-cased service
    name (managed services get a placeholder the manager resolves at
    provisioning time).
    """
    violations = validate(app.function_names, config)
    if violations:
        raise ValidationFailure(violations)

    platforms = config["platforms"]
    host_urls = {pid: platform_host_url(entry, index)
                 for index, (pid, entry) in enumerate(platforms.items())}

    endpoint_map = {
        name: function_endpoint(host_urls[config["functions"][name]["platform"]], name)
        for name in app.function_names
    }

    service_env: dict[str, str] = {}
    for service, value in (config.get("external_services") or {}).items():
        target = read_service(value)
        service_env[service.upper()] = target if isinstance(target, str) else "managed"

    artifacts = []
    for name in app.function_names:
        entry = config["functions"][name]
        env = dict(service_env)
        env.update({str(k): str(v) for k, v in (entry.get("env") or {}).items()})
        artifacts.append(
            DeploymentArtifact(
                fn=name,
                app=app.name,
                platform_id=entry["platform"],
                endpoint_map=endpoint_map,
                env=env,
            )
        )
    return artifacts


def load_config(path: str) -> tuple[dict, bytes]:
    """Read an experiment config file; return the document and its raw bytes.

    Raises ValidationFailure when the file is not JSON or its top level is
    not an object.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        config = json.loads(raw)
    except ValueError as exc:  # also a UnicodeDecodeError
        raise ValidationFailure([f"config {path}: not valid JSON: {exc}"]) from None
    if not isinstance(config, dict):
        raise ValidationFailure(
            [f"config {path}: top level must be an object, not {type(config).__name__}"])
    return config, raw


def write_artifacts(artifacts: Iterable[DeploymentArtifact], out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump([a.to_doc() for a in artifacts], fh, indent=2, sort_keys=True)
        fh.write("\n")
