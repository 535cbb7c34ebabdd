"""End-to-end experiment orchestration.

One experiment runs through fixed phases: provision platforms and managed
external services, compile and deploy every artifact, drive the load
profile, collect logs from every platform, write the joint results bundle,
and tear everything down. Teardown always runs, also when a phase fails
mid-way, and running it twice is safe.

The results bundle is a directory, not an archive, so the NDJSON files
stream straight into analysis:

    config.json             byte-identical snapshot of the input config
    client_records.ndjson   one client record per frontend request
    events.ndjson           every parsed log event from every platform
    rejects.log             raw lines that failed to parse
    audit.json              metadata plus the provisioning/teardown trail
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import loadgen, registry
from .clock import now_us
from .compiler import DeploymentArtifact, compile_deployment
from .errors import (
    BefaasError,
    RuntimeFailure,
    TeardownIncomplete,
    TransportError,
    ValidationFailure,
)
from .loadgen import LoadRunResult, WorkflowSpec
from .simplatform import AdminClient, KVService, SimPlatform, profile_from_config
from .tracing import parse_event_line


@dataclass
class ExperimentPlan:
    """Inputs of one benchmark run."""

    config: dict
    out_dir: str
    profile: object | None = None  # name or inline doc; overrides the config
    seed: int | None = None
    config_bytes: bytes | None = None

    @classmethod
    def from_file(
        cls,
        config_path: str,
        out_dir: str,
        profile: object | None = None,
        seed: int | None = None,
    ) -> "ExperimentPlan":
        with open(config_path, "rb") as fh:
            raw = fh.read()
        return cls(
            config=json.loads(raw),
            out_dir=out_dir,
            profile=profile,
            seed=seed,
            config_bytes=raw,
        )

    @property
    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return int(self.config.get("seed", 0))

    def resolved_profile(self) -> loadgen.LoadProfile:
        value = self.profile if self.profile is not None else self.config.get("load_profile")
        if value is None:
            raise ValidationFailure(["no load profile given (config or plan)"])
        return loadgen.profile_from_config(value)

    def resolved_workflows(self) -> tuple[WorkflowSpec, ...]:
        entries = self.config.get("workflows")
        if not entries:
            return loadgen.WORKFLOW_PRESETS
        return tuple(
            WorkflowSpec(e["name"], float(e["weight"]), tuple(e["steps"])) for e in entries
        )

    def snapshot_bytes(self) -> bytes:
        if self.config_bytes is not None:
            return self.config_bytes
        return (json.dumps(self.config, indent=2, sort_keys=True) + "\n").encode()


@dataclass
class ResultsBundle:
    """The joint results of one experiment."""

    out_dir: str
    client_records: list[dict]
    events: list[dict]
    rejects: list[str]
    audit: dict
    incomplete: bool = False

    @classmethod
    def read(cls, bundle_dir: str) -> "ResultsBundle":
        def read_ndjson(name: str) -> list[dict]:
            path = os.path.join(bundle_dir, name)
            if not os.path.exists(path):
                return []
            with open(path, "r", encoding="utf-8") as fh:
                return [json.loads(line) for line in fh if line.strip()]

        rejects_path = os.path.join(bundle_dir, "rejects.log")
        rejects = []
        if os.path.exists(rejects_path):
            with open(rejects_path, "r", encoding="utf-8") as fh:
                rejects = [line.rstrip("\n") for line in fh]
        with open(os.path.join(bundle_dir, "audit.json"), "r", encoding="utf-8") as fh:
            audit = json.load(fh)
        return cls(
            out_dir=bundle_dir,
            client_records=read_ndjson("client_records.ndjson"),
            events=read_ndjson("events.ndjson"),
            rejects=rejects,
            audit=audit,
            incomplete=bool(audit.get("incomplete")),
        )


@dataclass
class _Provisioned:
    """Everything the experiment stands up and must destroy again."""

    clients: dict[str, AdminClient] = field(default_factory=dict)
    local_platforms: dict[str, SimPlatform] = field(default_factory=dict)
    services: dict[str, KVService] = field(default_factory=dict)
    deployed: dict[str, list[str]] = field(default_factory=dict)  # platform -> fns


class _Audit:
    def __init__(self):
        self.entries: list[dict] = []

    def add(self, phase: str, action: str, target: str = "", status: str = "ok", detail: str = ""):
        entry = {"ts_us": now_us(), "phase": phase, "action": action, "status": status}
        if target:
            entry["target"] = target
        if detail:
            entry["detail"] = detail
        self.entries.append(entry)


def run_experiment(plan: ExperimentPlan) -> ResultsBundle:
    """Execute one experiment end to end and write its results bundle.

    Raises ValidationFailure before anything is provisioned,
    RuntimeFailure when a phase failed (bundle and teardown still done),
    and TeardownIncomplete when resources could not be destroyed.
    """
    config = plan.config
    app = registry.get_app(config.get("app", "webshop"))
    profile = plan.resolved_profile()
    workflows = plan.resolved_workflows()
    seed = plan.resolved_seed

    audit = _Audit()
    resources = _Provisioned()
    run_error: BefaasError | None = None
    load_result: LoadRunResult | None = None
    events: list[dict] = []
    rejects: list[str] = []
    incomplete = False
    started_us = now_us()

    try:
        # Phase 1: provision platforms and managed external services.
        resolved = json.loads(json.dumps(config))  # deep copy
        for index, (pid, entry) in enumerate(config.get("platforms", {}).items()):
            if "admin_endpoint" in entry:
                client = AdminClient(entry["admin_endpoint"])
                client.ping()
                audit.add("provision", "attach_platform", pid)
            else:
                platform = SimPlatform(
                    pid,
                    profile_from_config(entry["profile"]),
                    port=int(entry.get("port", 0)),
                    seed=seed + index,
                )
                platform.start()
                resources.local_platforms[pid] = platform
                client = AdminClient(platform.base_url)
                resolved["platforms"][pid] = dict(entry, port=platform._port)
                audit.add("provision", "start_platform", pid, detail=platform.base_url)
            resources.clients[pid] = client

        for service, value in (config.get("external_services") or {}).items():
            managed = value == "managed" or (isinstance(value, dict) and value.get("managed"))
            if managed:
                delay = float(value.get("query_delay_ms", 0)) if isinstance(value, dict) else 0.0
                kv = KVService(query_delay_ms=delay)
                endpoint = kv.start()
                resources.services[service] = kv
                resolved["external_services"][service] = endpoint
                audit.add("provision", "start_service", service, detail=endpoint)
            else:
                audit.add("provision", "link_service", service)

        # Phase 2: compile and deploy.
        artifacts = compile_deployment(app, resolved)
        audit.add("compile", "compile", detail=f"{len(artifacts)} artifacts")
        for artifact in artifacts:
            client = resources.clients[artifact.platform_id]
            endpoint = client.deploy(artifact.to_doc())
            resources.deployed.setdefault(artifact.platform_id, []).append(artifact.fn)
            audit.add("deploy", "deploy_function", artifact.fn, detail=endpoint)

        # Phases 3 and 4: initialize the load generator and run the profile.
        frontend_endpoint = artifacts[0].endpoint_map[app.entrypoint]
        audit.add("load", "start_profile", profile.name, detail=frontend_endpoint)
        load_result = loadgen.run_profile(profile, workflows, frontend_endpoint, seed=seed)
        audit.add("load", "finish_profile", profile.name, detail=f"{load_result.scheduled} workflows")

        # Phase 5: collect logs from every platform.
        events, rejects, collect_errors = collect_logs(resources.clients, resources.deployed)
        for pid, message in collect_errors.items():
            incomplete = True
            audit.add("collect", "fetch_logs", pid, status="error", detail=message)
        audit.add("collect", "collected", detail=f"{len(events)} events, {len(rejects)} rejects")

    except ValidationFailure:
        _teardown(resources, audit)
        raise
    except BefaasError as exc:
        run_error = exc
        audit.add("run", "failed", status="error", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - orchestration boundary
        run_error = RuntimeFailure(f"{type(exc).__name__}: {exc}")
        audit.add("run", "failed", status="error", detail=str(exc))

    # Phase 6: write the bundle (also on failure, with what was captured).
    bundle = _write_bundle(
        plan, started_us, seed, profile, load_result, events, rejects, audit,
        incomplete=incomplete or run_error is not None,
    )

    # Phase 7: destroy all provisioned resources.
    leftovers = _teardown(resources, audit)
    _rewrite_audit(bundle, audit)
    if leftovers:
        raise TeardownIncomplete(f"{len(leftovers)} resources left: {leftovers}", leftovers)
    if run_error is not None:
        raise RuntimeFailure(str(run_error), bundle_dir=bundle.out_dir) from run_error
    return bundle


def collect_logs(
    clients: dict[str, AdminClient], deployed: dict[str, list[str]]
) -> tuple[list[dict], list[str], dict[str, str]]:
    """Fetch and parse logs from every platform.

    Every raw line is parsed as a log event; lines that fail to parse are
    preserved verbatim in the reject list. An unreachable platform is
    recorded as an error while the remaining platforms still deliver.
    Events missing a platform annotation get the collecting platform's id.
    """
    events: list[dict] = []
    rejects: list[str] = []
    errors: dict[str, str] = {}
    for pid, fns in deployed.items():
        client = clients.get(pid)
        if client is None:
            errors[pid] = "no admin client"
            continue
        try:
            for fn in fns:
                for line in client.logs(fn):
                    try:
                        doc = parse_event_line(line)
                    except (ValueError, json.JSONDecodeError):
                        rejects.append(line)
                        continue
                    doc.setdefault("platform", pid)
                    events.append(doc)
        except (TransportError, BefaasError) as exc:
            errors[pid] = str(exc)
    return events, rejects, errors


def _write_bundle(
    plan: ExperimentPlan,
    started_us: int,
    seed: int,
    profile: loadgen.LoadProfile,
    load_result: LoadRunResult | None,
    events: list[dict],
    rejects: list[str],
    audit: _Audit,
    incomplete: bool,
) -> ResultsBundle:
    out_dir = plan.out_dir
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "config.json"), "wb") as fh:
        fh.write(plan.snapshot_bytes())

    records = [r.to_doc() for r in load_result.records] if load_result else []
    with open(os.path.join(out_dir, "client_records.ndjson"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    with open(os.path.join(out_dir, "events.ndjson"), "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")

    with open(os.path.join(out_dir, "rejects.log"), "w", encoding="utf-8") as fh:
        for line in rejects:
            fh.write(line + "\n")

    audit_doc = {
        "started_us": started_us,
        "finished_us": now_us(),
        "seed": seed,
        "profile": profile.name,
        "scheduled_workflows": load_result.scheduled if load_result else 0,
        "launch_lags_ms": load_result.launch_lags_ms if load_result else [],
        "workflow_sequence": load_result.workflow_sequence if load_result else [],
        "incomplete": incomplete,
        "trail": audit.entries,
    }
    with open(os.path.join(out_dir, "audit.json"), "w", encoding="utf-8") as fh:
        json.dump(audit_doc, fh, indent=2)

    return ResultsBundle(
        out_dir=out_dir,
        client_records=records,
        events=events,
        rejects=rejects,
        audit=audit_doc,
        incomplete=incomplete,
    )


def _rewrite_audit(bundle: ResultsBundle, audit: _Audit) -> None:
    """Refresh the audit file after teardown so the trail is complete."""
    bundle.audit["trail"] = audit.entries
    bundle.audit["finished_us"] = now_us()
    with open(os.path.join(bundle.out_dir, "audit.json"), "w", encoding="utf-8") as fh:
        json.dump(bundle.audit, fh, indent=2)


def _teardown(resources: _Provisioned, audit: _Audit) -> list[str]:
    """Remove every deployment and stop everything we started. Idempotent."""
    leftovers: list[str] = []

    for pid, fns in list(resources.deployed.items()):
        client = resources.clients.get(pid)
        remaining: list[str] = []
        for fn in fns:
            try:
                client.remove(fn)
                audit.add("teardown", "remove_function", f"{pid}/{fn}")
            except TransportError as exc:
                remaining.append(fn)
                leftovers.append(f"{pid}/{fn}")
                audit.add("teardown", "remove_function", f"{pid}/{fn}", "error", str(exc))
            except BefaasError:
                # Already gone (e.g. second teardown) counts as removed.
                audit.add("teardown", "remove_function", f"{pid}/{fn}", "ok", "already absent")
        if remaining:
            resources.deployed[pid] = remaining
        else:
            resources.deployed.pop(pid, None)

    for pid, platform in list(resources.local_platforms.items()):
        try:
            platform.teardown()
            platform.stop()
            audit.add("teardown", "stop_platform", pid)
        except Exception as exc:  # noqa: BLE001
            leftovers.append(f"platform:{pid}")
            audit.add("teardown", "stop_platform", pid, "error", str(exc))
        else:
            resources.local_platforms.pop(pid, None)

    for name, service in list(resources.services.items()):
        try:
            service.stop()
            audit.add("teardown", "stop_service", name)
        except Exception as exc:  # noqa: BLE001
            leftovers.append(f"service:{name}")
            audit.add("teardown", "stop_service", name, "error", str(exc))
        else:
            resources.services.pop(name, None)

    return leftovers
