"""End-to-end experiment orchestration.

One experiment runs through fixed phases: check the whole config,
provision managed external services and platforms, compile and deploy
every artifact, drive the load profile, collect logs, undo every
provisioning step, and write the results bundle (laid out by
:mod:`befaas.bundle`). A bad config fails the check before anything is
started.

The platform contract is per function (deploy, fetch logs, remove), as
real providers' admin APIs are. Each phase fans out its admin calls
through :func:`befaas.httpjson.fan_out` and reads the answers in call
order, so the audit trail and the events do not depend on which call
finished first. Each provisioning step pushes its undo as a group onto
one stack: a started service or platform is a group of one, the deploy
phase's group removes every deployed function. The stack is unwound
newest first, also after a failed phase. The bundle is written once,
after the undo, so its trail is complete and a failed write leaves
nothing running.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable

from . import httpjson, loadgen, registry
from .bundle import ResultsBundle, parse_event_line
from .clock import now_us
from .compiler import Application, compile_deployment, read_service, validate
from .errors import (
    BefaasError,
    RuntimeFailure,
    TeardownIncomplete,
    TransportError,
    ValidationFailure,
)
from .loadgen import LoadRunResult, WorkflowSpec
from .simplatform import AdminClient, KVService, PlatformProfile, SimPlatform, profile_from_config


@dataclass
class ExperimentPlan:
    """Inputs of one benchmark run."""

    config: dict
    out_dir: str
    profile: object | None = None  # name or inline doc; overrides the config
    seed: int | None = None
    config_bytes: bytes | None = None

    def snapshot_bytes(self) -> bytes:
        if self.config_bytes is not None:
            return self.config_bytes
        return (json.dumps(self.config, indent=2, sort_keys=True) + "\n").encode()


# One provisioning step's undo: (action, target, step).
_UndoStep = tuple[str, str, Callable[[], object]]


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

    Raises ValidationFailure before anything is provisioned, RuntimeFailure
    when a later phase failed (collect, undo and bundle still done, the
    bundle holding the records of the workflows that finished), and
    TeardownIncomplete when resources could not be destroyed. Every
    artifact's deploy is attempted; the first failure in artifact order is
    the run's error.
    """
    config = plan.config
    app, profile, workflows, platform_profiles, seed = _check(plan)

    audit = _Audit()
    undo: list[list[_UndoStep]] = []  # groups, newest last
    clients: dict[str, AdminClient] = {}
    deployed: dict[str, list[str]] = {}  # platform -> fns
    run_error: Exception | None = None
    load_result = LoadRunResult(records=[], workflow_sequence=[], launch_lags_ms=[], scheduled=0)
    events: list[dict] = []
    rejects: list[str] = []
    incomplete = False
    started_us = now_us()

    try:
        try:
            # Provision managed external services, then platforms; a started
            # platform enters the resolved config as an attached one.
            resolved = dict(config, platforms=dict(config["platforms"]),
                            external_services=dict(config.get("external_services") or {}))
            for service, value in resolved["external_services"].items():
                target = read_service(value)
                if isinstance(target, str):
                    audit.add("provision", "link_service", service)
                    continue
                kv = KVService(query_delay_ms=target)
                kv.start()
                undo.append([("stop_service", service, kv.stop)])
                resolved["external_services"][service] = kv.endpoint
                audit.add("provision", "start_service", service, detail=kv.endpoint)

            for index, (pid, entry) in enumerate(config["platforms"].items()):
                if "admin_endpoint" in entry:
                    client = AdminClient(entry["admin_endpoint"])
                    httpjson.fan_out([client.ping])[0].result()
                    audit.add("provision", "attach_platform", pid)
                else:
                    platform = SimPlatform(pid, platform_profiles[pid],
                                           port=entry.get("port", 0), seed=seed + index)
                    platform.start()
                    undo.append([("stop_platform", pid, platform.stop)])
                    client = AdminClient(platform.base_url)
                    resolved["platforms"][pid] = {"admin_endpoint": platform.base_url}
                    audit.add("provision", "start_platform", pid, detail=platform.base_url)
                clients[pid] = client

            # Compile and deploy.
            artifacts = compile_deployment(app, resolved)
            audit.add("compile", "compile", detail=f"{len(artifacts)} artifacts")
            futures = httpjson.fan_out([
                functools.partial(clients[a.platform_id].deploy, a.to_doc()) for a in artifacts])
            removals: list[_UndoStep] = []
            undo.append(removals)
            for artifact, future in zip(artifacts, futures):
                pid, fn = artifact.platform_id, artifact.fn
                if future.exception() is None:
                    removals.append(("remove_function", f"{pid}/{fn}",
                                     functools.partial(clients[pid].remove, fn)))
                    deployed.setdefault(pid, []).append(fn)
                    audit.add("deploy", "deploy_function", fn, detail=future.result())
            for future in futures:
                future.result()  # raise the first failure in artifact order

            # Run the load profile against the frontend.
            frontend_endpoint = artifacts[0].endpoint_map[app.entrypoint]
            audit.add("load", "start_profile", profile.name, detail=frontend_endpoint)
            load_result = loadgen.run_profile(profile, workflows, frontend_endpoint, seed=seed)
            audit.add("load", "finish_profile", profile.name,
                      detail=f"{load_result.scheduled} workflows")

        except Exception as exc:  # noqa: BLE001 - orchestration boundary
            audit.add("run", "failed", status="error", detail=str(exc))
            run_error = exc
            load_result = getattr(exc, "load_result", load_result)

        # Collect logs from every platform that has deployments, also after
        # a failed phase, so that a partial bundle keeps what ran.
        events, rejects, collect_errors = collect_logs(clients, deployed)
        for pid, message in collect_errors.items():
            incomplete = True
            audit.add("collect", "fetch_logs", pid, status="error", detail=message)
        audit.add("collect", "collected", detail=f"{len(events)} events, {len(rejects)} rejects")

    except Exception as exc:  # noqa: BLE001 - orchestration boundary
        audit.add("collect", "failed", status="error", detail=str(exc))
        run_error = run_error or exc
    finally:  # an interrupt, too, leaves nothing deployed
        leftovers = _teardown(undo, audit)

    # Write the bundle once, after the undo, so that its trail is complete
    # (also on failure, with what was captured).
    incomplete = incomplete or run_error is not None
    bundle = ResultsBundle(
        out_dir=plan.out_dir,
        client_records=[r.to_doc() for r in load_result.records],
        events=events,
        rejects=rejects,
        audit={
            "started_us": started_us,
            "finished_us": now_us(),
            "seed": seed,
            "profile": profile.name,
            "scheduled_workflows": load_result.scheduled,
            "launch_lags_ms": load_result.launch_lags_ms,
            "workflow_sequence": load_result.workflow_sequence,
            "incomplete": incomplete,
            "trail": audit.entries,
        },
        incomplete=incomplete,
    )
    bundle.write(plan.snapshot_bytes())
    if leftovers:
        raise TeardownIncomplete(f"{len(leftovers)} resources left: {leftovers}", leftovers)
    if run_error is not None:
        message = str(run_error) if isinstance(run_error, BefaasError) else (
            f"{type(run_error).__name__}: {run_error}")
        raise RuntimeFailure(message, bundle_dir=bundle.out_dir) from run_error
    return bundle


def _check(plan: ExperimentPlan) -> tuple[
    Application, loadgen.LoadProfile, tuple[WorkflowSpec, ...], dict[str, PlatformProfile], int
]:
    """Resolve the app, the load profile, the workflows, the profile of
    every managed platform and the seed; raise one ValidationFailure
    listing every problem, so that a bad config never reaches provisioning."""
    config = plan.config
    violations: list[str] = []

    def resolve(what: str, make: Callable[[], object]):
        try:
            return make()
        except ValidationFailure as exc:
            violations.extend(f"{what}: {violation}" for violation in exc.violations)
        except (BefaasError, LookupError, TypeError, ValueError) as exc:
            violations.append(f"{what}: {exc}")
        return None

    app = resolve("app", lambda: registry.get_app(config.get("app", "webshop")))
    violations += validate(app.function_names if app else None, config)
    profile_entry = plan.profile if plan.profile is not None else config.get("load_profile")
    profile = resolve("load profile", lambda: loadgen.profile_from_config(profile_entry))
    workflows = resolve("workflows", lambda: loadgen.workflows_from_config(config.get("workflows")))
    platforms = config.get("platforms")
    platform_profiles = {
        pid: resolve(f"platform {pid}", lambda entry=entry: profile_from_config(entry["profile"]))
        for pid, entry in (platforms.items() if isinstance(platforms, dict) else ())
        if isinstance(entry, dict) and "profile" in entry and "admin_endpoint" not in entry
    }
    seed = config.get("seed", 0) if plan.seed is None else plan.seed
    if type(seed) is not int:
        violations.append(f"seed: must be an integer, not {seed!r}")
    if violations:
        raise ValidationFailure(violations)
    return app, profile, workflows, platform_profiles, seed


def collect_logs(
    clients: dict[str, AdminClient], deployed: dict[str, list[str]]
) -> tuple[list[dict], list[str], dict[str, str]]:
    """Fetch and parse logs from every platform.

    One fetch per (platform, function) pair, all issued concurrently; the
    answers are parsed in platform and function order. Every raw line is
    parsed as a log event; lines that fail to parse are preserved verbatim
    in the reject list. A platform with a failed fetch is recorded under
    its id, with the first failure in function order, while the functions
    that answered still deliver. Events missing a platform annotation get
    the collecting platform's id.
    """
    pairs = [(pid, fn) for pid, fns in deployed.items() for fn in fns]
    futures = httpjson.fan_out([functools.partial(clients[pid].logs, fn) for pid, fn in pairs])
    events: list[dict] = []
    rejects: list[str] = []
    errors: dict[str, str] = {}
    for (pid, _), future in zip(pairs, futures):
        exc = future.exception()
        if exc is not None:
            if not isinstance(exc, BefaasError):
                raise exc
            errors.setdefault(pid, str(exc))
            continue
        for line in future.result():
            try:
                doc = parse_event_line(line)
            except (ValueError, json.JSONDecodeError):
                rejects.append(line)
                continue
            doc.setdefault("platform", pid)
            events.append(doc)
    return events, rejects, errors


def _teardown(undo: list[list[_UndoStep]], audit: _Audit) -> list[str]:
    """Undo the provisioning groups newest first; return what is left.

    A group's steps run concurrently and are audited one by one, newest
    first. Every step gets its turn. An admin error other than a transport
    failure means the target is already gone, which counts as undone.
    Popping makes a second call a no-op.
    """
    leftovers: list[str] = []
    while undo:
        group = undo.pop()
        futures = httpjson.fan_out([step for _, _, step in group])
        for (action, target, _), future in reversed(list(zip(group, futures))):
            exc = future.exception()
            if exc is None:
                audit.add("teardown", action, target)
            elif isinstance(exc, BefaasError) and not isinstance(exc, TransportError):
                audit.add("teardown", action, target, detail="already absent")
            else:
                leftovers.append(f"{action} {target}")
                audit.add("teardown", action, target, "error", str(exc))
    return leftovers
