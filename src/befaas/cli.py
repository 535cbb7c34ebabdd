"""Command-line interface.

    befaas compile --config <file> --out <dir>
    befaas run     --config <file> [--profile <name>] [--seed <n>] --out <dir>
    befaas analyze --bundle <dir> --out <dir>
    befaas report  --bundle <dir>

Exit codes: 0 success, 1 validation error, 2 runtime failure (teardown
done, bundle marked incomplete) or a file that cannot be read or written,
3 teardown incomplete.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import analyzer, registry
from .bundle import ResultsBundle
from .compiler import compile_deployment, load_config, write_artifacts
from .errors import ConfigurationError, RuntimeFailure, TeardownIncomplete, ValidationFailure

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_TEARDOWN = 3


def _cmd_compile(args) -> int:
    config, _ = load_config(args.config)
    app = registry.get_app(config.get("app", "webshop"))
    artifacts = compile_deployment(app, config)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "artifacts.json")
    write_artifacts(artifacts, out_path)
    print(f"compiled {len(artifacts)} artifacts -> {out_path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config, raw = load_config(args.config)
    from . import manager  # the runtime; analyze and report must not load it

    plan = manager.ExperimentPlan(config, args.out, profile=args.profile, seed=args.seed,
                                  config_bytes=raw)
    bundle = manager.run_experiment(plan)
    print(
        f"run complete: {bundle.audit['scheduled_workflows']} workflows, "
        f"{len(bundle.events)} events -> {bundle.out_dir}"
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    bundle = ResultsBundle.read(args.bundle)
    paths = analyzer.export(analyzer.iter_trees(bundle.events), args.out)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    bundle = ResultsBundle.read(args.bundle)
    sys.stdout.write(analyzer.summarize(analyzer.iter_trees(bundle.events)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="befaas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a config into deployment artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("run", help="run a full experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--profile", default=None, help="load profile preset name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("analyze", help="assemble traces and export CSV reports")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("report", help="print the drill-down summary of a bundle")
    p.add_argument("--bundle", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; map each error it raises to its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationFailure as exc:
        for violation in exc.violations:
            print(f"validation error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TeardownIncomplete as exc:
        print(f"teardown incomplete: {exc}", file=sys.stderr)
        return EXIT_TEARDOWN
    except RuntimeFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        if exc.bundle_dir:
            print(f"partial bundle: {exc.bundle_dir}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
