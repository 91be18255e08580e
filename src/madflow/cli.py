"""Command line front end: run scenarios, list them, run the whole suite.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration error (nothing written), 3 a solver aborted the run.
The `madflow` command (`entry`) silences floating-point warnings: the
guards already turn a non-finite value into exit 2 or 3, with one line
on standard error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import scenarios
from .errors import ConfigError, MadflowError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUN_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madflow",
        description="spectral laboratory for wave mechanics and "
                    "mass-transport geometry on the circle")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its artifacts")
    run_p.add_argument("--config", metavar="PATH",
                       help="JSON scenario description")
    run_p.add_argument("--scenario", metavar="NAME",
                       help="builtin scenario name (see `list`)")
    run_p.add_argument("--out", metavar="DIR",
                       help="output directory (default: config, then "
                            f"${scenarios.OUTPUT_ROOT_ENV}/<name>)")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry by dotted path; value "
                            "parses as JSON (repeatable)")

    sub.add_parser("list", help="list builtin scenarios")

    suite_p = sub.add_parser("suite",
                             help="run every builtin scenario; exit 0 iff all pass")
    suite_p.add_argument("--out", metavar="DIR",
                         help="output root (default "
                              f"${scenarios.OUTPUT_ROOT_ENV} or ./runs)")
    suite_p.add_argument("--jobs", type=int, default=1,
                         help="run scenarios in this many processes, at "
                              "most one per scenario (>= 1)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if bool(args.config) == bool(args.scenario):
        raise ConfigError("pass exactly one of --config PATH or --scenario NAME")
    if args.config:
        mapping = scenarios.load_mapping(args.config)
    else:
        mapping = scenarios.builtin_mapping(args.scenario)
    mapping = scenarios.apply_overrides(mapping, args.override)
    config = scenarios.ScenarioConfig.from_mapping(mapping)
    outcome = scenarios.run_scenario(config, args.out)
    for check in outcome.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{verdict}  {check.name}: residual {check.residual:.3e} "
              f"(tolerance {check.tolerance:g})")
    print(f"{config.name}: {'PASS' if outcome.passed else 'FAIL'} "
          f"-> {outcome.output_dir}")
    return EXIT_OK if outcome.passed else EXIT_CHECK_FAILED


def _cmd_list() -> int:
    for name in scenarios.builtin_names():
        print(f"{name:26s} {scenarios.SCENARIO_DESCRIPTIONS[name]}")
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    results = scenarios.run_suite(args.out, jobs=args.jobs)
    all_passed = True
    for name, (passed, failed) in results.items():
        if passed:
            print(f"PASS  {name}")
        else:
            all_passed = False
            print(f"FAIL  {name}: {', '.join(failed)}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_suite(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MadflowError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_ERROR


def entry() -> int:
    """The `madflow` command: `main` with numpy's floating-point warnings
    silenced, so an error leaves one line on standard error."""
    with np.errstate(all="ignore"):
        return main()


if __name__ == "__main__":
    sys.exit(entry())
