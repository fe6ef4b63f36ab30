"""Command-line experiment runner.

    gpcbf run <config.yaml>          closed-loop benchmark, three arms
    gpcbf validate <suite> [--seed]  property suites, JSON report
    gpcbf print-defaults [--plant]   editable default configuration

The output directory from the config can be overridden with the
GPCBF_OUTPUT_DIR environment variable.
"""

import argparse
import json
import logging
import os
import sys

from . import config as config_mod
from .errors import ConfigError, GpcbfError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _cmd_run(args) -> int:
    try:
        cfg = config_mod.load(args.config)
    except (ConfigError, OSError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = os.environ.get("GPCBF_OUTPUT_DIR") or cfg.output.dir
    from .experiment import run_benchmark

    # The run's progress lines go to stdout as bare messages.
    logger = logging.getLogger("gpcbf")
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        run_benchmark(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GpcbfError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import validate as validate_mod

    try:
        reports = validate_mod.run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(reports, indent=2, default=float))
    return EXIT_OK if all(r["passed"] for r in reports) else EXIT_RUNTIME


def _cmd_print_defaults(args) -> int:
    try:
        cfg = config_mod.defaults(args.plant)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(config_mod.dump(cfg), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcbf",
        description="Gaussian-process uncertainty-aware HOCBF safety filter benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark from a config file")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="run a property suite")
    p_val.add_argument("suite", help="a suite name, or all")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)

    p_def = sub.add_parser("print-defaults", help="print a default config as YAML")
    p_def.add_argument("--plant", default="acc", choices=list(config_mod.PLANT_SECTIONS))
    p_def.set_defaults(func=_cmd_print_defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
