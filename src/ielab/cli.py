"""Command-line interface.

Subcommands: run-det | run-prob | verify | params, each taking --config,
--out and --override; only run-det and run-prob take --seed and --seeds,
only verify --suite. A config field the command does not read
is a config error. Exit codes: 0 ok, 1 infrastructure/config error, 2
assumption violated or usage error, 3 verification assertion failed.
IE_SEED supplies the master seed when no --seed / --seeds / config seeds
are given.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AssumptionViolated, ConfigError, IELabError, VerificationFailure
from .harness import (
    _SUITES,
    cmd_params,
    cmd_run_det,
    cmd_run_prob,
    cmd_verify,
    load_config,
)

_COMMANDS = {
    "run-det": cmd_run_det,
    "run-prob": cmd_run_prob,
    "verify": cmd_verify,
    "params": cmd_params,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ielab",
        description="Incentivized-exploration simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="artifact output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="K=V", help="dotted config override, repeatable")
        if name.startswith("run-"):
            p.add_argument("--seed", type=int, help="single master seed")
            p.add_argument("--seeds", help="seed range a..b (inclusive)")
        if name == "verify":
            p.add_argument("--suite", help="default: the config's suite, else all",
                           choices=["all", *_SUITES])
    return parser


def _seeds_from_args(args) -> object | None:
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("--seed and --seeds are mutually exclusive")
    if args.seed is not None:
        return [args.seed]
    if args.seeds is not None:
        try:
            a, _, b = args.seeds.partition("..")
            return {"range": [int(a), int(b)]}
        except ValueError as e:
            raise ConfigError(f"bad --seeds range {args.seeds!r}") from e
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    func = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, args.override)
        if "seeds" in args:  # the run commands
            seeds = _seeds_from_args(args)
            if seeds is not None:
                cfg.raw["seeds"] = seeds
        if args.out:
            cfg.raw["out"] = args.out
        if getattr(args, "suite", None):
            cfg.raw["suite"] = args.suite
        cfg.check_fields(args.command)
        return func(cfg)
    except VerificationFailure as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 3
    except AssumptionViolated as e:
        print(f"assumption violated: {e}", file=sys.stderr)
        return 2
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except IELabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
