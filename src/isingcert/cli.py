"""Command-line driver: validate a run configuration, execute it, and write
canonical reports.

Exit codes: 0 success, 2 configuration error, 3 budget overrun, 4 promise
violation detected by the exact oracle.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .constants import constants_ledger
from .errors import BudgetExceededError, ConfigError, PromiseViolationError
from .reports import check_out_dir, default_out_dir, write_report
from .tasks import run_task, validate_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_PROMISE = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="isingcert",
        description="Certification and learning runs for local Hamiltonians "
                    "and their Gibbs states.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--out", help="output directory (default $ISINGCERT_OUT or ./out)")
    parser.add_argument("--profile", choices=["strict", "calibrated"],
                        help="certification profile override (certify-dynamics)")
    parser.add_argument("--constants", action="store_true",
                        help="print the shipped-constants ledger and exit")
    return parser


def print_constants() -> None:
    rows = constants_ledger()
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  {r['value']!r:>24}  {r['formula']}  [{r['provenance']}]")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.constants:
        print_constants()
        return EXIT_OK
    if not args.config:
        parser.error("--config is required unless --constants is given")
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an int past the digit limit,
        # and nesting past the recursion limit
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(raw, dict):
        # overrides go through the same validation as the file's values
        for key in ("seed", "trials", "out"):
            val = getattr(args, key)
            if val is not None:
                raw[key] = val
        params = raw.setdefault("params", {})
        if args.profile is not None and isinstance(params, dict):
            params["profile"] = args.profile
    try:
        config = validate_config(raw)
        out_dir = Path(config.get("out") or default_out_dir())
        check_out_dir(out_dir)   # before any trial runs
        payload, tables = run_task(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as exc:
        print(f"budget overrun: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PromiseViolationError as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return EXIT_PROMISE
    name = config["task"]
    arm = payload["resolved_config"]["params"].get("arm")   # the default arm when not given
    if arm:
        name = f"{name}_{arm}"
    path = write_report(out_dir, name, payload, tables)
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
