"""Command-line entry point.

Subcommands: sweep-lambda, sweep-alpha, sweep-aspect, bias-variance,
validate, mnist. Exit codes: 0 success, else the exit code of the error's
family (see errors.py): 2 config, 3 data (and any OSError or MemoryError),
4 numerical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import AugridgeError, ConfigError, DataError
from .harness import ExperimentConfig, mnist_pipeline, run_sweep, validate

_COMMANDS = (
    "sweep-lambda", "sweep-alpha", "sweep-aspect",
    "bias-variance", "validate", "mnist",
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="augridge",
        description="Augmented ridge regression experiments with "
                    "deterministic-equivalent risk prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, metavar="<path>",
                       help="JSON experiment config")
        p.add_argument("--out", dest="out_dir", metavar="<dir>",
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, metavar="<u64>",
                       help="master seed (overrides config)")
        p.add_argument("--workers", type=int, metavar="<int>",
                       help="worker processes (overrides config)")
    return parser


def _dispatch(command, config):
    if command == "validate":
        report = validate(config)
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, "validate.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(json.dumps(report, indent=2))
    elif command == "mnist":
        mnist_pipeline(config, csv_name="mnist.csv")
    else:  # the sweeps, each writing <command>.csv
        if command == "bias-variance" and config.replicates < 10:
            raise ConfigError("bias-variance estimation needs replicates "
                              f">= 10 (got {config.replicates})")
        run_sweep(config, csv_name=command.replace("-", "_") + ".csv")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k in ("out_dir", "seed", "workers") and v is not None}
    try:
        _dispatch(args.command,
                  ExperimentConfig.from_json(args.config, **overrides))
    except AugridgeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:
        print(f"{DataError.label}: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return DataError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
