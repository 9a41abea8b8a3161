"""Command-line entry point.

Subcommands: sweep-lambda, sweep-alpha, sweep-aspect, bias-variance,
validate, mnist. Exit codes: 0 success, 2 config error, 3 data/format
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .datasets import FormatError
from .detequiv import NotConvergedError
from .harness import (
    ConfigError,
    ExperimentConfig,
    mnist_pipeline,
    run_sweep,
    validate,
)
from .features import InvalidDimensionError
from .moments import EmptyInputError, InsufficientSamplesError
from .ridge import NumericalFailureError

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
        p.add_argument("--out", metavar="<dir>", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, metavar="<u64>",
                       help="master seed (overrides config)")
        p.add_argument("--workers", type=int, default=None, metavar="<int>",
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
        run_sweep(config, bias_variance=command == "bias-variance",
                  csv_name=command.replace("-", "_") + ".csv")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_json(args.config)
        if args.out is not None:
            config.out_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a nonnegative integer")
            config.seed = args.seed
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("--workers must be >= 1")
            config.workers = args.workers
        _dispatch(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, InvalidDimensionError, InsufficientSamplesError,
            EmptyInputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailureError, NotConvergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
