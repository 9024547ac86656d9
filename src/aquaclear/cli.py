"""Command line front end.

    aquaclear <command> --config <path> [--input <dir>] [--output <dir>]
                        [--seed <u64>] [--method <name>] [--verbose]

Commands: classify, enhance, evaluate, split, augment, report. --verbose
adds per-step traces to enhance's log and affects no other command.
Exit codes: 0 success, 2 empty input, no image succeeded, or parse failure,
3 missing weights, 4 bad parameters.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AquaClearError, ConfigError, CsvParseError
from .pipeline import (
    EXIT_BAD_PARAMS,
    EXIT_EMPTY,
    PipelineConfig,
    cmd_augment,
    cmd_classify,
    cmd_enhance,
    cmd_evaluate,
    cmd_report,
    cmd_split,
)

COMMANDS = ("classify", "enhance", "evaluate", "split", "augment", "report")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquaclear",
        description="Batch underwater image enhancement toolkit.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--input", default=".", help="input directory")
    parser.add_argument("--output", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--method", default=None,
                        help="enhancement method: classic|vgg|resnet|unite")
    parser.add_argument("--verbose", action="store_true",
                        help="add per-step traces to enhance_log.jsonl")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("seed must be non-negative", file=sys.stderr)
        return EXIT_BAD_PARAMS
    try:
        config = PipelineConfig.load(args.config)
    except CsvParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    try:
        if args.command == "classify":
            return cmd_classify(args.input, config, args.output)
        if args.command == "enhance":
            return cmd_enhance(
                args.input, config, args.output, args.method, args.seed, args.verbose
            )
        if args.command == "evaluate":
            return cmd_evaluate(args.input, config, None, args.output)
        if args.command == "split":
            return cmd_split(args.input, config, args.output, args.seed)
        if args.command == "augment":
            return cmd_augment(args.input, config, args.output, args.seed)
        return cmd_report(args.input, config, args.output)
    except CsvParseError as exc:
        print(f"parse failure at line {exc.line}: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except ConfigError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except AquaClearError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
