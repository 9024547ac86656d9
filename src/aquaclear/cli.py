"""Command line front end.

    aquaclear <command> --config <path> [--input <dir>] [--output <dir>]
                        [--method <name>] [--verbose]

Commands: classify, enhance, evaluate, split, augment, report. --input
defaults to the working directory and --output to ``out``. --method
(classic, vgg, resnet or unite; default classic) and --verbose, which adds
per-step traces to enhance's log, affect only enhance. The seed, like every
other setting, comes from the config.
Exit codes: 0 success, 2 empty input, no image succeeded, or parse failure,
3 missing weights, 4 bad parameters or an output that cannot be written.
Each warning raised while a command runs prints as one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import sys
import warnings

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

COMMANDS = {
    "classify": cmd_classify,
    "enhance": cmd_enhance,
    "evaluate": cmd_evaluate,
    "split": cmd_split,
    "augment": cmd_augment,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquaclear",
        description="Batch underwater image enhancement toolkit.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--input", default=".", help="input directory")
    parser.add_argument("--output", default="out", help="output directory")
    parser.add_argument("--method", default="classic",
                        help="enhancement method: classic|vgg|resnet|unite")
    parser.add_argument("--verbose", action="store_true",
                        help="add per-step traces to enhance_log.jsonl")
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = PipelineConfig.load(args.config)
    except CsvParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS

    # Entered once, on this thread; the pipeline's worker threads only warn.
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _warning_line
        extra = (args.method, args.verbose) if args.command == "enhance" else ()
        try:
            return COMMANDS[args.command](args.input, config, args.output, *extra)
        except AquaClearError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
