"""aquaclear benchmark: drives the CLI stage by stage on synthetic corpora.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke                  # fast harness self-check
    python3 perfbench/run.py --record-goldens classic # rewrite golden hashes

Workloads are in workloads.py. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of spans.py; either way the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Every output file is checked against goldens/<workload>.json;
an image whose output differs counts as failed, and a changed input corpus
is an error (exit 3). Without aquaclear source under src/ it exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import CORPUS_VARIANTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a tiny corpus and check the harness")
    parser.add_argument("--record-goldens", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                        help="write goldens/<WORKLOAD>.json from one-thread passes")
    args = parser.parse_args(argv)
    if not (args.smoke or args.record_goldens or args.workload):
        parser.error("one of --workload, --smoke or --record-goldens is required")
    return args


def _set_blas_threads(n: int) -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _import_program() -> None:
    """Put this checkout's src/ first on the path and import aquaclear from it."""
    if not (SRC / "aquaclear" / "__init__.py").is_file():
        raise SystemExit(f"error: no aquaclear package under {SRC}")
    sys.path.insert(0, str(SRC))
    import aquaclear

    if SRC.resolve() not in Path(aquaclear.__file__).resolve().parents:
        raise SystemExit(f"error: aquaclear imported from {aquaclear.__file__}, not {SRC}")


def _result(correct: bool, attempted: int, failed: int, values: dict, units) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _bench_run(args, work: Path) -> int:
    import harness
    import spans

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            out = SPANS_DIR / f"{workload.name}-seed{args.seed}.jsonl"
            values, attempted, failed, info = harness.traced(
                workload, args.seed, args.seconds, work, spans_out=out)
            units = spans.PER_LAYER
        else:
            values, attempted, failed, info = harness.measure(
                workload, args.seed, args.seconds, work, SRC)
            units = harness.E2E
    except harness.CorpusChanged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    problems = info.pop("problems", [])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"threads={workload.threads} {json.dumps(info)}")
    print(f"# environment {json.dumps(harness.environment())}")
    for name, unit in units:
        print(f"#   {name:<30} {values[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"#   {'failed_frac':<30} {info['failed_frac']:>16.6g} ratio")
    print(_result(failed == 0 and not problems, attempted, failed, values, units))
    return 0


def _record(args, work: Path) -> int:
    import harness

    path = harness.record(WORKLOADS[args.record_goldens], range(CORPUS_VARIANTS), work)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    threads = 1 if (args.smoke or args.record_goldens) else WORKLOADS[args.workload].blas_threads
    _set_blas_threads(threads)
    _import_program()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.smoke:
            import smoke

            return smoke.run(work, ROOT / "BENCHMARK.json", SRC)
        if args.record_goldens:
            return _record(args, work)
        return _bench_run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
