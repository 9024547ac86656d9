"""The benchmark's workloads: corpus shape, pipeline threads, BLAS threads
and the CLI commands one pass runs, in order.

This module imports only the standard library, so run.py can read a
workload's BLAS thread count and set it before numpy is first imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The workload seed picks one of this many corpus variants (seed modulo the
# count); every variant has golden hashes in goldens/<workload>.json.
CORPUS_VARIANTS = 8

# pipeline threads x BLAS threads never exceeds this core count.
TARGET_CORES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    images: int
    size: int
    threads: int
    method: str | None  # enhance method; None runs the survey stages
    why: str

    @property
    def blas_threads(self) -> int:
        return max(1, TARGET_CORES // self.threads)

    @property
    def commands(self) -> tuple:
        if self.method is None:
            return ("split", "augment", "classify", "evaluate", "report")
        return ("classify", "enhance", "evaluate", "report")

    def config(self, variant: int, corpus: Path, threads: int) -> dict:
        """The JSON config every CLI call of a pass loads."""
        doc = {"seed": variant, "threads": threads}
        if self.method is not None:
            doc["reference_dir"] = str(corpus)
        return doc

    def argv(self, command: str, config: Path, corpus: Path, out: Path) -> list:
        """CLI arguments for one stage; stages read what earlier ones wrote."""
        common = ["--config", str(config)]
        if command == "report":
            return [command, *common, "--input", str(out), "--output", str(out)]
        if command == "augment":
            return [command, *common, "--input", str(corpus),
                    "--output", str(out / "augment")]
        if command == "enhance":
            return [command, *common, "--method", self.method,
                    "--input", str(corpus), "--output", str(out / "enhanced")]
        if command == "evaluate" and self.method is not None:
            return [command, *common, "--input", str(out / "enhanced"),
                    "--output", str(out)]
        return [command, *common, "--input", str(corpus), "--output", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey", images=64, size=256, threads=1, method=None,
            why="split, augment, classify, evaluate and report on 64 mixed "
                "256px images: PPM I/O, colour conversion, detectors and "
                "metrics; no NLM and no conv run",
        ),
        Workload(
            "classic", images=8, size=256, threads=2, method="classic",
            why="classify, classic enhance, evaluate against the corpus and "
                "report on 8 256px images at 2 pipeline threads: NLM-bound, "
                "the only user of the thread pool",
        ),
        Workload(
            "unite", images=8, size=128, threads=1, method="unite",
            why="the same four stages with the unite method on 8 128px "
                "images: conv-bound, the only workload that runs the CNN "
                "heads",
        ),
    )
}
