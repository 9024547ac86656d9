"""Closed-loop passes over a workload: build the corpus, run the CLI once per
stage, check every output against its golden hash, and measure.

One client, one process: each ``aquaclear.cli.main(argv)`` call starts when
the previous one has returned. A pass runs all of a workload's stages on a
fresh output directory; a run repeats passes for the requested seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import goldens
import spans
from aquaclear import cli, synth
from aquaclear.classify import RANK_ORDER
from workloads import CORPUS_VARIANTS, Workload

HERE = Path(__file__).resolve().parent
# End-to-end metrics of an untraced run, with their units.
E2E = (
    ("images_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
# An import takes ~0.15 s and single probes vary by +-25% on a shared host,
# so setup_s is the median of many fresh interpreters.
SETUP_PROBES = 15
WARMUP_SIZE = 32


class CorpusChanged(RuntimeError):
    """The generated input corpus differs from its golden digest."""


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    failed: set
    layers: dict = field(default_factory=dict)
    roots: list = field(default_factory=list)


class Bench:
    """One workload at one seed, laid out in a work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 size: int | None = None, threads: int | None = None):
        self.workload = workload
        self.variant = seed % CORPUS_VARIANTS
        self.size = size or workload.size
        self.threads = threads or workload.threads
        self.work = work
        self.corpus = work / "corpus"
        self.out = work / "out"
        self.config = work / "config.json"
        paths = synth.write_corpus(self.corpus, count=workload.images,
                                   seed=self.variant, size=self.size)
        self.images = [p.stem for p in paths]
        self.config.write_text(json.dumps(
            workload.config(self.variant, self.corpus, self.threads)))

    def corpus_digest(self) -> str:
        return goldens.tree_digest(goldens.file_hashes(self.corpus))

    def run_pass(self, golden: dict | None, tracer=None) -> PassResult:
        """All stages once; ``golden`` None skips the output check."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        wl = self.workload
        codes = []
        sink = io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            for command in wl.commands:
                argv = wl.argv(command, self.config, self.corpus, self.out)
                with tracer.command(command) if tracer else contextlib.nullcontext():
                    codes.append(_call_cli(argv))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if any(codes):
            failed = set(self.images)
        elif golden is None:
            failed = set()
        else:
            failed = goldens.failed_images(
                goldens.file_hashes(self.out), golden["outputs"], self.images)
        if tracer is None:
            return PassResult(wall, cpu, failed)
        roots = tracer.take()
        return PassResult(wall, cpu, failed, spans.pass_metrics(roots, self.threads), roots)

    def blurred_images(self) -> int:
        """synth.write_corpus cycles through the categories in rank order."""
        return sum(RANK_ORDER[i % len(RANK_ORDER)].flags.blurred
                   for i in range(self.workload.images))


def _call_cli(argv) -> int:
    """One CLI call; an escaped exception is reported and counts as a failure."""
    try:
        return cli.main(argv)
    except Exception:  # the pass goes on and its images count as failed
        traceback.print_exc()
        return -1


def load_golden(bench: Bench) -> dict:
    """The variant's goldens; raises CorpusChanged if the inputs moved."""
    golden = goldens.load(bench.workload.name).get(bench.variant)
    if golden is None:
        raise CorpusChanged(f"no goldens for variant {bench.variant}")
    if bench.corpus_digest() != golden["corpus"]:
        raise CorpusChanged(
            f"{bench.workload.name} variant {bench.variant}: generated corpus "
            "differs from its golden digest")
    return golden


def warm_up(workload: Workload, work: Path) -> None:
    """One untimed pass on a tiny corpus so lazy set-up is done before timing."""
    Bench(workload, 0, work / "warmup", size=WARMUP_SIZE).run_pass(None)
    shutil.rmtree(work / "warmup")


def setup_seconds(config: Path, src: Path) -> float:
    """Median over fresh interpreters of `import aquaclear.cli` plus loading
    the config: what every CLI call pays before it starts work."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), str(src), str(config)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def repeat(seconds: float, minimum: int, body) -> list:
    """Call ``body(i)`` at least ``minimum`` times, then again while the last
    call's duration still fits in what is left of ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        last = time.perf_counter() - t0
        left = seconds - (time.perf_counter() - start)
        if len(results) >= minimum and last > left:
            return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float, work: Path, src: Path,
            size: int | None = None, golden=None):
    """Untraced run: end-to-end metrics plus attempted/failed image counts."""
    bench = Bench(workload, seed, work / "run", size=size)
    if golden is None:
        golden = load_golden(bench)
    setup_s = setup_seconds(bench.config, src)
    warm_up(workload, work)
    passes = repeat(seconds, 2, lambda _: bench.run_pass(golden))
    attempted = len(passes) * workload.images
    failed = sum(len(p.failed) for p in passes)
    metrics = {
        "images_per_s": statistics.median(workload.images / p.wall_s for p in passes),
        "setup_s": setup_s,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": len(passes), "variant": bench.variant,
            "failed_frac": failed / attempted,
            "pass_wall_s": [round(p.wall_s, 4) for p in passes]}
    return metrics, attempted, failed, info


def traced(workload: Workload, seed: int, seconds: float, work: Path,
           size: int | None = None, golden=None, spans_out: Path | None = None):
    """Traced run: untraced and traced passes alternate; the per-layer
    metrics are per traced pass, and their counts are checked."""
    bench = Bench(workload, seed, work / "run", size=size)
    if golden is None:
        golden = load_golden(bench)
    warm_up(workload, work)
    tracer = spans.Tracer()
    missing = set()

    def body(i):
        if i % 2 == 0:
            return bench.run_pass(golden)
        missing.update(tracer.install())
        try:
            return bench.run_pass(golden, tracer)
        finally:
            tracer.uninstall()

    passes = repeat(seconds, 2, body)
    plain = [p for i, p in enumerate(passes) if i % 2 == 0]
    traced_ = [p for i, p in enumerate(passes) if i % 2 == 1]
    layers = {name: statistics.fmean(p.layers[name] for p in traced_)
              for name, _ in spans.PER_LAYER}
    for name, unit in spans.PER_LAYER:
        if unit == "count":
            layers[name] = round(layers[name])
    untraced_wall = statistics.fmean(p.wall_s for p in plain)
    layers["trace.overhead_s"] = statistics.fmean(p.wall_s for p in traced_) - untraced_wall
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / untraced_wall

    problems = [f"tracer could not find {name}" for name in sorted(missing)]
    for name in (*spans.COUNTS, "neural.conv.macs"):
        if len({p.layers[name] for p in traced_}) > 1:
            problems.append(f"{name} differs between traced passes")
    conv_macs = traced_[0].layers["neural.conv.macs"]
    want_macs = workload.images * spans.expected_macs(workload.method, bench.size)
    if conv_macs != want_macs:
        problems.append(f"conv MACs {conv_macs} != expected {want_macs}")
    want_px = (bench.blurred_images() * spans.NLM_OFFSETS * 3 * bench.size ** 2
               if workload.method else 0)
    if layers["enhance.nlm.offset_px"] != want_px:
        problems.append(f"NLM offset_px {layers['enhance.nlm.offset_px']} != expected {want_px}")
    if bench.threads == 1:
        for p in traced_:
            gap = spans.self_time_total(p.layers) - spans.command_wall_total(p.layers)
            if abs(gap) > 1e-6:
                problems.append(f"self times miss command wall by {gap:.3g} s")

    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        with spans_out.open("w") as fh:
            for i, p in enumerate(traced_):
                spans.dump(p.roots, i, fh)

    attempted = len(passes) * workload.images
    failed = sum(len(p.failed) for p in passes)
    info = {"passes": len(passes), "traced_passes": len(traced_),
            "variant": bench.variant, "failed_frac": failed / attempted,
            "problems": problems}
    return layers, attempted, failed, info


def environment() -> dict:
    """Interpreter, numpy, BLAS and core count this run used."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def record(workload: Workload, variants, work: Path) -> Path:
    """Write goldens from one pass per variant at one pipeline thread."""
    entries = {}
    for variant in variants:
        bench = Bench(workload, variant, work / f"v{variant}", threads=1)
        result = bench.run_pass(None)
        if result.failed:
            raise RuntimeError(f"variant {variant}: a CLI stage failed")
        entries[variant] = {"corpus": bench.corpus_digest(),
                            "outputs": goldens.file_hashes(bench.out)}
        shutil.rmtree(bench.work)
        print(f"{workload.name} variant {variant}: {len(entries[variant]['outputs'])} outputs "
              f"in {result.wall_s:.2f} s", file=sys.stderr)
    meta = {"workload": workload.name, "images": workload.images, "size": workload.size,
            "recorded_threads": 1}
    return goldens.save(workload.name, meta, entries)
