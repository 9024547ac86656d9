"""Fast self-check of the harness (``run.py --smoke``), on tiny corpora.

For every workload it checks that the untraced and traced paths print every
metric BENCHMARK.json names, with its unit; that outputs at the workload's
thread count match a one-thread pass; that a flipped output byte counts as a
failed image; and that the traced counts read as expected.
"""

from __future__ import annotations

import json
from pathlib import Path

import harness
import goldens
import spans
from workloads import WORKLOADS

SIZE = 32


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def _check_flips(bench: harness.Bench, golden: dict) -> list:
    problems = []
    per_image = sorted(bench.out.rglob("*.ppm"))
    if per_image:
        _flip_byte(per_image[0])
        failed = goldens.failed_images(goldens.file_hashes(bench.out),
                                       golden["outputs"], bench.images)
        if failed != {goldens.image_of(per_image[0].name)}:
            problems.append(f"flipped {per_image[0].name} gave failed={sorted(failed)}")
        _flip_byte(per_image[0])
    _flip_byte(bench.out / "report.md")
    failed = goldens.failed_images(goldens.file_hashes(bench.out),
                                   golden["outputs"], bench.images)
    if failed != set(bench.images):
        problems.append(f"flipped report.md failed {len(failed)} of {len(bench.images)} images")
    return problems


def _check_workload(workload, work: Path, src: Path) -> list:
    problems = []
    reference = harness.Bench(workload, 0, work / "reference", size=SIZE, threads=1)
    reference.run_pass(None)
    golden = {"outputs": goldens.file_hashes(reference.out)}

    e2e_values, attempted, failed, _ = harness.measure(
        workload, 0, 0, work / "measure", src, size=SIZE, golden=golden)
    if failed:
        problems.append(f"{failed} of {attempted} images differ from the one-thread pass")
    problems += [f"end-to-end metric {name} missing"
                 for name, _ in harness.E2E if name not in e2e_values]
    problems += _check_flips(reference, golden)

    layers, attempted, failed, info = harness.traced(
        workload, 0, 0, work / "trace", size=SIZE, golden=golden)
    problems += info["problems"]
    if failed:
        problems.append(f"traced pass: {failed} of {attempted} images differ")
    per_image = layers["classify.per_enhanced_image"]
    want = {"classic": 1.0, "unite": 2.0}.get(workload.name, 0.0)
    if per_image != want:
        problems.append(f"classify.per_enhanced_image = {per_image}, expected {want}")
    zero = ("neural.",) if workload.name == "classic" else ()
    zero += ("neural.", "enhance.nlm.") if workload.name == "survey" else ()
    for name, _ in spans.PER_LAYER:
        if name.startswith(zero) and layers[name] != 0:
            problems.append(f"{name} = {layers[name]}, expected 0")
    for name, unit in spans.PER_LAYER:
        if unit == "count" and layers[name] != int(layers[name]):
            problems.append(f"count {name} = {layers[name]} is not whole")
    return [f"{workload.name}: {p}" for p in problems]


def run(work: Path, benchmark_json: Path, src: Path) -> int:
    problems = []
    if spans.head_macs(spans.VGG_HEAD, 128) != spans.VGG_MACS_128:
        problems.append("VGG MACs at 128px do not match the hand count")
    if spans.head_macs(spans.RESNET_HEAD, 128) != spans.RESNET_MACS_128:
        problems.append("ResNet MACs at 128px do not match the hand count")
    spec = json.loads(benchmark_json.read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(harness.E2E):
        problems.append(f"BENCHMARK.json end_to_end {declared} != printed {list(harness.E2E)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != list(spans.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in WORKLOADS.values():
        problems += _check_workload(workload, work / workload.name, src)
        print(f"smoke: {workload.name} checked", flush=True)
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    if not problems:
        print("smoke ok")
    return 1 if problems else 0
