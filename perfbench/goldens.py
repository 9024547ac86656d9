"""Golden sha256 hashes of each workload's input corpus and outputs.

goldens/<workload>.json holds, per corpus variant, one digest over the input
corpus and the sha256 of every output file a pass writes (relative paths).
All variants write the same file names, so the names are stored once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def file_hashes(root: Path) -> dict:
    """sha256 of every regular file under root, keyed by POSIX relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_digest(hashes: dict) -> str:
    """One digest over a {path: sha256} map."""
    lines = "".join(f"{path}\0{digest}\n" for path, digest in sorted(hashes.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def image_of(path: str) -> str | None:
    """The corpus image a per-image output belongs to: 'augment/img_003.aug1.ppm'
    and 'enhanced/img_003.unite.ppm' both belong to 'img_003'. Files shared by
    the batch (CSV, JSONL, Markdown) belong to no single image."""
    name = path.rsplit("/", 1)[-1]
    if not name.endswith(".ppm"):
        return None
    return name.split(".", 1)[0]


def failed_images(actual: dict, golden: dict, images) -> set:
    """Images whose outputs differ from the golden hashes.

    A missing, extra or changed per-image file fails its image; a changed
    batch-level file fails every image, since each image fed into it.
    """
    images = set(images)
    failed = set()
    for path in sorted(set(actual) | set(golden)):
        if actual.get(path) == golden.get(path):
            continue
        owner = image_of(path)
        if owner not in images:
            return images
        failed.add(owner)
    return failed


def load(workload: str) -> dict:
    """{variant: {"corpus": digest, "outputs": {path: sha256}}}."""
    doc = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    names = doc["outputs"]
    return {
        int(variant): {"corpus": entry["corpus"],
                       "outputs": dict(zip(names, entry["outputs"]))}
        for variant, entry in doc["variants"].items()
    }


def save(workload: str, meta: dict, variants: dict) -> Path:
    """Write goldens for every variant; all must share one output file list."""
    names = sorted(next(iter(variants.values()))["outputs"])
    doc = {**meta, "outputs": names, "variants": {}}
    for variant in sorted(variants):
        entry = variants[variant]
        if sorted(entry["outputs"]) != names:
            raise ValueError(f"variant {variant} writes a different set of files")
        doc["variants"][str(variant)] = {
            "corpus": entry["corpus"],
            "outputs": [entry["outputs"][n] for n in names],
        }
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
