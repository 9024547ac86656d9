"""Batch commands behind the CLI: classify, enhance, evaluate, split,
augment, and report.

Every command is a plain function taking parsed inputs plus a PipelineConfig
and returning a process exit code (0 ok, 2 empty input, no image succeeded
or parse failure, 3 missing weights, 4 bad parameters); an output directory
or file that cannot be written raises IoFailureError. The per-image
commands share one runner: an image that fails is skipped with one stderr
line and the rest of the batch runs. All outputs are deterministic for a
given (input set, config, seed) at any thread count: per-image work is
pure, results are collected in input order, and output files never embed
absolute paths or timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .classify import (
    Category8,
    ClassifierThresholds,
    classify,
    cooccurrence_csv,
    summarize,
    summary_csv,
    summary_rows,
)
from .enhance import (
    ClaheParams,
    NlmParams,
    SharpenParams,
    StepKind,
    apply_plan,
    build_plan,
)
from .errors import (
    AquaClearError,
    ConfigError,
    CsvParseError,
    ImageTooSmallError,
    IndivisibleDimsError,
    IoFailureError,
)
from .image import (
    ImageF32,
    channel_stats,
    laplacian_variance,
    load_ppm,
    save_ppm,
    write_atomic,
)
from .metrics import (
    METHOD_LABELS,
    METHOD_ORDER,
    SCORES_HEADER,
    report_csv,
    score_image,
)
from .neural import (
    attention_map,
    build_resnet_head,
    build_vgg_head,
    feature_bands,
    feature_guided_enhance,
    fuse_attention,
    init_weights,
    load_weights,
    validate_dims,
)

__all__ = [
    "PipelineConfig",
    "EXIT_OK",
    "EXIT_EMPTY",
    "EXIT_MISSING_WEIGHTS",
    "EXIT_BAD_PARAMS",
    "cmd_classify",
    "cmd_enhance",
    "cmd_evaluate",
    "cmd_split",
    "cmd_augment",
    "cmd_report",
]

EXIT_OK = 0
EXIT_EMPTY = 2
EXIT_MISSING_WEIGHTS = 3
EXIT_BAD_PARAMS = 4

_LABELS_HEADER = ("file", "cast", "lowlight", "blur", "category")


def _check_value(where: str, value, hint):
    """Return a JSON value as a field annotated ``hint`` holds it, or raise
    ConfigError: an int field takes an integer, a float field a finite
    number (bools are neither), a str field a string with no NUL character
    (no path can hold one), and a tuple field a list of finite numbers, held
    as a tuple of floats.
    """
    if hint == (str | None) and value is None:
        return value
    if hint in (str, str | None):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        if "\0" in value:
            raise ConfigError(f"{where} must not contain a NUL character")
    elif hint in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        if hint is int and not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        # also false for NaN and for an int too large for a float
        if hint is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{where} must be finite, got {value!r}")
    elif typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(float(_check_value(where, v, float)) for v in value)
    return value


def _from_json(cls, doc: dict, prefix: str = ""):
    """Build dataclass ``cls`` from a JSON object by walking its annotated
    fields: a dataclass field takes a nested object, any other field a value
    _check_value accepts, and an absent key keeps the field's default. A
    ValueError from a section's dataclass becomes a ConfigError naming it."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(prefix + key for key in doc.keys() - hints.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    kwargs = {}
    for key, value in doc.items():
        hint = hints[key]
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be an object")
            kwargs[key] = _from_json(hint, value, f"{prefix}{key}.")
        else:
            kwargs[key] = _check_value(prefix + key, value, hint)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {prefix[:-1]} section: {exc}") from exc


@dataclass(frozen=True)
class NeuralConfig:
    method: str = "classic"
    gain: float = 0.5
    vgg_manifest: str | None = None
    resnet_manifest: str | None = None

    def __post_init__(self):
        if self.method not in METHOD_LABELS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.gain < 0.0:
            raise ValueError("gain must be >= 0")


@dataclass(frozen=True)
class SplitConfig:
    ratios: tuple[float, ...] = (8.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be three positive numbers")
        # each file's share is ratio / sum, which an infinite sum zeroes
        if not math.isfinite(sum(self.ratios)):
            raise ValueError("ratios must have a finite sum")


@dataclass(frozen=True)
class AugmentConfig:
    crop_fraction: float = 0.8
    jitter_amplitude: float = 0.1
    samples_per_image: int = 2

    def __post_init__(self):
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ValueError("crop_fraction must lie in (0, 1]")
        if not 0.0 <= self.jitter_amplitude < 1.0:
            raise ValueError("jitter_amplitude must lie in [0, 1)")
        if not 1 <= self.samples_per_image <= 100:
            raise ValueError("samples_per_image must lie in [1, 100]")


@dataclass(frozen=True)
class PipelineConfig:
    thresholds: ClassifierThresholds = field(default_factory=ClassifierThresholds)
    clahe: ClaheParams = field(default_factory=ClaheParams)
    nlm: NlmParams = field(default_factory=NlmParams)
    sharpen: SharpenParams = field(default_factory=SharpenParams)
    neural: NeuralConfig = field(default_factory=NeuralConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    output_dir: str = "out"
    reference_dir: str | None = None
    seed: int = 7
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Build from a JSON document, validating every section."""
        return _from_json(cls, doc)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        # reading a device or FIFO might never end, or fill memory
        if not Path(path).is_file():
            raise CsvParseError(0, f"cannot read config {path}: missing or not a regular file")
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # past the digit limit; RecursionError, nesting too deep to parse.
        except (OSError, ValueError, RecursionError) as exc:
            raise CsvParseError(0, f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(doc)

    def plan_overrides(self) -> dict:
        return {
            StepKind.CLAHE: self.clahe,
            StepKind.DENOISE: self.nlm,
            StepKind.SHARPEN: self.sharpen,
        }


def _list_ppms(directory) -> list:
    return sorted(Path(directory).glob("*.ppm"), key=lambda p: p.name)


def _pmap(fn, items, threads: int) -> list:
    """Map preserving input order; fans out to a thread pool when asked."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _skipped(result) -> bool:
    return isinstance(result, dict) and "error" in result


def _run(files, one, threads: int) -> list:
    """``one(path)`` for every file, results in input order.

    An AquaClearError or MemoryError turns that file's result into the skip
    record {"file": name, "error": reason} and prints one ``skipping`` line
    on stderr.
    """

    def item(path):
        try:
            return one(path)
        except (AquaClearError, MemoryError) as exc:
            return {"file": path.name, "error": str(exc) or type(exc).__name__}

    results = _pmap(item, files, threads)
    for r in results:
        if _skipped(r):
            print(f"skipping {r['file']}: {r['error']}", file=sys.stderr)
    return results


def _make_dir(directory: Path) -> None:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailureError(f"cannot create {directory}: {exc.strerror or exc}") from exc


def _write(path: Path, text: str) -> None:
    _make_dir(path.parent)
    try:
        write_atomic(path, text.encode())
    except OSError as exc:
        raise IoFailureError(f"cannot write {path.name}: {exc.strerror or exc}") from exc


# ----------------------------------------------------------------- classify

def cmd_classify(input_dir, config: PipelineConfig, output_dir=None) -> int:
    """Label every PPM and write labels.csv, summary.csv, cooccurrence.csv."""
    out = Path(output_dir or config.output_dir)
    files = _list_ppms(input_dir)

    def one(path):
        flags, category = classify(load_ppm(path), config.thresholds)
        row = (
            f"{path.name},{int(flags.color_cast)},{int(flags.low_light)},"
            f"{int(flags.blurred)},{category.name.lower()}"
        )
        return row, category

    done = [r for r in _run(files, one, config.threads) if not _skipped(r)]
    if not done:
        print("no input images", file=sys.stderr)
        return EXIT_EMPTY
    rows = [row for row, _ in done]
    labels = [category for _, category in done]
    _write(out / "labels.csv", "\n".join([",".join(_LABELS_HEADER), *rows]) + "\n")
    counts = summarize(labels)
    _write(out / "summary.csv", summary_csv(counts))
    _write(out / "cooccurrence.csv", cooccurrence_csv(counts))
    print(f"classified {len(labels)} images, skipped {len(files) - len(done)}")
    return EXIT_OK


# ------------------------------------------------------------------ enhance

def _largest_valid(heads, extent: int) -> int:
    """The largest extent, at most 64 below ``extent``, every head accepts."""
    for e in range(extent, max(extent - 64, 7), -1):
        try:
            for head in heads:
                validate_dims(head.spec, e, e)
            return e
        except IndivisibleDimsError:
            pass
    raise IndivisibleDimsError("image too small for extractor")


def _center_crop(img: ImageF32, h: int, w: int) -> ImageF32:
    top = (img.height - h) // 2
    left = (img.width - w) // 2
    return ImageF32(np.ascontiguousarray(img.data[:, top : top + h, left : left + w]))


def _channel_mean(img: ImageF32, head) -> np.ndarray:
    """The channel mean of the head's features, taken band by band as the
    head streams them, so the whole feature tensor never exists. Each band's
    mean has the bits of the whole tensor's: numpy reduces axis 0 in order."""
    return np.concatenate(
        [band.mean(axis=0, dtype=np.float64) for band in feature_bands(img, head)]
    )


def _load_heads(config: PipelineConfig, method: str, seed: int) -> list:
    """Build and bind the extractors a method needs, VGG first, or raise."""
    heads = []
    for name, build, manifest, head_seed in (
        ("vgg", build_vgg_head, config.neural.vgg_manifest, seed),
        ("resnet", build_resnet_head, config.neural.resnet_manifest, seed + 1),
    ):
        if method in (name, "unite"):
            spec = build()
            heads.append(
                load_weights(spec, manifest) if manifest else init_weights(spec, head_seed)
            )
    return heads


def cmd_enhance(input_dir, config: PipelineConfig, output_dir=None,
                method: str | None = None, seed: int | None = None,
                verbose: bool = False) -> int:
    """Enhance every PPM with the chosen method and log each image's plan.

    classic runs the flag-driven filter plan; vgg/resnet/unite first apply
    attention-guided V adjustment from the respective head(s), then the same
    plan. Images whose dims break a head are center-cropped to the nearest
    valid size first.
    """
    out = Path(output_dir or config.output_dir)
    method = method or config.neural.method
    seed = config.seed if seed is None else seed
    if method not in METHOD_LABELS:
        print(f"unknown method {method!r}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    files = _list_ppms(input_dir)
    if not files:
        print("no input images", file=sys.stderr)
        return EXIT_EMPTY
    try:
        heads = _load_heads(config, method, seed)
    except AquaClearError as exc:
        print(f"cannot load weights: {exc}", file=sys.stderr)
        return EXIT_MISSING_WEIGHTS

    _make_dir(out)
    overrides = config.plan_overrides()

    def one(path):
        img = load_ppm(path)
        record = {"file": path.name, "method": method}
        steps = []

        def on_step(i, kind, intermediate):
            stats = channel_stats(intermediate)
            steps.append(
                {
                    "step": i,
                    "kind": kind.value,
                    "means": [
                        round(stats.mean_r, 9),
                        round(stats.mean_g, 9),
                        round(stats.mean_b, 9),
                    ],
                    "laplacian_variance": round(laplacian_variance(intermediate), 12),
                }
            )

        hook = on_step if verbose else None
        if heads:
            h_ok = _largest_valid(heads, img.height)
            w_ok = _largest_valid(heads, img.width)
            if (h_ok, w_ok) != (img.height, img.width):
                record["cropped"] = [h_ok, w_ok]
                print(f"{path.name}: center-cropped to {w_ok}x{h_ok}", file=sys.stderr)
                img = _center_crop(img, h_ok, w_ok)
            maps = [attention_map(_channel_mean(img, h), img.height, img.width)
                    for h in heads]
            attn = fuse_attention(*maps) if len(maps) == 2 else maps[0]
        flags, category = classify(img, config.thresholds)
        plan = build_plan(flags, overrides)
        if heads:
            enhanced = feature_guided_enhance(
                img, attn, config.neural.gain, config.thresholds, overrides, hook
            )
        else:
            enhanced = apply_plan(img, plan, hook)
        record["flags"] = {
            "cast": flags.color_cast,
            "lowlight": flags.low_light,
            "blur": flags.blurred,
        }
        record["category"] = category.name.lower()
        record["plan"] = plan.kinds()
        if verbose:
            record["steps"] = steps
        out_path = out / f"{path.stem}.{method}.ppm"
        save_ppm(enhanced, out_path)
        record["output"] = out_path.name
        return record

    records = _run(files, one, config.threads)
    log_lines = [json.dumps(r, sort_keys=True) for r in records]
    _write(out / "enhance_log.jsonl", "\n".join(log_lines) + "\n")
    done = sum(1 for r in records if not _skipped(r))
    print(f"enhanced {done} images with {method}, skipped {len(records) - done}")
    return EXIT_OK if done else EXIT_EMPTY


# ----------------------------------------------------------------- evaluate

def _parse_enhanced_name(name: str):
    """'stem.method.ppm' -> (stem, label); bare 'stem.ppm' -> METHOD_ORDER[0]."""
    base = name[:-4]
    if "." in base:
        stem, token = base.rsplit(".", 1)
        if token in METHOD_LABELS:
            return stem, METHOD_LABELS[token]
    return base, METHOD_ORDER[0]


def cmd_evaluate(input_dir, config: PipelineConfig, output_dir=None) -> int:
    """Score each enhanced image and write scores.csv (fixed header); PSNR
    needs a same-named image in config.reference_dir."""
    out = Path(output_dir or config.output_dir)
    files = _list_ppms(input_dir)
    ref_dir = Path(config.reference_dir) if config.reference_dir else None

    def one(path):
        stem, label = _parse_enhanced_name(path.name)
        test = load_ppm(path)
        reference = None
        if ref_dir is not None:
            ref_path = ref_dir / f"{stem}.ppm"
            if ref_path.exists():
                try:
                    reference = load_ppm(ref_path)
                except AquaClearError as exc:
                    print(f"unusable reference {ref_path.name}: {exc}", file=sys.stderr)
            else:
                print(f"no reference for {path.name}", file=sys.stderr)
        if reference is not None and reference.data.shape != test.data.shape:
            print(f"reference shape mismatch for {path.name}, scoring without it",
                  file=sys.stderr)
            reference = None
        return stem, label, score_image(test, reference)

    rows = [r for r in _run(files, one, config.threads) if not _skipped(r)]
    if not rows:
        print("no images to evaluate", file=sys.stderr)
        return EXIT_EMPTY
    _write(out / "scores.csv", report_csv(rows))
    print(f"evaluated {len(rows)} images")
    return EXIT_OK


# -------------------------------------------------------------------- split

def _largest_remainder(total: int, ratios) -> list:
    weights = [r / sum(ratios) for r in ratios]
    quotas = [total * w for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = total - sum(counts)
    by_frac = sorted(
        range(len(ratios)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in by_frac[:leftover]:
        counts[i] += 1
    return counts


def cmd_split(input_dir, config: PipelineConfig, output_dir=None,
              seed: int | None = None) -> int:
    """Shuffle the file list and allocate train/val/test by largest remainder."""
    out = Path(output_dir or config.output_dir)
    seed = config.seed if seed is None else seed
    files = _list_ppms(input_dir)
    if len(files) < 3:
        print("need at least 3 files to split", file=sys.stderr)
        return EXIT_EMPTY
    counts = _largest_remainder(len(files), config.split.ratios)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(files))
    buckets = {}
    cursor = 0
    for bucket, n in zip(("train", "val", "test"), counts):
        for idx in order[cursor : cursor + n]:
            buckets[files[int(idx)].name] = bucket
        cursor += n
    lines = ["file,bucket"] + [f"{f.name},{buckets[f.name]}" for f in files]
    _write(out / "split.csv", "\n".join(lines) + "\n")
    print(
        f"split {len(files)} files: train={counts[0]} val={counts[1]} test={counts[2]}"
    )
    return EXIT_OK


# ------------------------------------------------------------------ augment

def _augment_rng(seed: int, name: str, sample: int) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    file_key = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, file_key, sample])
    ))


def cmd_augment(input_dir, config: PipelineConfig, output_dir=None,
                seed: int | None = None) -> int:
    """Seeded random crop + per-channel gain jitter, samples_per_image each.

    The per-sample generator is derived from (seed, file name, sample index)
    and draws, in order: top offset, left offset, then R/G/B gains.
    """
    out = Path(output_dir or config.output_dir)
    seed = config.seed if seed is None else seed
    aug = config.augment
    files = _list_ppms(input_dir)

    def one(path):
        img = load_ppm(path)
        crop_h = int(round(aug.crop_fraction * img.height))
        crop_w = int(round(aug.crop_fraction * img.width))
        if crop_h < 1 or crop_w < 1:
            raise ImageTooSmallError(
                f"{img.width}x{img.height} image too small for crop_fraction "
                f"{aug.crop_fraction}"
            )
        for k in range(aug.samples_per_image):
            rng = _augment_rng(seed, path.name, k)
            top = int(rng.integers(0, img.height - crop_h + 1))
            left = int(rng.integers(0, img.width - crop_w + 1))
            gains = rng.uniform(
                1.0 - aug.jitter_amplitude, 1.0 + aug.jitter_amplitude, size=3
            )
            cropped = img.data[:, top : top + crop_h, left : left + crop_w]
            jittered = cropped.astype(np.float64) * gains[:, None, None]
            save_ppm(
                ImageF32.from_array(jittered), out / f"{path.stem}.aug{k}.ppm"
            )
        return aug.samples_per_image

    _make_dir(out)
    made = [r for r in _run(files, one, config.threads) if not _skipped(r)]
    if not made:
        print("no input images", file=sys.stderr)
        return EXIT_EMPTY
    print(f"augmented {len(made)} images into {sum(made)} samples")
    return EXIT_OK


# ------------------------------------------------------------------- report

def _read_csv(path: Path) -> list:
    """(line number, row) for every non-empty row of a UTF-8 CSV file."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvParseError(0, f"cannot read {path.name}: {exc}") from exc
    rows = []
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            if row:
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise CsvParseError(reader.line_num, f"{path.name}: {exc}") from exc
    return rows


def _metric_cells_ok(row) -> bool:
    """True when a scores row's metric cells are all finite numbers; the
    psnr cell may also be empty or inf."""
    cells = row[3:] if row[2] in ("", "inf") else row[2:]
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def _markdown_table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def cmd_report(input_dir, config: PipelineConfig, output_dir=None) -> int:
    """Combine labels.csv and scores.csv into report.md plus report.csv.

    The Markdown carries the category table and the method-by-metric table;
    the CSV holds the compact method summary (method,psnr,uciqe,uiqm), taken
    from the mean rows that evaluate writes to scores.csv.
    """
    src = Path(input_dir)
    out = Path(output_dir or config.output_dir)
    labels_path = src / "labels.csv"
    scores_path = src / "scores.csv"

    try:
        label_rows = _read_csv(labels_path)
        if not label_rows or label_rows[0][1] != list(_LABELS_HEADER):
            raise CsvParseError(1, "labels.csv missing expected header")
        by_name = {c.name.lower(): c for c in Category8}
        labels = []
        for lineno, row in label_rows[1:]:
            if len(row) != len(_LABELS_HEADER) or row[4] not in by_name:
                raise CsvParseError(lineno, f"bad labels row: {','.join(row)!r}")
            labels.append(by_name[row[4]])
        if not labels:
            raise CsvParseError(1, "labels.csv has no data rows")
        counts = summarize(labels)

        mean_rows = []
        parsed = _read_csv(scores_path) if scores_path.exists() else []
        if parsed:
            if parsed[0][1] != list(SCORES_HEADER):
                raise CsvParseError(1, "scores.csv missing expected header")
            for lineno, row in parsed[1:]:
                if len(row) != len(SCORES_HEADER) or (
                    row[0] == "mean" and not _metric_cells_ok(row)
                ):
                    raise CsvParseError(lineno, f"bad scores row: {','.join(row)!r}")
                if row[0] == "mean":
                    if any(m[1] == row[1] for m in mean_rows):
                        raise CsvParseError(lineno, f"second mean row for {row[1]!r}")
                    mean_rows.append(row)
            if len(parsed) > 1 and not mean_rows:
                raise CsvParseError(0, "scores.csv has no mean rows")
    except CsvParseError as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return EXIT_EMPTY

    md = ["# Batch report", "", "## Degradation categories", ""]
    md.append(_markdown_table(("Rank", "Description", "Count", "Proportion"),
                              summary_rows(counts)))

    method_rows = [(row[1], row[2] or "-", row[3], row[4]) for row in mean_rows]

    md += ["", "## Method quality summary", ""]
    if method_rows:
        md.append(_markdown_table(("Method", "PSNR", "UCIQE", "UIQM"), method_rows))
    else:
        md.append("No quality scores were provided; category table only.")
    _write(out / "report.md", "\n".join(md) + "\n")

    # method, psnr, uciqe, uiqm, as the mean rows hold them
    csv_lines = ["method,psnr,uciqe,uiqm"] + [",".join(row[1:5]) for row in mean_rows]
    _write(out / "report.csv", "\n".join(csv_lines) + "\n")
    print("report written")
    return EXIT_OK
