"""Batch commands behind the CLI: classify, enhance, evaluate, split,
augment, and report.

Every command is a plain function taking an input directory, a
PipelineConfig and an output directory (enhance also a method) and returning
a process exit code (0 ok, 2 empty input, no image succeeded or parse
failure, 3 missing weights, 4 bad parameters); an output directory or file
that cannot be written raises IoFailureError. The per-image commands share
one runner: an image that fails is skipped with one stderr line and the rest
of the batch runs. All outputs are deterministic for a given input set and
config (whose seed drives every random draw) at any thread count: per-image
work is pure, results are collected in input order, and output files never
embed absolute paths or timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import typing
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
)
from .image import (
    ImageF32,
    _decode,
    _make_dir,
    _map_bands,
    _open_input,
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
    _csv_text,
    report_csv,
    score_image,
)
from .neural import (
    attention_map,
    build_resnet_head,
    build_vgg_head,
    feature_guided_enhance,
    fuse_attention,
    init_weights,
    load_weights,
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
    gain: float = 0.5
    vgg_manifest: str | None = None
    resnet_manifest: str | None = None

    def __post_init__(self):
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
    reference_dir: str | None = None
    seed: int = 7
    threads: int = 1

    def __post_init__(self):
        # _pmap starts one thread per image up to this count
        if not 1 <= self.threads <= 64:
            raise ConfigError("threads must lie in [1, 64]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """Build from a JSON document, validating every section."""
        return _from_json(cls, doc)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            with _open_input(path) as (f, _):
                doc = json.load(_decode(f))
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
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay for it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _skipped(result) -> bool:
    return isinstance(result, dict) and "error" in result


# Backslash escapes for the C0 control characters, so a name holding a
# carriage return or a line feed prints on its own stderr line, whole.
_C0_ESCAPES = {c: repr(chr(c))[1:-1] for c in range(0x20)}


def _say(line: str) -> None:
    """Print one per-image stderr line, C0 control characters escaped."""
    print(line.translate(_C0_ESCAPES), file=sys.stderr)


def _run(files, one, threads: int) -> list:
    """``one(path)`` for every file, results in input order.

    A file whose name is not valid UTF-8, which no output can hold, or
    holds a carriage return, which a CSV reader takes for a line end, is
    not read. That, an AquaClearError or a MemoryError turns the file's
    result into the skip record {"file": name, "error": reason} and prints
    one ``skipping`` line on stderr through _say, which escapes any C0
    control character in it (``a\\rb.ppm``).
    """

    def item(path):
        try:
            path.name.encode("utf-8")
        except UnicodeEncodeError:
            return {"file": path.name, "error": "file name is not valid UTF-8"}
        if "\r" in path.name:
            return {"file": path.name, "error": "file name holds a carriage return"}
        try:
            return one(path)
        except (AquaClearError, MemoryError) as exc:
            return {"file": path.name, "error": str(exc) or type(exc).__name__}

    results = _pmap(item, files, threads)
    for r in results:
        if _skipped(r):
            _say(f"skipping {r['file']}: {r['error']}")
    return results


def _succeeded(results: list) -> list:
    """The results of the images that succeeded. When none did, print the
    batch's one no-success line: ``no input images`` for an empty input,
    else ``no image succeeded: <n> skipped``."""
    done = [r for r in results if not _skipped(r)]
    if not done:
        print(f"no image succeeded: {len(results)} skipped" if results
              else "no input images", file=sys.stderr)
    return done


def _write(path: Path, text: str) -> None:
    _make_dir(path.parent)
    write_atomic(path, text.encode())


# ----------------------------------------------------------------- classify

def cmd_classify(input_dir, config: PipelineConfig, output_dir) -> int:
    """Label every PPM and write labels.csv, summary.csv, cooccurrence.csv."""
    out = Path(output_dir)
    files = _list_ppms(input_dir)

    def one(path):
        flags, category = classify(load_ppm(path), config.thresholds)
        row = (path.name, int(flags.color_cast), int(flags.low_light),
               int(flags.blurred), category.name.lower())
        return row, category

    done = _succeeded(_run(files, one, config.threads))
    if not done:
        return EXIT_EMPTY
    _write(out / "labels.csv", _csv_text([_LABELS_HEADER, *(row for row, _ in done)]))
    counts = summarize(category for _, category in done)
    _write(out / "summary.csv", summary_csv(counts))
    _write(out / "cooccurrence.csv", cooccurrence_csv(counts))
    print(f"classified {len(done)} images, skipped {len(files) - len(done)}")
    return EXIT_OK


# ------------------------------------------------------------------ enhance

def _attention(img: ImageF32, heads: list) -> np.ndarray:
    """The attention map of img from each head, fused when there are two.
    Every head runs before any map of the image's size exists."""
    means = [h.channel_mean(img.data) for h in heads]
    attn = attention_map(means[0], img.height, img.width)
    if len(means) == 2:
        attn = fuse_attention(attn, attention_map(means[1], img.height, img.width))
    return attn


def _step_record(i: int, kind: StepKind, img: ImageF32) -> dict:
    """The --verbose log entry of plan step i, which made img."""
    stats = channel_stats(img)
    return {"step": i, "kind": kind.value,
            "means": [round(m, 9) for m in (stats.mean_r, stats.mean_g, stats.mean_b)],
            "laplacian_variance": round(laplacian_variance(img), 12)}


def _load_heads(config: PipelineConfig, method: str) -> list:
    """Build and bind the extractors a method needs, VGG first, or raise."""
    heads = []
    for name, build, manifest, head_seed in (
        ("vgg", build_vgg_head, config.neural.vgg_manifest, config.seed),
        ("resnet", build_resnet_head, config.neural.resnet_manifest, config.seed + 1),
    ):
        if method in (name, "unite"):
            spec = build()
            heads.append(
                load_weights(spec, manifest) if manifest else init_weights(spec, head_seed)
            )
    return heads


def cmd_enhance(input_dir, config: PipelineConfig, output_dir, method: str,
                verbose: bool = False) -> int:
    """Enhance every PPM with the chosen method and log each image's plan.

    classic runs the flag-driven filter plan; vgg/resnet/unite first apply
    attention-guided V adjustment from the respective head(s), then the same
    plan. Every output has its input's size.
    """
    out = Path(output_dir)
    if method not in METHOD_LABELS:
        print(f"unknown method {method!r}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    files = _list_ppms(input_dir)
    # paths are never skip records, so this stops only an empty input
    if not _succeeded(files):
        return EXIT_EMPTY
    try:
        heads = _load_heads(config, method)
    except AquaClearError as exc:
        print(f"cannot load weights: {exc}", file=sys.stderr)
        return EXIT_MISSING_WEIGHTS

    _make_dir(out)
    overrides = config.plan_overrides()

    def one(path):
        # the loaded image is popped into the call that enhances it: from
        # CPython 3.11 a call moves its arguments into the callee's frame,
        # so that frame holds the only reference and frees it once read
        held = [load_ppm(path)]
        steps = []
        hook = (lambda *step: steps.append(_step_record(*step))) if verbose else None
        flags, category = classify(held[0], config.thresholds)
        plan = build_plan(flags, overrides)
        if heads:
            # so is its attention map: held holds [image, map]
            held.append(_attention(held[0], heads))
            enhanced = feature_guided_enhance(
                held.pop(0), held.pop(), config.neural.gain, config.thresholds,
                overrides, hook,
            )
        else:
            enhanced = apply_plan(held.pop(), plan, hook)
        out_path = out / f"{path.stem}.{method}.ppm"
        save_ppm(enhanced, out_path)
        record = {"file": path.name, "method": method, "category": category.name.lower(),
                  "flags": {"cast": flags.color_cast, "lowlight": flags.low_light,
                            "blur": flags.blurred},
                  "plan": plan.kinds(), "output": out_path.name}
        if verbose:
            record["steps"] = steps
        return record

    records = _run(files, one, config.threads)
    log_lines = [json.dumps(r, sort_keys=True) for r in records]
    _write(out / "enhance_log.jsonl", "\n".join(log_lines) + "\n")
    done = _succeeded(records)
    if not done:
        return EXIT_EMPTY
    print(f"enhanced {len(done)} images with {method}, skipped {len(records) - len(done)}")
    return EXIT_OK


# ----------------------------------------------------------------- evaluate

def _parse_enhanced_name(name: str):
    """'stem.method.ppm' -> (stem, label); bare 'stem.ppm' -> METHOD_ORDER[0]."""
    base = name[:-4]
    if "." in base:
        stem, token = base.rsplit(".", 1)
        if token in METHOD_LABELS:
            return stem, METHOD_LABELS[token]
    return base, METHOD_ORDER[0]


def cmd_evaluate(input_dir, config: PipelineConfig, output_dir) -> int:
    """Score each enhanced image and write scores.csv (fixed header); PSNR
    needs a same-named image in config.reference_dir. An image whose stem
    is ``mean``, which names scores.csv's mean rows, is skipped."""
    out = Path(output_dir)
    files = _list_ppms(input_dir)
    ref_dir = Path(config.reference_dir) if config.reference_dir else None

    def one(path):
        stem, label = _parse_enhanced_name(path.name)
        if stem == "mean":
            return {"file": path.name, "error": "the stem 'mean' is reserved for mean rows"}
        test = load_ppm(path)
        reference = None
        if ref_dir is not None:
            try:
                reference = load_ppm(ref_dir / f"{stem}.ppm")
            except AquaClearError as exc:
                # load_ppm raises from FileNotFoundError only for a missing file
                if isinstance(exc.__cause__, FileNotFoundError):
                    _say(f"no reference for {path.name}")
                else:
                    _say(f"unusable reference {stem}.ppm: {exc}")
        if reference is not None and reference.data.shape != test.data.shape:
            _say(f"reference shape mismatch for {path.name}, scoring without it")
            reference = None
        return stem, label, score_image(test, reference)

    rows = _succeeded(_run(files, one, config.threads))
    if not rows:
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


def cmd_split(input_dir, config: PipelineConfig, output_dir) -> int:
    """Shuffle the file list and allocate train/val/test by largest remainder."""
    out = Path(output_dir)
    # split reads no file, so only _run's name check can skip one
    files = [r for r in _run(_list_ppms(input_dir), lambda path: path, 1) if not _skipped(r)]
    if len(files) < 3:
        print("need at least 3 files to split", file=sys.stderr)
        return EXIT_EMPTY
    counts = _largest_remainder(len(files), config.split.ratios)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    order = rng.permutation(len(files))
    buckets = {}
    cursor = 0
    for bucket, n in zip(("train", "val", "test"), counts):
        for idx in order[cursor : cursor + n]:
            buckets[files[int(idx)].name] = bucket
        cursor += n
    lines = [("file", "bucket")] + [(f.name, buckets[f.name]) for f in files]
    _write(out / "split.csv", _csv_text(lines))
    print(
        f"split {len(files)} files: train={counts[0]} val={counts[1]} test={counts[2]}"
    )
    return EXIT_OK


# ------------------------------------------------------------------ augment

def _augment_rng(seed: int, name: str, sample: int) -> np.random.Generator:
    import hashlib  # loads libcrypto: only augment needs it
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    file_key = int.from_bytes(digest[:8], "big")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, file_key, sample])
    ))


def cmd_augment(input_dir, config: PipelineConfig, output_dir) -> int:
    """Seeded random crop + per-channel gain jitter, samples_per_image each.

    The per-sample generator is derived from (config seed, file name, sample
    index) and draws, in order: top offset, left offset, then R/G/B gains.
    """
    out = Path(output_dir)
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
            rng = _augment_rng(config.seed, path.name, k)
            top = int(rng.integers(0, img.height - crop_h + 1))
            left = int(rng.integers(0, img.width - crop_w + 1))
            gains = rng.uniform(
                1.0 - aug.jitter_amplitude, 1.0 + aug.jitter_amplitude, size=3
            )[:, None, None]
            cropped = img.data[:, top : top + crop_h, left : left + crop_w]
            jittered = _map_bands(cropped, lambda b, _: np.multiply(b, gains, out=b))
            save_ppm(jittered, out / f"{path.stem}.aug{k}.ppm")
        return aug.samples_per_image

    _make_dir(out)
    made = _succeeded(_run(files, one, config.threads))
    if not made:
        return EXIT_EMPTY
    print(f"augmented {len(made)} images into {sum(made)} samples")
    return EXIT_OK


# ------------------------------------------------------------------- report

def _read_table(path: Path, header, row_ok, optional: bool = False) -> list:
    """(line number, row) for every non-empty row after the header of the
    UTF-8 CSV file at path, or raise CsvParseError naming the file.

    The first row must be ``header``, and every row after it must be as
    wide and pass ``row_ok``. An optional table that is missing or empty
    has no rows. The rows are parsed while the file is open, so
    _open_input reports a parse that runs out of memory as a failed read.
    """
    try:
        with _open_input(path) as (f, _):
            reader = csv.reader(_decode(f))
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        if optional and isinstance(exc, FileNotFoundError):
            return []
        raise CsvParseError(0, f"cannot read {path.name}: {exc}") from exc
    except csv.Error as exc:
        raise CsvParseError(reader.line_num, f"{path.name}: {exc}") from exc
    if optional and not rows:
        return []
    if not rows or rows[0][1] != list(header):
        raise CsvParseError(1, f"{path.name} missing expected header")
    for lineno, row in rows[1:]:
        if len(row) != len(header) or not row_ok(row):
            raise CsvParseError(lineno, f"bad {path.stem} row: {','.join(row)!r}")
    return rows[1:]


def _scores_row_ok(row) -> bool:
    """False for a mean row whose metric cells are not all finite numbers;
    its psnr cell may also be empty or inf."""
    if row[0] != "mean":
        return True
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


def cmd_report(input_dir, config: PipelineConfig, output_dir) -> int:
    """Combine labels.csv and scores.csv into report.md plus report.csv.

    The Markdown carries the category table and the method-by-metric table;
    the CSV holds the compact method summary (method,psnr,uciqe,uiqm), taken
    from the mean rows that evaluate writes to scores.csv.
    """
    src = Path(input_dir)
    out = Path(output_dir)
    by_name = {c.name.lower(): c for c in Category8}

    try:
        label_rows = _read_table(src / "labels.csv", _LABELS_HEADER,
                                 lambda row: row[4] in by_name)
        if not label_rows:
            raise CsvParseError(1, "labels.csv has no data rows")
        counts = summarize([by_name[row[4]] for _, row in label_rows])

        scores = _read_table(src / "scores.csv", SCORES_HEADER, _scores_row_ok,
                             optional=True)
        mean_rows = []
        for lineno, row in scores:
            if row[0] == "mean":
                if any(m[1] == row[1] for m in mean_rows):
                    raise CsvParseError(lineno, f"second mean row for {row[1]!r}")
                mean_rows.append(row)
        if scores and not mean_rows:
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
    csv_rows = [("method", "psnr", "uciqe", "uiqm")] + [row[1:5] for row in mean_rows]
    _write(out / "report.csv", _csv_text(csv_rows))
    print("report written")
    return EXIT_OK
