"""Degradation detection and the eight-way category taxonomy.

Three boolean detectors (color cast, low light, blur) feed a combined label.
Detector rules are deliberately simple threshold checks on global image
statistics; all thresholds live in ClassifierThresholds and can be overridden
through the pipeline config.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyDatasetError, NearBlackImageWarning
from .image import ImageF32, channel_stats, laplacian_variance

__all__ = [
    "DegradationFlags",
    "Category8",
    "RANK_ORDER",
    "ClassifierThresholds",
    "CastDiagnostics",
    "detect_color_cast",
    "detect_low_light",
    "detect_blur",
    "classify",
    "summarize",
    "summary_rows",
    "summary_csv",
    "cooccurrence_csv",
]

_NEAR_BLACK = 1e-6


@dataclass(frozen=True)
class ClassifierThresholds:
    """Decision boundaries for the three detectors.

    All comparisons against these are strict, so an image sitting exactly on
    a boundary is NOT flagged.
    """

    cast_ratio: float = 0.25
    brightness_floor: float = 0.35
    sharpness_floor: float = 0.0015

    def __post_init__(self):
        if self.cast_ratio <= 0.0:
            raise ValueError("cast_ratio must be positive")
        if not 0.0 < self.brightness_floor < 1.0:
            raise ValueError("brightness_floor must lie in (0, 1)")
        if self.sharpness_floor <= 0.0:
            raise ValueError("sharpness_floor must be positive")


@dataclass(frozen=True)
class DegradationFlags:
    color_cast: bool
    low_light: bool
    blurred: bool


class Category8(Enum):
    """The eight flag combinations, in report rank order. Each value is
    (rank, description, color_cast, low_light, blurred)."""

    COLOR_BIAS_ONLY = (1, "Color bias only", True, False, False)
    COLOR_BIAS_BLUR = (2, "Color bias and blur", True, False, True)
    COLOR_BIAS_LOW_LIGHT = (3, "Color bias and low light", True, True, False)
    COLOR_BIAS_LOW_LIGHT_BLUR = (4, "Color bias with low light and blur", True, True, True)
    NO_ISSUES = (5, "No issues", False, False, False)
    BLUR_ONLY = (6, "Blur only", False, False, True)
    LOW_LIGHT_BLUR = (7, "Low light and blur", False, True, True)
    LOW_LIGHT_ONLY = (8, "Low light only", False, True, False)

    @property
    def rank(self) -> int:
        return self.value[0]

    @property
    def description(self) -> str:
        return self.value[1]

    @property
    def flags(self) -> DegradationFlags:
        return DegradationFlags(*self.value[2:])


_BY_FLAGS = {cat.flags: cat for cat in Category8}

RANK_ORDER = sorted(Category8, key=lambda c: c.rank)


@dataclass(frozen=True)
class CastDiagnostics:
    mean_r: float
    mean_g: float
    mean_b: float
    mean_avg: float
    max_rel_dev: float
    near_black: bool = False


def detect_color_cast(
    img: ImageF32, thresholds: ClassifierThresholds = ClassifierThresholds()
) -> tuple[bool, CastDiagnostics]:
    """Flag a cast when some channel mean strays far from the overall mean.

    cast is true iff max_c |mean_c - mean_avg| / mean_avg > cast_ratio.
    Near-black images (mean_avg <= 1e-6) report false: the ratio is
    undefined there, and a NearBlackImageWarning is issued instead.
    """
    stats = channel_stats(img)
    if stats.mean_avg <= _NEAR_BLACK:
        warnings.warn(
            "channel means too small for cast detection", NearBlackImageWarning
        )
        diag = CastDiagnostics(
            stats.mean_r, stats.mean_g, stats.mean_b, stats.mean_avg,
            max_rel_dev=0.0, near_black=True,
        )
        return False, diag
    devs = [
        abs(m - stats.mean_avg) / stats.mean_avg
        for m in (stats.mean_r, stats.mean_g, stats.mean_b)
    ]
    max_rel_dev = max(devs)
    diag = CastDiagnostics(
        stats.mean_r, stats.mean_g, stats.mean_b, stats.mean_avg, max_rel_dev
    )
    return max_rel_dev > thresholds.cast_ratio, diag


def detect_low_light(
    img: ImageF32, thresholds: ClassifierThresholds = ClassifierThresholds()
) -> bool:
    """True iff the mean HSV value channel sits strictly below the floor.

    V is the per-pixel channel maximum, the same float32 values rgb_to_hsv
    stores, without building the hue and saturation planes.
    """
    r, g, b = img.data
    v = np.maximum(np.maximum(r, g), b)
    return float(np.mean(v, dtype=np.float64)) < thresholds.brightness_floor


def detect_blur(
    img: ImageF32, thresholds: ClassifierThresholds = ClassifierThresholds()
) -> bool:
    """True iff Laplacian variance sits strictly below the floor.

    Constant images have variance 0 and therefore classify as blurred.
    """
    return laplacian_variance(img) < thresholds.sharpness_floor


def classify(
    img: ImageF32, thresholds: ClassifierThresholds = ClassifierThresholds()
) -> tuple[DegradationFlags, Category8]:
    """Run all three detectors and map the flag triple to its category."""
    cast, _ = detect_color_cast(img, thresholds)
    low = detect_low_light(img, thresholds)
    blur = detect_blur(img, thresholds)
    flags = DegradationFlags(cast, low, blur)
    return flags, _BY_FLAGS[flags]


def summarize(labels) -> dict:
    """Tally categories: {Category8: count}, every category, in rank order."""
    tally = Counter(labels)
    if not tally:
        raise EmptyDatasetError("no labels to summarize")
    return {cat: tally[cat] for cat in RANK_ORDER}


def summary_rows(counts: dict) -> list:
    """(rank, description, count, proportion to 4 decimals) per category."""
    total = sum(counts.values())
    return [
        (cat.rank, cat.description, counts[cat], f"{counts[cat] / total:.4f}")
        for cat in RANK_ORDER
    ]


def summary_csv(counts: dict) -> str:
    """Category table as CSV: rank,description,count,proportion (4 decimals)."""
    rows = [",".join(map(str, row)) for row in summary_rows(counts)]
    return "\n".join(["rank,description,count,proportion", *rows]) + "\n"


def cooccurrence_csv(counts: dict) -> str:
    """Co-occurrence grid as CSV: lowlight,cast,blur,count (flags as 0/1),
    one row per category."""
    lines = ["lowlight,cast,blur,count"]
    for low in (False, True):
        for cast in (False, True):
            for blur in (False, True):
                n = counts[_BY_FLAGS[DegradationFlags(cast, low, blur)]]
                lines.append(f"{int(low)},{int(cast)},{int(blur)},{n}")
    return "\n".join(lines) + "\n"
