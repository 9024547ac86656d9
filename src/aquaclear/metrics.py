"""Image quality scoring: PSNR plus the two no-reference underwater metrics.

UCIQE is a weighted sum of chroma spread, luminance contrast, and mean
saturation computed in CIELab; UIQM combines colorfulness (UICM), sharpness
(UISM, Sobel + block EME), and block contrast (UIConM). Components are kept
in normalized units (L and chroma divided by 100) so scores land in a small
dimensionless range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, EmptyBatchError, ImageTooSmallError
from .image import ImageF32, convolve2d, luminance, rgb_to_lab

__all__ = [
    "UCIQE_WEIGHTS",
    "UIQM_WEIGHTS",
    "METHOD_ORDER",
    "QualityScores",
    "EvalItem",
    "QualityReport",
    "psnr",
    "uciqe",
    "uicm",
    "uism",
    "uiconm",
    "uiqm",
    "score_image",
    "evaluate_batch",
    "aggregate_scores",
    "report_csv",
]

UCIQE_WEIGHTS = (0.4680, 0.2745, 0.2576)
UIQM_WEIGHTS = (0.0282, 0.2953, 3.5753)
METHOD_ORDER = ("Original", "Unite", "VGG19", "ResNet50", "Classic")

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
_BLOCK = 8


@dataclass(frozen=True)
class QualityScores:
    psnr: float | None  # dB; math.inf for identical pairs; None when no reference
    uciqe: float
    uiqm: float
    sigma_c: float
    con_l: float
    mu_s: float
    uicm: float
    uism: float
    uiconm: float


def psnr(reference: ImageF32, test: ImageF32) -> float:
    """10*log10(1/MSE) over all samples; identical images give +inf."""
    if reference.data.shape != test.data.shape:
        raise DimMismatchError(
            f"shapes differ: {reference.data.shape} vs {test.data.shape}"
        )
    diff = reference.data.astype(np.float64) - test.data.astype(np.float64)
    mse = float(np.mean(diff * diff, dtype=np.float64))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def uciqe(img: ImageF32) -> tuple[float, dict]:
    """Chroma spread + luminance contrast + mean saturation, in CIELab.

    sigma_c: population std of chroma / 100. con_l: mean of the top 1% of L
    minus mean of the bottom 1% (ceil(0.01 N) pixels each), / 100. mu_s: mean
    of c/sqrt(c^2+L^2), with near-zero pixels contributing 0.
    """
    lab = rgb_to_lab(img)
    lum = lab[0].ravel()
    chroma = np.hypot(lab[1], lab[2]).ravel()

    sigma_c = float(np.std(chroma)) / 100.0

    n = lum.size
    k = math.ceil(0.01 * n)
    l_sorted = np.sort(lum)
    con_l = float(np.mean(l_sorted[n - k :]) - np.mean(l_sorted[:k])) / 100.0

    norm_sq = chroma * chroma + lum * lum
    sat = np.where(norm_sq < 1e-9, 0.0, chroma / np.sqrt(np.maximum(norm_sq, 1e-300)))
    mu_s = float(np.mean(sat))

    score = (
        UCIQE_WEIGHTS[0] * sigma_c
        + UCIQE_WEIGHTS[1] * con_l
        + UCIQE_WEIGHTS[2] * mu_s
    )
    return score, {"sigma_c": sigma_c, "con_l": con_l, "mu_s": mu_s}


def _trimmed_mean(values: np.ndarray) -> float:
    """Mean after dropping the lowest and highest floor(0.1 N) values."""
    flat = np.sort(values.ravel())
    drop = int(math.floor(0.1 * flat.size))
    kept = flat[drop : flat.size - drop] if drop > 0 else flat
    return float(np.mean(kept))


def uicm(img: ImageF32) -> float:
    """Colorfulness from the RG and YB opponent channels.

    Asymmetric alpha-trimmed means (10% per side) penalize a strong overall
    shift; population variances about those means reward spread.
    """
    r, g, b = img.data.astype(np.float64)
    rg = (r - g).ravel()
    yb = ((r + g) / 2.0 - b).ravel()
    mu_rg, mu_yb = _trimmed_mean(rg), _trimmed_mean(yb)
    var_rg = float(np.mean((rg - mu_rg) ** 2))
    var_yb = float(np.mean((yb - mu_yb) ** 2))
    return -0.0268 * math.hypot(mu_rg, mu_yb) + 0.1586 * math.sqrt(var_rg + var_yb)


def _block_view(plane: np.ndarray) -> np.ndarray:
    """Full 8x8 blocks of a plane as shape (by, bx, 8, 8); partials dropped."""
    h, w = plane.shape
    by, bx = h // _BLOCK, w // _BLOCK
    cropped = plane[: by * _BLOCK, : bx * _BLOCK]
    return cropped.reshape(by, _BLOCK, bx, _BLOCK).transpose(0, 2, 1, 3)


def _eme(plane: np.ndarray) -> float:
    """(2/K) sum of ln(max/min) over 8x8 blocks; near-zero-min blocks add 0."""
    blocks = _block_view(plane)
    k = blocks.shape[0] * blocks.shape[1]
    mx = blocks.max(axis=(2, 3))
    mn = blocks.min(axis=(2, 3))
    valid = mn >= 1e-6
    ratios = np.where(valid, mx / np.where(valid, mn, 1.0), 1.0)
    return (2.0 / k) * float(np.sum(np.log(ratios)))


def _require_blocks(img: ImageF32) -> None:
    if img.height < _BLOCK or img.width < _BLOCK:
        raise ImageTooSmallError(
            f"{img.width}x{img.height} image too small for 8x8 blocks"
        )


def uism(img: ImageF32) -> float:
    """Sharpness: per-channel Sobel gradient magnitude scored by block EME,
    combined with luma weights."""
    _require_blocks(img)
    planes = img.data.astype(np.float64)
    emes = []
    for c in range(3):
        gx = convolve2d(planes[c], _SOBEL_X)
        gy = convolve2d(planes[c], _SOBEL_Y)
        emes.append(_eme(np.hypot(gx, gy)))
    return 0.299 * emes[0] + 0.587 * emes[1] + 0.114 * emes[2]


def uiconm(img: ImageF32) -> float:
    """Block contrast on luma: mean of t*|ln t| with t the Michelson ratio."""
    _require_blocks(img)
    blocks = _block_view(luminance(img))
    k = blocks.shape[0] * blocks.shape[1]
    mx = blocks.max(axis=(2, 3))
    mn = blocks.min(axis=(2, 3))
    t = (mx - mn) / (mx + mn + 1e-12)
    nonzero = t > 0.0
    contrib = np.where(nonzero, t * np.abs(np.log(np.where(nonzero, t, 1.0))), 0.0)
    return float(np.sum(contrib)) / k


def uiqm(img: ImageF32) -> tuple[float, dict]:
    c, s, con = uicm(img), uism(img), uiconm(img)
    score = UIQM_WEIGHTS[0] * c + UIQM_WEIGHTS[1] * s + UIQM_WEIGHTS[2] * con
    return score, {"uicm": c, "uism": s, "uiconm": con}


def score_image(img: ImageF32, reference: ImageF32 | None = None) -> QualityScores:
    """All metrics for one image; PSNR only when a reference is supplied."""
    uciqe_score, uc = uciqe(img)
    uiqm_score, uq = uiqm(img)
    return QualityScores(
        psnr=None if reference is None else psnr(reference, img),
        uciqe=uciqe_score,
        uiqm=uiqm_score,
        sigma_c=uc["sigma_c"],
        con_l=uc["con_l"],
        mu_s=uc["mu_s"],
        uicm=uq["uicm"],
        uism=uq["uism"],
        uiconm=uq["uiconm"],
    )


# ------------------------------------------------------------- batch report

@dataclass(frozen=True)
class EvalItem:
    image: str
    method: str
    test: ImageF32
    reference: ImageF32 | None = None


@dataclass(frozen=True)
class QualityReport:
    """Per-image rows plus per-method aggregate means.

    aggregates maps method -> column -> mean over that method's rows; the
    psnr mean covers finite rows only, with infinite rows tallied in
    inf_psnr_counts.
    """

    rows: tuple  # of (image, method, QualityScores)
    aggregates: dict
    inf_psnr_counts: dict


_COLUMNS = (
    "psnr", "uciqe", "uiqm", "sigma_c", "con_l", "mu_s", "uicm", "uism", "uiconm"
)


def _method_sort_key(method: str):
    try:
        return (0, METHOD_ORDER.index(method))
    except ValueError:
        return (1, method)


def evaluate_batch(items) -> QualityReport:
    """Score every item and aggregate per-method means in canonical order."""
    return aggregate_scores(
        (item.image, item.method, score_image(item.test, item.reference))
        for item in items
    )


def aggregate_scores(rows) -> QualityReport:
    """Per-method means, in canonical method order, of (image, method,
    QualityScores) rows."""
    rows = list(rows)
    if not rows:
        raise EmptyBatchError("no images to evaluate")
    methods = sorted({m for _, m, _ in rows}, key=_method_sort_key)
    aggregates: dict = {}
    inf_counts: dict = {}
    for method in methods:
        scores = [s for _, m, s in rows if m == method]
        agg = {}
        finite = [s.psnr for s in scores if s.psnr is not None and math.isfinite(s.psnr)]
        inf_counts[method] = sum(1 for s in scores if s.psnr == math.inf)
        agg["psnr"] = sum(finite) / len(finite) if finite else None
        for col in _COLUMNS[1:]:
            vals = [getattr(s, col) for s in scores]
            agg[col] = sum(vals) / len(vals)
        aggregates[method] = agg
    return QualityReport(tuple(rows), aggregates, inf_counts)


def _cell(value: float | None) -> str:
    if value is None:
        return ""
    if value == math.inf:
        return "inf"
    return f"{value:.6f}"


def report_csv(report: QualityReport) -> str:
    """Fixed-header CSV: one row per image, then one mean row per method."""
    lines = ["image,method,psnr,uciqe,uiqm,sigma_c,con_l,mu_s,uicm,uism,uiconm"]
    for image, method, s in report.rows:
        cells = [_cell(getattr(s, col)) for col in _COLUMNS]
        lines.append(",".join([image, method] + cells))
    for method in report.aggregates:
        agg = report.aggregates[method]
        psnr_cell = _cell(agg["psnr"])
        if agg["psnr"] is None and report.inf_psnr_counts.get(method, 0) > 0:
            psnr_cell = "inf"
        cells = [psnr_cell] + [_cell(agg[col]) for col in _COLUMNS[1:]]
        lines.append(",".join(["mean", method] + cells))
    return "\n".join(lines) + "\n"
