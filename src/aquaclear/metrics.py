"""Image quality scoring: PSNR plus the two no-reference underwater metrics.

UCIQE (Yang & Sowmya 2015) is a weighted sum of chroma spread, luminance
contrast, and mean saturation computed in CIELab; UIQM (Panetta et al.
2016) combines colorfulness (UICM), sharpness (UISM, Sobel + block EME),
and block contrast (UIConM). Components are kept in normalized units (L and
chroma divided by 100) so scores land in a small dimensionless range.

score_image scores one image in a single pass: it converts the image to
float64 once, in strips of 16 rows with a one-pixel edge-replicated border,
and hands each strip to every metric. Each metric keeps only what its final
reduction needs: full-size L, chroma and saturation planes for UCIQE, RG
and YB planes for UICM (whose sums and sorts run over whole planes, in row
order), and per-block maxima and minima for UISM and UIConM. The public
per-metric functions run the same pass with only their own metric, so the
scores do not depend on which function computed them, nor on the memory
layout of the image. aggregate_scores takes the per-method means of scored
rows and report_csv lays them out as scores.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, EmptyBatchError, ImageTooSmallError
from .image import ImageF32, _luma, _require_rgb, _srgb_to_lab

__all__ = [
    "UCIQE_WEIGHTS",
    "UIQM_WEIGHTS",
    "METHOD_LABELS",
    "METHOD_ORDER",
    "SCORES_HEADER",
    "QualityScores",
    "QualityReport",
    "psnr",
    "uciqe",
    "uicm",
    "uism",
    "uiconm",
    "uiqm",
    "score_image",
    "aggregate_scores",
    "report_csv",
]

UCIQE_WEIGHTS = (0.4680, 0.2745, 0.2576)
UIQM_WEIGHTS = (0.0282, 0.2953, 3.5753)
# enhanced-file name token -> method label, in report order after Original
METHOD_LABELS = {"unite": "Unite", "vgg": "VGG19", "resnet": "ResNet50",
                 "classic": "Classic"}
METHOD_ORDER = ("Original", *METHOD_LABELS.values())

_BLOCK = 8
# Rows per strip of the scoring pass; a multiple of _BLOCK, so every strip
# but the last holds whole block rows.
_STRIP = 16


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


# ------------------------------------------------------------ scoring pass

def _strips(data: np.ndarray):
    """Yield (rows, strip) for each run of _STRIP rows of a (c, h, w) image.

    ``strip`` is float64 of shape (c, len(rows) + 2, w + 2): those rows with
    a one-pixel edge-replicated border. One buffer serves every strip, so a
    consumer copies out what it keeps before the next one.
    """
    c, h, w = data.shape
    buf = np.empty((c, min(_STRIP, h) + 2, w + 2))
    for y0 in range(0, h, _STRIP):
        y1 = min(y0 + _STRIP, h)
        strip = buf[:, : y1 - y0 + 2]
        strip[:, 1:-1, 1:-1] = data[:, y0:y1]
        strip[:, 0, 1:-1] = data[:, max(y0 - 1, 0)]
        strip[:, -1, 1:-1] = data[:, min(y1, h - 1)]
        strip[:, :, 0] = strip[:, :, 1]
        strip[:, :, -1] = strip[:, :, -2]
        yield slice(y0, y1), strip


def _measure(img: ImageF32, *metrics) -> list:
    """Run the scoring pass for the given metric classes; their results in
    order. Each class checks that it can score ``img`` before any strip."""
    parts = [metric(img) for metric in metrics]
    for rows, strip in _strips(img.data):
        for part in parts:
            part.add(rows, strip)
    return [part.result() for part in parts]


def _require_blocks(img: ImageF32) -> None:
    if img.height < _BLOCK or img.width < _BLOCK:
        raise ImageTooSmallError(
            f"{img.width}x{img.height} image too small for 8x8 blocks"
        )


def _block_extrema(plane: np.ndarray, mx: np.ndarray, mn: np.ndarray) -> None:
    """Write the max and min of each full 8x8 block of ``plane`` (partial
    blocks dropped) to ``mx`` and ``mn``: over the 8 rows, then the 8
    columns."""
    by, bx = mx.shape
    rows = plane[: by * _BLOCK, : bx * _BLOCK].reshape(by, _BLOCK, bx * _BLOCK)
    rows.max(axis=1).reshape(by, bx, _BLOCK).max(axis=2, out=mx)
    rows.min(axis=1).reshape(by, bx, _BLOCK).min(axis=2, out=mn)


def _block_rows(rows: slice) -> slice:
    """Block rows whose 8 pixel rows all lie in a strip's ``rows``."""
    return slice(rows.start // _BLOCK, rows.stop // _BLOCK)


def _sobel_magnitude(padded: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude inside the one-pixel border of ``padded``.

    The taps are added in convolve2d's flipped-kernel order, starting from
    the first tap, and the weights are +-1 or +-2, so each gradient has the
    bits convolve2d gives with the 3x3 Sobel kernels.
    """
    top, mid, bot = padded[:-2], padded[1:-1], padded[2:]
    gx = top[:, :-2] - top[:, 2:]
    gx += 2.0 * mid[:, :-2]
    gx -= 2.0 * mid[:, 2:]
    gx += bot[:, :-2]
    gx -= bot[:, 2:]
    gy = top[:, :-2] + 2.0 * top[:, 1:-1]
    gy += top[:, 2:]
    gy -= bot[:, :-2]
    gy -= 2.0 * bot[:, 1:-1]
    gy -= bot[:, 2:]
    return np.hypot(gx, gy, out=gx)


class _Uciqe:
    """Keeps full-size L, chroma and saturation for the final reductions."""

    def __init__(self, img: ImageF32):
        _require_rgb(img)
        self.lum, self.chroma, self.sat = np.empty((3, img.height, img.width))

    def add(self, rows: slice, strip: np.ndarray) -> None:
        lum, a, b = _srgb_to_lab(strip[:, 1:-1, 1:-1])
        self.lum[rows] = lum
        chroma = np.hypot(a, b, out=self.chroma[rows])
        norm_sq = chroma * chroma + lum * lum
        self.sat[rows] = np.where(
            norm_sq < 1e-9, 0.0, chroma / np.sqrt(np.maximum(norm_sq, 1e-300))
        )

    def result(self) -> tuple[float, dict]:
        lum = self.lum.ravel()
        sigma_c = float(np.std(self.chroma.ravel())) / 100.0
        n = lum.size
        k = math.ceil(0.01 * n)
        lum.sort()
        con_l = float(np.mean(lum[n - k :]) - np.mean(lum[:k])) / 100.0
        mu_s = float(np.mean(self.sat.ravel()))
        score = (
            UCIQE_WEIGHTS[0] * sigma_c
            + UCIQE_WEIGHTS[1] * con_l
            + UCIQE_WEIGHTS[2] * mu_s
        )
        return score, {"sigma_c": sigma_c, "con_l": con_l, "mu_s": mu_s}


def _trimmed_mean(values: np.ndarray) -> float:
    """Mean after dropping the lowest and highest floor(0.1 N) values."""
    flat = np.sort(values)
    drop = int(math.floor(0.1 * flat.size))
    kept = flat[drop : flat.size - drop] if drop > 0 else flat
    return float(np.mean(kept))


class _Uicm:
    """Keeps the full-size RG and YB opponent planes."""

    def __init__(self, img: ImageF32):
        _require_rgb(img)
        self.rg, self.yb = np.empty((2, img.height, img.width))

    def add(self, rows: slice, strip: np.ndarray) -> None:
        r, g, b = strip[:, 1:-1, 1:-1]
        np.subtract(r, g, out=self.rg[rows])
        yb = np.add(r, g, out=self.yb[rows])
        yb /= 2.0
        yb -= b

    def result(self) -> float:
        rg, yb = self.rg.ravel(), self.yb.ravel()
        mu_rg, mu_yb = _trimmed_mean(rg), _trimmed_mean(yb)
        var_rg = float(np.mean((rg - mu_rg) ** 2))
        var_yb = float(np.mean((yb - mu_yb) ** 2))
        return -0.0268 * math.hypot(mu_rg, mu_yb) + 0.1586 * math.sqrt(var_rg + var_yb)


def _eme(mx: np.ndarray, mn: np.ndarray) -> float:
    """(2/K) sum of ln(max/min) over K blocks; near-zero-min blocks add 0."""
    valid = mn >= 1e-6
    ratios = np.where(valid, mx / np.where(valid, mn, 1.0), 1.0)
    return (2.0 / mx.size) * float(np.sum(np.log(ratios)))


class _Uism:
    """Keeps each channel's Sobel-magnitude block extrema."""

    def __init__(self, img: ImageF32):
        _require_rgb(img)
        _require_blocks(img)
        self.mx, self.mn = np.empty((2, 3, img.height // _BLOCK, img.width // _BLOCK))

    def add(self, rows: slice, strip: np.ndarray) -> None:
        blocks = _block_rows(rows)
        # Only full blocks count: skip the rows and columns past them.
        h = (blocks.stop - blocks.start) * _BLOCK + 2
        w = self.mx.shape[2] * _BLOCK + 2
        for c in range(3):
            mag = _sobel_magnitude(strip[c, :h, :w])
            _block_extrema(mag, self.mx[c, blocks], self.mn[c, blocks])

    def result(self) -> float:
        emes = [_eme(self.mx[c], self.mn[c]) for c in range(3)]
        return 0.299 * emes[0] + 0.587 * emes[1] + 0.114 * emes[2]


class _Uiconm:
    """Keeps the luma block extrema."""

    def __init__(self, img: ImageF32):
        _require_blocks(img)
        self.mx, self.mn = np.empty((2, img.height // _BLOCK, img.width // _BLOCK))

    def add(self, rows: slice, strip: np.ndarray) -> None:
        blocks = _block_rows(rows)
        luma = _luma(strip[:, 1:-1, 1:-1])
        _block_extrema(luma, self.mx[blocks], self.mn[blocks])

    def result(self) -> float:
        mx, mn = self.mx, self.mn
        t = (mx - mn) / (mx + mn + 1e-12)
        nonzero = t > 0.0
        contrib = np.where(nonzero, t * np.abs(np.log(np.where(nonzero, t, 1.0))), 0.0)
        return float(np.sum(contrib)) / mx.size


def uciqe(img: ImageF32) -> tuple[float, dict]:
    """Chroma spread + luminance contrast + mean saturation, in CIELab.

    sigma_c: population std of chroma / 100. con_l: mean of the top 1% of L
    minus mean of the bottom 1% (ceil(0.01 N) pixels each), / 100. mu_s: mean
    of c/sqrt(c^2+L^2), with near-zero pixels contributing 0.
    """
    return _measure(img, _Uciqe)[0]


def uicm(img: ImageF32) -> float:
    """Colorfulness from the RG and YB opponent channels.

    Asymmetric alpha-trimmed means (10% per side) penalize a strong overall
    shift; population variances about those means reward spread.
    """
    return _measure(img, _Uicm)[0]


def uism(img: ImageF32) -> float:
    """Sharpness: per-channel Sobel gradient magnitude scored by block EME,
    combined with luma weights."""
    return _measure(img, _Uism)[0]


def uiconm(img: ImageF32) -> float:
    """Block contrast on luma: mean of t*|ln t| with t the Michelson ratio."""
    return _measure(img, _Uiconm)[0]


def _uiqm(c: float, s: float, con: float) -> tuple[float, dict]:
    score = UIQM_WEIGHTS[0] * c + UIQM_WEIGHTS[1] * s + UIQM_WEIGHTS[2] * con
    return score, {"uicm": c, "uism": s, "uiconm": con}


def uiqm(img: ImageF32) -> tuple[float, dict]:
    return _uiqm(*_measure(img, _Uicm, _Uism, _Uiconm))


def score_image(img: ImageF32, reference: ImageF32 | None = None) -> QualityScores:
    """All metrics for one image, in one pass; PSNR only when a reference is
    supplied."""
    (uciqe_score, uc), *uiqm_parts = _measure(img, _Uciqe, _Uicm, _Uism, _Uiconm)
    uiqm_score, uq = _uiqm(*uiqm_parts)
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
class QualityReport:
    """Per-image rows plus per-method aggregate means.

    aggregates maps method -> column -> mean over that method's rows; the
    psnr mean covers finite rows only, with infinite rows tallied in
    inf_psnr_counts.
    """

    rows: tuple  # of (image, method, QualityScores)
    aggregates: dict
    inf_psnr_counts: dict


SCORES_HEADER = (
    "image", "method",
    "psnr", "uciqe", "uiqm", "sigma_c", "con_l", "mu_s", "uicm", "uism", "uiconm",
)
_COLUMNS = SCORES_HEADER[2:]


def _method_sort_key(method: str):
    try:
        return (0, METHOD_ORDER.index(method))
    except ValueError:
        return (1, method)


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
    lines = [",".join(SCORES_HEADER)]
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
