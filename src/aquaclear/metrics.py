"""Image quality scoring: PSNR plus the two no-reference underwater metrics.

UCIQE (Yang & Sowmya 2015) is a weighted sum of chroma spread, luminance
contrast, and mean saturation computed in CIELab; UIQM (Panetta et al.
2016) combines colorfulness (UICM), sharpness (UISM, Sobel + block EME),
and block contrast (UIConM). Components are kept in normalized units (L and
chroma divided by 100) so scores land in a small dimensionless range.

score_image scores one image in a single pass: it converts the image to
float64 once, in 16-row strips with a one-pixel edge-replicated border
(image._edge_bands), and hands each strip to UCIQE, UISM and UIConM. Each
keeps only what its final reduction needs: full-size L, chroma and
saturation planes for UCIQE (whose sums and sorts run over whole planes,
in row order), per-block maxima and minima for UISM and UIConM, and its
state is dropped with its result. UICM reads the image directly after the
strip walk, building its RG, then its YB plane in one buffer. Variances
run in place. The public per-metric functions run the same code for their
own metric alone, so the scores do not depend on which function computed
them, nor on the memory layout of the image. report_csv writes scored
rows as scores.csv, each image's row and then each method's mean row.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, ImageTooSmallError
from .image import ImageF32, _edge_bands, _luma, _srgb_to_lab, _var_in_place

__all__ = [
    "UCIQE_WEIGHTS",
    "UIQM_WEIGHTS",
    "METHOD_LABELS",
    "METHOD_ORDER",
    "SCORES_HEADER",
    "QualityScores",
    "psnr",
    "uciqe",
    "uicm",
    "uism",
    "uiconm",
    "uiqm",
    "score_image",
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
    # pixel-interleaved, as load_ppm lays an image out, whatever the
    # operands' layout: the mean sums in memory order
    diff = reference.data.transpose(1, 2, 0).astype(np.float64, order="C")
    diff -= test.data.transpose(1, 2, 0)
    mse = float(np.mean(np.multiply(diff, diff, out=diff), dtype=np.float64))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


# ------------------------------------------------------------ scoring pass

def _measure(img: ImageF32, *metrics) -> list:
    """Run the scoring pass for the given metric classes; their results in
    order. Each class checks that it can score ``img`` before any strip,
    and each one's state is dropped as soon as its result is taken."""
    parts = [metric(img) for metric in metrics]
    for rows, strip in _edge_bands(img.data, _STRIP, 1):
        for part in parts:
            part.add(rows, strip)
    parts.reverse()
    return [parts.pop().result() for _ in metrics]


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
        sigma_c = math.sqrt(_var_in_place(self.chroma.ravel())) / 100.0
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


def _uicm(img: ImageF32) -> float:
    """UICM from the RG plane, then the YB plane in the same buffer."""
    r, g, b = img.data
    plane = np.empty(r.shape)  # C order: sums and sorts run in row order
    np.subtract(r, g, out=plane, dtype=np.float64)
    mu_rg = _trimmed_mean(plane.ravel())
    var_rg = _var_in_place(plane.ravel(), mu_rg)
    np.add(r, g, out=plane, dtype=np.float64)
    plane /= 2.0
    np.subtract(plane, b, out=plane, dtype=np.float64)
    mu_yb = _trimmed_mean(plane.ravel())
    var_yb = _var_in_place(plane.ravel(), mu_yb)
    return -0.0268 * math.hypot(mu_rg, mu_yb) + 0.1586 * math.sqrt(var_rg + var_yb)


def _eme(mx: np.ndarray, mn: np.ndarray) -> float:
    """(2/K) sum of ln(max/min) over K blocks; near-zero-min blocks add 0."""
    valid = mn >= 1e-6
    ratios = np.where(valid, mx / np.where(valid, mn, 1.0), 1.0)
    return (2.0 / mx.size) * float(np.sum(np.log(ratios)))


class _Uism:
    """Keeps each channel's Sobel-magnitude block extrema."""

    def __init__(self, img: ImageF32):
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
    return _uicm(img)


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
    parts = _measure(img, _Uism, _Uiconm)
    return _uiqm(_uicm(img), *parts)


def score_image(img: ImageF32, reference: ImageF32 | None = None) -> QualityScores:
    """All metrics for one image, in one pass; PSNR only when a reference is
    supplied."""
    (uciqe_score, uc), *parts = _measure(img, _Uciqe, _Uism, _Uiconm)
    uiqm_score, uq = _uiqm(_uicm(img), *parts)
    return QualityScores(None if reference is None else psnr(reference, img),
                         uciqe_score, uiqm_score, **uc, **uq)


# ------------------------------------------------------------- batch report

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


def _cell(value: float | None) -> str:
    if value is None:
        return ""
    if value == math.inf:
        return "inf"
    return f"{value:.6f}"


def _mean_psnr(scores) -> float | None:
    """Mean over the finite PSNRs; inf when there are none but some are
    infinite; None when no row had a reference."""
    finite = [s.psnr for s in scores if s.psnr is not None and math.isfinite(s.psnr)]
    if finite:
        return sum(finite) / len(finite)
    return math.inf if any(s.psnr == math.inf for s in scores) else None


def _csv_text(rows) -> str:
    """``rows`` as CSV text, lines ending in "\n": a cell is quoted only
    when it holds a comma, a quote or a line feed, so plain cells keep the
    bytes a comma join gives them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def report_csv(rows) -> str:
    """Fixed-header CSV of (image, method, QualityScores) rows: one row per
    image, then one mean row per method, in canonical method order."""
    rows = list(rows)
    lines = [SCORES_HEADER]
    for image, method, s in rows:
        lines.append([image, method] + [_cell(getattr(s, c)) for c in _COLUMNS])
    for method in sorted({m for _, m, _ in rows}, key=_method_sort_key):
        scores = [s for _, m, s in rows if m == method]
        cells = [_cell(_mean_psnr(scores))] + [
            _cell(sum(getattr(s, c) for s in scores) / len(scores)) for c in _COLUMNS[1:]
        ]
        lines.append(["mean", method] + cells)
    return _csv_text(lines)
