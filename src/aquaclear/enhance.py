"""Classical enhancement filters and the flag-driven plan machinery.

Four defect-targeted methods (gray-world color balance, CLAHE on V, non-local
means denoising, Laplacian sharpening) plus two preprocessing filters that no
plan uses (homomorphic illumination correction, global histogram equalization).
A plan is an ordered list of steps; build_plan derives one from DegradationFlags.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .classify import DegradationFlags
from .errors import (
    ImageTooSmallError,
    NegativeStrengthError,
    PlanStepError,
    ZeroChannelMeanWarning,
)
from .image import ImageF32, channel_stats, convolve2d, gaussian_blur, hsv_to_rgb, rgb_to_hsv

__all__ = [
    "ClaheParams",
    "NlmParams",
    "StepKind",
    "PlanStep",
    "EnhancementPlan",
    "gray_world_correct",
    "clahe_v",
    "sharpen",
    "nlm_denoise",
    "homomorphic_filter",
    "hist_equalize_global",
    "build_plan",
    "apply_plan",
    "SHARPEN_KERNEL_ZERO_SUM",
    "SHARPEN_KERNEL_PAPER_MODE",
]

_ZERO_MEAN = 1e-6

SHARPEN_KERNEL_ZERO_SUM = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]]
)
# Alternate kernel with center -9: sums to -17, so it drives constant regions
# to hard clamp. Kept selectable for side-by-side comparisons; never planned.
SHARPEN_KERNEL_PAPER_MODE = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, -9.0, -1.0], [-1.0, -1.0, -1.0]]
)


@dataclass(frozen=True)
class ClaheParams:
    tiles_x: int = 8
    tiles_y: int = 8
    clip_limit: float = 2.0
    bins: int = 256

    def __post_init__(self):
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError("tile counts must be >= 1")
        if self.clip_limit < 1.0:
            raise ValueError("clip_limit must be >= 1.0")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")


@dataclass(frozen=True)
class NlmParams:
    patch_radius: int = 3
    window_radius: int = 10
    h: float = 0.1

    def __post_init__(self):
        if self.patch_radius < 0:
            raise ValueError("patch_radius must be >= 0")
        if self.window_radius < self.patch_radius:
            raise ValueError("window_radius must be >= patch_radius")
        if self.h <= 0.0:
            raise ValueError("h must be > 0")


# ------------------------------------------------------------- single steps

def gray_world_correct(img: ImageF32) -> ImageF32:
    """Scale each channel so its mean lands on the cross-channel average.

    A channel whose mean is at or below 1e-6 is left unscaled (the gain would
    explode) and a ZeroChannelMeanWarning is issued.
    """
    stats = channel_stats(img)
    means = (stats.mean_r, stats.mean_g, stats.mean_b)
    planes = img.data.astype(np.float64)
    out = np.empty_like(planes)
    for c, mean_c in enumerate(means):
        if mean_c <= _ZERO_MEAN:
            warnings.warn(
                f"channel {c} mean {mean_c:.2e} too small for gray-world gain",
                ZeroChannelMeanWarning,
            )
            out[c] = planes[c]
        else:
            out[c] = planes[c] * (stats.mean_avg / mean_c)
    return ImageF32.from_array(out)


def _tile_edges(extent: int, tiles: int) -> list[int]:
    return [(i * extent) // tiles for i in range(tiles + 1)]


def _clahe_luts(v: np.ndarray, bin_idx: np.ndarray, params: ClaheParams):
    """Per-tile value lookup tables plus an identity-tile mask.

    Each tile's histogram is clipped at clip_limit times the uniform bin
    height, the excess is spread evenly over all bins, and the CDF is mapped
    through m(k) = (cdf(k) - cdf_min) / (n - cdf_min). A tile whose entire
    mass sits at cdf_min (constant tile, no clipping) keeps its values as-is.
    """
    h_img, w_img = v.shape
    ys = _tile_edges(h_img, params.tiles_y)
    xs = _tile_edges(w_img, params.tiles_x)
    bins = params.bins
    luts = np.zeros((params.tiles_y, params.tiles_x, bins), dtype=np.float64)
    identity = np.zeros((params.tiles_y, params.tiles_x), dtype=bool)
    for ty in range(params.tiles_y):
        for tx in range(params.tiles_x):
            block = bin_idx[ys[ty] : ys[ty + 1], xs[tx] : xs[tx + 1]]
            n = block.size
            if n == 0:
                identity[ty, tx] = True
                continue
            hist = np.bincount(block.ravel(), minlength=bins).astype(np.float64)
            ceiling = params.clip_limit * n / bins
            excess = float(np.maximum(hist - ceiling, 0.0).sum())
            if excess > 0.0:
                hist = np.minimum(hist, ceiling) + excess / bins
            cdf = np.cumsum(hist)
            first = int(np.flatnonzero(hist)[0])
            cdf_min = float(cdf[first])
            if n - cdf_min <= 0.0:
                identity[ty, tx] = True
                continue
            luts[ty, tx] = np.clip((cdf - cdf_min) / (n - cdf_min), 0.0, 1.0)
    centers_y = np.array([(ys[i] + ys[i + 1] - 1) / 2.0 for i in range(params.tiles_y)])
    centers_x = np.array([(xs[i] + xs[i + 1] - 1) / 2.0 for i in range(params.tiles_x)])
    return luts, identity, centers_y, centers_x


def _blend_axis(coords: np.ndarray, centers: np.ndarray):
    """Neighbor tile indices and the fractional weight toward the upper one."""
    hi = np.searchsorted(centers, coords, side="right")
    i1 = np.clip(hi, 0, len(centers) - 1)
    i0 = np.clip(hi - 1, 0, len(centers) - 1)
    span = centers[i1] - centers[i0]
    w = np.where(span > 0.0, (coords - centers[i0]) / np.where(span > 0.0, span, 1.0), 0.0)
    return i0, i1, np.clip(w, 0.0, 1.0)


def clahe_v(img: ImageF32, params: ClaheParams = ClaheParams()) -> ImageF32:
    """Contrast-limited adaptive histogram equalization on the HSV V plane.

    Pixel values are remapped by bilinearly blending the CDF mappings of the
    four surrounding tiles; H and S pass through untouched.
    """
    hsv = rgb_to_hsv(img).data.astype(np.float64)
    v = hsv[2]
    h_img, w_img = v.shape
    bins = params.bins
    bin_idx = np.minimum((v * bins).astype(np.int64), bins - 1)

    luts, identity, centers_y, centers_x = _clahe_luts(v, bin_idx, params)

    rows = np.arange(h_img, dtype=np.float64)[:, None] * np.ones((1, w_img))
    cols = np.ones((h_img, 1)) * np.arange(w_img, dtype=np.float64)[None, :]
    y0, y1, wy = _blend_axis(rows, centers_y)
    x0, x1, wx = _blend_axis(cols, centers_x)

    def tile_value(iy, ix):
        mapped = luts[iy, ix, bin_idx]
        return np.where(identity[iy, ix], v, mapped)

    v_new = (
        (1.0 - wy) * (1.0 - wx) * tile_value(y0, x0)
        + (1.0 - wy) * wx * tile_value(y0, x1)
        + wy * (1.0 - wx) * tile_value(y1, x0)
        + wy * wx * tile_value(y1, x1)
    )
    return hsv_to_rgb(ImageF32.from_array(np.stack([hsv[0], hsv[1], v_new])))


def sharpen(
    img: ImageF32, strength: float = 1.0, kernel_mode: str = "zero_sum"
) -> ImageF32:
    """Laplacian edge boost: I' = clamp(I + strength * (K conv I)).

    zero_sum mode computes the response as a sum of neighbor differences, so
    constant images pass through bit-identically.
    """
    if strength < 0.0:
        raise NegativeStrengthError(f"strength must be >= 0, got {strength}")
    if kernel_mode not in ("zero_sum", "paper"):
        raise ValueError(f"unknown kernel_mode {kernel_mode!r}")
    planes = img.data.astype(np.float64)
    out = np.empty_like(planes)
    for c in range(img.channels):
        plane = planes[c]
        padded = np.pad(plane, 1, mode="edge")
        h_img, w_img = plane.shape
        response = np.zeros_like(plane)
        for dy in range(3):
            for dx in range(3):
                if dy == 1 and dx == 1:
                    continue
                response += plane - padded[dy : dy + h_img, dx : dx + w_img]
        if kernel_mode == "paper":
            response -= 17.0 * plane
        out[c] = plane + strength * response
    return ImageF32.from_array(out)


def _window_sum(a: np.ndarray, size: int) -> np.ndarray:
    """Valid-mode moving-window sum over both axes of a 2-D array."""
    c = np.cumsum(a, axis=0, dtype=np.float64)
    c = np.vstack([np.zeros((1, a.shape[1])), c])
    rows = c[size:] - c[:-size]
    c2 = np.cumsum(rows, axis=1, dtype=np.float64)
    c2 = np.hstack([np.zeros((rows.shape[0], 1)), c2])
    return c2[:, size:] - c2[:, :-size]


def nlm_denoise(img: ImageF32, params: NlmParams = NlmParams()) -> ImageF32:
    """Non-local means: each pixel becomes a patch-similarity-weighted mean.

    For every offset y in the (2w+1)x(2w+1) search window (taken over the
    replicate-padded plane), the weight is exp(-d2/h^2) with d2 the mean
    squared difference of the two (2p+1)x(2p+1) patches; the center offset
    always carries weight 1. Accumulated in difference form so constant
    images are returned bit-identically.
    """
    p = params.patch_radius
    w = params.window_radius
    if min(img.height, img.width) < 2 * p + 1:
        raise ImageTooSmallError(
            f"{img.width}x{img.height} image too small for patch radius {p}"
        )
    side = 2 * p + 1
    area = float(side * side)
    inv_h2 = 1.0 / (params.h * params.h)
    pad = w + p
    h_img, w_img = img.height, img.width

    planes = img.data.astype(np.float64)
    out = np.empty_like(planes)
    for c in range(img.channels):
        plane = planes[c]
        padded = np.pad(plane, pad, mode="edge")
        core = padded[pad - p : pad + p + h_img, pad - p : pad + p + w_img]
        num = np.zeros((h_img, w_img), dtype=np.float64)
        den = np.ones((h_img, w_img), dtype=np.float64)  # center offset
        for dy in range(-w, w + 1):
            for dx in range(-w, w + 1):
                if dy == 0 and dx == 0:
                    continue
                moved = padded[
                    pad - p + dy : pad + p + h_img + dy,
                    pad - p + dx : pad + p + w_img + dx,
                ]
                d2 = _window_sum((moved - core) ** 2, side) / area
                weight = np.exp(-d2 * inv_h2)
                neighbor = padded[
                    pad + dy : pad + dy + h_img, pad + dx : pad + dx + w_img
                ]
                num += weight * (neighbor - plane)
                den += weight
        out[c] = plane + num / den
    return ImageF32.from_array(out)


def homomorphic_filter(
    img: ImageF32,
    gamma_low: float = 0.7,
    gamma_high: float = 1.3,
    sigma: float = 15.0,
) -> ImageF32:
    """Log-domain illumination/reflectance rebalance on the V plane.

    The log of V splits into a Gaussian lowpass (illumination) and the
    remainder (reflectance); each gets its own gain. Unit gains reproduce
    the input to within rounding.
    """
    hsv = rgb_to_hsv(img).data.astype(np.float64)
    eps = 1e-3
    v_log = np.log(hsv[2] + eps)
    lowpass = gaussian_blur(v_log, sigma)
    v_new = np.exp(gamma_low * lowpass + gamma_high * (v_log - lowpass)) - eps
    return hsv_to_rgb(
        ImageF32.from_array(np.stack([hsv[0], hsv[1], np.clip(v_new, 0.0, 1.0)]))
    )


def hist_equalize_global(img: ImageF32) -> ImageF32:
    """Plain histogram equalization of V over 256 bins.

    Uses the (cdf - cdf_min) / (N - cdf_min) mapping; a constant V plane
    degenerates to all zeros, so callers should plan this step only for
    images with spread.
    """
    hsv = rgb_to_hsv(img).data.astype(np.float64)
    v = hsv[2]
    bins = 256
    bin_idx = np.minimum((v * bins).astype(np.int64), bins - 1)
    hist = np.bincount(bin_idx.ravel(), minlength=bins).astype(np.float64)
    cdf = np.cumsum(hist)
    n = float(v.size)
    first = int(np.flatnonzero(hist)[0])
    cdf_min = float(cdf[first])
    if n - cdf_min <= 0.0:
        v_new = np.zeros_like(v)
    else:
        lut = np.clip((cdf - cdf_min) / (n - cdf_min), 0.0, 1.0)
        v_new = lut[bin_idx]
    return hsv_to_rgb(ImageF32.from_array(np.stack([hsv[0], hsv[1], v_new])))


# -------------------------------------------------------------------- plans

class StepKind(Enum):
    GRAY_WORLD = "gray_world"
    CLAHE = "clahe"
    DENOISE = "denoise"
    SHARPEN = "sharpen"


@dataclass(frozen=True)
class PlanStep:
    kind: StepKind
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EnhancementPlan:
    steps: tuple = ()

    def __post_init__(self):
        kinds = [s.kind for s in self.steps]
        if len(set(kinds)) != len(kinds):
            raise ValueError("plan contains duplicate steps")

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def kinds(self) -> list[str]:
        return [s.kind.value for s in self.steps]


def build_plan(flags: DegradationFlags, overrides: dict | None = None) -> EnhancementPlan:
    """Map detected defects to steps, in the fixed order
    gray_world -> clahe -> denoise -> sharpen.

    ``overrides`` optionally supplies per-kind parameter dicts.
    """
    overrides = overrides or {}
    steps = []

    def add(kind):
        steps.append(PlanStep(kind, dict(overrides.get(kind, {}))))

    if flags.color_cast:
        add(StepKind.GRAY_WORLD)
    if flags.low_light:
        add(StepKind.CLAHE)
    if flags.blurred:
        add(StepKind.DENOISE)
        add(StepKind.SHARPEN)
    return EnhancementPlan(tuple(steps))


_STEP_FUNCS = {
    StepKind.GRAY_WORLD: lambda img, p: gray_world_correct(img),
    StepKind.CLAHE: lambda img, p: clahe_v(img, ClaheParams(**p)),
    StepKind.DENOISE: lambda img, p: nlm_denoise(img, NlmParams(**p)),
    StepKind.SHARPEN: lambda img, p: sharpen(img, **p),
}


def apply_plan(img: ImageF32, plan: EnhancementPlan, on_step=None) -> ImageF32:
    """Run the plan's steps left to right; the empty plan is the identity.

    ``on_step(index, kind, image)`` is invoked after each step with the
    intermediate result, for diagnostics. Step failures are re-raised as
    PlanStepError carrying the step index.
    """
    current = img
    for i, step in enumerate(plan):
        try:
            current = _STEP_FUNCS[step.kind](current, step.params)
        except Exception as exc:
            raise PlanStepError(i, step.kind.value, exc) from exc
        if on_step is not None:
            on_step(i, step.kind, current)
    return current
