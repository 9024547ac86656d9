"""Classical enhancement filters and the flag-driven plan machinery.

Four defect-targeted methods (gray-world color balance, CLAHE on V, non-local
means denoising, Laplacian sharpening). A plan is an ordered list of steps;
build_plan derives one from DegradationFlags.

Each filter works in float64 on one edge-padded row band at a time
(image._edge_bands; NLM on one channel's band) and clamps it straight into
its float32 output, which keeps the input's memory layout. So its scratch
grows with the image width, not its height. Bands never change a bit:
every output equals the whole-image float64 formula's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import DegradationFlags
from .errors import (
    ImageTooSmallError,
    NegativeStrengthError,
    PlanStepError,
    ZeroChannelMeanWarning,
)
from .image import (ImageF32, _band_rows, _clip_into, _edge_bands, _hsv_band, _map_bands,
                    _rgb_band, channel_stats)

__all__ = [
    "ClaheParams",
    "NlmParams",
    "SharpenParams",
    "StepKind",
    "PlanStep",
    "EnhancementPlan",
    "gray_world_correct",
    "clahe_v",
    "sharpen",
    "nlm_denoise",
    "build_plan",
    "apply_plan",
]

_ZERO_MEAN = 1e-6


@dataclass(frozen=True)
class ClaheParams:
    tiles_x: int = 8
    tiles_y: int = 8
    clip_limit: float = 2.0
    bins: int = 256

    # The upper bounds keep the per-tile LUTs under 135 MB.
    def __post_init__(self):
        if not (1 <= self.tiles_x <= 64 and 1 <= self.tiles_y <= 64):
            raise ValueError("tile counts must lie in [1, 64]")
        if self.clip_limit < 1.0:
            raise ValueError("clip_limit must be >= 1.0")
        if not 2 <= self.bins <= 4096:
            raise ValueError("bins must lie in [2, 4096]")


@dataclass(frozen=True)
class NlmParams:
    patch_radius: int = 3
    window_radius: int = 10
    h: float = 0.1

    # The upper bounds cap the work: a window of radius 32 searches about 10x
    # the default's offsets. Two different 8-bit patches differ by a mean
    # square of at least (1/255)^2 / 21^2, so below h = 6.8e-6 every weight
    # between them underflows to 0 and NLM on 8-bit input is the identity;
    # a smaller h only nears h*h underflowing and the weights turning nan.
    def __post_init__(self):
        if not 0 <= self.patch_radius <= 10:
            raise ValueError("patch_radius must lie in [0, 10]")
        if not self.patch_radius <= self.window_radius <= 32:
            raise ValueError("window_radius must lie in [patch_radius, 32]")
        if self.h < 1e-6:
            raise ValueError("h must be >= 1e-6")


@dataclass(frozen=True)
class SharpenParams:
    strength: float = 1.0
    kernel_mode: str = "zero_sum"

    # |response| is at most 25 ("paper" mode), so strength * response stays
    # finite; at the bound an edge of one 8-bit level already moves a sample
    # by more than full scale.
    def __post_init__(self):
        if self.strength < 0.0:
            raise NegativeStrengthError(f"strength must be >= 0, got {self.strength}")
        if self.strength > 1000.0:
            raise ValueError(f"strength must be <= 1000, got {self.strength}")
        if self.kernel_mode not in ("zero_sum", "paper"):
            raise ValueError(f"unknown kernel_mode {self.kernel_mode!r}")


# ------------------------------------------------------------- single steps

def gray_world_correct(img: ImageF32) -> ImageF32:
    """Scale each channel so its mean lands on the cross-channel average.

    A channel whose mean is at or below 1e-6 is left unscaled (the gain would
    explode) and a ZeroChannelMeanWarning is issued.
    """
    stats = channel_stats(img)
    gains = np.ones((3, 1, 1))
    for c, mean_c in enumerate((stats.mean_r, stats.mean_g, stats.mean_b)):
        if mean_c <= _ZERO_MEAN:
            warnings.warn(
                f"channel {c} mean {mean_c:.2e} too small for gray-world gain",
                ZeroChannelMeanWarning,
            )
        else:
            gains[c] = stats.mean_avg / mean_c
    return _map_bands(img.data, lambda b, _: np.multiply(b, gains, out=b))


def _tile_edges(extent: int, tiles: int) -> list[int]:
    return [(i * extent) // tiles for i in range(tiles + 1)]


def _clahe_luts(bin_idx: np.ndarray, params: ClaheParams):
    """Per-tile value lookup tables plus an identity-tile mask.

    Each tile's histogram is clipped at clip_limit times the uniform bin
    height, the excess is spread evenly over all bins, and the CDF is mapped
    through m(k) = (cdf(k) - cdf_min) / (n - cdf_min). A tile whose entire
    mass sits at cdf_min (constant tile, no clipping) keeps its values as-is.
    """
    h_img, w_img = bin_idx.shape
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
    four surrounding tiles; H and S pass through untouched. Two walks over
    the RGB row bands do it: the first makes the uint16 bin indices of V,
    the only whole-image array besides the output; the second converts each
    band to HSV, blends V and converts it back to RGB. Each band rounds H, S
    and V to float32 where rgb_to_hsv and the blend store them, so the
    result has the bits of hsv_to_rgb of the blended rgb_to_hsv image.
    """
    h_img, w_img = img.height, img.width
    bins = params.bins
    bin_idx = np.empty((h_img, w_img), dtype=np.uint16)  # bins <= 4096
    # the bands of _map_bands below
    for band_rows, rgb in _edge_bands(img.data, _band_rows(w_img), 0):
        # V = max(r, g, b): float32 samples, so rgb_to_hsv stores it exactly
        v = np.maximum(np.maximum(rgb[0], rgb[1], out=rgb[0]), rgb[2], out=rgb[0])
        np.multiply(v, bins, out=v)
        np.minimum(v, bins - 1, out=bin_idx[band_rows], casting="unsafe")

    luts, identity, centers_y, centers_x = _clahe_luts(bin_idx, params)

    # Blend terms depend on the row or the column alone: per-axis vectors,
    # broadcast against each other.
    y0, y1, wy = (t[:, None] for t in _blend_axis(np.arange(h_img, dtype=np.float64), centers_y))
    x0, x1, wx = _blend_axis(np.arange(w_img, dtype=np.float64), centers_x)

    def as_stored(plane, into):
        """``into`` = ``plane`` clamped and rounded as a float32 image holds it."""
        into[...] = _clip_into(plane, np.empty(plane.shape, dtype=np.float32))

    def blend(rgb, band_rows):
        # the slab becomes the band's HSV, as rgb_to_hsv stores it
        for c, plane in enumerate(_hsv_band(rgb, band_rows)):
            as_stored(plane, rgb[c])
        v, idx = rgb[2], bin_idx[band_rows]

        def tile_value(iy, ix):
            return np.where(identity[iy, ix], v, luts[iy, ix, idx])

        by0, by1, bwy = y0[band_rows], y1[band_rows], wy[band_rows]
        v_new = (
            (1.0 - bwy) * (1.0 - wx) * tile_value(by0, x0)
            + (1.0 - bwy) * wx * tile_value(by0, x1)
            + bwy * (1.0 - wx) * tile_value(by1, x0)
            + bwy * wx * tile_value(by1, x1)
        )
        as_stored(v_new, v)
        return _rgb_band(rgb, band_rows)

    return _map_bands(img.data, blend)


def sharpen(img: ImageF32, params: SharpenParams = SharpenParams()) -> ImageF32:
    """Laplacian edge boost: I' = clamp(I + strength * (K conv I)).

    K is 3x3, -1 around the centre. In zero_sum mode the centre is 8 and the
    response is computed as a sum of neighbour differences, so constant
    images pass through bit-identically. In paper mode (sharpen.kernel_mode
    "paper") the centre is -9: K sums to -17, so the response is the
    zero-sum one minus 17 times the pixel, which drives constant regions to
    hard clamp.
    """

    def boost(padded, _rows):
        plane = padded[:, 1:-1, 1:-1]
        _, h_band, w_img = plane.shape
        response = np.zeros_like(plane)
        for dy in range(3):
            for dx in range(3):
                if dy == 1 and dx == 1:
                    continue
                response += plane - padded[:, dy : dy + h_band, dx : dx + w_img]
        if params.kernel_mode == "paper":
            response -= 17.0 * plane
        # the bits of plane + strength * response
        response *= params.strength
        response += plane
        return response

    return _map_bands(img.data, boost, halo=1)


def _shifted_sum(a: np.ndarray, side: int, step: int, out: np.ndarray) -> np.ndarray:
    """out[j] = a[j] + a[j + step] + ... + a[j + (side - 1) * step], 1-D.

    The terms are added in that order, so each element is the same sum
    wherever the arrays start.
    """
    n = out.shape[0]
    if side == 1:
        np.copyto(out, a[:n])
        return out
    np.add(a[:n], a[step : step + n], out=out)
    for k in range(2, side):
        np.add(out, a[k * step : k * step + n], out=out)
    return out


# Bytes of a band's float64 scratch in nlm_denoise: three buffers of the
# band's rows plus w + 2p, and num and den of its rows, all padded-plane
# rows. The band count is the fewest whose rows fit, and each band takes
# ceil(h / count) rows, the last fewer. At the default radii a 128 px image
# runs as one band, a 256 px one as two, a 1024 x 256 one as seven and a
# 1024 px one as 26. Smaller budgets were slower on a 2-thread pool:
# shorter ufunc calls contend for the GIL.
_NLM_BYTES = 2 << 20


def nlm_denoise(img: ImageF32, params: NlmParams = NlmParams()) -> ImageF32:
    """Non-local means: each pixel becomes a patch-similarity-weighted mean.

    For every offset d in the (2w+1)x(2w+1) search window (taken over the
    replicate-padded plane), the weight is exp(-d2/h^2) with d2 the mean
    squared difference of the two (2p+1)x(2p+1) patches; the center offset
    always carries weight 1. Accumulated in difference form so constant
    images are returned bit-identically.

    Each plane runs in bands of rows (_nlm_slab), each on its own slab of
    the replicate-padded plane (image._edge_bands), so the scratch grows
    with the image width, not its height. A pixel's sums do not depend on
    where its band starts, so bands never change a bit.
    """
    p = params.patch_radius
    w = params.window_radius
    if min(img.height, img.width) < 2 * p + 1:
        raise ImageTooSmallError(
            f"{img.width}x{img.height} image too small for patch radius {p}"
        )
    pad = w + p
    h_img, w_img = img.height, img.width
    stride = w_img + 2 * pad
    fit = max(1, (_NLM_BYTES // (8 * stride) - 3 * (w + 2 * p)) // 5)
    n_bands = -(-h_img // fit)
    band_rows = -(-h_img // n_bands)
    buffers = [np.empty((band_rows + w + 2 * p) * stride) for _ in range(3)]
    out = np.empty_like(img.data)
    for c in range(img.channels):
        for rows, slab in _edge_bands(img.data[c : c + 1], band_rows, pad):
            _clip_into(_nlm_slab(slab[0], params, buffers), out[c, rows])
    return ImageF32(out)


def _nlm_slab(padded: np.ndarray, params: NlmParams, buffers) -> np.ndarray:
    """NLM of the rows of ``padded`` that are pad = w + p rows and columns
    inside its edges, as float64; ``buffers`` are three flat float64 arrays
    of at least (rows + w + 2p) * padded's width elements.

    Only half of the window is visited: the offsets with dy > 0, or dy == 0
    and dx > 0. One pass per offset serves +d and -d, because -d's patch
    distance at pixel q is +d's at q - d, and its difference
    ``padded[q - d] - padded[q]`` is exactly ``-e[q - d]`` with
    ``e[q] = padded[q + d] - padded[q]``. So e, its box sum and the weights
    are computed once over the bounding box of the rows' patch centres and
    of the rows shifted by -d, (H + |dy|) x (W + |dx|) centres, and both
    signs read them. The box sum adds 2p+1 row-shifted slices, then 2p+1
    column-shifted slices, in a fixed order, so it does not depend on where
    the box starts. Against the per-offset form the float64 sums are
    reordered; the float32 output is the same.

    Every array is a flat run of the padded rows, so each step is one
    contiguous 1-D operation; the columns outside the box hold finite
    values that are never read into the result. Each buffer is reused once
    its contents are read: the column sums go where the squares were, and
    the weights, once den has read them, become the weighted differences
    in place.
    """
    p = params.patch_radius
    w = params.window_radius
    side = 2 * p + 1
    scale = -1.0 / (side * side * params.h * params.h)  # box sum -> exponent
    pad = w + p
    h_img, w_img = padded.shape[0] - 2 * pad, padded.shape[1] - 2 * pad
    stride = padded.shape[1]
    n_img = (h_img - 1) * stride + w_img  # flat span of the image pixels
    centre = p * stride + p  # e's offset from a box centre's own index

    flat = padded.ravel()
    e_buf, sq_buf, rows_buf = buffers
    num = np.zeros(h_img * stride)
    den = np.ones(h_img * stride)  # center offset
    for dy in range(w + 1):
        for dx in range(-w if dy else 1, w + 1):
            box_h, box_w = h_img + dy, w_img + abs(dx)
            # e covers the box plus a p-wide margin; its first element
            # sits at padded (w - dy, w - max(dx, 0)).
            first = (w - dy) * stride + w - max(dx, 0)
            n_e = (box_h + 2 * p - 1) * stride + box_w + 2 * p
            n_rows = (box_h - 1) * stride + box_w + 2 * p
            n_box = (box_h - 1) * stride + box_w
            shift = first + dy * stride + dx
            e = e_buf[:n_e]
            np.subtract(flat[shift : shift + n_e], flat[first : first + n_e], out=e)
            sq = np.square(e, out=sq_buf[:n_e])
            rows = _shifted_sum(sq, side, stride, rows_buf[:n_rows])
            wgt = _shifted_sum(rows, side, 1, sq_buf[:n_box])
            np.multiply(wgt, scale, out=wgt)
            np.exp(wgt, out=wgt)
            # +d reads the box at the image's own centres, -d at the
            # image's centres shifted by -d.
            plus = dy * stride + max(dx, 0)
            minus = max(-dx, 0)
            den[:n_img] += wgt[plus : plus + n_img]
            den[:n_img] += wgt[minus : minus + n_img]
            wgt *= e[centre : centre + n_box]  # the weighted differences
            num[:n_img] += wgt[plus : plus + n_img]
            num[:n_img] -= wgt[minus : minus + n_img]
    # the bits of plane + num / den
    result = num.reshape(h_img, stride)[:, :w_img]
    result /= den.reshape(h_img, stride)[:, :w_img]
    result += padded[pad : pad + h_img, pad : pad + w_img]
    return result


# -------------------------------------------------------------------- plans

class StepKind(Enum):
    GRAY_WORLD = "gray_world"
    CLAHE = "clahe"
    DENOISE = "denoise"
    SHARPEN = "sharpen"


@dataclass(frozen=True)
class PlanStep:
    kind: StepKind
    params: ClaheParams | NlmParams | SharpenParams | None = None  # None: defaults


@dataclass(frozen=True)
class EnhancementPlan:
    steps: tuple = ()

    def __post_init__(self):
        kinds = [s.kind for s in self.steps]
        if len(set(kinds)) != len(kinds):
            raise ValueError("plan contains duplicate steps")

    def __iter__(self):
        return iter(self.steps)

    def kinds(self) -> list[str]:
        return [s.kind.value for s in self.steps]


def build_plan(flags: DegradationFlags, params: dict | None = None) -> EnhancementPlan:
    """Map detected defects to steps, in the fixed order
    gray_world -> clahe -> denoise -> sharpen.

    ``params`` optionally maps a StepKind to the parameter object (ClaheParams,
    NlmParams or SharpenParams) its step holds; other steps run the defaults.
    """
    wanted = (
        (StepKind.GRAY_WORLD, flags.color_cast),
        (StepKind.CLAHE, flags.low_light),
        (StepKind.DENOISE, flags.blurred),
        (StepKind.SHARPEN, flags.blurred),
    )
    params = params or {}
    return EnhancementPlan(tuple(PlanStep(k, params.get(k)) for k, on in wanted if on))


# Lambdas, so each filter is looked up through its module global at call time
# and a tracer that rebinds the global (perfbench/spans.py) sees every call.
_STEP_FUNCS = {
    StepKind.GRAY_WORLD: lambda img, p: gray_world_correct(img),
    StepKind.CLAHE: lambda img, p: clahe_v(img, p or ClaheParams()),
    StepKind.DENOISE: lambda img, p: nlm_denoise(img, p or NlmParams()),
    StepKind.SHARPEN: lambda img, p: sharpen(img, p or SharpenParams()),
}


def apply_plan(img: ImageF32, plan: EnhancementPlan, on_step=None) -> ImageF32:
    """Run the plan's steps left to right; the empty plan is the identity.

    ``on_step(index, kind, image)`` is invoked after each step with the
    intermediate result, for diagnostics. Step failures are re-raised as
    PlanStepError carrying the step index.

    No reference to ``img`` is kept past its step: each step's result
    replaces its input, so when the caller holds no reference either, an
    image is freed once the next step has read it.
    """
    for i, step in enumerate(plan):
        try:
            img = _STEP_FUNCS[step.kind](img, step.params)
        except Exception as exc:
            raise PlanStepError(i, step.kind.value, exc) from exc
        if on_step is not None:
            on_step(i, step.kind, img)
    return img
