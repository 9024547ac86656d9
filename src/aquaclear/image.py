"""Planar float image type, PPM I/O, color conversions, and spatial filters.

Images are wrapped numpy arrays of shape (channels, height, width) with
float32 samples in [0, 1], channel order RGB. All operations are pure: they
return new values and never mutate their inputs. Heavier arithmetic runs in
float64 internally and is quantized back to float32 on the way out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EvenKernelError,
    GrayscaleUnsupportedError,
    IoFailureError,
    MalformedHeaderError,
    NonPositiveSigmaError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
)

__all__ = [
    "ImageF32",
    "ChannelStats",
    "load_ppm",
    "save_ppm",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "rgb_to_lab",
    "convolve2d",
    "gaussian_kernel",
    "gaussian_blur",
    "channel_stats",
    "laplacian_variance",
    "luminance",
    "LAPLACIAN_KERNEL",
]

# Zero-sum 4-neighbour Laplacian used for the sharpness feature.
LAPLACIAN_KERNEL = np.array(
    [[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]
)

# BT.601 luma weights.
_LUMA = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class ImageF32:
    """Planar image: ``data`` has shape (channels, height, width).

    Samples are float32 in [0, 1]; channels is 1 (gray) or 3 (RGB, or any
    other 3-plane space such as HSV during a conversion round trip). The
    backing array is frozen after validation, so instances are safe to share
    between threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not isinstance(arr, np.ndarray) or arr.ndim != 3:
            raise ValueError("image data must be a (channels, height, width) array")
        if arr.shape[0] not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {arr.shape[0]}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if arr.dtype != np.float32:
            raise ValueError(f"image dtype must be float32, got {arr.dtype}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image samples must be finite")
        if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
            raise ValueError("image samples must lie in [0, 1]")
        arr.setflags(write=False)

    @classmethod
    def from_array(cls, arr, clamp: bool = True) -> "ImageF32":
        """Build an image from any (c, h, w) float array, clamping by default."""
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim == 2:
            a = a[np.newaxis, :, :]
        if clamp:
            a = np.clip(a, 0.0, 1.0)
        return cls(a.astype(np.float32))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class ChannelStats:
    mean_r: float
    mean_g: float
    mean_b: float
    mean_avg: float


# ------------------------------------------------------------------ PPM I/O

_PPM_HEADER = re.compile(rb"^(P.)\s+(\d+)\s+(\d+)\s+(\d+)\s")


def load_ppm(path) -> ImageF32:
    """Load a binary PPM (P6, maxval 255) as a 3-channel image.

    Each payload byte v maps to v / 255.0. The header is read tolerantly
    (any whitespace between tokens, exactly one after maxval). Error
    messages name the file by its base name only.
    """
    name = Path(path).name
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailureError(f"{name}: {exc.strerror}") from exc
    m = _PPM_HEADER.match(raw)
    if m is None:
        raise MalformedHeaderError(f"{name}: not a binary PPM header")
    if m.group(1) != b"P6":
        raise MalformedHeaderError(f"{name}: magic is {m.group(1)!r}, expected P6")
    width, height, maxval = (int(m.group(i)) for i in (2, 3, 4))
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"{name}: dimensions {width}x{height} invalid")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"{name}: maxval {maxval}, only 255 supported")
    need = width * height * 3
    payload = raw[m.end() : m.end() + need]
    if len(payload) < need:
        raise TruncatedPayloadError(
            f"{name}: payload has {len(payload)} bytes, header promises {need}"
        )
    interleaved = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    planar = interleaved.transpose(2, 0, 1).astype(np.float64) / 255.0
    return ImageF32(planar.astype(np.float32))


def save_ppm(img: ImageF32, path) -> None:
    """Write a 3-channel image as canonical binary PPM.

    Quantizes with round-half-away-from-zero; loading the result back differs
    from the original by at most 1/510 per sample.
    """
    if img.channels != 3:
        raise GrayscaleUnsupportedError("PPM P6 needs 3 channels")
    scaled = img.data.astype(np.float64) * 255.0
    bytes_ = np.floor(scaled + 0.5).astype(np.uint8)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + bytes_.transpose(1, 2, 0).tobytes())
    except OSError as exc:
        raise IoFailureError(f"{Path(path).name}: {exc.strerror}") from exc


# --------------------------------------------------------- color conversions

def rgb_to_hsv(img: ImageF32) -> ImageF32:
    """Standard hexcone RGB -> HSV; hue is stored scaled to [0, 1] (deg/360).

    Achromatic pixels get H = 0 by convention, and S = 0 where V = 0.
    """
    _require_rgb(img)
    r, g, b = img.data.astype(np.float64)
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc
    v = maxc

    safe_delta = np.where(delta > 0.0, delta, 1.0)
    h = np.select(
        [delta == 0.0, maxc == r, maxc == g],
        [
            np.zeros_like(delta),
            np.mod((g - b) / safe_delta, 6.0) / 6.0,
            ((b - r) / safe_delta + 2.0) / 6.0,
        ],
        default=((r - g) / safe_delta + 4.0) / 6.0,
    )
    s = np.where(maxc > 0.0, delta / np.where(maxc > 0.0, maxc, 1.0), 0.0)
    return ImageF32.from_array(np.stack([h, s, v]))


def hsv_to_rgb(img: ImageF32) -> ImageF32:
    """Inverse hexcone conversion; round-trips with rgb_to_hsv to ~1e-7."""
    _require_rgb(img)
    h, s, v = img.data.astype(np.float64)
    h6 = h * 6.0
    sector = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(sector, [v, q, p, p, t, v])
    g = np.choose(sector, [t, v, v, q, p, p])
    b = np.choose(sector, [p, p, t, v, v, q])
    return ImageF32.from_array(np.stack([r, g, b]))


# sRGB (D65) linear-light to XYZ; white point taken as the exact row sums so
# that (1,1,1) lands on L=100, a=b=0.
_SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE = _SRGB_TO_XYZ.sum(axis=1)
_LAB_DELTA = 6.0 / 29.0


def rgb_to_lab(img: ImageF32) -> np.ndarray:
    """Convert to CIE L*a*b* (D65, 2-degree observer).

    Returns a float64 array of shape (3, h, w) holding the L, a, b planes;
    L spans [0, 100] for in-range sRGB input. Uses the piecewise sRGB EOTF
    (2.4-gamma segment) and the 6/29 linear-segment cube root.
    """
    _require_rgb(img)
    srgb = img.data.astype(np.float64)
    linear = np.where(
        srgb <= 0.04045, srgb / 12.92, ((srgb + 0.055) / 1.055) ** 2.4
    )
    xyz = np.einsum("ij,jhw->ihw", _SRGB_TO_XYZ, linear)
    ratio = xyz / _WHITE[:, np.newaxis, np.newaxis]
    fx, fy, fz = np.where(
        ratio > _LAB_DELTA**3,
        np.cbrt(ratio),
        ratio / (3.0 * _LAB_DELTA**2) + 4.0 / 29.0,
    )
    lum = 116.0 * fy - 16.0
    a = 500.0 * (fx - fy)
    b = 200.0 * (fy - fz)
    return np.stack([lum, a, b])


# ------------------------------------------------------------------ filters

def convolve2d(plane, kernel) -> np.ndarray:
    """True 2-D convolution (kernel flipped) with edge-replicate padding.

    ``plane`` is a 2-D array; ``kernel`` a square array with odd side.
    Output has the same shape as the input. Runs in float64.
    """
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("kernel must be a square 2-D array")
    if k.shape[0] % 2 == 0:
        raise EvenKernelError(f"kernel side {k.shape[0]} is even")
    if not np.all(np.isfinite(k)):
        raise ValueError("kernel weights must be finite")
    p = np.asarray(plane, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("plane must be 2-D")

    side = k.shape[0]
    radius = side // 2
    flipped = k[::-1, ::-1]
    padded = np.pad(p, radius, mode="edge")
    h, w = p.shape
    out = np.zeros((h, w), dtype=np.float64)
    for dy in range(side):
        for dx in range(side):
            weight = flipped[dy, dx]
            if weight != 0.0:
                out += weight * padded[dy : dy + h, dx : dx + w]
    return out


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian, radius ceil(3 sigma)."""
    if sigma <= 0.0:
        raise NonPositiveSigmaError(f"sigma must be > 0, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_blur(plane, sigma: float) -> np.ndarray:
    """Gaussian lowpass with replicate borders; preserves constants."""
    return convolve2d(plane, gaussian_kernel(sigma))


def channel_stats(img: ImageF32) -> ChannelStats:
    """Per-channel means plus their cross-channel average."""
    _require_rgb(img)
    means = [float(np.mean(img.data[c], dtype=np.float64)) for c in range(3)]
    return ChannelStats(*means, mean_avg=sum(means) / 3.0)


def luminance(img: ImageF32) -> np.ndarray:
    """BT.601 luma plane (float64); identity on single-channel images."""
    planes = img.data.astype(np.float64)
    if img.channels == 1:
        return planes[0]
    return _LUMA[0] * planes[0] + _LUMA[1] * planes[1] + _LUMA[2] * planes[2]


def laplacian_variance(img: ImageF32) -> float:
    """Population variance of the 4-neighbour Laplacian response on luma.

    Zero for constant images; low values indicate blur.
    """
    response = convolve2d(luminance(img), LAPLACIAN_KERNEL)
    return float(np.var(response))


def _require_rgb(img: ImageF32) -> None:
    if img.channels != 3:
        raise GrayscaleUnsupportedError("operation needs a 3-channel image")
