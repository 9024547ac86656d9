"""Planar float image type, PPM I/O, color conversions, and spatial filters.

Images are wrapped numpy arrays of shape (channels, height, width) with
float32 samples in [0, 1], channel order RGB; the memory layout behind that
shape is free (see ImageF32). All operations are pure: they return new
values and never mutate their inputs. Heavier arithmetic runs in float64
internally and is clamped straight into the float32 result, which keeps
the input's memory layout. The HSV conversions, the enhancement filters,
laplacian_variance and the scoring pass take their float64 rows from one
walker, _edge_bands: edge-padded row bands in one reused buffer, so they
make no float64 copy of a whole image, and bands never change a bit.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EvenKernelError,
    IoFailureError,
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
)

__all__ = [
    "ImageF32",
    "ChannelStats",
    "load_ppm",
    "save_ppm",
    "write_atomic",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "rgb_to_lab",
    "convolve2d",
    "channel_stats",
    "laplacian_variance",
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
    """Image whose ``data`` has shape (channels, height, width).

    Samples are float32 in [0, 1]; there are exactly 3 planes (RGB, or any
    other 3-plane space such as HSV during a conversion round trip). The
    shape fixes the indexing, not the memory layout: load_ppm returns a
    pixel-interleaved view (strides (4, 12 * width, 12)), and other code
    may build planar (C-contiguous) arrays. No numeric result may depend on
    the layout: a planar copy of an image must give the same bits.
    The backing array is frozen after validation, so instances are safe to
    share between threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if not isinstance(arr, np.ndarray) or arr.ndim != 3:
            raise ValueError("image data must be a (channels, height, width) array")
        if arr.shape[0] != 3:
            raise ValueError(f"image needs 3 channels, got {arr.shape[0]}")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if arr.dtype != np.float32:
            raise ValueError(f"image dtype must be float32, got {arr.dtype}")
        lo, hi = float(arr.min()), float(arr.max())  # a nan makes both nan
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("image samples must be finite")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("image samples must lie in [0, 1]")
        arr.setflags(write=False)

    @classmethod
    def from_array(cls, arr) -> "ImageF32":
        """Build an image from any (3, h, w) float array, clamped to [0, 1]."""
        a = np.asarray(arr, dtype=np.float64)
        return cls(_clip_into(a, np.empty_like(a, dtype=np.float32)))

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

# Between header tokens: whitespace, and "#" comments running to the end of
# their line (legal netpbm anywhere before maxval).
_PPM_GAP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(
    rb"^(P.)" + _PPM_GAP + rb"(\d+)" + _PPM_GAP + rb"(\d+)" + _PPM_GAP + rb"(\d+)\s"
)
# The first read of a header; a longer one (comments) doubles it.
_PPM_HEAD_BYTES = 256
# Netpbm puts no bound on a header's comments, but the header regex keeps
# backtracking state for each byte of a gap, ~180 bytes per byte: a 32 MiB
# run of whitespace after the magic took 5.4 GB. No image's header is
# longer than this.
_PPM_HEAD_MAX = 64 << 10
# int() refuses strings over 4300 digits; no real dimension needs 10.
_PPM_MAX_DIGITS = 9


def load_ppm(path) -> ImageF32:
    """Load a binary PPM (P6, maxval 255) as a 3-channel image.

    Each payload byte v maps to v / 255.0. The image has shape (3, h, w)
    but keeps the file's pixel-interleaved memory order: ``data`` is a
    transposed view of an (h, w, 3) array. The header is read tolerantly
    (any whitespace and ``#`` comments between tokens, exactly one
    whitespace byte after maxval). Error messages do not name the file;
    callers do.

    The file is opened by _open_input, so a path that is not a regular
    file, such as a FIFO, raises IoFailureError("cannot read: missing or
    not a regular file") without blocking; when the file is missing, the
    error's ``__cause__`` is a FileNotFoundError. Only the header and the payload
    it promises are read, so bytes past the payload cost nothing. The
    header is read from a prefix that doubles until it matches, the file
    ends or it reaches _PPM_HEAD_MAX bytes.
    """
    try:
        with _open_input(path) as (f, size):
            width, height = _read_ppm_header(f, size)
            need = width * height * 3
            payload = f.read(min(need, size - f.tell()))
    except OSError as exc:
        raise IoFailureError(f"cannot read: {exc.strerror or exc}") from exc
    if len(payload) < need:
        raise TruncatedPayloadError(
            f"payload has {len(payload)} bytes, header promises {need}"
        )
    interleaved = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    samples = np.empty((height, width, 3), dtype=np.float32)
    # float64 quotient, rounded once to float32, with no float64 array
    np.divide(interleaved, 255.0, out=samples, dtype=np.float64, casting="same_kind")
    return ImageF32(samples.transpose(2, 0, 1))


@contextlib.contextmanager
def _open_input(path):
    """Yield (binary file, size in bytes) of the regular file at ``path``;
    every reader of an input file opens it here.

    The check is ``fstat`` on the opened, non-blocking descriptor, so it
    and the reads see one file, and a FIFO or a device cannot block. A
    path that is missing or under a non-directory raises
    FileNotFoundError("missing or not a regular file"), so a reader of an
    optional file can tell it apart; one that holds a NUL or is not a
    regular file raises OSError with the same message; other open errors,
    such as EACCES, raise as they are. A MemoryError inside the ``with``
    block, from a read or a parse too large to hold, raises OSError, so
    each reader reports it as a failed read.
    """
    # FileIO refuses a directory itself, closing the descriptor it opened
    try:
        raw = io.FileIO(path, opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK))
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise FileNotFoundError("missing or not a regular file") from exc
    except (IsADirectoryError, ValueError) as exc:
        raise OSError("missing or not a regular file") from exc
    with io.BufferedReader(raw) as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise OSError("missing or not a regular file")
        try:
            yield f, info.st_size
        except MemoryError as exc:
            raise OSError(str(exc) or "MemoryError") from exc


def _decode(f) -> io.StringIO:
    """The rest of the binary file f as UTF-8 text, with ``\\r\\n`` and
    ``\\r`` read as ``\\n``, as a text-mode ``open`` reads them."""
    return io.StringIO(f.read().decode("utf-8"), newline=None)


def _read_ppm_header(f, size: int) -> tuple[int, int]:
    """(width, height) from the PPM header at the start of the binary file
    f of ``size`` bytes, which is left at the payload's first byte.

    read(n) allocates n bytes first, so no read asks for more than the
    file holds, and a longer prefix is read afresh once the shorter one
    is let go, so at most one prefix is held.
    """
    limit = min(size, _PPM_HEAD_MAX)
    n = _PPM_HEAD_BYTES
    while True:
        f.seek(0)
        head = f.read(min(n, limit))
        m = _PPM_HEADER.match(head)
        if m is not None or n >= limit:
            break
        del head
        n *= 2
    if m is None:
        raise MalformedHeaderError("not a binary PPM header")
    if m.group(1) != b"P6":
        raise MalformedHeaderError(f"magic is {m.group(1)!r}, expected P6")
    if any(len(m.group(i)) > _PPM_MAX_DIGITS for i in (2, 3, 4)):
        raise MalformedHeaderError(
            f"header number longer than {_PPM_MAX_DIGITS} digits"
        )
    width, height, maxval = (int(m.group(i)) for i in (2, 3, 4))
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"dimensions {width}x{height} invalid")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"maxval {maxval}, only 255 supported")
    f.seek(m.end())
    return width, height


def save_ppm(img: ImageF32, path) -> None:
    """Write an image as canonical binary PPM.

    Quantizes with round-half-away-from-zero; loading the result back differs
    from the original by at most 1/510 per sample. The file is filled in
    place, a row band of float64 samples at a time.
    """
    h, w = img.height, img.width
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    raw = bytearray(len(header) + h * w * 3)
    raw[: len(header)] = header
    payload = np.frombuffer(raw, dtype=np.uint8, offset=len(header)).reshape(h, w, 3)
    rows = _band_rows(w)
    buf = np.empty((min(rows, h), w, 3))
    for r0 in range(0, h, rows):
        band = buf[: min(rows, h - r0)]
        # the float64 product: a float32 array times a float stays float32
        np.multiply(img.data[:, r0 : r0 + rows].transpose(1, 2, 0), 255.0,
                    out=band, dtype=np.float64)
        band += 0.5
        payload[r0 : r0 + rows] = np.floor(band, out=band)
    write_atomic(path, raw)


def _make_dir(directory: Path) -> None:
    """Create ``directory`` and its parents, or raise IoFailureError."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailureError(f"cannot create {directory}: {exc.strerror or exc}") from exc


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that ``path`` never holds a partial file.

    The bytes go to a new hidden temp file in the same directory, which then
    replaces ``path`` in one ``os.replace``. On any failure the temp file is
    removed and ``path`` keeps its old content, if it had any; a failed
    write raises IoFailureError("cannot write <name>: <reason>"), naming
    the file but not its directory. The file is not fsynced: this guards
    against an interrupted or failing writer, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise IoFailureError(f"cannot write {path.name}: {exc.strerror or exc}") from exc
        raise


# --------------------------------------------------------- color conversions

# Pixels per row band of a per-pixel conversion: 64 rows at 256 px. A band's
# float64 temporaries stay a few hundred KB however large the image. Bands
# never change a bit, since every step is elementwise. Shorter bands were
# slower on a 2-thread pool: shorter ufunc calls contend for the GIL.
_BAND_PIXELS = 1 << 14


def _band_rows(width: int) -> int:
    """Rows per band of a banded pass over rows ``width`` wide: at least
    one, and about _BAND_PIXELS pixels."""
    return max(1, _BAND_PIXELS // width)


def _edge_bands(data: np.ndarray, rows: int, halo: int):
    """Yield (row_slice, slab) for each run of ``rows`` rows of a (c, h, w)
    array. ``slab`` is float64 (c, n + 2 * halo, w + 2 * halo): the run's n
    rows with the border np.pad(mode="edge") gives, even a halo taller than
    the image. One buffer serves every band: copy out what you keep.
    """
    c, h, w = data.shape
    buf = np.empty((c, min(rows, h) + 2 * halo, w + 2 * halo))
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        slab = buf[:, : r1 - r0 + 2 * halo]
        ys = np.arange(r0 - halo, r1 + halo).clip(0, h - 1)  # edge rows repeat
        slab[:, :, halo : halo + w] = data[:, ys]
        slab[:, :, :halo] = slab[:, :, halo : halo + 1]
        slab[:, :, halo + w :] = slab[:, :, halo + w - 1 : halo + w]
        yield slice(r0, r1), slab


def _map_bands(data: np.ndarray, convert, halo: int = 0) -> ImageF32:
    """The image whose rows are ``convert(slab, rows)`` for each row band.

    ``data`` is (3, h, w); a band is _band_rows(w) of its rows,
    and ``slab`` is _edge_bands' for it. ``convert`` returns three float64
    planes of the band's rows, which are clamped to [0, 1] straight into the
    float32 result; that result keeps ``data``'s memory layout.
    """
    out = np.empty_like(data, dtype=np.float32)
    for rows, slab in _edge_bands(data, _band_rows(data.shape[2]), halo):
        for c, plane in enumerate(convert(slab, rows)):
            _clip_into(plane, out[c, rows])
    return ImageF32(out)


def _clip_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Clamp float64 ``x`` to [0, 1] into float32 ``out``: the bits of
    ``np.clip(x, 0.0, 1.0).astype(np.float32)`` without the float64 copy."""
    return np.clip(x, 0.0, 1.0, out=out, casting="same_kind")


def rgb_to_hsv(img: ImageF32) -> ImageF32:
    """Standard hexcone RGB -> HSV; hue is stored scaled to [0, 1] (deg/360).

    Achromatic pixels get H = 0 by convention, and S = 0 where V = 0.
    """
    return _map_bands(img.data, _hsv_band)


def _hsv_band(rgb: np.ndarray, _rows) -> tuple:
    r, g, b = rgb
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
    return h, s, v


def hsv_to_rgb(img: ImageF32) -> ImageF32:
    """Inverse hexcone conversion; round-trips with rgb_to_hsv to ~1e-7."""
    return _map_bands(img.data, _rgb_band)


def _rgb_band(hsv: np.ndarray, _rows) -> tuple:
    h, s, v = hsv
    h6 = h * 6.0
    sector = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(sector, [v, q, p, p, t, v])
    g = np.choose(sector, [t, v, v, q, p, p])
    b = np.choose(sector, [p, p, t, v, v, q])
    return r, g, b


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
    return np.stack(_srgb_to_lab(img.data.astype(np.float64)))


def _srgb_to_lab(srgb: np.ndarray) -> tuple:
    """L, a and b planes of float64 sRGB planes (3, ...), as rgb_to_lab.

    Every step is elementwise, so the result does not depend on the memory
    layout of ``srgb``. XYZ is summed in the fixed order (R + B) + G, the
    order ``np.einsum`` picks on load_ppm's pixel-interleaved arrays, so
    loaded images get the same bits as from an einsum.
    """
    linear = np.where(
        srgb <= 0.04045, srgb / 12.92, ((srgb + 0.055) / 1.055) ** 2.4
    )
    r, g, b = linear
    m = _SRGB_TO_XYZ
    f = []
    for i in range(3):
        ratio = ((m[i, 0] * r + m[i, 2] * b) + m[i, 1] * g) / _WHITE[i]
        f.append(np.where(
            ratio > _LAB_DELTA**3,
            np.cbrt(ratio),
            ratio / (3.0 * _LAB_DELTA**2) + 4.0 / 29.0,
        ))
    fx, fy, fz = f
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


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


def channel_stats(img: ImageF32) -> ChannelStats:
    """Per-channel means plus their cross-channel average."""
    means = [float(np.mean(img.data[c], dtype=np.float64)) for c in range(3)]
    return ChannelStats(*means, mean_avg=sum(means) / 3.0)


def _luma(planes: np.ndarray) -> np.ndarray:
    """BT.601 luma of float64 RGB planes (3, ...)."""
    return _LUMA[0] * planes[0] + _LUMA[1] * planes[1] + _LUMA[2] * planes[2]


def laplacian_variance(img: ImageF32) -> float:
    """Population variance of the 4-neighbour Laplacian response on luma.

    Zero for constant images; low values indicate blur. Luma and response
    run in row bands, taps in convolve2d's order (all products exact), into
    one float64 plane: the bits of np.var(convolve2d(...)) on the whole
    image's float64 luma.
    """
    h, w = img.height, img.width
    response = np.empty((h, w))
    for rows, slab in _edge_bands(img.data, _band_rows(w), 1):
        luma = _luma(slab)
        out = np.add(luma[:-2, 1:-1], luma[1:-1, :-2], out=response[rows])
        out -= 4.0 * luma[1:-1, 1:-1]
        out += luma[1:-1, 2:]
        out += luma[2:, 1:-1]
    return _var_in_place(response)


def _var_in_place(x: np.ndarray, mean: float | None = None) -> float:
    """Population variance of float64 ``x`` about ``mean`` (default: its
    own), squaring ``x`` in place in np.var's steps: the bits of np.var(x)
    and np.mean((x - mean) ** 2) without their whole-array temporary.
    """
    if mean is None:
        mean = np.add.reduce(x, axis=None) / x.size
    x -= mean
    np.multiply(x, x, out=x)
    return float(np.add.reduce(x, axis=None) / x.size)
