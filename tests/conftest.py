import errno
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import aquaclear.image as image_module
from aquaclear.enhance import _blend_axis, _clahe_luts
from aquaclear.image import LAPLACIAN_KERNEL, ImageF32, convolve2d
from aquaclear.synth import (
    _BASE_MODES,
    _MOD_AMPLITUDE_BALANCED,
    _MOD_AMPLITUDE_CAST,
    _MOD_MODES,
    BRIGHT_BAND,
    CAST_GAINS,
    DARK_BAND,
)


# Fuzz tests are derandomized and bounded, so a run is deterministic and fast.
FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Any value json.loads can return, NaN and infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


def byte_edits(span: int):
    """Up to four (position, byte, op) edits for ``mutate``, at positions
    0..span; op is s(ubstitute), i(nsert) or d(elete)."""
    return st.lists(
        st.tuples(st.integers(0, span), st.integers(0, 255), st.sampled_from("sid")),
        max_size=4,
    )


def mutate(raw: bytes, edits) -> bytes:
    """Apply ``byte_edits`` to ``raw``; positions wrap at its length."""
    raw = bytearray(raw)
    for pos, value, op in edits:
        pos %= len(raw) + 1
        if op == "s" and pos < len(raw):
            raw[pos] = value
        elif op == "i":
            raw.insert(pos, value)
        elif op == "d" and pos < len(raw):
            del raw[pos]
    return bytes(raw)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


def random_image(rng, h=16, w=16, lo=0.05, hi=0.95):
    """Random RGB image away from the clamp boundaries."""
    data = rng.uniform(lo, hi, size=(3, h, w)).astype(np.float32)
    return ImageF32(data)


def constant_image(value, h=8, w=8):
    if np.isscalar(value):
        value = (value, value, value)
    data = np.zeros((3, h, w), dtype=np.float32)
    for c, v in enumerate(value):
        data[c] = v
    return ImageF32(data)


def fail_writes_midway(monkeypatch):
    """Make ``write_atomic`` write half its bytes, then fail with ENOSPC."""
    real_open = open

    class HalfWriter:
        def __init__(self, file, mode):
            self.f = real_open(file, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            self.f.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(image_module, "open", HalfWriter, raising=False)


def deny_stat(monkeypatch, path):
    """Make ``os.stat`` and ``os.open`` of ``path`` fail with EACCES, as both
    do for a file in a directory the user may list but not search."""

    def denying(real):
        def call(p, *args, **kwargs):
            if os.fspath(p) == os.fspath(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(p))
            return real(p, *args, **kwargs)
        return call

    monkeypatch.setattr(os, "stat", denying(os.stat))
    monkeypatch.setattr(os, "open", denying(os.open))


# Reference implementations the numeric tests compare against.

# The 3x3 kernels sharpen's two modes apply: -1s around centre 8 (sums to 0)
# or centre -9 (sums to -17, driving constant regions to hard clamp).
SHARPEN_KERNEL_ZERO_SUM = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]]
)
SHARPEN_KERNEL_PAPER_MODE = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, -9.0, -1.0], [-1.0, -1.0, -1.0]]
)


def plane_conv_oracle(plane, kernel):
    """Quadruple-loop true convolution with replicate padding."""
    h, w = plane.shape
    k = kernel.shape[0]
    r = k // 2
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(k):
                for dx in range(k):
                    sy = min(max(y + r - dy, 0), h - 1)
                    sx = min(max(x + r - dx, 0), w - 1)
                    acc += float(kernel[dy, dx]) * float(plane[sy, sx])
            out[y, x] = acc
    return out


def cnn_conv_oracle(x, layer):
    """Six-loop strided cross-correlation with zero padding."""
    c_in, h, w = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    h_out = (h + 2 * p - k) // s + 1
    w_out = (w + 2 * p - k) // s + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (p, p), (p, p)))
    wt = layer.weights.astype(np.float64)
    out = np.zeros((layer.out_channels, h_out, w_out))
    for oc in range(layer.out_channels):
        for y in range(h_out):
            for xx in range(w_out):
                acc = 0.0
                for ic in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += wt[oc, ic, ky, kx] * xp[ic, y * s + ky, xx * s + kx]
                out[oc, y, xx] = acc + float(layer.bias[oc])
    if layer.activation == "relu":
        out = np.maximum(out, 0.0)
    return out


def nlm_oracle(plane, params):
    """Five-loop non-local means on one plane, replicate padding."""
    h, w = plane.shape
    p, win, inv_h2 = params.patch_radius, params.window_radius, 1.0 / params.h**2
    pad = win + p
    padded = np.pad(plane.astype(np.float64), pad, mode="edge")
    area = (2 * p + 1) ** 2
    out = np.zeros_like(plane, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            cy, cx = y + pad, x + pad
            num, den = 0.0, 1.0
            for dy in range(-win, win + 1):
                for dx in range(-win, win + 1):
                    if dy == 0 and dx == 0:
                        continue
                    d2 = 0.0
                    for py in range(-p, p + 1):
                        for px in range(-p, p + 1):
                            a = padded[cy + dy + py, cx + dx + px]
                            b = padded[cy + py, cx + px]
                            d2 += (a - b) ** 2
                    d2 /= area
                    wgt = math.exp(-d2 * inv_h2)
                    num += wgt * (padded[cy + dy, cx + dx] - padded[cy, cx])
                    den += wgt
            out[y, x] = padded[cy, cx] + num / den
    return out


# Whole-image float64 forms of the colour conversions, filters and PSNR, as
# they ran before each was split into channels and row bands; the split
# forms must keep their bits exactly. Each takes and returns raw arrays.

def clip_reference(a):
    return np.clip(np.asarray(a, dtype=np.float64), 0.0, 1.0).astype(np.float32)


def rgb_to_hsv_reference(data):
    r, g, b = data.astype(np.float64)
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc
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
    return clip_reference(np.stack([h, s, maxc]))


def hsv_to_rgb_reference(data):
    h, s, v = data.astype(np.float64)
    h6 = h * 6.0
    sector = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(sector, [v, q, p, p, t, v])
    g = np.choose(sector, [t, v, v, q, p, p])
    b = np.choose(sector, [p, p, t, v, v, q])
    return clip_reference(np.stack([r, g, b]))


def gray_world_reference(data):
    means = [float(np.mean(data[c], dtype=np.float64)) for c in range(3)]
    avg = sum(means) / 3.0
    planes = data.astype(np.float64)
    out = np.empty_like(planes)
    for c, mean_c in enumerate(means):
        out[c] = planes[c] if mean_c <= 1e-6 else planes[c] * (avg / mean_c)
    return clip_reference(out)


def clahe_blend_reference(data, params):
    """clahe_v with the LUT blend over the whole V plane at once."""
    hsv = rgb_to_hsv_reference(data).astype(np.float64)
    v = hsv[2]
    h_img, w_img = v.shape
    bin_idx = np.minimum((v * params.bins).astype(np.int64), params.bins - 1)
    luts, identity, centers_y, centers_x = _clahe_luts(bin_idx, params)
    y0, y1, wy = (t[:, None] for t in _blend_axis(np.arange(h_img, dtype=np.float64), centers_y))
    x0, x1, wx = _blend_axis(np.arange(w_img, dtype=np.float64), centers_x)

    def tile_value(iy, ix):
        return np.where(identity[iy, ix], v, luts[iy, ix, bin_idx])

    v_new = (
        (1.0 - wy) * (1.0 - wx) * tile_value(y0, x0)
        + (1.0 - wy) * wx * tile_value(y0, x1)
        + wy * (1.0 - wx) * tile_value(y1, x0)
        + wy * wx * tile_value(y1, x1)
    )
    return hsv_to_rgb_reference(clip_reference(np.stack([hsv[0], hsv[1], v_new])))


def sharpen_reference(data, params):
    planes = data.astype(np.float64)
    out = np.empty_like(planes)
    for c in range(3):
        plane = planes[c]
        padded = np.pad(plane, 1, mode="edge")
        h_img, w_img = plane.shape
        response = np.zeros_like(plane)
        for dy in range(3):
            for dx in range(3):
                if (dy, dx) != (1, 1):
                    response += plane - padded[dy : dy + h_img, dx : dx + w_img]
        if params.kernel_mode == "paper":
            response -= 17.0 * plane
        out[c] = plane + params.strength * response
    return clip_reference(out)


def attention_adjust_reference(data, attn, gain):
    """attention_adjust over the whole image at once."""
    planes = data.astype(np.float64)
    v = planes.max(axis=0)
    factor = attn - float(np.mean(attn, dtype=np.float64))
    factor *= gain
    factor += 1.0
    np.maximum(factor, 0.0, out=factor)
    cap = np.divide(1.0, v, out=np.full_like(v, np.inf), where=v > 0.0)
    planes *= np.minimum(factor, cap, out=cap)
    return clip_reference(planes)


def luma_reference(data):
    """The BT.601 luma plane of a (3, h, w) array, as one float64 array."""
    planes = data.astype(np.float64)
    return 0.299 * planes[0] + 0.587 * planes[1] + 0.114 * planes[2]


def laplacian_variance_reference(data):
    return float(np.var(convolve2d(luma_reference(data), LAPLACIAN_KERNEL)))


def ppm_reference(data):
    """The PPM file of a (3, h, w) array, quantized as one float64 array."""
    _, h, w = data.shape
    levels = np.floor(data.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
    return f"P6\n{w} {h}\n255\n".encode("ascii") + levels.transpose(1, 2, 0).tobytes()


def archetype_reference(flags, seed, size):
    """make_archetype's (3, size, size) data, built over the whole grid."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [0xAC5EED, int(flags.color_cast), int(flags.low_light), int(flags.blurred), seed]
    )))
    y = np.arange(size, dtype=np.float64)[:, None]
    x = np.arange(size, dtype=np.float64)[None, :]

    def wave(mode):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return np.sin(2.0 * math.pi * (mode[0] * y + mode[1] * x) / size + phase)

    if flags.blurred:
        i, j = rng.choice(len(_BASE_MODES), size=2, replace=False)
        base = 0.5 + 0.3 * wave(_BASE_MODES[i]) + 0.2 * wave(_BASE_MODES[j])
        pool = tuple(m for k, m in enumerate(_BASE_MODES) if k not in (i, j))
    else:
        parity = rng.integers(0, 2)
        checker = ((np.arange(size)[:, None] + np.arange(size) + parity) % 2).astype(np.float64)
        base = checker * 0.84 + 0.08 + rng.uniform(-0.08, 0.08, size=(size, size))
        pool = _MOD_MODES
    lo, hi = DARK_BAND if flags.low_light else BRIGHT_BAND
    v = lo + (hi - lo) * base
    gains = CAST_GAINS if flags.color_cast else (1.0, 1.0, 1.0)
    amp = _MOD_AMPLITUDE_CAST if flags.color_cast else _MOD_AMPLITUDE_BALANCED
    i, j = rng.choice(len(pool), size=2, replace=False)
    mod_r = 1.0 + amp * wave(pool[i])
    mod_g = 1.0 + amp * wave(pool[j])
    return clip_reference(np.stack([v * gains[0] * mod_r, v * gains[1] * mod_g, v * gains[2]]))


def psnr_reference(reference, test):
    diff = reference.astype(np.float64) - test.astype(np.float64)
    mse = float(np.mean(diff * diff, dtype=np.float64))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def layouts(a):
    """A (3, h, w) float32 array as a planar and a pixel-interleaved image."""
    planar = np.ascontiguousarray(a, dtype=np.float32)
    interleaved = np.ascontiguousarray(planar.transpose(1, 2, 0)).transpose(2, 0, 1)
    return {"planar": ImageF32(planar), "interleaved": ImageF32(interleaved)}


def heap_peak(fn, *args):
    """(bytes of the traced heap peak while fn(*args) runs, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def band_shapes():
    """(h, w) pairs around the conversions' row-band edges at each width."""
    shapes = []
    for w in (1, 7, 300):
        band = image_module._band_rows(w)
        shapes += [(h, w) for h in (1, band - 1, band, band + 1, 257)]
    return shapes


def level_data(h, w, seed=0):
    """(3, h, w) float32 8-bit levels, a tenth of the pixels gray, so
    channel ties, zeros and ones all occur."""
    rng = np.random.default_rng([seed, h, w])
    levels = rng.integers(0, 256, size=(3, h, w))
    gray = rng.random((h, w)) < 0.1
    levels[:, gray] = levels[0, gray]
    return (levels / 255.0).astype(np.float32)


def same_bits(got, want) -> bool:
    """Equal float32 arrays, -0.0 told apart from 0.0."""
    return (
        got.dtype == want.dtype == np.float32
        and got.shape == want.shape
        and np.array_equal(got.view(np.uint32), want.view(np.uint32))
    )
