import errno
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import aquaclear.image as image_module
from aquaclear.image import ImageF32


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


def random_image(rng, h=16, w=16, lo=0.05, hi=0.95, channels=3):
    """Random RGB image away from the clamp boundaries."""
    data = rng.uniform(lo, hi, size=(channels, h, w)).astype(np.float32)
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


# Reference implementations the numeric tests compare against.

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
