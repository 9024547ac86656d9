"""Synthetic test-image generators, one per degradation category.

Each archetype is built to sit at least twice as far from every classifier
threshold as the threshold itself: dark images have mean V near 0.145
(floor 0.35), bright near 0.75; cast images have a max relative channel
deviation near 0.69 (threshold 0.25), balanced ones near 0; smooth images
keep Laplacian variance under ~2e-4 (floor 0.0015), sharp ones sit orders
of magnitude above it.

Construction notes. The value pattern and the per-channel modulation fields
use disjoint integer Fourier modes, so modulation leaves every channel mean
untouched (distinct modes are orthogonal over the full grid). In cast
archetypes the dominant (blue) channel is never modulated and the green
gain times the peak modulation stays below 1, which pins the HSV V plane
to the value pattern exactly. The red/green modulation runs near unity
amplitude: it gives the image strong per-pixel color variation that
survives white balancing, the way enhancement reveals color in real
underwater scenes instead of collapsing them to gray.
All random numbers are drawn first, the sharp archetypes' noise whole to
keep the random stream, then rows are built in bands.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .classify import Category8, DegradationFlags, RANK_ORDER
from .image import ImageF32, _band_rows, _clip_into, save_ppm

__all__ = [
    "DARK_BAND",
    "BRIGHT_BAND",
    "CAST_GAINS",
    "make_archetype",
    "archetype_for_category",
    "write_corpus",
]

DARK_BAND = (0.04, 0.25)
BRIGHT_BAND = (0.55, 0.93)
CAST_GAINS = (0.28, 0.50, 1.00)  # blue-heavy, matching red-light attenuation
_MOD_AMPLITUDE_CAST = 0.98
_MOD_AMPLITUDE_BALANCED = 0.06

# Integer wavevectors for the smooth value pattern and for the modulation
# fields; base and modulation never share a mode (up to sign), keeping them
# orthogonal. Smooth images must stay smooth after modulation, so their
# modulation draws from the low-frequency base set too (the unused pair).
_BASE_MODES = ((1, 0), (0, 1), (1, 1), (1, -1))
_MOD_MODES = ((2, 1), (1, 2), (2, -1), (3, 1))


def _wave(size: int, mode: tuple, phase: float, rows: slice) -> np.ndarray:
    """The given rows of a full-period wave on the size x size grid."""
    ky, kx = mode
    y = np.arange(size, dtype=np.float64)[rows, None]
    x = np.arange(size, dtype=np.float64)[None, :]
    return np.sin(2.0 * math.pi * (ky * y + kx * x) / size + phase)


def _smooth_base(rng: np.random.Generator, size: int):
    """Low-frequency pattern in [0,1] with mean 0.5: two full-period waves.

    Returns the pattern (a function of a row slice) plus the two base modes
    it did NOT use, safe (orthogonal, equally low-frequency) for modulation.
    """
    i, j = rng.choice(len(_BASE_MODES), size=2, replace=False)
    phase_a, phase_b = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    unused = tuple(m for k, m in enumerate(_BASE_MODES) if k not in (i, j))

    def base(rows: slice) -> np.ndarray:
        a = _wave(size, _BASE_MODES[i], phase_a, rows)
        return 0.5 + 0.3 * a + 0.2 * _wave(size, _BASE_MODES[j], phase_b, rows)

    return base, unused


def _sharp_base(rng: np.random.Generator, size: int):
    """Single-pixel checkerboard plus mild uniform texture, mean 0.5, by rows."""
    parity = rng.integers(0, 2)
    noise = rng.uniform(-0.08, 0.08, size=(size, size))

    def base(rows: slice) -> np.ndarray:
        y = np.arange(size)[rows, None]
        x = np.arange(size)[None, :]
        checker = ((y + x + parity) % 2).astype(np.float64)
        return checker * 0.84 + 0.08 + noise[rows]

    return base


def make_archetype(flags: DegradationFlags, seed: int, size: int = 64) -> ImageF32:
    """Deterministic synthetic image exhibiting exactly the given defects."""
    rng = np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence(
                [0xAC5EED, int(flags.color_cast), int(flags.low_light),
                 int(flags.blurred), seed]
            )
        )
    )
    if flags.blurred:
        base, mod_pool = _smooth_base(rng, size)
    else:
        base, mod_pool = _sharp_base(rng, size), _MOD_MODES
    lo, hi = DARK_BAND if flags.low_light else BRIGHT_BAND

    gains = CAST_GAINS if flags.color_cast else (1.0, 1.0, 1.0)
    amp = _MOD_AMPLITUDE_CAST if flags.color_cast else _MOD_AMPLITUDE_BALANCED
    i, j = rng.choice(len(mod_pool), size=2, replace=False)
    phase_r, phase_g = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)

    out = np.empty((3, size, size), dtype=np.float32)
    band = _band_rows(size)
    for r0 in range(0, size, band):
        rows = slice(r0, r0 + band)
        v = lo + (hi - lo) * base(rows)
        mod_r = 1.0 + amp * _wave(size, mod_pool[i], phase_r, rows)
        mod_g = 1.0 + amp * _wave(size, mod_pool[j], phase_g, rows)
        for c, plane in enumerate((v * gains[0] * mod_r, v * gains[1] * mod_g, v * gains[2])):
            _clip_into(plane, out[c, rows])
    return ImageF32(out)


def archetype_for_category(category: Category8, seed: int, size: int = 64) -> ImageF32:
    return make_archetype(category.flags, seed, size)


def write_corpus(directory, count: int = 20, seed: int = 0, size: int = 32) -> list:
    """Write a mixed-category PPM corpus; returns the file paths in order.

    Categories cycle through rank order so every defect combination appears;
    per-file seeds derive from the corpus seed and the file index.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx in range(count):
        category = RANK_ORDER[idx % len(RANK_ORDER)]
        img = archetype_for_category(category, seed * 100003 + idx, size)
        path = directory / f"img_{idx:03d}.ppm"
        save_ppm(img, path)
        paths.append(path)
    return paths
