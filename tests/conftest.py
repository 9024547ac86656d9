import errno
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
