"""Synthetic archetypes and corpora: built a row band at a time, they keep
the bits of the whole-grid construction."""

import hashlib

import pytest

from aquaclear.classify import RANK_ORDER
from aquaclear.image import save_ppm
from aquaclear.synth import make_archetype, write_corpus

from conftest import archetype_reference, heap_peak, same_bits

# sha256 of the files of write_corpus(count=8, seed=1, size=...), in order,
# as the whole-grid construction wrote them.
CORPUS_DIGESTS = {
    37: "f945a125c966309b612f80cc4c92ac9cdeaba29281bc2abb1daa881a1dd048d2",
    256: "972ec89aa616234c40bad2568381c20a66c8473b20cf9c385a6ffee731c2c735",
}


class TestArchetypes:
    # 300 px is six row bands, the last one short
    @pytest.mark.parametrize("size", [1, 7, 37, 300])
    @pytest.mark.parametrize("category", RANK_ORDER, ids=lambda c: c.name)
    def test_keep_the_whole_grid_bits(self, category, size):
        for seed in (0, 5):
            img = make_archetype(category.flags, seed, size)
            assert same_bits(img.data, archetype_reference(category.flags, seed, size))

    @pytest.mark.parametrize("size", sorted(CORPUS_DIGESTS))
    def test_corpus_bytes(self, tmp_path, size):
        digest = hashlib.sha256()
        for path in write_corpus(tmp_path, count=8, seed=1, size=size):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == CORPUS_DIGESTS[size]

    @pytest.mark.parametrize("category", RANK_ORDER, ids=lambda c: c.name)
    def test_make_and_save_hold_no_whole_image_float64_plane(self, tmp_path, category):
        # bytes per pixel: the image is 12, its file 3 and the sharp
        # archetypes' noise 8; the whole-grid construction peaked at 93
        peak, _ = heap_peak(
            lambda: save_ppm(make_archetype(category.flags, 0, 256), tmp_path / "a.ppm")
        )
        assert peak < 45 * 256 * 256
