"""PSNR, UCIQE, UIQM and the batch quality report."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aquaclear.metrics
from aquaclear.errors import DimMismatchError, ImageTooSmallError
from aquaclear.image import ImageF32, convolve2d, load_ppm, rgb_to_lab
from aquaclear.metrics import (
    METHOD_ORDER,
    SCORES_HEADER,
    UCIQE_WEIGHTS,
    UIQM_WEIGHTS,
    psnr,
    report_csv,
    score_image,
    uciqe,
    uicm,
    uiconm,
    uiqm,
    uism,
)
from aquaclear.metrics import _sobel_magnitude
from aquaclear.synth import write_corpus

from conftest import (
    FUZZ,
    constant_image,
    heap_peak,
    layouts,
    level_data,
    luma_reference,
    psnr_reference,
    random_image,
)


VIEW_LAYOUTS = ["planar", "interleaved", "fortran", "planar crop", "interleaved crop"]


def interleaved_psnr_reference(reference, test):
    """psnr_reference of pixel-interleaved copies of the two images."""
    return psnr_reference(*(layouts(img.data)["interleaved"].data
                            for img in (reference, test)))


class TestPsnr:
    def test_identical_images_are_infinite(self, rng):
        img = random_image(rng, 8, 8)
        assert psnr(img, img) == math.inf

    def test_full_scale_error_is_zero_db(self):
        black = constant_image(0.0)
        white = constant_image(1.0)
        assert psnr(black, white) == 0.0

    def test_known_mse(self):
        a = constant_image(0.0)
        b = constant_image(0.5)
        assert psnr(a, b) == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)

    def test_symmetric(self, rng):
        a = random_image(rng, 8, 8)
        b = random_image(rng, 8, 8)
        assert psnr(a, b) == pytest.approx(psnr(b, a), abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimMismatchError):
            psnr(random_image(rng, 8, 8), random_image(rng, 8, 9))

    # The mean sums in memory order, so every layout pair must give the
    # bits of the pixel-interleaved pair, the layout load_ppm gives.
    @pytest.mark.parametrize("h, w", [(1, 1), (37, 300), (256, 256)])
    @pytest.mark.parametrize("ref_layout", ["planar", "interleaved"])
    @pytest.mark.parametrize("test_layout", ["planar", "interleaved"])
    def test_same_bits_as_whole_float64_operands(self, h, w, ref_layout, test_layout):
        ref = layouts(level_data(h, w, seed=1))[ref_layout]
        test = layouts(level_data(h, w, seed=2))[test_layout]
        assert psnr(ref, test) == interleaved_psnr_reference(ref, test)

    # Fortran-order and cropped views too, on both sides of 256 KiB of
    # float64, from which numpy reuses an operand's float64 copy for a
    # difference and so takes its layout. (105 x 105 is the first square
    # size that large.)
    @pytest.mark.parametrize("h, w", [(105, 105), (55, 300), (1, 10923)])
    @pytest.mark.parametrize("ref_layout", VIEW_LAYOUTS)
    @pytest.mark.parametrize("test_layout", VIEW_LAYOUTS)
    def test_same_bits_as_whole_float64_operands_of_views(self, h, w, ref_layout, test_layout):
        def image(layout, seed):
            if layout == "fortran":
                return ImageF32(np.asfortranarray(level_data(h, w, seed)))
            if layout.endswith(" crop"):
                whole = layouts(level_data(h + 2, w + 3, seed))[layout[:-5]].data
                return ImageF32(whole[:, 1:h + 1, 2:w + 2])
            return layouts(level_data(h, w, seed))[layout]
        ref, test = image(ref_layout, 1), image(test_layout, 2)
        assert psnr(ref, test) == interleaved_psnr_reference(ref, test)

    def test_builds_one_float64_array(self, rng):
        # two float64 copies and their product peaked at 48 bytes per pixel
        a, b = random_image(rng, 256, 256), random_image(rng, 256, 256)
        peak, _ = heap_peak(psnr, a, b)
        assert peak < 30 * 256 * 256


class TestUciqe:
    def test_constant_gray_scores_zero(self):
        score, parts = uciqe(constant_image(0.5, h=16, w=16))
        assert abs(score) < 1e-12
        assert abs(parts["sigma_c"]) < 1e-12
        assert parts["con_l"] == 0.0
        assert abs(parts["mu_s"]) < 1e-12

    def test_weighted_sum_identity(self, rng):
        img = random_image(rng, 16, 16)
        score, parts = uciqe(img)
        want = (
            UCIQE_WEIGHTS[0] * parts["sigma_c"]
            + UCIQE_WEIGHTS[1] * parts["con_l"]
            + UCIQE_WEIGHTS[2] * parts["mu_s"]
        )
        assert score == pytest.approx(want, abs=1e-12)

    def test_components_match_direct_lab_computation(self, rng):
        img = random_image(rng, 10, 10)
        _, parts = uciqe(img)
        lab = rgb_to_lab(img)
        lum = lab[0].ravel()
        chroma = np.hypot(lab[1], lab[2]).ravel()
        assert parts["sigma_c"] == pytest.approx(float(np.std(chroma)) / 100.0, abs=1e-12)
        k = math.ceil(0.01 * lum.size)  # one pixel per tail here
        ls = np.sort(lum)
        want_con = (float(np.mean(ls[-k:])) - float(np.mean(ls[:k]))) / 100.0
        assert parts["con_l"] == pytest.approx(want_con, abs=1e-12)
        sat = chroma / np.sqrt(chroma**2 + lum**2)
        assert parts["mu_s"] == pytest.approx(float(np.mean(sat)), abs=1e-9)

    def test_mirror_invariance(self, rng):
        img = random_image(rng, 16, 16)
        mirrored = ImageF32(img.data[:, :, ::-1].copy())
        assert uciqe(img)[0] == pytest.approx(uciqe(mirrored)[0], abs=1e-9)

    def test_saturated_colors_beat_gray(self, rng):
        colorful = random_image(rng, 16, 16, lo=0.0, hi=1.0)
        grayish = constant_image(0.5, h=16, w=16)
        assert uciqe(colorful)[0] > uciqe(grayish)[0]


def uicm_oracle(img):
    r, g, b = img.data.astype(np.float64)
    rg = np.sort((r - g).ravel())
    yb = np.sort(((r + g) / 2.0 - b).ravel())
    drop = int(math.floor(0.1 * rg.size))
    kept_rg = rg[drop : rg.size - drop] if drop else rg
    kept_yb = yb[drop : yb.size - drop] if drop else yb
    mu_rg, mu_yb = float(np.mean(kept_rg)), float(np.mean(kept_yb))
    var_rg = float(np.mean((rg - mu_rg) ** 2))
    var_yb = float(np.mean((yb - mu_yb) ** 2))
    return -0.0268 * math.hypot(mu_rg, mu_yb) + 0.1586 * math.sqrt(var_rg + var_yb)


def eme_oracle(plane):
    h, w = plane.shape
    total, k = 0.0, 0
    for by in range(h // 8):
        for bx in range(w // 8):
            block = plane[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8]
            k += 1
            mn, mx = float(block.min()), float(block.max())
            if mn >= 1e-6:
                total += math.log(mx / mn)
    return 2.0 * total / k


class TestUiqmComponents:
    def test_uicm_matches_trimmed_mean_oracle(self, rng, monkeypatch):
        calls = []  # UICM reads the image itself: no strip walk
        monkeypatch.setattr(aquaclear.metrics, "_edge_bands",
                            lambda *args: calls.append(args) or iter(()))
        img = random_image(rng, 8, 8)
        assert uicm(img) == pytest.approx(uicm_oracle(img), abs=1e-12)
        assert calls == []

    def test_uicm_zero_on_gray(self):
        assert uicm(constant_image(0.3, h=8, w=8)) == 0.0

    def test_uism_zero_on_constant(self):
        assert uism(constant_image(0.5, h=16, w=16)) == 0.0

    def test_uism_matches_block_oracle(self, rng):
        img = random_image(rng, 16, 24, lo=0.1, hi=0.9)
        sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        sy = sx.T
        emes = []
        for c in range(3):
            plane = img.data[c].astype(np.float64)
            mag = np.hypot(convolve2d(plane, sx), convolve2d(plane, sy))
            emes.append(eme_oracle(mag))
        want = 0.299 * emes[0] + 0.587 * emes[1] + 0.114 * emes[2]
        assert uism(img) == pytest.approx(want, abs=1e-9)

    def test_uiconm_matches_block_oracle(self, rng):
        img = random_image(rng, 16, 16)
        luma = luma_reference(img.data)
        total = 0.0
        for by in range(2):
            for bx in range(2):
                block = luma[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8]
                mn, mx = float(block.min()), float(block.max())
                t = (mx - mn) / (mx + mn + 1e-12)
                if t > 0:
                    total += t * abs(math.log(t))
        assert uiconm(img) == pytest.approx(total / 4.0, abs=1e-12)

    def test_uiconm_zero_on_constant(self):
        assert uiconm(constant_image(0.7, h=8, w=8)) == 0.0

    def test_too_small_for_blocks(self):
        img = constant_image(0.5, h=7, w=7)
        with pytest.raises(ImageTooSmallError):
            uism(img)
        with pytest.raises(ImageTooSmallError):
            uiconm(img)

    def test_uiqm_weighted_sum_identity(self, rng):
        img = random_image(rng, 16, 16)
        score, parts = uiqm(img)
        want = (
            UIQM_WEIGHTS[0] * parts["uicm"]
            + UIQM_WEIGHTS[1] * parts["uism"]
            + UIQM_WEIGHTS[2] * parts["uiconm"]
        )
        assert score == pytest.approx(want, abs=1e-12)

    def test_uiqm_zero_on_constant_gray(self):
        score, _ = uiqm(constant_image(0.5, h=16, w=16))
        assert score == 0.0

    def test_uiqm_mirror_invariance(self, rng):
        img = random_image(rng, 16, 16)
        mirrored = ImageF32(img.data[:, :, ::-1].copy())
        assert uiqm(img)[0] == pytest.approx(uiqm(mirrored)[0], abs=1e-9)


class TestScoreImage:
    def test_without_reference_psnr_is_none(self, rng):
        s = score_image(random_image(rng, 8, 8))
        assert s.psnr is None
        assert math.isfinite(s.uciqe) and math.isfinite(s.uiqm)

    def test_with_reference(self, rng):
        img = random_image(rng, 8, 8)
        s = score_image(img, reference=img)
        assert s.psnr == math.inf

    def test_heap_peak_at_256(self, rng):
        # bytes per pixel: UCIQE's L, chroma and saturation planes are 24;
        # with UICM's planes kept through the strips, and np.std's and the
        # variances' temporaries, the pass peaked at 51
        peak, _ = heap_peak(score_image, random_image(rng, 256, 256))
        assert peak < 36 * 256 * 256


def uism_oracle(img):
    sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    emes = []
    for c in range(3):
        plane = img.data[c].astype(np.float64)
        emes.append(eme_oracle(np.hypot(convolve2d(plane, sx), convolve2d(plane, sx.T))))
    return 0.299 * emes[0] + 0.587 * emes[1] + 0.114 * emes[2]


def uiconm_oracle(img):
    luma = luma_reference(img.data)
    total, k = 0.0, 0
    for by in range(img.height // 8):
        for bx in range(img.width // 8):
            block = luma[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8]
            k += 1
            mn, mx = float(block.min()), float(block.max())
            t = (mx - mn) / (mx + mn + 1e-12)
            if t > 0:
                total += t * abs(math.log(t))
    return total / k


class TestStripBoundaries:
    """The scoring pass walks 16-row strips; block rows and partial blocks
    must come out as in one whole-image walk."""

    @pytest.mark.parametrize("h, w", [
        (8, 13), (15, 9), (16, 21), (17, 30), (33, 45), (70, 70), (33, 8), (70, 17),
    ])
    def test_components_match_oracles(self, rng, h, w):
        img = random_image(rng, h, w, lo=0.1, hi=0.9)
        assert uism(img) == pytest.approx(uism_oracle(img), abs=1e-9)
        assert uiconm(img) == pytest.approx(uiconm_oracle(img), abs=1e-12)
        assert uicm(img) == pytest.approx(uicm_oracle(img), abs=1e-12)

    def test_sobel_magnitude_has_convolve2d_bits(self, rng):
        # Samples spanning many binades, so the tap order shows in rounding.
        sx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        for h, w in [(1, 1), (3, 9), (16, 16), (17, 5)]:
            plane = (rng.random((h, w)) * 2.0 ** rng.integers(-60, 1, (h, w)))
            plane = plane.astype(np.float32).astype(np.float64)
            want = np.hypot(convolve2d(plane, sx), convolve2d(plane, sx.T))
            got = _sobel_magnitude(np.pad(plane, 1, mode="edge"))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("h, w", [(5, 3), (1, 1), (7, 40), (23, 2)])
    def test_uicm_and_uciqe_take_images_under_eight_pixels(self, rng, h, w):
        img = random_image(rng, h, w)
        assert uicm(img) == pytest.approx(uicm_oracle(img), abs=1e-12)
        assert math.isfinite(uciqe(img)[0])
        with pytest.raises(ImageTooSmallError):
            score_image(img)


# float.hex of every QualityScores field, in field order, of
# write_corpus(count=8, seed=3, size=...) loaded with load_ppm and scored
# against the next image of the corpus, as the whole-image walk of each
# metric computed them before the scoring pass replaced it. Transcendental
# ufuncs may round differently in another numpy build (these come from
# numpy 2.4 on x86-64 with AVX-512).
FROZEN_SCORES = {
    (37, 0): (
        "0x1.6847a4104d0cfp+3", "0x1.0c144aa9b8594p-1", "0x1.5d072283f9233p+1",
        "0x1.40eacb9ffbbc0p-2", "0x1.621c8dbb15e48p-1", "0x1.73d21dc466cb5p-1",
        "0x1.6309021877ab2p-5", "0x1.92cf64f9cbd97p+2", "0x1.f09d7cf4dca69p-3",
    ),
    (37, 1): (
        "0x1.c667396a258d2p+2", "0x1.fdef6afcc4e22p-2", "0x1.570135c89cda0p+1",
        "0x1.33889eb019386p-2", "0x1.3e2965abc27dap-1", "0x1.736320308c8f9p-1",
        "0x1.4e8eafac41f91p-5", "0x1.46318b29136edp+2", "0x1.5019ab9829659p-2",
    ),
    (37, 2): (
        "0x1.5500630ae5fcep+4", "0x1.5510d902f1ebcp-2", "0x1.01189fc10c9bcp+1",
        "0x1.09567a69bc993p-3", "0x1.db7607954410fp-3", "0x1.9ed4244b5e259p-1",
        "0x1.a12f211b076d1p-7", "0x1.64b9a2274038ap+2", "0x1.9f02bedc51669p-4",
    ),
    (37, 3): (
        "0x1.b134fd083a4f0p+1", "0x1.3930d17540af5p-2", "0x1.bb8bbfdd11fdap+0",
        "0x1.a48a912a98d63p-4", "0x1.42d6c056c1462p-3", "0x1.aa64a2ff1fda5p-1",
        "0x1.50a6b7812d639p-7", "0x1.2d6ae23289f9bp+1", "0x1.28fcb6362f03ep-2",
    ),
    (37, 4): (
        "0x1.cbca4f27e5e93p+3", "0x1.27700197faa32p-3", "0x1.7d0be8a38900cp+1",
        "0x1.9df4fac0ed611p-6", "0x1.a80a705682804p-2", "0x1.2a50033430c84p-4",
        "0x1.084d3f3ac6a1cp-7", "0x1.71541fe0d1cccp+2", "0x1.6c7b99c6a256bp-2",
    ),
    (37, 5): (
        "0x1.139f6b586c4c3p+2", "0x1.1b7831160c524p-3", "0x1.0628324c2240bp+1",
        "0x1.49ca8544668edp-6", "0x1.9b4c152303d6dp-2", "0x1.29f06a0eea41bp-4",
        "0x1.e98d7b93b224dp-8", "0x1.eb13aa5262868p+1", "0x1.060dbe9b0d900p-2",
    ),
    (37, 6): (
        "0x1.3a2d073d1e98cp+4", "0x1.7e065340844afp-4", "0x1.e7953188093dfp+0",
        "0x1.36167efb5d589p-7", "0x1.d7631d96b7344p-3", "0x1.97f8425141712p-4",
        "0x1.dc034191a5faap-10", "0x1.32e62035dbde6p+1", "0x1.56b395adfb33ap-2",
    ),
    (37, 7): (
        "0x1.ed866e0470d4bp+2", "0x1.945f20a9ece30p-4", "0x1.2b167ff97bc64p+1",
        "0x1.68c7fd7fb7bbap-7", "0x1.02752fff2acc4p-2", "0x1.822d62171ce90p-4",
        "0x1.e1c4be745d964p-10", "0x1.44441b72ca9c4p+2", "0x1.e163fc3d33304p-3",
    ),
    (40, 0): (
        "0x1.678b13f67bc8fp+3", "0x1.0b7242f5588d6p-1", "0x1.6d8692385a458p+1",
        "0x1.4143c467c8a26p-2", "0x1.5f7ddb74924c0p-1", "0x1.73d6fe9f9fd8ap-1",
        "0x1.62ea1afa65ef9p-5", "0x1.a259a381dc043p+2", "0x1.08afbb7e24647p-2",
    ),
    (40, 1): (
        "0x1.c656dbc72d5d6p+2", "0x1.fe396d3ae9e48p-2", "0x1.37e709cd3f810p+1",
        "0x1.3382a1fd7962bp-2", "0x1.3eb8ad8fd2544p-1", "0x1.735f88b651ed2p-1",
        "0x1.4ec32c1cca2aap-5", "0x1.0732437597b44p+2", "0x1.5dc20d4f2425ap-2",
    ),
    (40, 2): (
        "0x1.57ae6ddd46260p+4", "0x1.55bf7ab3622a8p-2", "0x1.a37ef7e2c7e78p+0",
        "0x1.0a87621e58d18p-3", "0x1.e007a473433adp-3", "0x1.9e65074d68308p-1",
        "0x1.a2683cd22a6a0p-7", "0x1.0ef9ab9903e9bp+2", "0x1.bc81b59b6ac60p-4",
    ),
    (40, 3): (
        "0x1.b1471c9d70a4fp+1", "0x1.394d7a3ffd11fp-2", "0x1.0d5d310c679acp+1",
        "0x1.a4eaccc27c11fp-4", "0x1.42b396f51aff3p-3", "0x1.aa8fc6fe4a7f8p-1",
        "0x1.51132c225013dp-7", "0x1.adaf4e1ec6423p+1", "0x1.3eb8e8e435604p-2",
    ),
    (40, 4): (
        "0x1.ccc60f19cd5cbp+3", "0x1.2592fe186d93fp-3", "0x1.876cb7a00776ap+1",
        "0x1.9df90c7ee59a4p-6", "0x1.a49bb1370fe5dp-2", "0x1.2a783b273cf94p-4",
        "0x1.088da1d6c4fd2p-7", "0x1.83ef8dd1dcd10p+2", "0x1.6b1d770dd3d4ap-2",
    ),
    (40, 5): (
        "0x1.1390b5c636431p+2", "0x1.1b8ec5162713dp-3", "0x1.f010c354658c0p+0",
        "0x1.4a811369ee26fp-6", "0x1.9b6e0e0d9cebdp-2", "0x1.29bbfd9b190c3p-4",
        "0x1.e8f3f6167c3adp-8", "0x1.c6cbab261a64fp+1", "0x1.fcd8692980044p-3",
    ),
    (40, 6): (
        "0x1.3a4c9ef3f3374p+4", "0x1.7d7d48a885919p-4", "0x1.01ad263c87b94p+1",
        "0x1.35be4c47b74aap-7", "0x1.d7a840212e7b7p-3", "0x1.9564f455cdff3p-4",
        "0x1.daab0ea11f9b8p-10", "0x1.6347623b4461cp+1", "0x1.55cd8a8deeba5p-2",
    ),
    (40, 7): (
        "0x1.eda0d2e976133p+2", "0x1.9358d644cae20p-4", "0x1.37fc63aed9e1fp+1",
        "0x1.6575fc3301fdcp-7", "0x1.01fe4a17756c3p-2", "0x1.80ef00453760ap-4",
        "0x1.e0272bf33adc7p-10", "0x1.59e580f7d724ep+2", "0x1.e1f0fde3aac6ep-3",
    ),
}


def corpus_images(directory, size, count=8, seed=0):
    return [load_ppm(p) for p in write_corpus(directory, count=count, seed=seed, size=size)]


def bits(scores):
    """float.hex of every field of a QualityScores, None kept as None."""
    return tuple(
        None if v is None else v.hex() for v in dataclasses.astuple(scores)
    )


class TestScoreBits:
    @pytest.mark.parametrize("size", [37, 40])
    def test_loaded_corpus_scores_keep_their_bits(self, tmp_path, size):
        images = corpus_images(tmp_path, size, seed=3)
        for i, img in enumerate(images):
            s = score_image(img, images[(i + 1) % len(images)])
            assert bits(s) == FROZEN_SCORES[(size, i)], (size, i)

    def test_per_metric_functions_give_score_image_bits(self, tmp_path):
        for img in corpus_images(tmp_path, 37, seed=3):
            uciqe_score, uc = uciqe(img)
            uiqm_score, uq = uiqm(img)
            got = (uciqe_score, uiqm_score, *uc.values(), uicm(img), uism(img), uiconm(img))
            assert tuple(v.hex() for v in got) == bits(score_image(img))[1:]
            assert [v.hex() for v in uq.values()] == [v.hex() for v in got[-3:]]

    def test_planar_copy_scores_the_same_bits(self, tmp_path):
        for img in corpus_images(tmp_path, 64):
            assert img.data.strides[0] == 4  # load_ppm keeps pixels interleaved
            planar = ImageF32(np.ascontiguousarray(img.data))
            assert bits(score_image(img)) == bits(score_image(planar))

    @FUZZ
    @given(
        h=st.integers(1, 70),
        w=st.integers(1, 70),
        levels=st.sampled_from([None, 256, 2]),
        special=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fuzz(self, h, w, levels, special, seed):
        """Any image, in either layout: finite scores, the same bits, and
        ImageTooSmallError as the only error."""
        rng = np.random.Generator(np.random.PCG64(seed))
        values = rng.random((h, w, 3))
        if levels is not None:  # 8-bit as load_ppm maps it, or two levels
            values = np.floor(values * levels) / (levels - 1.0)
        edges = np.array([0.0, -0.0, 1.0, 1e-45, 1e-6, 0.04045, 0.5])
        where = rng.random(values.shape) < special
        values[where] = rng.choice(edges, size=int(where.sum()))
        interleaved = values.astype(np.float32).transpose(2, 0, 1)
        planar = np.ascontiguousarray(interleaved)
        scores = []
        for data in (interleaved, planar):
            try:
                scores.append(bits(score_image(ImageF32(data))))
            except ImageTooSmallError:
                scores.append(None)
        assert (scores[0] is None) == (h < 8 or w < 8)
        assert scores[0] == scores[1]
        if scores[0] is not None:
            assert scores[0][0] is None  # psnr, with no reference
            assert all(math.isfinite(float.fromhex(v)) for v in scores[0][1:]), scores[0]


def report_rows(rows):
    return list(csv.reader(io.StringIO(report_csv(rows))))


def mean_rows(rows):
    return [r for r in report_rows(rows) if r[0] == "mean"]


class TestEvaluateBatch:
    def test_method_order_is_canonical_then_alphabetical(self, rng):
        img = random_image(rng, 8, 8)
        items = [
            ("a.ppm", "Classic", score_image(img)),
            ("a.ppm", "Zeta", score_image(img)),
            ("a.ppm", "Original", score_image(img)),
            ("a.ppm", "VGG19", score_image(img)),
        ]
        rows = report_rows(items)
        assert [r[1] for r in rows[1:5]] == ["Classic", "Zeta", "Original", "VGG19"]
        assert [r[1] for r in rows[5:]] == ["Original", "VGG19", "Classic", "Zeta"]
        assert all(r[0] == "mean" for r in rows[5:])
        assert METHOD_ORDER[0] == "Original"

    def test_infinite_psnr_counted_not_averaged(self, rng):
        ref = random_image(rng, 8, 8)
        other = random_image(rng, 8, 8)
        items = [
            ("a.ppm", "Classic", score_image(ref, ref)),
            ("b.ppm", "Classic", score_image(other, ref)),
            ("c.ppm", "Classic", score_image(other)),
        ]
        (mean,) = mean_rows(items)
        assert mean[2] == f"{psnr(ref, other):.6f}"

    def test_aggregate_is_column_mean(self, rng):
        a, b = random_image(rng, 8, 8), random_image(rng, 8, 8)
        sa, sb = score_image(a, b), score_image(b, a)
        (mean,) = mean_rows([("a.ppm", "Classic", sa), ("b.ppm", "Classic", sb)])
        for col, cell in zip(SCORES_HEADER[2:], mean[2:], strict=True):
            want = (getattr(sa, col) + getattr(sb, col)) / 2.0
            assert cell == f"{want:.6f}", col


class TestReportCsv:
    HEADER = "image,method,psnr,uciqe,uiqm,sigma_c,con_l,mu_s,uicm,uism,uiconm"

    def test_layout(self, rng):
        img = random_image(rng, 8, 8)
        rows = report_rows(
            [
                ("a.ppm", "Classic", score_image(img, img)),
                ("a.ppm", "Original", score_image(img)),
            ]
        )
        assert ",".join(rows[0]) == self.HEADER
        assert len(rows) == 1 + 2 + 2  # header, image rows, mean rows
        assert all(len(r) == 11 for r in rows)
        assert rows[3][0] == "mean" and rows[4][0] == "mean"

    def test_infinite_psnr_cell(self, rng):
        img = random_image(rng, 8, 8)
        rows = report_rows([("a.ppm", "Classic", score_image(img, img))])
        assert rows[1][2] == "inf"
        assert rows[2][2] == "inf"  # mean row falls back to inf when all rows are

    def test_missing_reference_leaves_empty_cell(self, rng):
        img = random_image(rng, 8, 8)
        rows = report_rows([("a.ppm", "Original", score_image(img))])
        assert rows[1][2] == ""
        assert rows[2][2] == ""

    def test_cells_are_six_decimal_floats(self, rng):
        img = random_image(rng, 8, 8)
        rows = report_rows([("a.ppm", "Original", score_image(img))])
        for cell in rows[1][3:]:
            float(cell)
            assert len(cell.split(".")[1]) == 6
