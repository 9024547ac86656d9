"""PSNR, UCIQE, UIQM and the batch quality report."""

import csv
import io
import math

import numpy as np
import pytest

from aquaclear.errors import DimMismatchError, EmptyBatchError, ImageTooSmallError
from aquaclear.image import ImageF32, convolve2d, luminance, rgb_to_lab
from aquaclear.metrics import (
    METHOD_ORDER,
    UCIQE_WEIGHTS,
    UIQM_WEIGHTS,
    aggregate_scores,
    psnr,
    report_csv,
    score_image,
    uciqe,
    uicm,
    uiconm,
    uiqm,
    uism,
)

from conftest import constant_image, random_image


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
    def test_uicm_matches_trimmed_mean_oracle(self, rng):
        img = random_image(rng, 8, 8)
        assert uicm(img) == pytest.approx(uicm_oracle(img), abs=1e-12)

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
        luma = luminance(img)
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


class TestEvaluateBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            aggregate_scores([])

    def test_method_order_is_canonical_then_alphabetical(self, rng):
        img = random_image(rng, 8, 8)
        items = [
            ("a.ppm", "Classic", score_image(img)),
            ("a.ppm", "Zeta", score_image(img)),
            ("a.ppm", "Original", score_image(img)),
            ("a.ppm", "VGG19", score_image(img)),
        ]
        report = aggregate_scores(items)
        assert list(report.aggregates) == ["Original", "VGG19", "Classic", "Zeta"]
        assert METHOD_ORDER[0] == "Original"

    def test_infinite_psnr_counted_not_averaged(self, rng):
        ref = random_image(rng, 8, 8)
        other = random_image(rng, 8, 8)
        items = [
            ("a.ppm", "Classic", score_image(ref, ref)),
            ("b.ppm", "Classic", score_image(other, ref)),
        ]
        report = aggregate_scores(items)
        agg = report.aggregates["Classic"]
        assert report.inf_psnr_counts["Classic"] == 1
        assert agg["psnr"] == pytest.approx(psnr(ref, other), abs=1e-12)

    def test_aggregate_is_column_mean(self, rng):
        a, b = random_image(rng, 8, 8), random_image(rng, 8, 8)
        report = aggregate_scores(
            [("a.ppm", "Classic", score_image(a)), ("b.ppm", "Classic", score_image(b))]
        )
        want = (score_image(a).uciqe + score_image(b).uciqe) / 2.0
        assert report.aggregates["Classic"]["uciqe"] == pytest.approx(want, abs=1e-12)


class TestReportCsv:
    HEADER = "image,method,psnr,uciqe,uiqm,sigma_c,con_l,mu_s,uicm,uism,uiconm"

    def test_layout(self, rng):
        img = random_image(rng, 8, 8)
        report = aggregate_scores(
            [
                ("a.ppm", "Classic", score_image(img, img)),
                ("a.ppm", "Original", score_image(img)),
            ]
        )
        text = report_csv(report)
        rows = list(csv.reader(io.StringIO(text)))
        assert ",".join(rows[0]) == self.HEADER
        assert len(rows) == 1 + 2 + 2  # header, image rows, mean rows
        assert all(len(r) == 11 for r in rows)
        assert rows[3][0] == "mean" and rows[4][0] == "mean"

    def test_infinite_psnr_cell(self, rng):
        img = random_image(rng, 8, 8)
        report = aggregate_scores([("a.ppm", "Classic", score_image(img, img))])
        rows = list(csv.reader(io.StringIO(report_csv(report))))
        assert rows[1][2] == "inf"
        assert rows[2][2] == "inf"  # mean row falls back to inf when all rows are

    def test_missing_reference_leaves_empty_cell(self, rng):
        img = random_image(rng, 8, 8)
        report = aggregate_scores([("a.ppm", "Original", score_image(img))])
        rows = list(csv.reader(io.StringIO(report_csv(report))))
        assert rows[1][2] == ""
        assert rows[2][2] == ""

    def test_cells_are_six_decimal_floats(self, rng):
        img = random_image(rng, 8, 8)
        report = aggregate_scores([("a.ppm", "Original", score_image(img))])
        rows = list(csv.reader(io.StringIO(report_csv(report))))
        for cell in rows[1][3:]:
            float(cell)
            assert len(cell.split(".")[1]) == 6
