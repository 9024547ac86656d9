"""Degradation detectors, the eight-way category map, and dataset summaries."""

import numpy as np
import pytest

from aquaclear.classify import (
    Category8,
    ClassifierThresholds,
    RANK_ORDER,
    classify,
    cooccurrence_csv,
    detect_blur,
    detect_color_cast,
    detect_low_light,
    summarize,
    summary_csv,
    summary_rows,
)
from aquaclear.errors import EmptyDatasetError, NearBlackImageWarning
from aquaclear.image import ImageF32, rgb_to_hsv

from conftest import constant_image, random_image


def image_with_means(r, g, b, h=8, w=8):
    data = np.zeros((3, h, w), dtype=np.float32)
    data[0], data[1], data[2] = r, g, b
    return ImageF32(data)


class TestThresholds:
    def test_defaults(self):
        th = ClassifierThresholds()
        assert th.cast_ratio == 0.25
        assert th.brightness_floor == 0.35
        assert th.sharpness_floor == 0.0015

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassifierThresholds(cast_ratio=0.0)
        with pytest.raises(ValueError):
            ClassifierThresholds(brightness_floor=1.0)
        with pytest.raises(ValueError):
            ClassifierThresholds(sharpness_floor=-1.0)


class TestColorCast:
    def test_strong_blue_cast_detected(self):
        cast, diag = detect_color_cast(image_with_means(0.1, 0.3, 0.8))
        assert cast
        mean_avg = (0.1 + 0.3 + 0.8) / 3
        assert diag.max_rel_dev == pytest.approx(
            max(abs(m - mean_avg) for m in (0.1, 0.3, 0.8)) / mean_avg, rel=1e-5
        )

    def test_balanced_image_not_flagged(self):
        cast, _ = detect_color_cast(image_with_means(0.5, 0.52, 0.48))
        assert not cast

    def test_boundary_is_strict(self):
        # dyadic means (0.25, 0.5, 0.75): avg 0.5, max deviation exactly 0.5
        img = image_with_means(0.25, 0.5, 0.75)
        th = ClassifierThresholds(cast_ratio=0.5)
        cast, diag = detect_color_cast(img, th)
        assert diag.max_rel_dev == 0.5
        assert not cast

    def test_near_black_warns_and_passes(self):
        img = constant_image(0.0)
        with pytest.warns(NearBlackImageWarning):
            cast, diag = detect_color_cast(img)
        assert not cast
        assert diag.near_black

    def test_custom_threshold(self):
        img = image_with_means(0.3, 0.4, 0.5)
        cast, _ = detect_color_cast(img, ClassifierThresholds(cast_ratio=0.2))
        assert cast


class TestLowLightAndBlur:
    def test_dark_image_flagged(self):
        assert detect_low_light(constant_image(0.1))

    def test_bright_image_not_flagged(self):
        assert not detect_low_light(constant_image(0.7))

    def test_boundary_is_strict(self):
        # 0.375 is exact in float32, so mean V equals the floor exactly
        th = ClassifierThresholds(brightness_floor=0.375)
        assert not detect_low_light(constant_image(0.375), th)

    def test_mean_value_is_the_hsv_mean(self, rng):
        """The detector compares rgb_to_hsv's mean V, to the last bit."""
        images = [random_image(rng, 13, 17, 0.0, 1.0) for _ in range(6)]
        images += [
            ImageF32(rng.integers(0, 256, (3, 12, 9)).astype(np.float32) / 255.0)
            for _ in range(6)
        ]
        for img in images:
            mean_v = float(np.mean(rgb_to_hsv(img).data[2], dtype=np.float64))
            at = ClassifierThresholds(brightness_floor=mean_v)
            above = ClassifierThresholds(brightness_floor=np.nextafter(mean_v, 1.0))
            assert not detect_low_light(img, at)
            assert detect_low_light(img, above)

    def test_constant_image_is_blurred(self):
        assert detect_blur(constant_image(0.5))

    def test_checkerboard_is_sharp(self):
        y, x = np.mgrid[0:8, 0:8]
        checker = ((y + x) % 2).astype(np.float32)
        assert not detect_blur(ImageF32(np.stack([checker] * 3)))


class TestCategoryMap:
    def test_rank_order_and_descriptions(self):
        assert [c.rank for c in RANK_ORDER] == list(range(1, 9))
        assert RANK_ORDER[0].description == "Color bias only"
        assert RANK_ORDER[4] is Category8.NO_ISSUES

    def test_all_flag_combinations_round_trip(self):
        for cat in Category8:
            assert classify_flags(cat.flags) is cat

    def test_descriptions_are_csv_safe(self):
        for cat in Category8:
            assert "," not in cat.description


def classify_flags(flags):
    """Map flags to a category through a synthetic constant-free image."""
    # build a tiny image realizing the flags, then classify it
    base = 0.1 if flags.low_light else 0.7
    if flags.blurred:
        plane = np.full((8, 8), base, dtype=np.float64)
    else:
        y, x = np.mgrid[0:8, 0:8]
        plane = base * (0.5 + ((y + x) % 2)).astype(np.float64)
    chans = [plane, plane, plane]
    if flags.color_cast:
        chans = [plane * 0.3, plane * 0.7, plane]
    img = ImageF32.from_array(np.stack(chans))
    got_flags, cat = classify(img)
    assert got_flags == flags
    return cat


class TestSummaries:
    def test_counts_and_proportions(self):
        labels = [Category8.NO_ISSUES] * 3 + [Category8.BLUR_ONLY]
        counts = summarize(labels)
        assert list(counts) == RANK_ORDER
        assert counts[Category8.NO_ISSUES] == 3
        assert counts[Category8.COLOR_BIAS_ONLY] == 0
        rows = {row[0]: row for row in summary_rows(counts)}
        assert rows[Category8.BLUR_ONLY.rank] == (6, "Blur only", 1, "0.2500")
        assert rows[Category8.NO_ISSUES.rank][3] == "0.7500"

    def test_marginals_and_cooccurrence(self):
        labels = [Category8.COLOR_BIAS_LOW_LIGHT_BLUR, Category8.NO_ISSUES]
        rows = cooccurrence_csv(summarize(labels)).splitlines()
        assert "1,1,1,1" in rows
        assert "0,0,0,1" in rows

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            summarize([])

    def test_summary_csv_shape(self):
        rep = summarize([Category8.COLOR_BIAS_ONLY, Category8.LOW_LIGHT_ONLY])
        text = summary_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "rank,description,count,proportion"
        assert len(lines) == 9  # header + 8 categories
        first = lines[1].split(",")
        assert first == ["1", "Color bias only", "1", "0.5000"]

    def test_summary_csv_rows_follow_rank_order(self):
        rep = summarize([Category8.NO_ISSUES])
        rows = summary_csv(rep).strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == [str(i) for i in range(1, 9)]

    def test_cooccurrence_csv(self):
        rep = summarize([Category8.LOW_LIGHT_BLUR])
        text = cooccurrence_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "lowlight,cast,blur,count"
        assert len(lines) == 9
        assert "1,0,1,1" in lines
