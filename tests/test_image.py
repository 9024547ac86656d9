"""Image container, PPM I/O, color conversions, and the convolution core."""

import errno
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aquaclear.image as image_module

from aquaclear.errors import (
    AquaClearError,
    EvenKernelError,
    GrayscaleUnsupportedError,
    IoFailureError,
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
)
from aquaclear.image import (
    LAPLACIAN_KERNEL,
    ChannelStats,
    ImageF32,
    channel_stats,
    convolve2d,
    hsv_to_rgb,
    laplacian_variance,
    load_ppm,
    luminance,
    rgb_to_hsv,
    rgb_to_lab,
    save_ppm,
)

from conftest import (
    FUZZ,
    byte_edits,
    constant_image,
    fail_writes_midway,
    mutate,
    plane_conv_oracle,
    random_image,
)


class TestImageF32:
    def test_accepts_planar_float32(self):
        img = ImageF32(np.zeros((3, 4, 5), dtype=np.float32))
        assert (img.channels, img.height, img.width) == (3, 4, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ImageF32(np.zeros((4, 5), dtype=np.float32))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            ImageF32(np.zeros((2, 4, 5), dtype=np.float32))

    def test_rejects_float64(self):
        with pytest.raises(ValueError):
            ImageF32(np.zeros((3, 4, 5)))

    def test_rejects_out_of_range(self):
        bad = np.full((3, 2, 2), 1.5, dtype=np.float32)
        with pytest.raises(ValueError):
            ImageF32(bad)

    def test_rejects_nan(self):
        bad = np.zeros((3, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ImageF32(bad)

    def test_from_array_clamps_and_casts(self):
        arr = np.linspace(-0.5, 1.5, 12).reshape(3, 2, 2)
        img = ImageF32.from_array(arr)
        assert img.data.dtype == np.float32
        assert img.data.min() == 0.0 and img.data.max() == 1.0

    def test_data_is_read_only(self):
        img = constant_image(0.5)
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0.0


class TestPpm:
    def test_canonical_header_bytes(self, tmp_path):
        img = constant_image(0.0, h=2, w=3)
        path = tmp_path / "a.ppm"
        save_ppm(img, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_quantizer_rounds_half_away_from_zero(self, tmp_path):
        # 0.5/255 is exactly half a step below 1: rounds up to byte 1
        data = np.full((3, 1, 1), 0.5 / 255.0, dtype=np.float32)
        path = tmp_path / "q.ppm"
        save_ppm(ImageF32(data), path)
        assert path.read_bytes()[-3:] == bytes([1, 1, 1])

    def test_round_trip_error_bound(self, tmp_path, rng):
        img = random_image(rng, 9, 7, lo=0.0, hi=1.0)
        path = tmp_path / "r.ppm"
        save_ppm(img, path)
        back = load_ppm(path)
        assert back.data.shape == img.data.shape
        err = np.abs(back.data.astype(np.float64) - img.data.astype(np.float64))
        assert err.max() <= 1.0 / 510.0 + 1e-12

    def test_saved_file_reloads_identically(self, tmp_path, rng):
        img = random_image(rng, 5, 5)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_ppm(img, p1)
        save_ppm(load_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tolerant_header_whitespace(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6\n2\t1 \n 255\n" + bytes(6))
        img = load_ppm(path)
        assert (img.width, img.height) == (2, 1)

    @pytest.mark.parametrize(
        "header",
        [
            b"P6\n# c\n2 1\n255\n",  # after the magic
            b"P6\n2 # width\n1# height\r255\n",  # between tokens
            b"P6#\n#\n2\n#two\n#lines\n1 255\n",  # empty and stacked
        ],
    )
    def test_header_comments(self, tmp_path, header):
        path = tmp_path / "c.ppm"
        path.write_bytes(header + bytes(range(6)))
        img = load_ppm(path)
        assert (img.width, img.height) == (2, 1)
        assert np.array_equal(img.data[:, 0, 1] * 255.0, [3.0, 4.0, 5.0])

    def test_comment_after_maxval_is_payload(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 1 1 255\n#ab")
        img = load_ppm(path)
        assert np.array_equal(np.rint(img.data[:, 0, 0] * 255.0), list(b"#ab"))

    @pytest.mark.parametrize(
        "raw",
        [
            b"P6\n# no end of line",
            b"P6 2 1 # comment swallows the maxval 255\n" + bytes(6),
            b"P6 " + b"9" * 5000 + b" 1 255\n",
        ],
        ids=["unterminated_comment", "comment_hides_maxval", "overlong_number"],
    )
    def test_bad_header_is_malformed(self, tmp_path, raw):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(MalformedHeaderError):
            load_ppm(path)

    def test_malformed_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(MalformedHeaderError):
            load_ppm(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"hello world")
        with pytest.raises(MalformedHeaderError):
            load_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(UnsupportedMaxvalError):
            load_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(TruncatedPayloadError):
            load_ppm(path)

    def test_unreadable_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_ppm(tmp_path / "missing.ppm")
        (tmp_path / "dir.ppm").mkdir()
        with pytest.raises(IoFailureError):
            load_ppm(tmp_path / "dir.ppm")

    def test_save_rejects_grayscale(self, tmp_path):
        gray = ImageF32(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(GrayscaleUnsupportedError):
            save_ppm(gray, tmp_path / "g.ppm")


class TestAtomicWrite:
    def test_failed_save_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch):
        fail_writes_midway(monkeypatch)
        with pytest.raises(IoFailureError, match="cannot write new.ppm: No space"):
            save_ppm(constant_image(0.5), tmp_path / "new.ppm")
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "old.ppm"
        save_ppm(constant_image(0.25), path)
        before = path.read_bytes()
        fail_writes_midway(monkeypatch)
        with pytest.raises(IoFailureError):
            save_ppm(constant_image(0.75), path)
        assert [p.name for p in tmp_path.iterdir()] == ["old.ppm"]
        assert path.read_bytes() == before

    def test_replace_failure_removes_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(image_module.os, "replace", refuse)
        with pytest.raises(IoFailureError):
            save_ppm(constant_image(0.5), tmp_path / "x.ppm")
        assert list(tmp_path.iterdir()) == []


def valid_ppm(width=3, height=2):
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + bytes(range(width * height * 3))


class TestLoadPpmFuzz:
    """Whatever the bytes, load_ppm returns an image or raises AquaClearError."""

    @staticmethod
    def check(path, raw):
        path.write_bytes(raw)
        try:
            img = load_ppm(path)
        except AquaClearError:
            return
        assert img.channels == 3
        assert img.data.dtype == np.float32

    @FUZZ
    @given(raw=st.binary(max_size=64))
    def test_random_bytes(self, tmp_path, raw):
        self.check(tmp_path / "f.ppm", raw)

    @FUZZ
    @given(raw=st.binary(max_size=24).map(lambda b: b"P6" + b))
    def test_random_bytes_after_magic(self, tmp_path, raw):
        self.check(tmp_path / "f.ppm", raw)

    @FUZZ
    @given(edits=byte_edits(40), cut=st.integers(0, 40))
    def test_mutated_valid_ppm(self, tmp_path, edits, cut):
        raw = mutate(valid_ppm(), edits)
        self.check(tmp_path / "f.ppm", raw[: len(raw) - cut % (len(raw) + 1)])


class TestHsv:
    def test_primary_colors(self):
        img = ImageF32(np.array(
            [[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 0.0]]], dtype=np.float32))
        hsv = rgb_to_hsv(img).data
        assert hsv[0, 0, 0] == pytest.approx(0.0)          # red hue
        assert hsv[0, 0, 1] == pytest.approx(1.0 / 3.0)    # green hue
        assert np.all(hsv[1] == 1.0) and np.all(hsv[2] == 1.0)

    def test_achromatic_hue_is_zero(self):
        hsv = rgb_to_hsv(constant_image(0.4)).data
        assert np.all(hsv[0] == 0.0)
        assert np.all(hsv[1] == 0.0)
        assert np.allclose(hsv[2], 0.4)

    def test_black_has_zero_saturation(self):
        hsv = rgb_to_hsv(constant_image(0.0)).data
        assert np.all(hsv == 0.0)

    def test_round_trip(self, rng):
        img = random_image(rng, 12, 10)
        back = hsv_to_rgb(rgb_to_hsv(img))
        assert np.allclose(back.data, img.data, atol=1e-6)

    def test_rejects_grayscale(self):
        gray = ImageF32(np.zeros((1, 3, 3), dtype=np.float32))
        with pytest.raises(GrayscaleUnsupportedError):
            rgb_to_hsv(gray)


def lab_scalar_reference(r, g, b):
    """Independent scalar sRGB -> Lab implementation for cross-checking."""
    def linearize(u):
        return u / 12.92 if u <= 0.04045 else ((u + 0.055) / 1.055) ** 2.4

    m = [
        (0.4124564, 0.3575761, 0.1804375),
        (0.2126729, 0.7151522, 0.0721750),
        (0.0193339, 0.1191920, 0.9503041),
    ]
    rl, gl, bl = linearize(r), linearize(g), linearize(b)
    xyz = [row[0] * rl + row[1] * gl + row[2] * bl for row in m]
    white = [sum(row) for row in m]
    d = 6.0 / 29.0

    def f(t):
        return t ** (1.0 / 3.0) if t > d ** 3 else t / (3 * d * d) + 4.0 / 29.0

    fx, fy, fz = (f(c / w) for c, w in zip(xyz, white))
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


class TestLab:
    def test_white_maps_to_l100(self):
        lab = rgb_to_lab(constant_image(1.0))
        assert lab[0, 0, 0] == 100.0
        assert abs(lab[1, 0, 0]) < 1e-12 and abs(lab[2, 0, 0]) < 1e-12

    def test_black_maps_to_l0(self):
        lab = rgb_to_lab(constant_image(0.0))
        assert lab[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_gray_is_neutral(self):
        lab = rgb_to_lab(constant_image(0.5))
        # a, b carry only float summation residue
        assert abs(lab[1, 0, 0]) < 1e-12 and abs(lab[2, 0, 0]) < 1e-12
        # mid-gray lightness, frozen from the scalar reference
        assert lab[0, 0, 0] == pytest.approx(53.38896474111431, abs=1e-9)

    def test_matches_scalar_reference(self, rng):
        img = random_image(rng, 4, 4, lo=0.0, hi=1.0)
        lab = rgb_to_lab(img)
        for y in range(4):
            for x in range(4):
                want = lab_scalar_reference(*(float(img.data[c, y, x]) for c in range(3)))
                got = (lab[0, y, x], lab[1, y, x], lab[2, y, x])
                assert got == pytest.approx(want, abs=1e-9)

    def test_output_is_float64_planar(self):
        lab = rgb_to_lab(constant_image(0.3, h=2, w=5))
        assert lab.shape == (3, 2, 5) and lab.dtype == np.float64


class TestConvolve2d:
    def test_matches_quadruple_loop_oracle(self, rng):
        for _ in range(25):
            h = int(rng.integers(1, 17))
            w = int(rng.integers(1, 17))
            k = int(rng.choice([1, 3, 5]))
            plane = rng.uniform(-1.0, 1.0, size=(h, w))
            kernel = rng.uniform(-2.0, 2.0, size=(k, k))
            got = convolve2d(plane, kernel)
            assert np.allclose(got, plane_conv_oracle(plane, kernel), atol=1e-6)

    def test_flips_kernel(self):
        # true convolution: a tap above center reads the pixel below, so the
        # impulse lands one row up (correlation would land it one row down)
        plane = np.zeros((5, 5))
        plane[2, 2] = 1.0
        kernel = np.zeros((3, 3))
        kernel[0, 1] = 1.0
        out = convolve2d(plane, kernel)
        assert out[1, 2] == 1.0 and out[3, 2] == 0.0

    def test_identity_kernel(self, rng):
        plane = rng.uniform(0, 1, size=(6, 7))
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        assert np.array_equal(convolve2d(plane, kernel), plane)

    def test_replicate_padding(self):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = convolve2d(plane, np.ones((3, 3)))
        # top-left: replicated neighborhood sums pixel-weighted copies
        assert out[0, 0] == pytest.approx(1 * 4 + 2 * 2 + 3 * 2 + 4 * 1)

    def test_even_kernel_rejected(self):
        with pytest.raises(EvenKernelError):
            convolve2d(np.zeros((4, 4)), np.ones((2, 2)))

    def test_constant_zero_sum_response_is_zero(self):
        out = convolve2d(np.full((5, 5), 0.7), LAPLACIAN_KERNEL)
        assert np.allclose(out, 0.0, atol=1e-15)


class TestStatsAndSharpness:
    def test_channel_stats(self):
        img = constant_image((0.2, 0.4, 0.9))
        st = channel_stats(img)
        assert isinstance(st, ChannelStats)
        assert (st.mean_r, st.mean_g, st.mean_b) == pytest.approx((0.2, 0.4, 0.9))
        assert st.mean_avg == pytest.approx((0.2 + 0.4 + 0.9) / 3, abs=1e-7)

    def test_luminance_bt601(self):
        img = constant_image((1.0, 0.0, 0.0))
        assert np.allclose(luminance(img), 0.299)
        img = constant_image((0.0, 1.0, 0.0))
        assert np.allclose(luminance(img), 0.587)

    def test_luminance_identity_on_grayscale(self):
        gray = ImageF32(np.full((1, 3, 3), 0.6, dtype=np.float32))
        assert np.allclose(luminance(gray), 0.6)

    def test_laplacian_variance_zero_on_constant(self):
        assert laplacian_variance(constant_image(0.8)) == 0.0

    def test_laplacian_variance_high_on_checkerboard(self):
        y, x = np.mgrid[0:8, 0:8]
        checker = ((y + x) % 2).astype(np.float32)
        img = ImageF32(np.stack([checker] * 3))
        assert laplacian_variance(img) > 0.003
