"""Image container, PPM I/O, color conversions, and the convolution core."""

import errno
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aquaclear.image as image_module
from aquaclear import enhance, neural, synth
from aquaclear.classify import DegradationFlags
from aquaclear.errors import (
    AquaClearError,
    EvenKernelError,
    IoFailureError,
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
)
from aquaclear.image import (
    LAPLACIAN_KERNEL,
    ChannelStats,
    ImageF32,
    _edge_bands,
    _luma,
    _open_input,
    _var_in_place,
    channel_stats,
    convolve2d,
    hsv_to_rgb,
    laplacian_variance,
    load_ppm,
    rgb_to_hsv,
    rgb_to_lab,
    save_ppm,
    write_atomic,
)

from conftest import (
    FUZZ,
    band_shapes,
    byte_edits,
    clip_reference,
    constant_image,
    deny_stat,
    fail_writes_midway,
    heap_peak,
    hsv_to_rgb_reference,
    laplacian_variance_reference,
    layouts,
    level_data,
    mutate,
    plane_conv_oracle,
    ppm_reference,
    random_image,
    rgb_to_hsv_reference,
    same_bits,
)


class TestImageF32:
    def test_accepts_planar_float32(self):
        img = ImageF32(np.zeros((3, 4, 5), dtype=np.float32))
        assert (img.channels, img.height, img.width) == (3, 4, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ImageF32(np.zeros((4, 5), dtype=np.float32))

    def test_rejects_wrong_channel_count(self):
        for channels in (1, 2, 4):
            with pytest.raises(ValueError):
                ImageF32(np.zeros((channels, 4, 5), dtype=np.float32))
            with pytest.raises(ValueError):
                ImageF32.from_array(np.zeros((channels, 4, 5)))
        with pytest.raises(ValueError):
            ImageF32.from_array(np.zeros((4, 5)))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_rejects_a_non_finite_sample_anywhere_as_such(self, bad, interleaved):
        # the check reads only the sample min and max, which every nan and
        # infinity reaches
        for pos in [(0, 0, 0), (1, 17, 5), (2, 33, 40)]:
            data = np.full((3, 34, 41), 0.5, dtype=np.float32)
            data[pos] = bad
            if interleaved:
                data = np.ascontiguousarray(data.transpose(1, 2, 0)).transpose(2, 0, 1)
            with pytest.raises(ValueError, match="finite"):
                ImageF32(data)

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

    def test_load_keeps_the_whole_array_bits_and_interleaving(self, tmp_path, rng):
        h, w = 5, 7
        payload = rng.integers(0, 256, size=h * w * 3, dtype=np.uint8)
        path = tmp_path / "b.ppm"
        path.write_bytes(b"P6\n7 5\n255\n" + payload.tobytes())
        data = load_ppm(path).data
        whole = payload.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
        assert same_bits(data, whole.astype(np.float32))
        assert data.strides == (4, 12 * w, 12)

    @pytest.mark.parametrize("h, w", [(7, 73)] + band_shapes())
    def test_save_keeps_the_whole_array_bytes(self, tmp_path, rng, h, w):
        # every level, its half-steps and points just beside them
        steps = np.arange(0, 511) / 510.0
        values = np.clip(np.concatenate([steps, steps + 1e-9, steps - 1e-9]), 0, 1)
        data = rng.permutation(np.resize(values.astype(np.float32), 3 * h * w))
        for img in layouts(data.reshape(3, h, w)).values():
            save_ppm(img, tmp_path / "s.ppm")
            assert (tmp_path / "s.ppm").read_bytes() == ppm_reference(img.data)

    def test_load_and_save_hold_at_most_one_float64_copy(self, tmp_path, rng):
        # bytes per pixel: a float64 copy of the image is 24, the file 3
        # (read once, not copied again); whole-array load and save peaked
        # at 33 beyond the result and 72, and save with one float64 copy at 33
        px = 256 * 256
        path = tmp_path / "m.ppm"
        save_ppm(random_image(rng, 256, 256), path)
        load_peak, img = heap_peak(load_ppm, path)
        save_peak, _ = heap_peak(save_ppm, img, path)
        assert load_peak - img.data.nbytes < 8 * px
        assert save_peak < 15 * px

    def test_save_scratch_grows_with_width_not_height(self, tmp_path, rng):
        # beyond the file's bytes, a band of float64 samples
        def scratch(h, w):
            path = tmp_path / f"{h}x{w}.ppm"
            peak, _ = heap_peak(save_ppm, random_image(rng, h, w), path)
            return peak - path.stat().st_size

        assert scratch(1024, 256) < 1.3 * scratch(256, 256)

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
            b"P6\n#" + b"c" * 250 + b"\n2 1\n255\n",  # past the first read
            b"P6\n#" + b"c" * 5000 + b"\n2 1\n255\n",  # past five doublings
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

    @staticmethod
    def with_sparse_tail(path, raw):
        """Write raw to path and extend it to 64 MiB with a hole."""
        path.write_bytes(raw)
        with open(path, "r+b") as f:
            f.truncate(64 << 20)
        return path

    def test_bytes_past_the_payload_are_not_read(self, tmp_path):
        # reading the whole file peaked above 64 MiB here, and under a
        # 300 MB address-space cap a 400 MB tail was skipped as a MemoryError
        raw = b"P6\n16 16\n255\n" + bytes(range(256)) * 3
        small = tmp_path / "small.ppm"
        small.write_bytes(raw)
        big = self.with_sparse_tail(tmp_path / "big.ppm", raw)
        peak, img = heap_peak(load_ppm, big)
        assert same_bits(img.data, load_ppm(small).data)
        assert peak < 64 << 10, f"{peak} B"

    @staticmethod
    def malformed_peak(path):
        """Traced heap peak of load_ppm(path), which must be malformed."""
        tracemalloc.start()
        try:
            with pytest.raises(MalformedHeaderError):
                load_ppm(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_header_reads_a_bounded_prefix(self, tmp_path):
        path = self.with_sparse_tail(tmp_path / "bad.ppm", b"hello world")
        peak = self.malformed_peak(path)
        assert peak < 1 << 20, f"{peak} B"

    def test_header_past_its_bound_is_malformed(self, tmp_path):
        # the header regex held ~180 bytes per byte of this gap: 47 MB
        # here, and 5.4 GB for a 32 MiB gap
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6" + b" " * (256 << 10) + b"1 1 255\n" + bytes(3))
        peak = self.malformed_peak(path)
        assert peak < 16e6, f"{peak / 1e6:.1f} MB"

    def test_unreadable_file_is_io_failure(self, tmp_path, monkeypatch):
        with pytest.raises(IoFailureError):
            load_ppm(tmp_path / "missing.ppm")
        (tmp_path / "dir.ppm").mkdir()
        with pytest.raises(IoFailureError):
            load_ppm(tmp_path / "dir.ppm")
        locked = tmp_path / "locked.ppm"
        save_ppm(ImageF32(np.zeros((3, 1, 1), np.float32)), locked)
        deny_stat(monkeypatch, locked)
        with pytest.raises(IoFailureError):
            load_ppm(locked)

    # load_ppm used to check the path with is_file() and then open it, so a
    # FIFO swapped in after the check blocked the open until a writer came.
    def test_fifo_that_passes_a_path_check_is_refused(self, tmp_path):
        fifo = tmp_path / "swapped.ppm"
        os.mkfifo(fifo)
        script = (
            "import pathlib, sys\n"
            "pathlib.Path.is_file = lambda self: True\n"
            "from aquaclear.errors import IoFailureError\n"
            "from aquaclear.image import load_ppm\n"
            "try:\n"
            "    load_ppm(sys.argv[1])\n"
            "except IoFailureError as exc:\n"
            "    print(exc)\n"
        )
        package_root = Path(image_module.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(fifo)], capture_output=True, text=True,
            timeout=30, env={**os.environ, "PYTHONPATH": str(package_root)},
        )
        assert proc.stdout.splitlines() == ["cannot read: missing or not a regular file"]


class TestOpenInput:
    @pytest.mark.parametrize("case", ["missing", "under_a_file", "nul", "directory",
                                      "fifo", "device"])
    def test_refuses_what_is_not_a_regular_file(self, tmp_path, case):
        (tmp_path / "file").write_bytes(b"x")
        os.mkfifo(tmp_path / "fifo")
        path = {
            "missing": tmp_path / "missing",
            "under_a_file": tmp_path / "file" / "x",
            "nul": str(tmp_path / "a\0b"),
            "directory": tmp_path,
            "fifo": tmp_path / "fifo",
            "device": "/dev/null",
        }[case]
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as info:
            with _open_input(path):
                pass
        assert str(info.value) == "missing or not a regular file"
        # only a missing file is one that a reader of an optional input skips
        assert isinstance(info.value, FileNotFoundError) == (case in ("missing", "under_a_file"))
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_yields_the_file_and_its_size(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc\r\nd")
        with _open_input(path) as (f, size):
            assert (size, f.read()) == (6, b"abc\r\nd")
        assert f.closed

    def test_memory_error_while_open_is_a_read_failure(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        with pytest.raises(OSError, match="^MemoryError$"):
            with _open_input(path):
                raise MemoryError
        with pytest.raises(OSError, match="^Unable to allocate 2.0 GiB$"):
            with _open_input(path):
                raise MemoryError("Unable to allocate 2.0 GiB")


class TestAtomicWrite:
    def test_failure_is_io_failure_naming_the_file(self, tmp_path):
        with pytest.raises(IoFailureError) as info:
            write_atomic(tmp_path / "absent" / "x.csv", b"data")
        assert str(info.value) == "cannot write x.csv: No such file or directory"
        assert not (tmp_path / "absent").exists()

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
    def test_header_read_in_growing_prefixes_changes_nothing(self, tmp_path, edits, cut):
        raw = mutate(valid_ppm(), edits)
        path = tmp_path / "f.ppm"
        path.write_bytes(raw[: len(raw) - cut % (len(raw) + 1)])

        def outcome():
            try:
                return load_ppm(path).data.tobytes()
            except AquaClearError as exc:
                return type(exc), str(exc)

        whole = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(image_module, "_PPM_HEAD_BYTES", 1)
            assert outcome() == whole

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


class TestSameBitsInBands:
    """The conversions and from_array keep the whole-image formulas' bits."""

    @pytest.mark.parametrize("h, w", band_shapes())
    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_hsv_conversions(self, h, w, layout):
        img = layouts(level_data(h, w))[layout]
        assert same_bits(rgb_to_hsv(img).data, rgb_to_hsv_reference(img.data))
        assert same_bits(hsv_to_rgb(img).data, hsv_to_rgb_reference(img.data))

    def test_from_array(self, rng):
        edges = [-1.0, -0.0, 0.0, 1e-300, 1e-45, 0.5, 1.0 - 1e-17, 1.0, 1.0 + 1e-16, 2.0]
        values = np.concatenate([edges, rng.uniform(-0.5, 1.5, 3 * 40 * 50 - len(edges))])
        data = values.reshape(3, 40, 50)
        for a in (data, data.transpose(0, 2, 1), data.astype(np.float32)):
            assert same_bits(ImageF32.from_array(a).data, clip_reference(a))

    def test_conversions_stay_in_band_sized_temporaries(self, rng):
        # the whole-image forms peaked at 132 and 156 bytes per pixel
        img = random_image(rng, 1024, 256)
        for convert in (rgb_to_hsv, hsv_to_rgb):
            peak, out = heap_peak(convert, img)
            assert peak - out.data.nbytes < 2e6


class TestEdgeBands:
    """_edge_bands yields np.pad's edge-mode values, one band at a time."""

    @pytest.mark.parametrize("halo", [0, 1, 13])
    @pytest.mark.parametrize("rows", [1, 3, 9, 14])
    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_slabs_match_np_pad(self, halo, rows, layout):
        data = layouts(level_data(9, 14))[layout].data
        want = np.pad(data.astype(np.float64), ((0, 0), (halo, halo), (halo, halo)), mode="edge")
        starts = []
        for band, slab in _edge_bands(data, rows, halo):
            starts.append(band.start)
            assert band.stop == min(band.start + rows, 9)
            assert slab.dtype == np.float64
            assert np.array_equal(slab, want[:, band.start : band.stop + 2 * halo])
        assert starts == list(range(0, 9, rows))


def _saved_ppm(img, tmp):
    save_ppm(img, tmp / "a.ppm")
    return (tmp / "a.ppm").read_bytes()


# Each banded pass on a 37x41 image: the module whose _band_rows it calls,
# the width it asks for, and its output as bytes or a hex string.
BANDED_PASSES = {
    "_map_bands": (image_module, 41, lambda img, tmp: rgb_to_hsv(img).data.tobytes()),
    "save_ppm": (image_module, 41, _saved_ppm),
    "laplacian_variance": (image_module, 41, lambda img, tmp: laplacian_variance(img).hex()),
    "clahe_v": (enhance, 41, lambda img, tmp: enhance.clahe_v(img).data.tobytes()),
    "_bilinear_resize": (neural, 60, lambda img, tmp: neural.attention_map(
        img.data[0].astype(np.float64), 50, 60).tobytes()),
    "make_archetype": (synth, 41, lambda img, tmp: synth.make_archetype(
        DegradationFlags(True, False, True), 3, 41).data.tobytes()),
}


class TestBandRows:
    """Every banded pass takes its band height from image._band_rows, and
    any height keeps its output's bits."""

    @pytest.mark.parametrize("name", sorted(BANDED_PASSES))
    def test_pass_asks_band_rows(self, monkeypatch, tmp_path, name):
        module, width, run = BANDED_PASSES[name]
        img = layouts(level_data(37, 41))["interleaved"]
        want = run(img, tmp_path)
        widths = []

        def three_rows(w):
            widths.append(w)
            return 3

        monkeypatch.setattr(module, "_band_rows", three_rows)
        assert run(img, tmp_path) == want
        assert widths == [width]

    def test_rows_hold_about_band_pixels(self):
        assert [image_module._band_rows(w) for w in (1, 256, 300, 1 << 14, 1 << 15)] == [
            1 << 14, 64, 54, 1, 1]

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
        assert np.allclose(_luma(img.data.astype(np.float64)), 0.299)
        img = constant_image((0.0, 1.0, 0.0))
        assert np.allclose(_luma(img.data.astype(np.float64)), 0.587)

    def test_laplacian_variance_zero_on_constant(self):
        assert laplacian_variance(constant_image(0.8)) == 0.0

    def test_laplacian_variance_high_on_checkerboard(self):
        y, x = np.mgrid[0:8, 0:8]
        checker = ((y + x) % 2).astype(np.float32)
        img = ImageF32(np.stack([checker] * 3))
        assert laplacian_variance(img) > 0.003

    @pytest.mark.parametrize("h, w", band_shapes())
    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_laplacian_variance_keeps_the_whole_image_bits(self, h, w, layout):
        img = layouts(level_data(h, w))[layout]
        got = laplacian_variance(img)
        assert got.hex() == laplacian_variance_reference(img.data).hex()
        flat = layouts(np.full((3, h, w), 0.3, dtype=np.float32))[layout]
        assert laplacian_variance(flat) == 0.0

    def test_laplacian_variance_holds_one_float64_plane(self, rng):
        # the response plane is 8 bytes per pixel; a whole-image float64
        # copy of the image and convolve2d's planes peaked at 40
        peak, _ = heap_peak(laplacian_variance, random_image(rng, 256, 256))
        assert peak < 26 * 256 * 256

    def test_laplacian_variance_scratch_grows_with_width_not_height(self, rng):
        # np.var's pairwise sum runs over the whole response plane, so that
        # plane is kept; everything else is a row band
        def scratch(h, w):
            peak, _ = heap_peak(laplacian_variance, random_image(rng, h, w))
            return peak - 8 * h * w

        assert scratch(1024, 256) < 1.3 * scratch(256, 256)


class TestVarInPlace:
    """_var_in_place gives np.var's bits, and np.mean's about a given mean."""

    # around the pairwise sum's 8-wide unrolling, 128-element blocks and
    # 8192-element buffers
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193,
                                   65535, 65536, 65537])
    def test_matches_numpy(self, rng, n):
        x = rng.random(n) * 2.0 ** rng.integers(-30, 30, n)
        mu = float(np.median(x))
        assert _var_in_place(x.copy()).hex() == float(np.var(x)).hex()
        assert math.sqrt(_var_in_place(x.copy())).hex() == float(np.std(x)).hex()
        assert _var_in_place(x.copy(), mu).hex() == float(np.mean((x - mu) ** 2)).hex()

    def test_matches_numpy_on_a_plane(self, rng):
        x = rng.random((37, 129))
        assert _var_in_place(x.copy()).hex() == float(np.var(x)).hex()
