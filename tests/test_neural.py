"""Feature extractors, manifest IO, and attention-guided enhancement."""

import functools
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aquaclear
from aquaclear.classify import ClassifierThresholds, DegradationFlags, classify
from aquaclear.enhance import apply_plan, build_plan
from aquaclear.errors import (
    AquaClearError,
    CorruptBlobError,
    DimMismatchError,
    IndivisibleDimsError,
    IoFailureError,
    ShapeMismatchError,
    ShapeMismatchInManifestError,
)
from aquaclear.image import ImageF32, rgb_to_hsv
from aquaclear.neural import (
    ConvLayer,
    ExtractorSpec,
    LayerSpec,
    ResidualBlock,
    attention_adjust,
    attention_map,
    build_resnet_head,
    build_vgg_head,
    conv2d_forward,
    conv_output_dim,
    extract_features,
    feature_guided_enhance,
    fuse_attention,
    init_weights,
    load_weights,
    max_pool2,
    residual_forward,
    save_weights,
)
from aquaclear.synth import make_archetype

from conftest import (
    FUZZ,
    JSON_VALUES,
    PINNED_BUILD,
    attention_adjust_reference,
    band_shapes,
    blas_build,
    cnn_conv_oracle,
    heap_peak,
    layouts,
    level_data,
    random_image,
    same_bits,
)


def make_layer(rng, out_c, in_c, k, stride=1, padding=0, activation="relu"):
    w = rng.standard_normal((out_c, in_c, k, k)).astype(np.float32)
    b = rng.standard_normal(out_c).astype(np.float32)
    return ConvLayer(w, b, stride=stride, padding=padding, activation=activation)


class TestConvForward:
    def test_matches_six_loop_oracle(self, rng):
        cases = [
            dict(out_c=2, in_c=3, k=3, stride=1, padding=1, h=6, w=5),
            dict(out_c=4, in_c=2, k=3, stride=2, padding=1, h=7, w=7),
            dict(out_c=1, in_c=1, k=5, stride=1, padding=0, h=8, w=9),
            dict(out_c=3, in_c=4, k=7, stride=2, padding=3, h=10, w=12),
            dict(out_c=2, in_c=2, k=1, stride=1, padding=0, h=4, w=4),
            # output heights above the conv row block and not a multiple of it
            dict(out_c=2, in_c=5, k=3, stride=1, padding=1, h=41, w=23),
            dict(out_c=2, in_c=2, k=7, stride=2, padding=3, h=70, w=33),
            # padded widths that are not a multiple of the stride, and a
            # stride above the kernel side (a phase no tap reads)
            dict(out_c=2, in_c=3, k=5, stride=3, padding=2, h=11, w=14),
            dict(out_c=3, in_c=2, k=3, stride=4, padding=1, h=13, w=10),
        ]
        for case in cases:
            for activation in ("relu", "none"):
                layer = make_layer(
                    rng, case["out_c"], case["in_c"], case["k"],
                    case["stride"], case["padding"], activation,
                )
                x = rng.standard_normal((case["in_c"], case["h"], case["w"]))
                got = conv2d_forward(x, layer)
                want = cnn_conv_oracle(x, layer)
                assert got.shape == want.shape
                assert np.allclose(got, want, atol=1e-9)

    # Column-buffer budgets that force several row blocks, the last one
    # partial, and one below a single row (one row per block).
    @pytest.mark.parametrize("case, rows", [
        (dict(out_c=3, in_c=2, k=3, stride=1, padding=1, h=11, w=7), 3),
        (dict(out_c=2, in_c=3, k=5, stride=2, padding=2, h=13, w=9), 2),
        (dict(out_c=2, in_c=2, k=3, stride=2, padding=1, h=6, w=5), 0),
    ], ids=["stride1-3rows", "stride2-2rows", "under-one-row"])
    def test_row_blocks_match_oracle(self, rng, monkeypatch, case, rows):
        k, s, p = case["k"], case["stride"], case["padding"]
        h_out = conv_output_dim(case["h"], k, s, p)
        w_out = conv_output_dim(case["w"], k, s, p)
        assert h_out > rows and (rows == 0 or h_out % rows)
        row_bytes = 8 * k * k * case["in_c"] * w_out
        budget = (rows + 1) * row_bytes - 1 if rows else 1
        monkeypatch.setattr(aquaclear.neural, "_COLS_BYTES", budget)
        for activation in ("relu", "none"):
            layer = make_layer(rng, case["out_c"], case["in_c"], k, s, p, activation)
            x = rng.standard_normal((case["in_c"], case["h"], case["w"]))
            assert np.allclose(conv2d_forward(x, layer), cnn_conv_oracle(x, layer), atol=1e-9)

    def test_output_channels_lie_apart_by_the_gemm_pad(self, rng):
        # the GEMMs write straight into the output, so each channel has
        # _GEMM_PAD spare values after its last row
        layer = make_layer(rng, 3, 2, 3, stride=1, padding=1)
        out = conv2d_forward(rng.standard_normal((2, 5, 7)), layer)
        assert out.shape == (3, 5, 7)
        assert out.strides == (8 * (5 * 7 + aquaclear.neural._GEMM_PAD), 8 * 7, 8)
        assert all(plane.flags.c_contiguous for plane in out)

    def test_output_dim_floor_semantics(self):
        assert conv_output_dim(64, 7, 2, 3) == 32
        assert conv_output_dim(7, 3, 2, 1) == 4
        assert conv_output_dim(6, 3, 2, 1) == 3
        assert conv_output_dim(5, 5, 1, 0) == 1

    def test_delta_kernel_is_exact_identity(self, rng):
        c = 3
        w = np.zeros((c, c, 3, 3), dtype=np.float32)
        for i in range(c):
            w[i, i, 1, 1] = 1.0
        layer = ConvLayer(w, np.zeros(c, dtype=np.float32), padding=1, activation="none")
        x = rng.standard_normal((c, 6, 6))
        assert np.array_equal(conv2d_forward(x, layer), x)

    def test_channel_mismatch_rejected(self, rng):
        layer = make_layer(rng, 2, 3, 3)
        with pytest.raises(ShapeMismatchError):
            conv2d_forward(np.zeros((2, 8, 8)), layer)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer(np.zeros((1, 1, 2, 2), dtype=np.float32), np.zeros(1, dtype=np.float32))

    def test_relu_clamps_negatives_only(self):
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        layer = ConvLayer(w, np.zeros(1, dtype=np.float32), activation="relu")
        t = np.array([-1.0, 0.0, 2.5]).reshape(1, 1, 3)
        once = conv2d_forward(t, layer)
        assert np.array_equal(once, [[[0.0, 0.0, 2.5]]])
        assert np.array_equal(conv2d_forward(once, layer), once)


def band_call(x, layer, r0, m):
    """The layer without padding on the rows of zero-padded x that outputs
    r0..r0+m-1 read, as a streamed head calls it on its ring."""
    k, s, p = layer.kernel, layer.stride, layer.padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    valid = ConvLayer(layer.weights, layer.bias, s, 0, layer.activation)
    return conv2d_forward(xp[:, r0 * s : r0 * s + (m - 1) * s + k], valid)


class TestBandedConv:
    """The unpadded layer on the padded rows a band reads gives the same bits
    as the matching rows of the whole-input call. A band's GEMMs have fewer
    columns than the whole call's; conv2d_forward pads each to a multiple
    of 16, so this holds at any width (TestStreamedHeads covers widths that
    are not such multiples)."""

    # (out_c, in_c, k, stride, padding, h, w)
    CASES = {
        "3x3-stride1": (64, 64, 3, 1, 1, 16, 32),
        "7x7-stride2-stem": (16, 3, 7, 2, 3, 20, 32),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("band", ["first", "middle", "last", "one-row"])
    def test_band_matches_whole_call(self, rng, case, band):
        out_c, in_c, k, s, p, h, w = self.CASES[case]
        layer = make_layer(rng, out_c, in_c, k, s, p)
        x = rng.standard_normal((in_c, h, w))
        whole = conv2d_forward(x, layer)
        h_out = whole.shape[1]
        r0, m = {"first": (0, 4), "middle": (3, 5), "last": (h_out - 3, 3),
                 "one-row": (h_out // 2, 1)}[band]
        assert np.array_equal(band_call(x, layer, r0, m), whole[:, r0 : r0 + m])

    # padding above kernel // 2 would need more zero rows than the ring's
    # top, and a stride above the kernel would skip rows the ring never holds
    @pytest.mark.parametrize("k, s, p", [(3, 1, 2), (3, 4, 1)],
                             ids=["padding-over-half-kernel", "stride-over-kernel"])
    def test_streamed_conv_refuses_what_its_ring_cannot_hold(self, rng, k, s, p):
        layer = make_layer(rng, 2, 2, k, s, p)
        bands = aquaclear.neural._conv_bands(layer, iter([rng.standard_normal((2, 8, 8))]), {})
        with pytest.raises(ValueError):
            next(bands)


def whole_tensor_features(ext, x):
    """The head's layers run one at a time over whole tensors."""

    def conv(name, layer, activation):
        return ConvLayer(ext.weights[f"{name}.weight"], ext.weights[f"{name}.bias"],
                         layer.stride, layer.padding, activation)

    t = x.astype(np.float64)
    for layer in ext.spec.layers:
        if layer.kind == "conv":
            t = conv2d_forward(t, conv(layer.name, layer, "relu"))
        elif layer.kind == "pool":
            t = max_pool2(t)
        else:
            block = ResidualBlock(conv(f"{layer.name}.a", layer, "relu"),
                                  conv(f"{layer.name}.b", layer, "none"))
            t = residual_forward(t, block)
    return t


class TestStreamedHeads:
    """Heads run in row bands equal the whole-tensor layer ops."""

    # Heights are not multiples of the band. The next five cases have
    # layer widths that are not multiples of 16 (from 8 to 68 columns):
    # every GEMM is padded to such a multiple, so their bits match too.
    # The last five have odd sizes at a pool, which drops a row or column.
    @pytest.mark.parametrize("band_rows", [1, 3, 8, 16])
    @pytest.mark.parametrize("build, h, w", [
        (build_vgg_head, 64, 64), (build_vgg_head, 36, 96), (build_vgg_head, 68, 32),
        (build_resnet_head, 128, 128),
        (build_vgg_head, 100, 68), (build_vgg_head, 34, 50),
        (build_resnet_head, 64, 96), (build_resnet_head, 36, 32),
        (build_resnet_head, 100, 68),
        (build_vgg_head, 33, 33), (build_vgg_head, 37, 45),
        (build_resnet_head, 71, 33), (build_resnet_head, 50, 50),
        (build_resnet_head, 17, 130),
    ], ids=["vgg-64x64", "vgg-36x96", "vgg-68x32", "resnet-128x128",
            "vgg-100x68", "vgg-34x50", "resnet-64x96", "resnet-36x32", "resnet-100x68",
            "vgg-33x33", "vgg-37x45", "resnet-71x33", "resnet-50x50", "resnet-17x130"])
    def test_same_bits_as_whole_tensor_ops(self, monkeypatch, band_rows, build, h, w):
        monkeypatch.setattr(aquaclear.neural, "_BAND_ROWS", band_rows)
        ext = init_weights(build(), seed=3)
        x = np.random.default_rng(h * w).uniform(0, 1, (3, h, w)).astype(np.float32)
        assert np.array_equal(extract_features(ImageF32(x), ext),
                              whole_tensor_features(ext, x))

    # Residual widths of 16 and 8: short bands meet other GEMM kernels.
    @pytest.mark.parametrize("band_rows", [1, 3, 8])
    @pytest.mark.parametrize("h, w", [(64, 96), (36, 32)])
    def test_resnet_close_at_narrow_widths(self, monkeypatch, band_rows, h, w):
        monkeypatch.setattr(aquaclear.neural, "_BAND_ROWS", band_rows)
        ext = init_weights(build_resnet_head(), seed=3)
        x = np.random.default_rng(h * w).uniform(0, 1, (3, h, w)).astype(np.float32)
        got, want = extract_features(ImageF32(x), ext), whole_tensor_features(ext, x)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_bands_cover_the_output_top_to_bottom(self):
        ext = init_weights(build_vgg_head(), seed=0)
        img = ImageF32(np.full((3, 50, 40), 0.5, dtype=np.float32))
        bands = list(ext.bands(img.data))
        assert len(bands) > 1
        assert sum(b.shape[1] for b in bands) == 25
        assert all(b.shape[::2] == (128, 20) for b in bands)

    def test_odd_height_floors_at_the_pool(self):
        ext = init_weights(build_vgg_head(), seed=0)
        out = np.concatenate(list(ext.bands(np.zeros((3, 33, 34)))), axis=1)
        assert out.shape == (128, 16, 17)

    @pytest.mark.parametrize("build", [build_vgg_head, build_resnet_head])
    @pytest.mark.parametrize("h, w", [(37, 45), (71, 33), (64, 130)])
    def test_streamed_mean_is_the_whole_mean(self, rng, build, h, w):
        """channel_mean's band-by-band mean has the bits of the whole
        tensor's mean, at odd sizes too."""
        ext = init_weights(build(), seed=5)
        img = random_image(rng, h, w)
        want = extract_features(img, ext).mean(axis=0, dtype=np.float64)
        assert np.array_equal(ext.channel_mean(img.data), want)

    @pytest.mark.parametrize("build, h, w", [
        (build_vgg_head, 68, 64), (build_vgg_head, 50, 40), (build_resnet_head, 136, 64),
    ], ids=["vgg-68x64", "vgg-50x40", "resnet-136x64"])
    def test_conv_calls_make_full_bands_but_the_last(self, monkeypatch, build, h, w):
        calls = {}  # layer weights id -> output rows of each call, in order
        real = aquaclear.neural.conv2d_forward

        def spy(x, layer, *args, **kwargs):
            out = real(x, layer, *args, **kwargs)
            calls.setdefault(id(layer.weights), []).append(out.shape[1])
            return out

        monkeypatch.setattr(aquaclear.neural, "conv2d_forward", spy)
        ext = init_weights(build(), seed=0)
        extract_features(ImageF32(np.zeros((3, h, w), dtype=np.float32)), ext)
        assert len(calls) == len(ext.weights) // 2
        band = aquaclear.neural._BAND_ROWS
        for rows in calls.values():
            assert all(m == band for m in rows[:-1]), rows
            assert 0 < rows[-1] <= band

    def test_threads_share_a_head(self):
        """Every buffer belongs to one call: more threads than cores, with
        frequent switches, get each image's features unchanged."""
        ext = init_weights(build_resnet_head(), seed=2)
        rng = np.random.default_rng(9)
        images = [ImageF32(rng.uniform(0, 1, (3, 64, 64)).astype(np.float32))
                  for _ in range(8)]
        alone = [extract_features(img, ext) for img in images]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                shared = list(pool.map(lambda img: extract_features(img, ext), images,
                                       timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(alone, shared))


class TestStreamingMemory:
    """A head pass holds a few rows per layer, never a whole-image
    activation: at 256 px a whole-tensor VGG pass peaks near 100 MB of heap
    (its conv1 and conv2 outputs are 33.5 MB each)."""

    @pytest.mark.parametrize("build, bound_mb", [
        (build_vgg_head, 16), (build_resnet_head, 12),
    ], ids=["vgg", "resnet"])
    def test_channel_mean_heap_peak_at_256(self, build, bound_mb):
        ext = init_weights(build(), seed=0)
        img = ImageF32(np.random.default_rng(0).uniform(0, 1, (3, 256, 256))
                       .astype(np.float32))
        tracemalloc.start()
        try:
            ext.channel_mean(img.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, f"{peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("build", [build_vgg_head, build_resnet_head])
    def test_no_cycle_keeps_a_call_alive(self, build):
        """A finished pass, and a pass dropped after one band, free their
        buffers by reference counting alone."""
        ext = init_weights(build(), seed=0)
        img = ImageF32(np.random.default_rng(0).uniform(0, 1, (3, 128, 128))
                       .astype(np.float32))
        ext.channel_mean(img.data)  # numpy's first-call allocations stay alive
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ext.channel_mean(img.data)
            after_pass = tracemalloc.get_traced_memory()[0] - before
            bands = ext.bands(img.data)
            next(bands)
            del bands
            after_drop = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert after_pass < 100e3, f"{after_pass / 1e3:.1f} kB"
        assert after_drop < 100e3, f"{after_drop / 1e3:.1f} kB"

    # A 1024 px wide strip, where a VGG conv2 output row needs 4.7 MB of
    # GEMM columns. When each layer let go of its input band only after
    # making its next output band, and the GEMMs wrote into a product
    # buffer that was then copied, VGG took 42.5 MB and ResNet 10.6 MB;
    # with one band in flight per layer they take 26.4 MB and 8.7 MB.
    @pytest.mark.parametrize("build, bound_mb", [
        (build_vgg_head, 30.4), (build_resnet_head, 10.0),
    ], ids=["vgg", "resnet"])
    def test_channel_mean_heap_peak_on_a_wide_strip(self, build, bound_mb):
        ext = init_weights(build(), seed=0)
        img = ImageF32(np.random.default_rng(0).uniform(0, 1, (3, 32, 1024))
                       .astype(np.float32))
        peak, _ = heap_peak(ext.channel_mean, img.data)
        assert peak < bound_mb * 1e6, f"{peak / 1e6:.2f} MB"

    def test_attention_map_scratch_grows_with_width_not_height(self):
        # the whole-map resize held five more maps of the output's size
        def scratch(h, w):
            m = np.random.default_rng(0).random((h // 4, w // 4))
            peak, out = heap_peak(attention_map, m, h, w)
            return peak - out.nbytes - m.nbytes

        assert scratch(1024, 256) < 1.3 * scratch(256, 256)

    def test_attention_adjust_heap_peak_at_512(self):
        rng = np.random.default_rng(0)
        img = ImageF32(rng.uniform(0, 1, (3, 512, 512)).astype(np.float32))
        attn = rng.uniform(0, 1, (512, 512))
        tracemalloc.start()
        try:
            attention_adjust(img, attn, gain=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 512**2 < 96, f"{peak / 512**2:.0f} B/px"

    def test_guided_plan_heap_peak_at_512(self):
        # the plan part of unite, given its map: 15.7 MB when img, the
        # adjusted image and each step's input lived to the plan's end;
        # 9.4 MB with one step's input, output and scratch alive. The peak
        # is the CLAHE step's, so no NLM step is needed to show it.
        img = make_archetype(DegradationFlags(True, True, False), 0, 512)
        tracemalloc.start()
        try:
            held = [ImageF32(img.data.copy()), np.random.default_rng(0).uniform(size=(512, 512))]
            out = feature_guided_enhance(held.pop(0), held.pop(), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_plan(classify(img)[0]).kinds() == ["gray_world", "clahe"]
        assert out.data.shape == (3, 512, 512)
        assert peak < 10.8e6, f"{peak / 1e6:.2f} MB"

    def test_attention_adjust_scratch_grows_with_width_not_height(self):
        # the whole-image form held two float64 copies of the image
        def scratch(h, w):
            rng = np.random.default_rng(0)
            img = ImageF32(rng.uniform(0, 1, (3, h, w)).astype(np.float32))
            peak, out = heap_peak(attention_adjust, img, rng.uniform(0, 1, (h, w)))
            return peak - out.data.nbytes

        assert scratch(1024, 256) < 1.3 * scratch(256, 256)


class TestTracerContract:
    """A tracer that rebinds ``neural.conv2d_forward`` and ``max_pool2`` sees
    every call of a streamed head, and each conv's MACs follow from its x
    and layer alone."""

    # per-image MACs at 128 px, counted by hand from the head shapes
    @pytest.mark.parametrize("build, macs, pooled_rows", [
        (build_vgg_head, 1_538_260_992, 64), (build_resnet_head, 189_530_112, 32),
    ], ids=["vgg", "resnet"])
    def test_macs_from_traced_calls(self, monkeypatch, build, macs, pooled_rows):
        seen = {"macs": 0, "pooled_rows": 0}
        conv, pool = aquaclear.neural.conv2d_forward, aquaclear.neural.max_pool2

        def count_conv(x, layer, *args, **kwargs):
            c_out, c_in, k, _ = layer.weights.shape
            s, p = layer.stride, layer.padding
            h_out = (x.shape[1] + 2 * p - k) // s + 1
            w_out = (x.shape[2] + 2 * p - k) // s + 1
            seen["macs"] += c_out * c_in * k * k * h_out * w_out
            return conv(x, layer, *args, **kwargs)

        def count_pool(t):
            out = pool(t)
            seen["pooled_rows"] += out.shape[1]
            return out

        monkeypatch.setattr(aquaclear.neural, "conv2d_forward", count_conv)
        monkeypatch.setattr(aquaclear.neural, "max_pool2", count_pool)
        img = ImageF32(np.random.default_rng(1).uniform(0, 1, (3, 128, 128))
                       .astype(np.float32))
        init_weights(build(), seed=0).channel_mean(img.data)
        assert seen == {"macs": macs, "pooled_rows": pooled_rows}


class TestPoolAndResidual:
    def test_max_pool_picks_block_maxima(self):
        t = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = max_pool2(t)
        assert out.shape == (1, 2, 2)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])

    def test_max_pool_matches_block_loop(self, rng):
        t = rng.standard_normal((3, 6, 8))
        want = np.empty((3, 3, 4))
        for c in range(3):
            for y in range(3):
                for x in range(4):
                    want[c, y, x] = t[c, 2 * y : 2 * y + 2, 2 * x : 2 * x + 2].max()
        assert np.array_equal(max_pool2(t), want)

    def test_max_pool_drops_odd_last_row_and_column(self):
        t = np.arange(15, dtype=np.float64).reshape(1, 3, 5)
        assert np.array_equal(max_pool2(t), [[[6, 8]]])

    def test_zero_weight_residual_is_identity_on_nonnegative(self, rng):
        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        block_a = ConvLayer(w, b, padding=1, activation="relu")
        block_b = ConvLayer(w, b, padding=1, activation="none")
        from aquaclear.neural import ResidualBlock

        block = ResidualBlock(block_a, block_b)
        x = np.abs(rng.standard_normal((4, 6, 6)))
        assert np.array_equal(residual_forward(x, block), x)

    def test_residual_requires_same_padding(self):
        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        from aquaclear.neural import ResidualBlock

        with pytest.raises(ValueError):
            ResidualBlock(
                ConvLayer(w, b, padding=0, activation="relu"),
                ConvLayer(w, b, padding=1, activation="none"),
            )


class TestHeadShapes:
    def test_vgg_depth4_on_64(self):
        ext = init_weights(build_vgg_head(), seed=0)
        img = ImageF32(np.full((3, 64, 64), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (128, 32, 32)

    def test_resnet_on_64(self):
        ext = init_weights(build_resnet_head(), seed=0)
        img = ImageF32(np.full((3, 64, 64), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (64, 16, 16)

    def test_odd_dims_floor_inside_raw_forward(self):
        ext = init_weights(build_vgg_head(), seed=0)
        out = np.concatenate(list(ext.bands(np.zeros((3, 33, 33)))), axis=1)
        assert out.shape == (128, 16, 16)

    def test_indivisible_dims_caught_before_arithmetic(self, monkeypatch):
        # resnet stem halves 50 to 25, which the pool floors to 12
        resnet = init_weights(build_resnet_head(), seed=0)
        img = ImageF32(np.full((3, 50, 50), 0.5, dtype=np.float32))
        assert extract_features(img, resnet).shape == (64, 12, 12)
        # a pool floors 1 px to 0, which the next conv cannot read
        calls = []
        monkeypatch.setattr(aquaclear.neural, "conv2d_forward",
                            lambda *args, **kwargs: calls.append(args))
        vgg = init_weights(build_vgg_head(), seed=0)
        for ext, side in ((vgg, 1), (resnet, 1), (resnet, 2)):
            tiny = ImageF32(np.full((3, side, side), 0.5, dtype=np.float32))
            with pytest.raises(IndivisibleDimsError):
                extract_features(tiny, ext)
            with pytest.raises(IndivisibleDimsError):  # a raw array too
                ext.bands(np.zeros((3, side, side)))
        assert calls == []

    def test_vgg_tolerates_any_even_size(self):
        ext = init_weights(build_vgg_head(), seed=0)
        img = ImageF32(np.full((3, 50, 50), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (128, 25, 25)


# Hashes both heads' features on a fixed h x w image with seeded weights.
FEATURE_DIGEST = """
import hashlib
import numpy as np
from aquaclear.image import ImageF32
from aquaclear.neural import build_resnet_head, build_vgg_head, extract_features, init_weights
rng = np.random.Generator(np.random.PCG64(3))
img = ImageF32(rng.uniform(0.0, 1.0, size=(3, {h}, {w})).astype(np.float32))
digest = hashlib.sha256()
for spec, seed in ((build_vgg_head(), 7), (build_resnet_head(), 8)):
    digest.update(extract_features(img, init_weights(spec, seed)).tobytes())
print(digest.hexdigest())
"""


@functools.lru_cache(maxsize=None)
def feature_digest(blas_threads, h, w):
    """FEATURE_DIGEST of an h x w image in a fresh interpreter, since BLAS
    reads its thread count once at load time."""
    src = str(Path(aquaclear.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", FEATURE_DIGEST.format(h=h, w=w)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


# FEATURE_DIGEST at 1 and 2 BLAS threads, recorded before the conv GEMMs
# wrote straight into their output, with the build PINNED_BUILD names.
# OpenBLAS picks its kernels by CPU (DYNAMIC_ARCH), so another build or CPU
# may round differently and read other digests.
PINNED_DIGESTS = {
    (128, 128): "a433fb166a0516437181bebe8dbeb63924490fd42923ba342bb3c66aed5df5b3",
    (24, 1040): "8a49b4906eb7b7d54763ec2e8913290a14f340ada6c7cdc109fa22a7c8a6ee84",
}


def conv_one_gemm_per_row(x, layer):
    """conv2d_forward's arithmetic with one GEMM per output row, each into
    a fresh contiguous product, as before the GEMMs wrote into the output."""
    k, s, p = layer.kernel, layer.stride, layer.padding
    c_out = layer.out_channels
    x = np.pad(x, ((0, 0), (p, p), (p, p)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    windows = windows[:, ::s, ::s].transpose(3, 4, 0, 1, 2)
    h_out, w_out = windows.shape[3:]
    wmat = layer.weights.transpose(0, 2, 3, 1).reshape(c_out, -1).astype(np.float64)
    out = np.empty((c_out, h_out, w_out))
    for r in range(h_out):
        cols = np.zeros((wmat.shape[1], aquaclear.neural._gemm_columns(w_out)))
        cols[:, :w_out] = windows[:, :, :, r].reshape(-1, w_out)
        row = np.matmul(wmat, cols)[:, :w_out] + layer.bias.astype(np.float64)[:, None]
        out[:, r] = np.maximum(row, 0.0) if layer.activation == "relu" else row
    return out


class TestDeterminism:
    @pytest.mark.parametrize("blas_threads", [2, 3, 4])
    @pytest.mark.parametrize("h, w", [
        (64, 64),
        # 68 px: VGG's convs make 68 and 34 output columns a row
        (100, 68),
        # 852 px: GEMMs of 426, 852 and 1704 columns, padded to 432, 864
        # and 1712, and of 6816 unpadded ones
        (16, 852),
    ])
    def test_features_same_bits_as_at_one_blas_thread(self, h, w, blas_threads):
        one = feature_digest(1, h, w)
        assert len(one) == 64
        assert feature_digest(blas_threads, h, w) == one

    @pytest.mark.parametrize("blas_threads", [1, 2])
    @pytest.mark.parametrize("h, w", sorted(PINNED_DIGESTS))
    def test_features_keep_their_recorded_bits(self, h, w, blas_threads):
        if blas_build() != PINNED_BUILD:
            pytest.skip(f"digests recorded with {PINNED_BUILD}, not {blas_build()}")
        assert feature_digest(blas_threads, h, w) == PINNED_DIGESTS[h, w]

    # Every conv of both heads, fed at the size the head gives it. At 1040
    # px one VGG conv2 output row needs more columns than the budget holds.
    @pytest.mark.parametrize("build", [build_vgg_head, build_resnet_head],
                             ids=["vgg", "resnet"])
    @pytest.mark.parametrize("h, w", sorted(PINNED_DIGESTS))
    def test_conv_bits_do_not_depend_on_blocks_or_product_layout(self, monkeypatch,
                                                                 build, h, w):
        assert 8 * 9 * 64 * 1040 > aquaclear.neural._COLS_BYTES
        ext = init_weights(build(), seed=7)
        rng = np.random.default_rng(0)
        for spec in ext.spec.layers:
            if spec.kind == "pool":
                h, w = h // 2, w // 2
                continue
            for (name, _), layer in zip(spec.convs(), ext.convs(spec)):
                x = rng.uniform(0.0, 1.0, (layer.in_channels, h, w))
                default = conv2d_forward(x, layer)
                with monkeypatch.context() as m:
                    m.setattr(aquaclear.neural, "_COLS_BYTES", 1)
                    one_row = conv2d_forward(x, layer)
                assert np.array_equal(default, one_row), name
                assert np.array_equal(one_row, conv_one_gemm_per_row(x, layer)), name
            h = conv_output_dim(h, spec.kernel, spec.stride, spec.padding)
            w = conv_output_dim(w, spec.kernel, spec.stride, spec.padding)


class TestWeights:
    def test_init_is_deterministic(self):
        a = init_weights(build_vgg_head(), seed=7)
        b = init_weights(build_vgg_head(), seed=7)
        for name in a.weights:
            assert np.array_equal(a.weights[name], b.weights[name])
        c = init_weights(build_vgg_head(), seed=8)
        assert not np.array_equal(a.weights["conv1.weight"], c.weights["conv1.weight"])

    def test_biases_start_at_zero(self):
        ext = init_weights(build_resnet_head(), seed=3)
        for name, arr in ext.weights.items():
            if name.endswith(".bias"):
                assert np.all(arr == 0.0)

    def test_frozen_seed7_weight_sums(self):
        # abs-sums over every slot, frozen when the init scheme was locked
        vgg = init_weights(build_vgg_head(), seed=7)
        resnet = init_weights(build_resnet_head(), seed=7)
        vgg_sum = sum(float(np.abs(a).sum(dtype=np.float64)) for a in vgg.weights.values())
        resnet_sum = sum(float(np.abs(a).sum(dtype=np.float64)) for a in resnet.weights.values())
        assert len(vgg.weights) == 8
        assert len(resnet.weights) == 10
        assert vgg_sum == pytest.approx(10459.162635971215, abs=1e-6)
        assert resnet_sum == pytest.approx(7791.114941543177, abs=1e-6)

    def test_save_load_round_trip(self, tmp_path):
        ext = init_weights(build_resnet_head(), seed=11)
        manifest = save_weights(ext, tmp_path / "rn")
        loaded = load_weights(build_resnet_head(), manifest)
        for name in ext.weights:
            assert np.array_equal(loaded.weights[name], ext.weights[name])

    # save_weights used to write both files itself, so a failed save raised
    # a bare OSError
    def test_failed_save_is_io_failure_leaving_no_temp_file(self, tmp_path):
        (tmp_path / "v" / "weights.bin").mkdir(parents=True)
        with pytest.raises(IoFailureError, match="^cannot write weights.bin: "):
            save_weights(init_weights(build_vgg_head(), seed=1), tmp_path / "v")
        assert [p.name for p in (tmp_path / "v").iterdir()] == ["weights.bin"]

    def test_manifest_shape_mismatch(self, tmp_path):
        ext = init_weights(build_vgg_head(), seed=11)
        manifest = save_weights(ext, tmp_path / "v")
        doc = json.loads(manifest.read_text())
        doc["layers"][0]["shape"] = [64, 3, 5, 5]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatchInManifestError):
            load_weights(build_vgg_head(), manifest)

    def test_wrong_head_rejected(self, tmp_path):
        manifest = save_weights(init_weights(build_vgg_head(), seed=1), tmp_path / "v")
        with pytest.raises(ShapeMismatchInManifestError):
            load_weights(build_resnet_head(), manifest)

    def test_truncated_blob_rejected(self, tmp_path):
        ext = init_weights(build_vgg_head(), seed=11)
        manifest = save_weights(ext, tmp_path / "v")
        blob_path = manifest.parent / "weights.bin"
        blob_path.write_bytes(blob_path.read_bytes()[:-100])
        with pytest.raises(CorruptBlobError):
            load_weights(build_vgg_head(), manifest)


def bilinear_oracle(plane, out_h, out_w):
    in_h, in_w = plane.shape
    out = np.zeros((out_h, out_w))
    for y in range(out_h):
        for x in range(out_w):
            sy = (y + 0.5) * in_h / out_h - 0.5
            sx = (x + 0.5) * in_w / out_w - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            y0c = min(max(y0, 0), in_h - 1)
            y1c = min(max(y0 + 1, 0), in_h - 1)
            x0c = min(max(x0, 0), in_w - 1)
            x1c = min(max(x0 + 1, 0), in_w - 1)
            out[y, x] = (
                plane[y0c, x0c] * (1 - fy) * (1 - fx)
                + plane[y0c, x1c] * (1 - fy) * fx
                + plane[y1c, x0c] * fy * (1 - fx)
                + plane[y1c, x1c] * fy * fx
            )
    return out


class TestAttention:
    def test_map_is_normalized_channel_mean(self, rng):
        m = rng.standard_normal((8, 4, 4)).mean(axis=0)
        amap = attention_map(m, 4, 4)
        want = (m - m.min()) / (m.max() - m.min())
        # a same-size map is the normalized mean itself, bit for bit
        assert np.array_equal(amap, want)
        assert amap.min() == pytest.approx(0.0) and amap.max() == pytest.approx(1.0)

    def test_map_takes_only_a_channel_mean(self, rng):
        # taking a tensor's channel mean is BoundExtractor.channel_mean's job
        with pytest.raises(ValueError):
            attention_map(rng.standard_normal((8, 5, 6)), 9, 10)

    def test_flat_features_give_half(self):
        amap = attention_map(np.full((3, 3), 2.5), 6, 6)
        assert np.all(amap == 0.5)

    def test_upsampling_matches_bilinear_oracle(self, rng):
        m = rng.standard_normal((2, 3, 5)).mean(axis=0)
        amap = attention_map(m, 9, 10)
        norm = (m - m.min()) / (m.max() - m.min())
        assert np.allclose(amap, bilinear_oracle(norm, 9, 10), atol=1e-12)

    def test_fuse_mean_and_mismatch(self, rng):
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        assert np.allclose(fuse_attention(a, b), (a + b) / 2)
        with pytest.raises(DimMismatchError):
            fuse_attention(a, np.zeros((3, 4)))

    def test_adjust_gain_zero_is_bit_identity(self, rng):
        img = random_image(rng, 8, 8)
        attn = rng.uniform(size=(8, 8))
        out = attention_adjust(img, attn, gain=0.0)
        assert np.array_equal(out.data, img.data)

    def test_adjust_preserves_hue_and_saturation(self, rng):
        img = random_image(rng, 8, 8, lo=0.2, hi=0.8)
        attn = rng.uniform(size=(8, 8))
        before = rgb_to_hsv(img).data
        after = rgb_to_hsv(attention_adjust(img, attn, gain=0.5)).data
        mask = before[1] > 1e-3
        assert np.allclose(after[0][mask], before[0][mask], atol=1e-4)
        assert np.allclose(after[1], before[1], atol=1e-4)

    def test_adjust_caps_value_at_one(self):
        data = np.full((3, 4, 4), 0.9, dtype=np.float32)
        img = ImageF32(data)
        attn = np.zeros((4, 4))
        attn[0, 0] = 1.0  # factor above 1/V at this pixel
        out = attention_adjust(img, attn, gain=2.0)
        v = out.data.max(axis=0)
        assert v.max() <= 1.0 + 1e-7
        assert v[0, 0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("h, w", band_shapes())
    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_adjust_keeps_the_whole_image_bits(self, h, w, layout):
        data = level_data(h, w)
        data[:, ::5, ::3] = 0.0  # black pixels, where the cap is infinite
        img = layouts(data)[layout]
        attn = np.random.default_rng([h, w]).random((h, w))
        for gain in (0.0, 0.5, 3.0):
            assert same_bits(attention_adjust(img, attn, gain).data,
                             attention_adjust_reference(img.data, attn, gain))

    def test_adjust_shape_mismatch(self, rng):
        img = random_image(rng, 8, 8)
        with pytest.raises(DimMismatchError):
            attention_adjust(img, np.zeros((4, 4)))

    def test_guided_gain_zero_matches_classical_bytes(self, rng):
        data = rng.uniform(0.2, 0.5, size=(3, 16, 16))
        data[2] *= 1.8  # blue cast so the plan is non-empty
        img = ImageF32.from_array(data)
        attn = rng.uniform(size=(16, 16))
        flags, _ = classify(img, ClassifierThresholds())
        assert flags.color_cast
        want = apply_plan(img, build_plan(flags))
        got = feature_guided_enhance(img, attn, gain=0.0)
        assert np.array_equal(got.data, want.data)

    def test_guided_inputs_are_freed_before_the_first_step_ends(self, rng):
        # feature_guided_enhance kept img and the adjusted image through
        # every step of the plan
        data = rng.uniform(0.2, 0.5, size=(3, 16, 16))
        data[2] *= 1.8  # blue cast so the plan is non-empty
        held = [ImageF32.from_array(data), rng.uniform(size=(16, 16))]
        refs = [weakref.ref(x) for x in held]
        alive = []
        feature_guided_enhance(
            held.pop(0), held.pop(), 0.5,
            on_step=lambda i, kind, im: alive.append([r() is not None for r in refs]),
        )
        assert alive == [[False, False]]


# One conv and one residual block: the manifest has every kind of entry
# and a blob of a few hundred bytes.
TINY_HEAD = ExtractorSpec(
    "tiny",
    (LayerSpec("conv1", "conv", 1, 2, 3, 1, 1), LayerSpec("res1", "res", 2, 2, 3, 1, 1)),
)


def json_slots(node):
    """(container, key) for every value nested in a JSON document."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    slots = []
    for key, child in children:
        slots.append((node, key))
        slots.extend(json_slots(child))
    return slots


class TestLoadWeightsFuzz:
    """Whatever the manifest and blob, load_weights binds the weights or
    raises AquaClearError."""

    @staticmethod
    def check(directory):
        try:
            bound = load_weights(TINY_HEAD, directory / "manifest.json")
        except AquaClearError:
            return
        assert set(bound.weights) == {"conv1.weight", "conv1.bias", "res1.a.weight",
                                      "res1.a.bias", "res1.b.weight", "res1.b.bias"}

    @FUZZ
    @given(data=st.data(), cut=st.just(0) | st.integers(1, 400))
    def test_mutated_manifest_document(self, tmp_path, data, cut):
        manifest = save_weights(init_weights(TINY_HEAD, 0), tmp_path)
        doc = json.loads(manifest.read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            slots = json_slots(doc)
            if not slots:
                break
            container, key = data.draw(st.sampled_from(slots))
            if data.draw(st.booleans()):
                del container[key]
            else:
                container[key] = data.draw(JSON_VALUES)
        manifest.write_text(json.dumps(doc))
        blob = (tmp_path / "weights.bin").read_bytes()
        (tmp_path / "weights.bin").write_bytes(blob[: len(blob) - cut % (len(blob) + 1)])
        self.check(tmp_path)

    @FUZZ
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(0, 255), st.sampled_from("sid")),
            min_size=1, max_size=4,
        ),
    )
    def test_mutated_manifest_bytes(self, tmp_path, edits):
        manifest = save_weights(init_weights(TINY_HEAD, 0), tmp_path)
        raw = bytearray(manifest.read_bytes())
        for pos, value, op in edits:
            pos %= len(raw) + 1
            if op == "s" and pos < len(raw):
                raw[pos] = value
            elif op == "i":
                raw.insert(pos, value)
            elif op == "d" and pos < len(raw):
                del raw[pos]
        manifest.write_bytes(bytes(raw))
        self.check(tmp_path)
