"""Feature extractors, manifest IO, and attention-guided enhancement."""

import json

import numpy as np
import pytest

from aquaclear.classify import ClassifierThresholds, classify
from aquaclear.enhance import apply_plan, build_plan
from aquaclear.errors import (
    CorruptBlobError,
    DimMismatchError,
    IndivisibleDimsError,
    OddSpatialDimError,
    ShapeMismatchError,
    ShapeMismatchInManifestError,
    UnsupportedDepthError,
)
from aquaclear.image import ImageF32, rgb_to_hsv
from aquaclear.neural import (
    BoundExtractor,
    ConvLayer,
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
    relu,
    residual_forward,
    save_weights,
)

from conftest import random_image


def conv_oracle(x, layer):
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
        ]
        for case in cases:
            for activation in ("relu", "none"):
                layer = make_layer(
                    rng, case["out_c"], case["in_c"], case["k"],
                    case["stride"], case["padding"], activation,
                )
                x = rng.standard_normal((case["in_c"], case["h"], case["w"]))
                got = conv2d_forward(x, layer)
                want = conv_oracle(x, layer)
                assert got.shape == want.shape
                assert np.allclose(got, want, atol=1e-9)

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
        t = np.array([-1.0, 0.0, 2.5])
        assert np.array_equal(relu(t), [0.0, 0.0, 2.5])
        assert np.array_equal(relu(relu(t)), relu(t))


class TestPoolAndResidual:
    def test_max_pool_picks_block_maxima(self):
        t = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = max_pool2(t)
        assert out.shape == (1, 2, 2)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])

    def test_max_pool_odd_dims_rejected(self):
        with pytest.raises(OddSpatialDimError):
            max_pool2(np.zeros((1, 3, 4)))

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
        ext = init_weights(build_vgg_head(4), seed=0)
        img = ImageF32(np.full((3, 64, 64), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (128, 32, 32)

    def test_vgg_depth1_on_16(self):
        ext = init_weights(build_vgg_head(1), seed=0)
        img = ImageF32(np.full((3, 16, 16), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (64, 16, 16)

    def test_resnet_on_64(self):
        ext = init_weights(build_resnet_head(), seed=0)
        img = ImageF32(np.full((3, 64, 64), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (64, 16, 16)

    def test_depth_out_of_range(self):
        with pytest.raises(UnsupportedDepthError):
            build_vgg_head(5)
        with pytest.raises(UnsupportedDepthError):
            build_vgg_head(0)

    def test_odd_dims_fail_inside_raw_forward(self):
        ext = init_weights(build_vgg_head(4), seed=0)
        with pytest.raises(OddSpatialDimError):
            ext.forward(np.zeros((3, 33, 33)))

    def test_indivisible_dims_caught_before_arithmetic(self):
        # resnet stem halves 50 to 25, which the pool cannot split
        ext = init_weights(build_resnet_head(), seed=0)
        img = ImageF32(np.full((3, 50, 50), 0.5, dtype=np.float32))
        with pytest.raises(IndivisibleDimsError):
            extract_features(img, ext)

    def test_vgg_tolerates_any_even_size(self):
        ext = init_weights(build_vgg_head(4), seed=0)
        img = ImageF32(np.full((3, 50, 50), 0.5, dtype=np.float32))
        assert extract_features(img, ext).shape == (128, 25, 25)


class TestWeights:
    def test_init_is_deterministic(self):
        a = init_weights(build_vgg_head(4), seed=7)
        b = init_weights(build_vgg_head(4), seed=7)
        for name in a.weights:
            assert np.array_equal(a.weights[name], b.weights[name])
        c = init_weights(build_vgg_head(4), seed=8)
        assert not np.array_equal(a.weights["conv1.weight"], c.weights["conv1.weight"])

    def test_biases_start_at_zero(self):
        ext = init_weights(build_resnet_head(), seed=3)
        for name, arr in ext.weights.items():
            if name.endswith(".bias"):
                assert np.all(arr == 0.0)

    def test_frozen_seed7_weight_sums(self):
        # abs-sums over every slot, frozen when the init scheme was locked
        vgg = init_weights(build_vgg_head(4), seed=7)
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

    def test_manifest_shape_mismatch(self, tmp_path):
        ext = init_weights(build_vgg_head(4), seed=11)
        manifest = save_weights(ext, tmp_path / "v")
        doc = json.loads(manifest.read_text())
        doc["layers"][0]["shape"] = [64, 3, 5, 5]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatchInManifestError):
            load_weights(build_vgg_head(4), manifest)

    def test_wrong_head_rejected(self, tmp_path):
        manifest = save_weights(init_weights(build_vgg_head(4), seed=1), tmp_path / "v")
        with pytest.raises(ShapeMismatchInManifestError):
            load_weights(build_resnet_head(), manifest)

    def test_truncated_blob_rejected(self, tmp_path):
        ext = init_weights(build_vgg_head(4), seed=11)
        manifest = save_weights(ext, tmp_path / "v")
        blob_path = manifest.parent / "weights.bin"
        blob_path.write_bytes(blob_path.read_bytes()[:-100])
        with pytest.raises(CorruptBlobError):
            load_weights(build_vgg_head(4), manifest)


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
        feats = rng.standard_normal((8, 4, 4))
        amap = attention_map(feats, 4, 4)
        m = feats.mean(axis=0)
        want = (m - m.min()) / (m.max() - m.min())
        assert np.allclose(amap, want, atol=1e-12)
        assert amap.min() == pytest.approx(0.0) and amap.max() == pytest.approx(1.0)

    def test_flat_features_give_half(self):
        amap = attention_map(np.full((4, 3, 3), 2.5), 6, 6)
        assert np.all(amap == 0.5)

    def test_upsampling_matches_bilinear_oracle(self, rng):
        feats = rng.standard_normal((2, 3, 5))
        amap = attention_map(feats, 9, 10)
        m = feats.mean(axis=0)
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
