"""Classical enhancement: gray-world, CLAHE, sharpening, NLM, plans."""

import warnings
import weakref

import numpy as np
import pytest

import aquaclear.enhance as enhance_module
from aquaclear.enhance import (
    ClaheParams,
    EnhancementPlan,
    NlmParams,
    PlanStep,
    SharpenParams,
    StepKind,
    apply_plan,
    build_plan,
    clahe_v,
    gray_world_correct,
    nlm_denoise,
    sharpen,
)
from aquaclear.classify import DegradationFlags
from aquaclear.errors import (
    ImageTooSmallError,
    NegativeStrengthError,
    PlanStepError,
    ZeroChannelMeanWarning,
)
from aquaclear.image import ImageF32, channel_stats, convolve2d, hsv_to_rgb, rgb_to_hsv
from aquaclear.neural import attention_adjust

from conftest import (
    SHARPEN_KERNEL_PAPER_MODE,
    SHARPEN_KERNEL_ZERO_SUM,
    band_shapes,
    clahe_blend_reference,
    constant_image,
    gray_world_reference,
    heap_peak,
    layouts,
    level_data,
    nlm_oracle,
    random_image,
    same_bits,
    sharpen_reference,
)


class TestGrayWorld:
    def test_constant_cast_maps_to_uniform_exactly(self):
        img = constant_image((0.6, 0.3, 0.3), h=16, w=16)
        out = gray_world_correct(img)
        assert np.all(out.data == np.float32(0.4))

    def test_random_images_equalize_channel_means(self, rng):
        for _ in range(20):
            data = rng.uniform(0.25, 0.55, size=(3, 32, 32))
            data[0] *= rng.uniform(0.7, 1.0)
            data[2] *= rng.uniform(1.0, 1.3) / 1.3
            img = ImageF32(data.astype(np.float32))
            out = gray_world_correct(img)
            st = channel_stats(out)
            for m in (st.mean_r, st.mean_g, st.mean_b):
                assert abs(m - st.mean_avg) < 1e-6

    def test_balanced_image_nearly_unchanged(self, rng):
        img = random_image(rng, 8, 8, lo=0.4, hi=0.6)
        out = gray_world_correct(img)
        assert np.allclose(out.data, img.data, atol=0.2)

    def test_zero_channel_left_unscaled(self):
        data = np.zeros((3, 4, 4), dtype=np.float32)
        data[1] = 0.4
        data[2] = 0.6
        img = ImageF32(data)
        with pytest.warns(ZeroChannelMeanWarning):
            out = gray_world_correct(img)
        assert np.all(out.data[0] == 0.0)

    def test_output_clamped(self):
        img = constant_image((0.9, 0.2, 0.2))
        out = gray_world_correct(img)
        assert out.data.max() <= 1.0


def clahe_reference(img, params):
    """Scalar per-tile reference: histogram, clip, redistribute, blend."""
    h, w = img.data.shape[1], img.data.shape[2]
    v = rgb_to_hsv(img).data[2].astype(np.float64)
    tx, ty, bins, clip = params.tiles_x, params.tiles_y, params.bins, params.clip_limit

    def edges(extent, tiles):
        return [extent * i // tiles for i in range(tiles + 1)]

    ye, xe = edges(h, ty), edges(w, tx)
    luts = {}
    for ti in range(ty):
        for tj in range(tx):
            tile = v[ye[ti] : ye[ti + 1], xe[tj] : xe[tj + 1]]
            n = tile.size
            hist = np.zeros(bins)
            idx = np.minimum((tile * bins).astype(int), bins - 1)
            for val in idx.ravel():
                hist[val] += 1
            ceiling = clip * n / bins
            excess = float(np.maximum(hist - ceiling, 0.0).sum())
            hist = np.minimum(hist, ceiling) + excess / bins
            cdf = np.cumsum(hist)
            nz = np.nonzero(hist)[0]
            cdf_min = cdf[nz[0]] if len(nz) else 0.0
            if n - cdf_min <= 0:
                luts[(ti, tj)] = None
            else:
                luts[(ti, tj)] = np.clip((cdf - cdf_min) / (n - cdf_min), 0.0, 1.0)

    def tile_value(ti, tj, val):
        lut = luts[(ti, tj)]
        if lut is None:
            return val
        return lut[min(int(val * bins), bins - 1)]

    cy = [(ye[i] + ye[i + 1] - 1) / 2.0 for i in range(ty)]
    cx = [(xe[j] + xe[j + 1] - 1) / 2.0 for j in range(tx)]
    out = np.zeros_like(v)
    for y in range(h):
        for x in range(w):
            ti = max(0, min(ty - 2, int(np.searchsorted(cy, y, "right")) - 1)) if ty > 1 else 0
            tj = max(0, min(tx - 2, int(np.searchsorted(cx, x, "right")) - 1)) if tx > 1 else 0
            if ty > 1:
                fy = (y - cy[ti]) / (cy[ti + 1] - cy[ti])
                fy = min(max(fy, 0.0), 1.0)
            else:
                fy = 0.0
            if tx > 1:
                fx = (x - cx[tj]) / (cx[tj + 1] - cx[tj])
                fx = min(max(fx, 0.0), 1.0)
            else:
                fx = 0.0
            val = v[y, x]
            v00 = tile_value(ti, tj, val)
            v01 = tile_value(ti, min(tj + 1, tx - 1), val)
            v10 = tile_value(min(ti + 1, ty - 1), tj, val)
            v11 = tile_value(min(ti + 1, ty - 1), min(tj + 1, tx - 1), val)
            out[y, x] = (
                v00 * (1 - fy) * (1 - fx)
                + v01 * (1 - fy) * fx
                + v10 * fy * (1 - fx)
                + v11 * fy * fx
            )
    return out


class TestClahe:
    def test_constant_image_identity_when_nothing_clips(self):
        # ceiling = clip * n / bins >= n means no redistribution, so the
        # single occupied bin makes cdf_min == n and the LUT degenerates
        img = constant_image(0.42, h=16, w=16)
        out = clahe_v(img, ClaheParams(clip_limit=256.0))
        assert np.array_equal(out.data, img.data)

    def test_constant_image_near_identity_at_default_clip(self):
        img = constant_image(0.42, h=16, w=16)
        out = clahe_v(img)
        assert np.allclose(out.data, img.data, atol=0.01)

    def test_matches_scalar_reference(self, rng):
        img = random_image(rng, 16, 16, lo=0.1, hi=0.9)
        params = ClaheParams(tiles_x=2, tiles_y=2, clip_limit=1.5, bins=16)
        got_v = rgb_to_hsv(clahe_v(img, params)).data[2]
        want_v = clahe_reference(img, params)
        assert np.allclose(got_v, want_v, atol=1e-5)

    def test_hue_and_saturation_untouched(self, rng):
        img = random_image(rng, 16, 16, lo=0.2, hi=0.9)
        before = rgb_to_hsv(img).data
        after = rgb_to_hsv(clahe_v(img)).data
        mask = before[1] > 1e-3  # hue is only meaningful off the gray axis
        assert np.allclose(after[0][mask], before[0][mask], atol=1e-4)
        assert np.allclose(after[1], before[1], atol=1e-4)

    def test_raises_contrast_on_low_contrast_image(self, rng):
        v = 0.4 + 0.05 * rng.uniform(-1, 1, size=(32, 32))
        img = ImageF32.from_array(np.stack([v, v, v]))
        out = clahe_v(img, ClaheParams(tiles_x=2, tiles_y=2, clip_limit=8.0))
        assert out.data.std() > img.data.std()

    def test_invalid_clip_limit(self):
        with pytest.raises(ValueError):
            ClaheParams(clip_limit=0.5)


class TestSharpen:
    def test_constant_is_bit_identical(self):
        img = constant_image(0.37)
        out = sharpen(img)
        assert np.array_equal(out.data, img.data)

    def test_equals_kernel_convolution_form(self, rng):
        img = random_image(rng, 10, 10)
        out = sharpen(img, SharpenParams(strength=0.8))
        for c in range(3):
            plane = img.data[c].astype(np.float64)
            want = np.clip(plane + 0.8 * convolve2d(plane, SHARPEN_KERNEL_ZERO_SUM), 0, 1)
            assert np.allclose(out.data[c], want, atol=1e-6)

    def test_paper_mode_saturates_constant_half(self):
        # center -9 kernel sums to -17: response on 0.5 is -8.5, clamped to 0
        img = constant_image(0.5)
        out = sharpen(img, SharpenParams(kernel_mode="paper"))
        predicted = np.clip(0.5 + convolve2d(np.full((8, 8), 0.5), SHARPEN_KERNEL_PAPER_MODE), 0, 1)
        assert np.all(out.data == 0.0)
        assert np.all(predicted == 0.0)

    def test_kernels_have_documented_structure(self):
        assert SHARPEN_KERNEL_ZERO_SUM.sum() == pytest.approx(0.0)
        assert SHARPEN_KERNEL_ZERO_SUM[1, 1] == 8.0
        assert SHARPEN_KERNEL_PAPER_MODE[1, 1] == -9.0
        assert SHARPEN_KERNEL_PAPER_MODE.sum() == pytest.approx(-17.0)

    def test_zero_strength_is_identity(self, rng):
        img = random_image(rng, 6, 6)
        assert np.array_equal(sharpen(img, SharpenParams(strength=0.0)).data, img.data)

    def test_negative_strength_rejected(self):
        with pytest.raises(NegativeStrengthError):
            SharpenParams(strength=-1.0)

    # A strength of 1e308 used to overflow to inf and print numpy's
    # RuntimeWarning; the largest allowed strength stays finite.
    @pytest.mark.parametrize("kernel_mode", ["zero_sum", "paper"])
    def test_strength_bound_keeps_response_finite(self, rng, kernel_mode):
        img = random_image(rng, 8, 8, lo=0.0, hi=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sharpen(img, SharpenParams(1000.0, kernel_mode))
        with pytest.raises(ValueError, match="strength must be <= 1000"):
            SharpenParams(float(np.nextafter(1000.0, np.inf)), kernel_mode)


class TestNlm:
    def test_constant_is_bit_identical(self):
        img = constant_image(0.61, h=8, w=8)
        out = nlm_denoise(img, NlmParams(patch_radius=1, window_radius=2, h=0.1))
        assert np.array_equal(out.data, img.data)

    def test_matches_five_loop_oracle(self, rng):
        img = random_image(rng, 5, 5)
        params = NlmParams(patch_radius=1, window_radius=2, h=0.3)
        got = nlm_denoise(img, params)
        for c in range(3):
            want = nlm_oracle(img.data[c], params)
            assert np.allclose(got.data[c], want, atol=1e-6)

    @pytest.mark.parametrize(
        "h, w, params",
        [
            # the window reaches past the image on every side
            (6, 11, NlmParams(patch_radius=1, window_radius=7, h=0.3)),
            (11, 6, NlmParams(patch_radius=1, window_radius=7, h=0.3)),
            # single-pixel patches
            (7, 5, NlmParams(patch_radius=0, window_radius=3, h=0.2)),
        ],
    )
    def test_matches_oracle_past_the_image(self, rng, h, w, params):
        img = random_image(rng, h, w)
        got = nlm_denoise(img, params)
        for c in range(3):
            want = nlm_oracle(img.data[c], params)
            assert np.allclose(got.data[c], want, atol=1e-6)

    def test_non_square_constant_is_bit_identical(self):
        img = constant_image((0.2, 0.47, 0.93), h=9, w=14)
        assert np.array_equal(nlm_denoise(img).data, img.data)

    def test_noise_reduction_bound(self):
        # sigma=0.05 fixture; ratio frozen from the oracle run, enforced +/-5%
        rng = np.random.Generator(np.random.PCG64(42))
        base = np.full((3, 32, 32), 0.5)
        noisy = np.clip(base + rng.normal(0.0, 0.05, size=base.shape), 0.0, 1.0)
        img = ImageF32(noisy.astype(np.float32))
        out = nlm_denoise(img, NlmParams())
        ratio = float(out.data.std()) / float(img.data.std())
        frozen = 0.102779
        assert frozen * 0.95 <= ratio <= frozen * 1.05

    # At the smallest h every weight between two different 8-bit patches
    # underflows to 0, so the output is the input, and numpy warns of nothing.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("patch_radius", [0, 3, 10])
    def test_smallest_h_is_identity_on_8_bit_input(self, rng, patch_radius):
        levels = rng.integers(0, 256, size=(3, 24, 24))
        img = ImageF32((levels / 255.0).astype(np.float32))
        params = NlmParams(patch_radius=patch_radius, window_radius=10, h=1e-6)
        assert np.array_equal(nlm_denoise(img, params).data, img.data)

    def test_too_small_image_rejected(self):
        img = constant_image(0.5, h=4, w=4)
        with pytest.raises(ImageTooSmallError):
            nlm_denoise(img, NlmParams(patch_radius=3, window_radius=4, h=0.1))

    def test_window_must_cover_patch(self):
        with pytest.raises(ValueError):
            NlmParams(patch_radius=3, window_radius=2, h=0.1)

    @staticmethod
    def count_slabs(monkeypatch, stub=False):
        """Record the shape of every slab nlm_denoise hands to _nlm_slab;
        a stub returns zeros instead of running it."""
        shapes = []
        real = enhance_module._nlm_slab

        def spy(padded, params, buffers):
            shapes.append(padded.shape)
            if stub:
                pad = params.window_radius + params.patch_radius
                return np.zeros((padded.shape[0] - 2 * pad, padded.shape[1] - 2 * pad))
            return real(padded, params, buffers)

        monkeypatch.setattr(enhance_module, "_nlm_slab", spy)
        return shapes

    @pytest.mark.parametrize("h, w, params, band_rows", [
        (40, 30, NlmParams(), 10),
        (41, 23, NlmParams(), 7),
        (9, 14, NlmParams(), 2),
        (40, 30, NlmParams(patch_radius=1, window_radius=2, h=0.1), 1),
        (9, 14, NlmParams(patch_radius=1, window_radius=2, h=0.1), 3),
    ])
    def test_bands_keep_the_one_band_bits(self, monkeypatch, h, w, params, band_rows):
        img = random_image(np.random.default_rng([h, w]), h, w)
        whole = nlm_denoise(img, params).data
        # the budget of band_rows rows: three buffers and num and den
        p, win = params.patch_radius, params.window_radius
        stride = w + 2 * (win + p)
        budget = 8 * stride * (5 * band_rows + 3 * (win + 2 * p))
        monkeypatch.setattr(enhance_module, "_NLM_BYTES", budget)
        shapes = self.count_slabs(monkeypatch)
        assert same_bits(nlm_denoise(img, params).data, whole)
        assert len(shapes) >= 3 * 3
        assert sum(s[0] - 2 * (win + p) for s in shapes) == 3 * h

    @pytest.mark.parametrize("size, bands", [(128, 1), (256, 2)])
    def test_benchmark_sizes_run_in_bands_of_128_rows(self, monkeypatch, size, bands):
        shapes = self.count_slabs(monkeypatch, stub=True)
        nlm_denoise(constant_image(0.5, h=size, w=size))
        assert shapes == [(128 + 26, size + 26)] * (3 * bands)


class TestSameBitsAsWholeImage:
    """Filters run a channel or a row band at a time keep the bits of the
    whole-image float64 formulas."""

    @pytest.mark.parametrize("h, w", band_shapes())
    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_filters(self, h, w, layout):
        img = layouts(level_data(h, w))[layout]
        assert same_bits(gray_world_correct(img).data, gray_world_reference(img.data))
        for params in (ClaheParams(), ClaheParams(3, 5, 1.5, 17), ClaheParams(bins=4096)):
            assert same_bits(clahe_v(img, params).data, clahe_blend_reference(img.data, params))
        for params in (SharpenParams(0.7, "zero_sum"), SharpenParams(0.7, "paper")):
            assert same_bits(sharpen(img, params).data, sharpen_reference(img.data, params))

    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_gray_world_with_a_zero_mean_channel(self, layout):
        data = level_data(20, 30)
        data[1] = 0.0
        img = layouts(data)[layout]
        with pytest.warns(ZeroChannelMeanWarning):
            got = gray_world_correct(img).data
        assert same_bits(got, gray_world_reference(img.data))

    def test_outputs_keep_the_input_layout(self):
        img = layouts(level_data(9, 11))["interleaved"]
        attn = np.random.default_rng(0).random((9, 11))
        for fn in (gray_world_correct, sharpen, nlm_denoise, clahe_v, rgb_to_hsv, hsv_to_rgb,
                   lambda i: attention_adjust(i, attn)):
            assert fn(img).data.strides == img.data.strides


class TestHeapPeaks:
    """Each filter holds about one float64 plane beside its float32 output.
    The whole-image forms peaked at 84, 210, 100 and 149 bytes per pixel;
    the banded ones peak near 21, 54, 38 and 44."""

    @pytest.mark.parametrize("fn, bound", [
        (gray_world_correct, 40), (clahe_v, 86), (sharpen, 60), (nlm_denoise, 66),
    ], ids=["gray_world", "clahe", "sharpen", "nlm"])
    def test_bytes_per_pixel_at_256(self, rng, fn, bound):
        peak, _ = heap_peak(fn, random_image(rng, 256, 256))
        assert peak / (256 * 256) < bound

    @staticmethod
    def scratch(fn, rng, h, w):
        peak, out = heap_peak(fn, random_image(rng, h, w))
        return peak - out.data.nbytes

    def test_nlm_scratch_grows_with_width_not_height(self, rng):
        scratch = self.scratch
        assert scratch(nlm_denoise, rng, 1024, 256) < 1.3 * scratch(nlm_denoise, rng, 256, 256)

    def test_clahe_scratch_grows_with_width_not_height(self, rng):
        # three whole-image float32 HSV arrays made it 2.4x; the uint16 bin
        # indices still grow with the height
        scratch = self.scratch
        assert scratch(clahe_v, rng, 1024, 256) < 1.3 * scratch(clahe_v, rng, 256, 256)

    def test_sharpen_scratch_grows_with_width_not_height(self, rng):
        # the per-plane form held three float64 planes: 4x from 256 to 1024 rows
        scratch = self.scratch
        assert scratch(sharpen, rng, 1024, 256) < 1.3 * scratch(sharpen, rng, 256, 256)


class TestPlans:
    def test_build_plan_covers_all_combinations(self):
        cases = {
            (False, False, False): [],
            (True, False, False): ["gray_world"],
            (False, True, False): ["clahe"],
            (False, False, True): ["denoise", "sharpen"],
            (True, True, False): ["gray_world", "clahe"],
            (True, False, True): ["gray_world", "denoise", "sharpen"],
            (False, True, True): ["clahe", "denoise", "sharpen"],
            (True, True, True): ["gray_world", "clahe", "denoise", "sharpen"],
        }
        for (cast, low, blur), kinds in cases.items():
            plan = build_plan(DegradationFlags(cast, low, blur))
            assert plan.kinds() == kinds

    def test_empty_plan_is_identity(self, rng):
        img = random_image(rng, 6, 6)
        out = apply_plan(img, EnhancementPlan())
        assert out is img

    def test_duplicate_steps_rejected(self):
        with pytest.raises(ValueError):
            EnhancementPlan((PlanStep(StepKind.CLAHE), PlanStep(StepKind.CLAHE)))

    def test_step_failure_carries_index_and_name(self):
        img = constant_image(0.5, h=4, w=4)  # too small for default NLM
        plan = EnhancementPlan((PlanStep(StepKind.DENOISE),))
        with pytest.raises(PlanStepError) as exc_info:
            apply_plan(img, plan)
        assert exc_info.value.index == 0
        assert exc_info.value.step == "denoise"

    def test_overrides_reach_the_step(self, rng):
        img = random_image(rng, 12, 12)
        blurred = DegradationFlags(False, False, True)
        nlm = NlmParams(patch_radius=1, window_radius=3, h=0.2)
        sharp = SharpenParams(strength=0.6, kernel_mode="paper")
        plan = build_plan(blurred, {StepKind.DENOISE: nlm, StepKind.SHARPEN: sharp})
        want = sharpen(nlm_denoise(img, nlm), sharp)
        assert np.array_equal(apply_plan(img, plan).data, want.data)
        # the defaults give other bits, so the match is the objects' doing
        default = apply_plan(img, build_plan(blurred))
        assert not np.array_equal(default.data, want.data)

    def test_each_image_is_freed_once_the_next_step_has_read_it(self, rng):
        # apply_plan kept its argument alive through every step
        plan = build_plan(DegradationFlags(True, True, True))
        held = [random_image(rng, 16, 16)]
        refs = [weakref.ref(held[0])]
        alive = []

        def on_step(i, kind, img):
            alive.append([r() is not None for r in refs])
            refs.append(weakref.ref(img))

        apply_plan(held.pop(), plan, on_step)
        assert alive == [[False] * n for n in range(1, 5)]

    def test_on_step_hook_sees_every_step(self, rng):
        img = random_image(rng, 8, 8, lo=0.3, hi=0.5)
        plan = build_plan(DegradationFlags(True, True, False))
        seen = []
        apply_plan(img, plan, on_step=lambda i, kind, im: seen.append((i, kind)))
        assert seen == [(0, StepKind.GRAY_WORLD), (1, StepKind.CLAHE)]
