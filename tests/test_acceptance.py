"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they complete. Every criterion carries its own runtime ceiling.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from aquaclear.classify import (
    RANK_ORDER,
    ClassifierThresholds,
    DegradationFlags,
    classify,
    summarize,
    summary_csv,
)
from aquaclear.enhance import (
    NlmParams,
    SharpenParams,
    gray_world_correct,
    nlm_denoise,
    sharpen,
)
from aquaclear.image import ImageF32, channel_stats, convolve2d, load_ppm, save_ppm
from aquaclear.metrics import (
    UCIQE_WEIGHTS,
    UIQM_WEIGHTS,
    psnr,
    uciqe,
    uiqm,
)
from aquaclear.neural import ConvLayer, conv2d_forward, residual_forward
from aquaclear.pipeline import (
    AugmentConfig,
    EXIT_OK,
    PipelineConfig,
    cmd_augment,
    cmd_classify,
    cmd_enhance,
    cmd_evaluate,
    cmd_report,
    cmd_split,
)
from aquaclear.synth import archetype_for_category, make_archetype, write_corpus

from conftest import (
    SHARPEN_KERNEL_PAPER_MODE,
    cnn_conv_oracle,
    nlm_oracle,
    plane_conv_oracle,
)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} ({name}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    print(
        f"criterion {num:02d} ({name}): {verdict} "
        f"[{elapsed:.2f}s, limit {limit_s:.0f}s]",
        flush=True,
    )
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"


def test_criterion_01_convolution_oracles():
    rng = np.random.Generator(np.random.PCG64(101))
    with criterion(1, "convolution oracles", 5.0):
        for _ in range(200):
            h, w = int(rng.integers(3, 17)), int(rng.integers(3, 17))
            k = int(rng.choice([1, 3, 5]))
            plane = rng.standard_normal((h, w))
            kernel = rng.standard_normal((k, k))
            got = convolve2d(plane, kernel)
            assert np.allclose(got, plane_conv_oracle(plane, kernel), atol=1e-6)
        for _ in range(50):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            h, w = int(rng.integers(5, 9)), int(rng.integers(5, 9))
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([1, 2]))
            p = int(rng.integers(0, 3))
            if h + 2 * p < k or w + 2 * p < k:
                p = k  # keep the output non-empty
            layer = ConvLayer(
                rng.standard_normal((c_out, c_in, k, k)).astype(np.float32),
                rng.standard_normal(c_out).astype(np.float32),
                stride=s,
                padding=p,
                activation=str(rng.choice(["relu", "none"])),
            )
            x = rng.standard_normal((c_in, h, w))
            got = conv2d_forward(x, layer)
            assert np.allclose(got, cnn_conv_oracle(x, layer), atol=1e-5)


def test_criterion_02_gray_world_invariant():
    rng = np.random.Generator(np.random.PCG64(102))
    with criterion(2, "gray-world invariant", 1.0):
        for _ in range(100):
            data = rng.uniform(0.25, 0.55, size=(3, 32, 32))
            data[0] *= rng.uniform(0.7, 1.0)
            data[2] *= rng.uniform(0.8, 1.1)
            img = ImageF32(data.astype(np.float32))
            st = channel_stats(gray_world_correct(img))
            for m in (st.mean_r, st.mean_g, st.mean_b):
                assert abs(m - st.mean_avg) < 1e-6
        cast = ImageF32(
            np.stack([
                np.full((16, 16), 0.6, dtype=np.float32),
                np.full((16, 16), 0.3, dtype=np.float32),
                np.full((16, 16), 0.3, dtype=np.float32),
            ])
        )
        out = gray_world_correct(cast)
        assert np.all(out.data == np.float32(0.4))


def test_criterion_03_sharpening_contract():
    with criterion(3, "sharpening contract", 1.0):
        flat = ImageF32(np.full((3, 8, 8), 0.37, dtype=np.float32))
        assert np.array_equal(sharpen(flat, SharpenParams(kernel_mode="zero_sum")).data, flat.data)
        half = ImageF32(np.full((3, 8, 8), 0.5, dtype=np.float32))
        got = sharpen(half, SharpenParams(kernel_mode="paper"))
        predicted = np.clip(
            0.5 + convolve2d(np.full((8, 8), 0.5), SHARPEN_KERNEL_PAPER_MODE), 0.0, 1.0
        )
        assert SHARPEN_KERNEL_PAPER_MODE[1, 1] == -9.0
        for c in range(3):
            assert np.array_equal(got.data[c], predicted.astype(np.float32))


def test_criterion_04_nlm_oracle_and_regression():
    rng = np.random.Generator(np.random.PCG64(104))
    with criterion(4, "non-local means", 10.0):
        flat = ImageF32(np.full((3, 32, 32), 0.61, dtype=np.float32))
        assert np.array_equal(nlm_denoise(flat).data, flat.data)

        img = ImageF32(rng.uniform(0, 1, size=(3, 5, 5)).astype(np.float32))
        params = NlmParams(patch_radius=1, window_radius=2, h=0.3)
        got = nlm_denoise(img, params)
        for c in range(3):
            want = nlm_oracle(img.data[c], params)
            assert np.allclose(got.data[c], want, atol=1e-6)

        noise_rng = np.random.Generator(np.random.PCG64(42))
        base = np.full((3, 32, 32), 0.5)
        noisy = np.clip(base + noise_rng.normal(0.0, 0.05, size=base.shape), 0, 1)
        noisy_img = ImageF32(noisy.astype(np.float32))
        out = nlm_denoise(noisy_img, NlmParams())
        ratio = float(out.data.std()) / float(noisy_img.data.std())
        frozen = 0.102779
        assert frozen * 0.95 <= ratio <= frozen * 1.05


def test_criterion_05_residual_and_conv_identities():
    rng = np.random.Generator(np.random.PCG64(105))
    with criterion(5, "residual and conv identities", 1.0):
        from aquaclear.neural import ResidualBlock

        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        b = np.zeros(4, dtype=np.float32)
        block = ResidualBlock(
            ConvLayer(w, b, padding=1, activation="relu"),
            ConvLayer(w, b, padding=1, activation="none"),
        )
        x = np.abs(rng.standard_normal((4, 6, 6)))
        assert np.array_equal(residual_forward(x, block), x)

        delta = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for i in range(3):
            delta[i, i, 1, 1] = 1.0
        layer = ConvLayer(delta, np.zeros(3, dtype=np.float32), padding=1, activation="none")
        y = rng.standard_normal((3, 7, 7))
        assert np.array_equal(conv2d_forward(y, layer), y)

        clamp = ConvLayer(delta, np.zeros(3, dtype=np.float32), padding=1, activation="relu")
        once = conv2d_forward(y, clamp)
        assert np.array_equal(conv2d_forward(once, clamp), once)


def test_criterion_06_metric_zero_points_and_identities():
    rng = np.random.Generator(np.random.PCG64(106))
    with criterion(6, "metric identities", 5.0):
        a = ImageF32(rng.uniform(0, 1, size=(3, 8, 8)).astype(np.float32))
        assert psnr(a, a) == math.inf
        black = ImageF32(np.zeros((3, 8, 8), dtype=np.float32))
        white = ImageF32(np.ones((3, 8, 8), dtype=np.float32))
        assert psnr(black, white) == 0.0

        gray = ImageF32(np.full((3, 16, 16), 0.5, dtype=np.float32))
        assert abs(uciqe(gray)[0]) < 1e-12
        assert abs(uiqm(gray)[0]) < 1e-12

        for _ in range(50):
            img = ImageF32(rng.uniform(0, 1, size=(3, 16, 16)).astype(np.float32))
            uc_score, uc = uciqe(img)
            uq_score, uq = uiqm(img)
            assert abs(
                uc_score
                - (UCIQE_WEIGHTS[0] * uc["sigma_c"]
                   + UCIQE_WEIGHTS[1] * uc["con_l"]
                   + UCIQE_WEIGHTS[2] * uc["mu_s"])
            ) < 1e-9
            assert abs(
                uq_score
                - (UIQM_WEIGHTS[0] * uq["uicm"]
                   + UIQM_WEIGHTS[1] * uq["uism"]
                   + UIQM_WEIGHTS[2] * uq["uiconm"])
            ) < 1e-9

        img = ImageF32(rng.uniform(0, 1, size=(3, 16, 16)).astype(np.float32))
        mirrored = ImageF32(img.data[:, :, ::-1].copy())
        assert abs(uciqe(img)[0] - uciqe(mirrored)[0]) < 1e-9
        assert abs(uiqm(img)[0] - uiqm(mirrored)[0]) < 1e-9


def test_criterion_07_classifier_synthetic_suite():
    with criterion(7, "classifier synthetic suite", 5.0):
        thresholds = ClassifierThresholds()
        labels = []
        correct = 0
        for category in RANK_ORDER:
            for seed in range(25):
                img = archetype_for_category(category, seed=seed, size=32)
                _, got = classify(img, thresholds)
                labels.append(got)
                if got is category:
                    correct += 1
        assert correct == 200, f"only {correct}/200 archetypes classified correctly"

        text = summary_csv(summarize(labels))
        lines = text.strip().splitlines()
        assert len(lines) == 9
        header = lines[0].split(",")
        for needed in ("rank", "description", "proportion"):
            assert needed in header
        ranks = []
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            ranks.append(int(cells[header.index("rank")]))
            float(cells[header.index("proportion")])
            assert cells[header.index("description")]
        assert ranks == list(range(1, 9))


def test_criterion_08_directional_quality_gains(tmp_path):
    with criterion(8, "directional quality gains", 30.0):
        src = tmp_path / "in"
        src.mkdir()
        img = make_archetype(DegradationFlags(True, True, True), seed=7, size=64)
        save_ppm(img, src / "arch.ppm")
        base = load_ppm(src / "arch.ppm")
        base_uciqe, base_uiqm = uciqe(base)[0], uiqm(base)[0]

        config = PipelineConfig()  # seed 7
        for method in ("classic", "vgg", "resnet", "unite"):
            out = tmp_path / method
            assert cmd_enhance(src, config, out, method=method) == EXIT_OK
            enhanced = load_ppm(out / f"arch.{method}.ppm")
            got_uciqe, got_uiqm = uciqe(enhanced)[0], uiqm(enhanced)[0]
            assert got_uciqe > base_uciqe, (
                f"{method}: UCIQE {got_uciqe:.4f} <= baseline {base_uciqe:.4f}"
            )
            assert got_uiqm > base_uiqm, (
                f"{method}: UIQM {got_uiqm:.4f} <= baseline {base_uiqm:.4f}"
            )


def run_stage_chain(src, work, threads):
    config = PipelineConfig(reference_dir=str(src), threads=threads)  # seed 7 default
    assert cmd_classify(src, config, work) == EXIT_OK
    enhanced = work / "enhanced"
    assert cmd_enhance(src, config, enhanced, method="unite", seed=7) == EXIT_OK
    assert cmd_evaluate(enhanced, config, output_dir=work) == EXIT_OK
    assert cmd_report(work, config, work) == EXIT_OK


def collect_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_09_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end determinism", 60.0):
        src = tmp_path / "corpus"
        src.mkdir()
        write_corpus(src, count=20, seed=7, size=32)

        runs = {}
        for label, threads in (("t1", 1), ("t8", 8)):
            for attempt in ("a", "b"):
                work = tmp_path / f"{label}_{attempt}"
                run_stage_chain(src, work, threads)
                runs[f"{label}_{attempt}"] = collect_bytes(work)

        reference = runs["t1_a"]
        assert reference, "first run produced no files"
        for key in ("t1_b", "t8_a", "t8_b"):
            other = runs[key]
            assert set(other) == set(reference), f"{key}: file set differs"
            for name in reference:
                assert other[name] == reference[name], f"{key}: {name} differs"


def test_criterion_10_split_and_augment_contracts(tmp_path):
    rng = np.random.Generator(np.random.PCG64(110))
    with criterion(10, "split and augment contracts", 1.0):
        config = PipelineConfig()
        for count, want in ((10, (8, 1, 1)), (12, (10, 1, 1))):
            src = tmp_path / f"files{count}"
            src.mkdir()
            for i in range(count):
                img = ImageF32(rng.uniform(0, 1, size=(3, 8, 8)).astype(np.float32))
                save_ppm(img, src / f"img{i:02d}.ppm")
            out = tmp_path / f"split{count}"
            assert cmd_split(src, config, out) == EXIT_OK
            counts = {"train": 0, "val": 0, "test": 0}
            for line in (out / "split.csv").read_text().splitlines()[1:]:
                counts[line.split(",")[1]] += 1
            assert (counts["train"], counts["val"], counts["test"]) == want

        src = tmp_path / "files10"
        identity = PipelineConfig(
            augment=AugmentConfig(crop_fraction=1.0, jitter_amplitude=0.0,
                                  samples_per_image=1)
        )
        out = tmp_path / "aug"
        assert cmd_augment(src, identity, out) == EXIT_OK
        for source in sorted(src.glob("*.ppm")):
            copy = out / f"{source.stem}.aug0.ppm"
            assert copy.read_bytes() == source.read_bytes()
