"""Batch commands, config handling, and the CLI front end."""

import json

import numpy as np
import pytest

from aquaclear.cli import main
from aquaclear.errors import ConfigError, CsvParseError
from aquaclear.enhance import StepKind
from aquaclear.image import ImageF32, load_ppm, save_ppm
from aquaclear.pipeline import (
    EXIT_BAD_PARAMS,
    EXIT_EMPTY,
    EXIT_MISSING_WEIGHTS,
    EXIT_OK,
    NeuralConfig,
    PipelineConfig,
    cmd_augment,
    cmd_classify,
    cmd_enhance,
    cmd_evaluate,
    cmd_report,
    cmd_split,
)
from aquaclear.synth import write_corpus

from conftest import constant_image, random_image


@pytest.fixture
def config():
    return PipelineConfig()


def corpus(directory, count=6, size=32):
    directory.mkdir(parents=True, exist_ok=True)
    return write_corpus(directory, count=count, seed=0, size=size)


def break_manifest(manifest, case):
    """Damage a saved manifest in one of the ways a user's file can be broken."""
    if case == "not_json":
        manifest.write_text("{not json")
    elif case == "root_not_object":
        manifest.write_text("[1, 2]")
    elif case == "no_layers":
        manifest.write_text(json.dumps({"extractor": "vgg_head"}))
    elif case == "blob_missing":
        (manifest.parent / "weights.bin").unlink()
    elif case == "manifest_missing":
        manifest.unlink()


MANIFEST_DAMAGE = ("not_json", "root_not_object", "no_layers", "blob_missing",
                   "manifest_missing")


class TestConfig:
    def test_defaults(self, config):
        assert config.seed == 7
        assert config.threads == 1
        assert config.split_ratios == (8.0, 1.0, 1.0)
        assert config.neural.method == "classic"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"colour": {}})

    def test_from_dict_rejects_bad_section_values(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"clahe": {"clip_limit": 0.5}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"nlm": {"patch_radius": 5, "window_radius": 2}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"thresholds": {"no_such_field": 1}})

    def test_split_ratios_validated(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"split": {"ratios": [1, 0, 1]}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"split": {"ratios": [1, 1]}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"split": 5})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"split": {"ratios": [8, 1, 1], "shuffle": True}})

    def test_threads_validated(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"threads": 0})

    def test_load_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(CsvParseError):
            PipelineConfig.load(path)

    def test_load_non_object_root(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            PipelineConfig.load(path)

    def test_load_round_trips_sections(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "thresholds": {"cast_ratio": 0.3},
            "neural": {"method": "vgg", "gain": 0.25},
            "split": {"ratios": [6, 2, 2]},
            "seed": 11,
        }))
        cfg = PipelineConfig.load(path)
        assert cfg.thresholds.cast_ratio == 0.3
        assert cfg.neural.method == "vgg"
        assert cfg.split_ratios == (6.0, 2.0, 2.0)
        assert cfg.seed == 11

    def test_plan_overrides_cover_tunable_steps(self, config):
        overrides = config.plan_overrides()
        assert set(overrides) == {StepKind.CLAHE, StepKind.DENOISE, StepKind.SHARPEN}
        assert overrides[StepKind.DENOISE]["h"] == 0.1


class TestClassify:
    def test_writes_all_three_csvs(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=6)
        out = tmp_path / "out"
        assert cmd_classify(src, config, out) == EXIT_OK
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "file,cast,lowlight,blur,category"
        assert len(labels) == 7
        assert len((out / "summary.csv").read_text().splitlines()) == 9
        assert len((out / "cooccurrence.csv").read_text().splitlines()) == 9

    def test_corrupt_file_skipped(self, tmp_path, config, capsys):
        src = tmp_path / "in"
        corpus(src, count=3)
        (src / "broken.ppm").write_bytes(b"P6\n10 10\n255\nshort")
        out = tmp_path / "out"
        assert cmd_classify(src, config, out) == EXIT_OK
        text = (out / "labels.csv").read_text()
        assert "broken.ppm" not in text
        assert len(text.splitlines()) == 4
        assert "broken.ppm" in capsys.readouterr().err

    def test_empty_dir_exits_two(self, tmp_path, config):
        src = tmp_path / "in"
        src.mkdir()
        assert cmd_classify(src, config, tmp_path / "out") == EXIT_EMPTY

    def test_only_corrupt_exits_two(self, tmp_path, config):
        src = tmp_path / "in"
        src.mkdir()
        (src / "bad.ppm").write_bytes(b"garbage")
        assert cmd_classify(src, config, tmp_path / "out") == EXIT_EMPTY


class TestEnhance:
    def test_classic_outputs_and_log(self, tmp_path, config):
        src = tmp_path / "in"
        names = corpus(src, count=4)
        out = tmp_path / "out"
        assert cmd_enhance(src, config, out, method="classic") == EXIT_OK
        produced = sorted(p.name for p in out.glob("*.ppm"))
        assert produced == sorted(f"{n.stem}.classic.ppm" for n in names)
        records = [
            json.loads(line)
            for line in (out / "enhance_log.jsonl").read_text().splitlines()
        ]
        assert len(records) == 4
        for rec in records:
            assert rec["method"] == "classic"
            assert set(rec["flags"]) == {"cast", "lowlight", "blur"}
            assert rec["output"].endswith(".classic.ppm")
            assert isinstance(rec["plan"], list)

    @pytest.mark.parametrize("method", ["vgg", "resnet", "unite"])
    def test_neural_methods_produce_output(self, tmp_path, config, method):
        src = tmp_path / "in"
        corpus(src, count=2)
        out = tmp_path / "out"
        assert cmd_enhance(src, config, out, method=method) == EXIT_OK
        outputs = list(out.glob(f"*.{method}.ppm"))
        assert len(outputs) == 2
        img = load_ppm(outputs[0])
        assert (img.height, img.width) == (32, 32)

    def test_odd_input_center_cropped(self, tmp_path, config, rng):
        src = tmp_path / "in"
        src.mkdir()
        save_ppm(random_image(rng, 33, 33), src / "odd.ppm")
        out = tmp_path / "out"
        assert cmd_enhance(src, config, out, method="vgg") == EXIT_OK
        img = load_ppm(out / "odd.vgg.ppm")
        assert (img.height, img.width) == (32, 32)
        rec = json.loads((out / "enhance_log.jsonl").read_text())
        assert rec["cropped"] == [32, 32]

    def test_fifty_pixel_input_cropped_for_unite(self, tmp_path, config, rng):
        # resnet stem halves 50 to 25 which cannot pool; 48 is the next fit
        src = tmp_path / "in"
        src.mkdir()
        save_ppm(random_image(rng, 50, 50), src / "fifty.ppm")
        out = tmp_path / "out"
        assert cmd_enhance(src, config, out, method="unite") == EXIT_OK
        img = load_ppm(out / "fifty.unite.ppm")
        assert (img.height, img.width) == (48, 48)

    def test_missing_manifest_exits_three(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=1)
        cfg = PipelineConfig(
            neural=NeuralConfig(vgg_manifest=str(tmp_path / "nowhere" / "manifest.json"))
        )
        assert cmd_enhance(src, cfg, tmp_path / "out", method="vgg") == EXIT_MISSING_WEIGHTS

    def test_corrupt_manifest_exits_three(self, tmp_path, config):
        from aquaclear.neural import build_vgg_head, init_weights, save_weights

        src = tmp_path / "in"
        corpus(src, count=1)
        manifest = save_weights(init_weights(build_vgg_head(4), seed=1), tmp_path / "w")
        blob = manifest.parent / "weights.bin"
        blob.write_bytes(blob.read_bytes()[:-64])
        cfg = PipelineConfig(neural=NeuralConfig(vgg_manifest=str(manifest)))
        assert cmd_enhance(src, cfg, tmp_path / "out", method="vgg") == EXIT_MISSING_WEIGHTS

    @pytest.mark.parametrize("case", MANIFEST_DAMAGE)
    def test_damaged_manifest_exits_three(self, tmp_path, case):
        from aquaclear.neural import build_vgg_head, init_weights, save_weights

        src = tmp_path / "in"
        corpus(src, count=1)
        manifest = save_weights(init_weights(build_vgg_head(4), seed=1), tmp_path / "w")
        break_manifest(manifest, case)
        cfg = PipelineConfig(neural=NeuralConfig(vgg_manifest=str(manifest)))
        assert cmd_enhance(src, cfg, tmp_path / "out", method="vgg") == EXIT_MISSING_WEIGHTS

    def test_skip_record_holds_base_names_only(self, tmp_path, config, capsys):
        src = tmp_path / "in"
        corpus(src, count=2)
        (src / "broken.ppm").write_bytes(b"P6\n10 10\n255\nshort")
        out = tmp_path / "out"
        assert cmd_enhance(src, config, out, method="classic") == EXIT_OK
        log = (out / "enhance_log.jsonl").read_text()
        records = [json.loads(line) for line in log.splitlines()]
        assert [r["file"] for r in records if "error" in r] == ["broken.ppm"]
        assert str(tmp_path) not in log
        assert "skipping broken.ppm" in capsys.readouterr().err

    def test_unknown_method_exits_four(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=1)
        assert cmd_enhance(src, config, tmp_path / "out", method="gan") == EXIT_BAD_PARAMS

    def test_empty_dir_exits_two(self, tmp_path, config):
        src = tmp_path / "in"
        src.mkdir()
        assert cmd_enhance(src, config, tmp_path / "out") == EXIT_EMPTY

    def test_verbose_log_carries_step_traces(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=2)
        out = tmp_path / "out"
        assert cmd_enhance(src, config, out, method="classic", verbose=True) == EXIT_OK
        records = [
            json.loads(line)
            for line in (out / "enhance_log.jsonl").read_text().splitlines()
        ]
        traced = [r for r in records if r.get("plan")]
        assert traced
        for rec in traced:
            assert len(rec["steps"]) == len(rec["plan"])
            for step in rec["steps"]:
                assert len(step["means"]) == 3
                assert "laplacian_variance" in step


class TestEvaluate:
    def build_eval_dir(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=3)
        enhanced = tmp_path / "enhanced"
        cmd_enhance(src, config, enhanced, method="classic")
        (enhanced / "enhance_log.jsonl").unlink()
        return src, enhanced

    def test_scores_with_references(self, tmp_path, config):
        src, enhanced = self.build_eval_dir(tmp_path, config)
        out = tmp_path / "out"
        assert cmd_evaluate(enhanced, config, reference_dir=src, output_dir=out) == EXIT_OK
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0].startswith("image,method,psnr")
        data = [l.split(",") for l in lines[1:]]
        classic_rows = [r for r in data if r[1] == "Classic" and r[0] != "mean"]
        assert len(classic_rows) == 3
        assert all(r[2] not in ("",) for r in classic_rows)  # psnr present

    def test_without_references_psnr_empty(self, tmp_path, config):
        _, enhanced = self.build_eval_dir(tmp_path, config)
        out = tmp_path / "out"
        assert cmd_evaluate(enhanced, config, output_dir=out) == EXIT_OK
        lines = (out / "scores.csv").read_text().splitlines()
        for row in lines[1:]:
            assert row.split(",")[2] == ""

    def test_reference_dir_from_config(self, tmp_path, config):
        src, enhanced = self.build_eval_dir(tmp_path, config)
        cfg = PipelineConfig(reference_dir=str(src))
        out = tmp_path / "out"
        assert cmd_evaluate(enhanced, cfg, output_dir=out) == EXIT_OK
        first = (out / "scores.csv").read_text().splitlines()[1]
        assert first.split(",")[2] != ""

    def test_shape_mismatched_reference_ignored(self, tmp_path, config, rng):
        enhanced = tmp_path / "enhanced"
        enhanced.mkdir()
        save_ppm(random_image(rng, 16, 16), enhanced / "a.classic.ppm")
        refs = tmp_path / "refs"
        refs.mkdir()
        save_ppm(random_image(rng, 8, 8), refs / "a.ppm")
        out = tmp_path / "out"
        assert cmd_evaluate(enhanced, config, reference_dir=refs, output_dir=out) == EXIT_OK
        row = (out / "scores.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == ""

    def test_original_label_for_plain_names(self, tmp_path, config, rng):
        d = tmp_path / "enhanced"
        d.mkdir()
        save_ppm(random_image(rng, 16, 16), d / "plain.ppm")
        out = tmp_path / "out"
        assert cmd_evaluate(d, config, output_dir=out) == EXIT_OK
        row = (out / "scores.csv").read_text().splitlines()[1]
        assert row.split(",")[:2] == ["plain", "Original"]

    def test_empty_dir_exits_two(self, tmp_path, config):
        d = tmp_path / "empty"
        d.mkdir()
        assert cmd_evaluate(d, config, output_dir=tmp_path / "out") == EXIT_EMPTY


class TestSplit:
    def read_buckets(self, out):
        lines = (out / "split.csv").read_text().splitlines()
        assert lines[0] == "file,bucket"
        pairs = [l.split(",") for l in lines[1:]]
        return {name: bucket for name, bucket in pairs}

    def test_ten_files_split_8_1_1(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=10)
        out = tmp_path / "out"
        assert cmd_split(src, config, out) == EXIT_OK
        buckets = self.read_buckets(out)
        counts = {b: 0 for b in ("train", "val", "test")}
        for b in buckets.values():
            counts[b] += 1
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_twelve_files_largest_remainder(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=12)
        out = tmp_path / "out"
        assert cmd_split(src, config, out) == EXIT_OK
        counts = {}
        for b in self.read_buckets(out).values():
            counts[b] = counts.get(b, 0) + 1
        assert counts == {"train": 10, "val": 1, "test": 1}

    def test_rows_follow_sorted_file_order(self, tmp_path, config):
        src = tmp_path / "in"
        names = corpus(src, count=5)
        out = tmp_path / "out"
        cmd_split(src, config, out)
        lines = (out / "split.csv").read_text().splitlines()[1:]
        assert [l.split(",")[0] for l in lines] == sorted(n.name for n in names)

    def test_same_seed_reproduces_split(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=10)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_split(src, config, out_a, seed=3)
        cmd_split(src, config, out_b, seed=3)
        assert (out_a / "split.csv").read_bytes() == (out_b / "split.csv").read_bytes()

    def test_different_seed_changes_assignment(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=12)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_split(src, config, out_a, seed=1)
        cmd_split(src, config, out_b, seed=2)
        assert (out_a / "split.csv").read_text() != (out_b / "split.csv").read_text()

    def test_fewer_than_three_exits_two(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=2)
        assert cmd_split(src, config, tmp_path / "out") == EXIT_EMPTY


class TestAugment:
    def test_sample_counts_and_names(self, tmp_path, config):
        src = tmp_path / "in"
        names = corpus(src, count=3)
        out = tmp_path / "out"
        assert cmd_augment(src, config, out) == EXIT_OK
        produced = sorted(p.name for p in out.glob("*.ppm"))
        want = sorted(
            f"{n.stem}.aug{k}.ppm" for n in names for k in range(2)
        )
        assert produced == want
        img = load_ppm(out / produced[0])
        assert (img.height, img.width) == (26, 26)  # round(0.8 * 32)

    def test_deterministic_across_runs(self, tmp_path, config):
        src = tmp_path / "in"
        corpus(src, count=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_augment(src, config, out_a, seed=5)
        cmd_augment(src, config, out_b, seed=5)
        for path in sorted(out_a.glob("*.ppm")):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_identity_settings_copy_the_image(self, tmp_path):
        from aquaclear.pipeline import AugmentConfig

        src = tmp_path / "in"
        corpus(src, count=1)
        cfg = PipelineConfig(
            augment=AugmentConfig(crop_fraction=1.0, jitter_amplitude=0.0,
                                  samples_per_image=1)
        )
        out = tmp_path / "out"
        assert cmd_augment(src, cfg, out) == EXIT_OK
        src_file = next(src.glob("*.ppm"))
        out_file = next(out.glob("*.ppm"))
        assert out_file.read_bytes() == src_file.read_bytes()

    def test_empty_crop_exits_four(self, tmp_path):
        from aquaclear.pipeline import AugmentConfig

        src = tmp_path / "in"
        src.mkdir()
        save_ppm(constant_image(0.5, h=8, w=8), src / "tiny.ppm")
        cfg = PipelineConfig(augment=AugmentConfig(crop_fraction=0.01))
        assert cmd_augment(src, cfg, tmp_path / "out") == EXIT_BAD_PARAMS

    def test_empty_dir_exits_two(self, tmp_path, config):
        src = tmp_path / "in"
        src.mkdir()
        assert cmd_augment(src, config, tmp_path / "out") == EXIT_EMPTY

    def test_only_unreadable_exits_two(self, tmp_path, config):
        src = tmp_path / "in"
        src.mkdir()
        (src / "bad.ppm").write_bytes(b"garbage")
        assert cmd_augment(src, config, tmp_path / "out") == EXIT_EMPTY


class TestSkipPolicy:
    """One bad image is skipped with a stderr line; the rest of the batch runs."""

    # command -> (runner, bad image or None for corrupt bytes, text outputs)
    CASES = {
        "classify": (lambda src, out, cfg: cmd_classify(src, cfg, out),
                     None, ("labels.csv",)),
        "enhance": (lambda src, out, cfg: cmd_enhance(src, cfg, out, method="classic"),
                    constant_image(0.5, h=5, w=5), ("enhance_log.jsonl",)),
        "evaluate": (lambda src, out, cfg: cmd_evaluate(src, cfg, output_dir=out),
                     constant_image(0.5, h=6, w=6), ("scores.csv",)),
        "augment": (lambda src, out, cfg: cmd_augment(src, cfg, out), None, ()),
    }
    SAMPLES = {"enhance": 1, "augment": 2}  # output PPMs per good image

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_one_bad_image_is_skipped(self, tmp_path, config, capsys, command):
        run, bad, outputs = self.CASES[command]
        src = tmp_path / "in"
        good = corpus(src, count=3)
        if bad is None:
            (src / "bad.ppm").write_bytes(b"P6\n10 10\n255\nshort")
        else:
            save_ppm(bad, src / "bad.ppm")
        out = tmp_path / "out"
        assert run(src, out, config) == EXIT_OK
        assert "skipping bad.ppm" in capsys.readouterr().err
        for name in outputs:
            text = (out / name).read_text()
            assert all(g.stem in text for g in good)
        produced = [p.name for p in out.glob("*.ppm")]
        assert not [n for n in produced if n.startswith("bad.")]
        assert len(produced) == self.SAMPLES.get(command, 0) * len(good)


LABELS_CSV = """file,cast,lowlight,blur,category
a.ppm,1,0,0,color_bias_only
b.ppm,0,0,0,no_issues
c.ppm,1,0,0,color_bias_only
"""

SCORES_CSV = """image,method,psnr,uciqe,uiqm,sigma_c,con_l,mu_s,uicm,uism,uiconm
a,Classic,20.000000,0.500000,1.000000,0.1,0.2,0.3,0.1,0.2,0.3
b,Classic,22.000000,0.600000,1.200000,0.1,0.2,0.3,0.1,0.2,0.3
mean,Classic,21.000000,0.550000,1.100000,0.1,0.2,0.3,0.1,0.2,0.3
"""


class TestReport:
    def test_report_md_and_csv(self, tmp_path, config):
        src = tmp_path / "results"
        src.mkdir()
        (src / "labels.csv").write_text(LABELS_CSV)
        (src / "scores.csv").write_text(SCORES_CSV)
        out = tmp_path / "out"
        assert cmd_report(src, config, out) == EXIT_OK
        md = (out / "report.md").read_text()
        assert "| 1 | Color bias only | 2 | 0.6667 |" in md
        assert "| Classic | 21.000000 | 0.550000 | 1.100000 |" in md
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "method,psnr,uciqe,uiqm"
        assert csv_lines[1] == "Classic,21.000000,0.550000,1.100000"

    def test_means_recomputed_when_absent(self, tmp_path, config):
        src = tmp_path / "results"
        src.mkdir()
        (src / "labels.csv").write_text(LABELS_CSV)
        (src / "scores.csv").write_text(
            "\n".join(SCORES_CSV.splitlines()[:3]) + "\n"
        )
        out = tmp_path / "out"
        assert cmd_report(src, config, out) == EXIT_OK
        assert "Classic,21.000000,0.550000,1.100000" in (out / "report.csv").read_text()

    def test_missing_scores_still_reports_categories(self, tmp_path, config):
        src = tmp_path / "results"
        src.mkdir()
        (src / "labels.csv").write_text(LABELS_CSV)
        out = tmp_path / "out"
        assert cmd_report(src, config, out) == EXIT_OK
        md = (out / "report.md").read_text()
        assert "No quality scores" in md
        assert (out / "report.csv").read_text().splitlines() == ["method,psnr,uciqe,uiqm"]

    def test_malformed_labels_row_names_line(self, tmp_path, config, capsys):
        src = tmp_path / "results"
        src.mkdir()
        (src / "labels.csv").write_text(
            "file,cast,lowlight,blur,category\na.ppm,1,0,0,not_a_category\n"
        )
        assert cmd_report(src, config, tmp_path / "out") == EXIT_EMPTY
        assert "line 2" in capsys.readouterr().err

    def test_malformed_scores_row_names_line(self, tmp_path, config, capsys):
        src = tmp_path / "results"
        src.mkdir()
        (src / "labels.csv").write_text(LABELS_CSV)
        (src / "scores.csv").write_text(
            SCORES_CSV.splitlines()[0] + "\na,Classic,20.0\n"
        )
        assert cmd_report(src, config, tmp_path / "out") == EXIT_EMPTY
        assert "line 2" in capsys.readouterr().err

    def test_missing_labels_exits_two(self, tmp_path, config):
        src = tmp_path / "results"
        src.mkdir()
        assert cmd_report(src, config, tmp_path / "out") == EXIT_EMPTY


class TestCli:
    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc or {}))
        return str(path)

    def test_classify_end_to_end(self, tmp_path):
        src = tmp_path / "in"
        corpus(src, count=3)
        out = tmp_path / "out"
        code = main([
            "classify", "--config", self.write_config(tmp_path),
            "--input", str(src), "--output", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "labels.csv").exists()

    def test_bad_json_config_exits_two(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{oops")
        assert main(["classify", "--config", str(path)]) == EXIT_EMPTY

    def test_unknown_config_key_exits_four(self, tmp_path):
        assert main([
            "classify", "--config", self.write_config(tmp_path, {"bogus": 1}),
        ]) == EXIT_BAD_PARAMS

    def test_negative_seed_exits_four(self, tmp_path):
        src = tmp_path / "in"
        corpus(src, count=3)
        code = main([
            "split", "--config", self.write_config(tmp_path),
            "--input", str(src), "--seed", "-1",
        ])
        assert code == EXIT_BAD_PARAMS

    def test_negative_config_seed_exits_four(self, tmp_path):
        src = tmp_path / "in"
        corpus(src, count=3)
        code = main([
            "split", "--config", self.write_config(tmp_path, {"seed": -1}),
            "--input", str(src), "--output", str(tmp_path / "out"),
        ])
        assert code == EXIT_BAD_PARAMS

    def test_unknown_command_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["polish", "--config", self.write_config(tmp_path)])
        assert exc_info.value.code == 2

    def test_bad_method_exits_four(self, tmp_path):
        src = tmp_path / "in"
        corpus(src, count=1)
        code = main([
            "enhance", "--config", self.write_config(tmp_path),
            "--input", str(src), "--output", str(tmp_path / "out"),
            "--method", "gan",
        ])
        assert code == EXIT_BAD_PARAMS

    def test_threads_config_round_trip(self, tmp_path):
        src = tmp_path / "in"
        corpus(src, count=4)
        out = tmp_path / "out"
        code = main([
            "classify", "--config", self.write_config(tmp_path, {"threads": 4}),
            "--input", str(src), "--output", str(out),
        ])
        assert code == EXIT_OK
