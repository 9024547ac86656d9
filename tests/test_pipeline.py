"""Batch commands, config handling, and the CLI front end."""

import json
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aquaclear.pipeline as pipeline
from aquaclear.cli import main
from aquaclear.classify import DegradationFlags
from aquaclear.errors import ConfigError, CsvParseError, IoFailureError
from aquaclear.enhance import StepKind, build_plan
from aquaclear.image import load_ppm, save_ppm
from aquaclear.metrics import METHOD_LABELS, METHOD_ORDER
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

from conftest import (
    FUZZ,
    JSON_VALUES,
    byte_edits,
    constant_image,
    fail_writes_midway,
    mutate,
    random_image,
)


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
    elif case == "deep_nesting":
        manifest.write_text("[" * 200000 + "]" * 200000)
    else:
        doc = json.loads(manifest.read_text())
        first = doc["layers"][0]
        if case == "entries_not_objects":
            doc["layers"] = [1] * len(doc["layers"])
        elif case == "entry_lacks_key":
            del first["byte_length"]
        elif case == "shape_not_ints":
            first["shape"] = 64
        elif case == "negative_offset":
            first["byte_offset"] = -4
        elif case == "offset_not_int":
            first["byte_offset"] = 0.5
        elif case == "blob_not_string":
            doc["blob"] = 5
        elif case == "blob_name_has_nul":
            doc["blob"] = "weights\u0000.bin"
        manifest.write_text(json.dumps(doc))


MANIFEST_DAMAGE = ("not_json", "root_not_object", "no_layers", "blob_missing",
                   "manifest_missing", "entries_not_objects", "entry_lacks_key",
                   "shape_not_ints", "negative_offset", "offset_not_int",
                   "blob_not_string", "blob_name_has_nul", "deep_nesting")


class TestConfig:
    def test_defaults(self, config):
        assert config.seed == 7
        assert config.threads == 1
        assert config.split.ratios == (8.0, 1.0, 1.0)
        assert config.neural.method == "classic"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"colour": {}})
        with pytest.raises(ConfigError, match=r"\['neural.seed'\]"):
            PipelineConfig.from_dict({"neural": {"seed": 7}})

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

    # Each bound keeps one number from asking for a huge allocation or
    # hours of work; from_dict builds the config and allocates nothing.
    @pytest.mark.parametrize("section, key, bound", [
        ("nlm", "patch_radius", 10),
        ("nlm", "window_radius", 32),
        ("clahe", "tiles_x", 64),
        ("clahe", "tiles_y", 64),
        ("clahe", "bins", 4096),
        ("augment", "samples_per_image", 100),
    ])
    def test_size_bounds(self, section, key, bound):
        doc = {section: {key: bound}}
        if key == "patch_radius":
            doc["nlm"]["window_radius"] = 32
        cfg = PipelineConfig.from_dict(doc)
        assert getattr(getattr(cfg, section), key) == bound
        doc[section][key] = bound + 1
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(doc)

    def test_threads_validated(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"threads": 0})

    # Each used to escape as a traceback, or was accepted and then made
    # every image fail.
    @pytest.mark.parametrize("text", [
        '{"seed": 1e999}',
        '{"threads": 1e999}',
        '{"augment": {"samples_per_image": 1.5}}',
        '{"nlm": {"patch_radius": 2.5}}',
        '{"clahe": {"tiles_x": 1e999}}',
        '{"sharpen": {"strength": NaN}}',
        '{"seed": true}',
        '{"threads": "2"}',
        pytest.param('{"thresholds": {"cast_ratio": 1' + "0" * 400 + '}}',
                     id="int-too-large-for-a-float"),
        '{"split": {"ratios": [8, NaN, 1]}}',
        '{"neural": {"vgg_manifest": 5}}',
        '{"output_dir": 5}',
        '{"reference_dir": {}}',
        '{"nlm": {"window_radius": 2000000000}}',
    ])
    def test_unfit_field_value_exits_four(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            PipelineConfig.load(path)
        code = main(["classify", "--config", str(path), "--input", str(tmp_path)])
        assert code == EXIT_BAD_PARAMS
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    # A NUL used to reach the file system: a traceback with exit 1 for
    # output_dir, and "no reference" for reference_dir.
    @pytest.mark.parametrize("doc", [
        {"output_dir": "a\0b"},
        {"reference_dir": "refs\0"},
        {"neural": {"vgg_manifest": "\0vgg.json"}},
        {"neural": {"resnet_manifest": "res\0net.json"}},
    ])
    def test_nul_in_path_exits_four(self, tmp_path, capsys, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        corpus(tmp_path / "in", count=2)
        code = main(["classify", "--config", str(path), "--input", str(tmp_path / "in")])
        assert code == EXIT_BAD_PARAMS
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and "NUL" in err[0] and err[0].startswith("config error:")

    # A bad sharpen section used to read "config error: sharpen strength
    # must be >= 0", worded unlike every other section. A strength of 1e308
    # used to be accepted and overflow in sharpen with a numpy warning.
    @pytest.mark.parametrize("section, reason", [
        ({"strength": -1}, "strength must be >= 0, got -1"),
        ({"strength": 1e308}, "strength must be <= 1000, got 1e+308"),
        ({"kernel_mode": "box"}, "unknown kernel_mode 'box'"),
    ], ids=["negative-strength", "huge-strength", "unknown-kernel-mode"])
    def test_bad_sharpen_section_exits_four(self, tmp_path, capsys, section, reason):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sharpen": section}))
        corpus(tmp_path / "in", count=2)
        out = tmp_path / "out"
        code = main(["enhance", "--config", str(path), "--input", str(tmp_path / "in"),
                     "--output", str(out)])
        assert code == EXIT_BAD_PARAMS
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: bad sharpen section: {reason}"]
        assert not out.exists()

    # neural, split and augment used to print "config error: <reason>"
    # without their section's name, unlike the other four sections.
    @pytest.mark.parametrize("section, values, reason", [
        pytest.param("thresholds", {"cast_ratio": 0}, "cast_ratio must be positive",
                     id="thresholds"),
        pytest.param("clahe", {"bins": 1}, "bins must lie in [2, 4096]", id="clahe"),
        pytest.param("nlm", {"patch_radius": 11}, "patch_radius must lie in [0, 10]",
                     id="nlm"),
        pytest.param("sharpen", {"strength": 1001}, "strength must be <= 1000, got 1001",
                     id="sharpen"),
        pytest.param("neural", {"gain": -1}, "gain must be >= 0", id="neural"),
        pytest.param("split", {"ratios": [1, 0, 1]}, "ratios must be three positive numbers",
                     id="split"),
        # a sum of inf used to zero every share, and split on five files
        # ended in a KeyError traceback
        pytest.param("split", {"ratios": [1e308, 1e308, 1]}, "ratios must have a finite sum",
                     id="split-sum-overflows"),
        pytest.param("augment", {"crop_fraction": 0}, "crop_fraction must lie in (0, 1]",
                     id="augment"),
    ])
    def test_bad_section_value_names_the_section(self, tmp_path, capsys, section,
                                                 values, reason):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: values}))
        assert main(["split", "--config", str(path), "--input", str(tmp_path)]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: bad {section} section: {reason}"]

    # A tiny h used to make NLM fail on every blurred image ("float division
    # by zero", or non-finite samples after a numpy warning), each skipped,
    # with exit 0. Every h under the bound is now rejected before any image
    # is read.
    @pytest.mark.parametrize("h", [float(np.nextafter(1e-6, 0.0)), 1e-160, 1e-200],
                             ids=["just-below", "1e-160", "1e-200"])
    def test_nlm_h_below_bound_exits_four(self, tmp_path, capsys, h):
        assert PipelineConfig.from_dict({"nlm": {"h": 1e-6}}).nlm.h == 1e-6
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nlm": {"h": h}}))
        corpus(tmp_path / "in", count=2)
        out = tmp_path / "out"
        code = main(["enhance", "--config", str(path), "--input", str(tmp_path / "in"),
                     "--output", str(out)])
        assert code == EXIT_BAD_PARAMS
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: bad nlm section: h must be >= 1e-6"]
        assert not out.exists()

    def test_integers_fill_float_fields(self):
        cfg = PipelineConfig.from_dict({"nlm": {"h": 1}, "neural": {"gain": 0}})
        assert cfg.nlm.h == 1 and cfg.neural.gain == 0

    def test_load_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(CsvParseError):
            PipelineConfig.load(path)

    # Each used to escape as a traceback with exit 1.
    @pytest.mark.parametrize("raw", [
        pytest.param(b"\xff\xfe{}", id="not-utf-8"),
        pytest.param(b"[" * 100000, id="deep-array"),
        pytest.param(b'{"a":' * 100000, id="deep-object"),
        pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", id="integer-past-digit-limit"),
    ])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        with pytest.raises(CsvParseError):
            PipelineConfig.load(path)
        assert main(["classify", "--config", str(path)]) == EXIT_EMPTY
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

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
        assert cfg.split.ratios == (6.0, 2.0, 2.0)
        assert cfg.seed == 11

    def test_plan_overrides_cover_tunable_steps(self):
        config = PipelineConfig.from_dict({
            "clahe": {"bins": 64}, "nlm": {"h": 0.3}, "sharpen": {"strength": 0.5},
        })
        overrides = config.plan_overrides()
        assert set(overrides) == {StepKind.CLAHE, StepKind.DENOISE, StepKind.SHARPEN}
        # the plan's steps hold the config's own objects
        plan = build_plan(DegradationFlags(True, True, True), overrides)
        params = {step.kind: step.params for step in plan}
        assert params[StepKind.GRAY_WORLD] is None
        assert params[StepKind.CLAHE] is config.clahe
        assert params[StepKind.DENOISE] is config.nlm
        assert params[StepKind.SHARPEN] is config.sharpen


# Keys are mostly real ones, so most documents get past the unknown-key
# check; "bogus" stands for every unknown key.
TOP_KEYS = sorted(f.name for f in fields(PipelineConfig))
SECTION_KEYS = sorted(
    {f.name for sec in vars(PipelineConfig()).values() if is_dataclass(sec)
     for f in fields(sec)}
)
CONFIG_DOCS = st.dictionaries(
    st.sampled_from(TOP_KEYS + ["bogus"]),
    st.dictionaries(st.sampled_from(SECTION_KEYS + ["bogus"]), JSON_VALUES, max_size=3)
    | JSON_VALUES,
    max_size=4,
)


class TestConfigFuzz:
    """Whatever the JSON document, from_dict builds a config or raises
    ConfigError. Only the config is built: no command runs with it."""

    @FUZZ
    @given(doc=CONFIG_DOCS)
    def test_random_documents(self, doc):
        try:
            cfg = PipelineConfig.from_dict(doc)
        except ConfigError:
            return
        assert type(cfg.seed) is int and cfg.seed >= 0
        assert type(cfg.threads) is int and cfg.threads >= 1


VALID_CONFIG = json.dumps({
    "thresholds": {"cast_ratio": 0.3},
    "neural": {"method": "vgg", "gain": 0.25},
    "split": {"ratios": [6, 2, 2]},
    "augment": {"samples_per_image": 3},
    "seed": 11,
}).encode()


class TestConfigLoadFuzz:
    """Whatever the bytes of the config file, load builds a config or raises
    ConfigError or CsvParseError."""

    @staticmethod
    def check(path, raw):
        path.write_bytes(raw)
        try:
            PipelineConfig.load(path)
        except (ConfigError, CsvParseError):
            pass

    @FUZZ
    @given(raw=st.binary(max_size=64))
    def test_random_bytes(self, tmp_path, raw):
        self.check(tmp_path / "config.json", raw)

    @FUZZ
    @given(edits=byte_edits(len(VALID_CONFIG)))
    def test_mutated_valid_config(self, tmp_path, edits):
        self.check(tmp_path / "config.json", mutate(VALID_CONFIG, edits))


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
        manifest = save_weights(init_weights(build_vgg_head(), seed=1), tmp_path / "w")
        blob = manifest.parent / "weights.bin"
        blob.write_bytes(blob.read_bytes()[:-64])
        cfg = PipelineConfig(neural=NeuralConfig(vgg_manifest=str(manifest)))
        assert cmd_enhance(src, cfg, tmp_path / "out", method="vgg") == EXIT_MISSING_WEIGHTS

    @pytest.mark.parametrize("case", MANIFEST_DAMAGE)
    def test_damaged_manifest_exits_three(self, tmp_path, capsys, case):
        from aquaclear.neural import build_vgg_head, init_weights, save_weights

        src = tmp_path / "in"
        corpus(src, count=1)
        manifest = save_weights(init_weights(build_vgg_head(), seed=1), tmp_path / "w")
        break_manifest(manifest, case)
        cfg = PipelineConfig(neural=NeuralConfig(vgg_manifest=str(manifest)))
        assert cmd_enhance(src, cfg, tmp_path / "out", method="vgg") == EXIT_MISSING_WEIGHTS
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cannot load weights:")

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
        skip_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("skipping")
        ]
        assert len(skip_lines) == 1
        assert skip_lines[0].startswith("skipping broken.ppm: ")
        assert skip_lines[0].count("broken.ppm") == 1

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
        assert cmd_evaluate(enhanced, PipelineConfig(reference_dir=str(src)), output_dir=out) == EXIT_OK
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
        assert cmd_evaluate(enhanced, PipelineConfig(reference_dir=str(refs)), output_dir=out) == EXIT_OK
        row = (out / "scores.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == ""

    # A bare stem.ppm is the unenhanced original: it takes METHOD_ORDER[0],
    # so its mean row leads even when its file sorts after the others.
    def test_original_label_for_plain_names(self, tmp_path, config, rng):
        d = tmp_path / "enhanced"
        d.mkdir()
        for name in ("a.unite.ppm", "a.classic.ppm", "plain.ppm"):
            save_ppm(random_image(rng, 16, 16), d / name)
        out = tmp_path / "out"
        assert cmd_evaluate(d, config, output_dir=out) == EXIT_OK
        rows = [r.split(",")[:2] for r in (out / "scores.csv").read_text().splitlines()[1:]]
        assert rows[2] == ["plain", METHOD_ORDER[0]]
        means = [method for image, method in rows if image == "mean"]
        assert means == [METHOD_ORDER[0], METHOD_LABELS["unite"], METHOD_LABELS["classic"]]

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

    def test_empty_crop_skips_the_image(self, tmp_path, capsys):
        from aquaclear.pipeline import AugmentConfig

        src = tmp_path / "in"
        src.mkdir()
        save_ppm(constant_image(0.5, h=8, w=8), src / "tiny.ppm")
        # round(0.05 * 8) == 0, round(0.05 * 32) == 2
        cfg = PipelineConfig(augment=AugmentConfig(crop_fraction=0.05))
        assert cmd_augment(src, cfg, tmp_path / "alone") == EXIT_EMPTY
        capsys.readouterr()
        (big,) = corpus(src, count=1, size=32)
        out = tmp_path / "out"
        assert cmd_augment(src, cfg, out) == EXIT_OK
        skips = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("skipping")]
        assert skips == ["skipping tiny.ppm: 8x8 image too small for crop_fraction 0.05"]
        assert sorted(p.name for p in out.glob("*.ppm")) == [
            f"{big.stem}.aug0.ppm", f"{big.stem}.aug1.ppm"
        ]

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
        bad = self.CASES[command][1]
        src = tmp_path / "in"
        good = corpus(src, count=3)
        if bad is None:
            (src / "bad.ppm").write_bytes(b"P6\n10 10\n255\nshort")
        else:
            save_ppm(bad, src / "bad.ppm")
        self.check_skipped(tmp_path, config, capsys, command, good)

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_memory_error_is_skipped(self, tmp_path, config, capsys, monkeypatch,
                                     command):
        src = tmp_path / "in"
        good = corpus(src, count=3)
        save_ppm(constant_image(0.5, h=32, w=32), src / "bad.ppm")
        real_load = pipeline.load_ppm

        def load_ppm(path):
            if path.name == "bad.ppm":
                raise MemoryError("Unable to allocate 12.0 GiB")
            return real_load(path)

        monkeypatch.setattr(pipeline, "load_ppm", load_ppm)
        self.check_skipped(tmp_path, config, capsys, command, good)

    def check_skipped(self, tmp_path, config, capsys, command, good):
        """The command exits 0 with one skip line for bad.ppm and every
        output of the good images."""
        run, _, outputs = self.CASES[command]
        src, out = tmp_path / "in", tmp_path / "out"
        assert run(src, out, config) == EXIT_OK
        skips = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("skipping")]
        assert len(skips) == 1 and skips[0].startswith("skipping bad.ppm: ")
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


def run_report(tmp_path, capsys, labels, scores=None):
    """Run report on the given file bytes; return (exit code, stderr lines)."""
    src = tmp_path / "results"
    src.mkdir(exist_ok=True)
    (src / "labels.csv").write_bytes(labels)
    if scores is not None:
        (src / "scores.csv").write_bytes(scores)
    code = cmd_report(src, PipelineConfig(), tmp_path / "out")
    return code, capsys.readouterr().err.splitlines()


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

    def test_category_rows_match_summary_csv(self, tmp_path, config):
        work = tmp_path / "work"
        corpus(tmp_path / "in", count=12)
        assert cmd_classify(tmp_path / "in", config, work) == EXIT_OK
        assert cmd_report(work, config, work) == EXIT_OK
        summary = (work / "summary.csv").read_text().splitlines()[1:]
        md = (work / "report.md").read_text().split("## Method quality summary")[0]
        table = [line for line in md.splitlines() if line.startswith("| ")][2:]
        assert len(table) == len(summary) == 8
        for md_row, csv_row in zip(table, summary):
            assert md_row.strip("| ").split(" | ") == csv_row.split(",")

    # evaluate always writes mean rows, so a scores.csv without them is
    # not one of its outputs.
    def test_scores_without_mean_rows_exits_two(self, tmp_path, capsys):
        scores = "\n".join(SCORES_CSV.splitlines()[:3]) + "\n"
        code, err = run_report(tmp_path, capsys, LABELS_CSV.encode(), scores.encode())
        assert code == EXIT_EMPTY
        assert err == ["parse failure: scores.csv has no mean rows"]
        assert not (tmp_path / "out").exists()

    # Each used to escape as a traceback, or was copied into report.csv.
    @pytest.mark.parametrize("labels, scores", [
        pytest.param(b"\xff" + LABELS_CSV.encode(), None, id="labels-not-utf-8"),
        pytest.param(LABELS_CSV.encode(), b"\xff" + SCORES_CSV.encode(),
                     id="scores-not-utf-8"),
        pytest.param(LABELS_CSV.encode(),
                     (SCORES_CSV + "mean,Classic,abc,x,y,1,1,1,1,1,1\n").encode(),
                     id="mean-cells-not-numbers"),
        pytest.param(LABELS_CSV.encode(),
                     (SCORES_CSV + "mean,VGG19,20,0.5,nan,1,1,1,1,1,1\n").encode(),
                     id="mean-cell-nan"),
        pytest.param(LABELS_CSV.encode(),
                     (SCORES_CSV + "mean,VGG19,20,inf,1,1,1,1,1,1,1\n").encode(),
                     id="mean-uciqe-inf"),
        pytest.param(LABELS_CSV.encode(),
                     (SCORES_CSV + "mean,VGG19,20,,1,1,1,1,1,1,1\n").encode(),
                     id="mean-uciqe-empty"),
        pytest.param(LABELS_CSV.encode() + b'"' + b"x" * 200000 + b'"\n', None,
                     id="field-past-csv-limit"),
        pytest.param(LABELS_CSV.encode() + b'd.ppm,1,0,0,"no\nsuch"\n', None,
                     id="row-with-quoted-newline"),
        pytest.param(LABELS_CSV.encode(), (SCORES_CSV + SCORES_CSV.splitlines()[3]).encode(),
                     id="two-mean-rows-one-method"),
    ])
    def test_unusable_input_exits_two_with_one_line(self, tmp_path, capsys, labels, scores):
        code, err = run_report(tmp_path, capsys, labels, scores)
        assert code == EXIT_EMPTY
        assert len(err) == 1 and err[0].startswith("parse failure: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("psnr", ["", "inf"])
    def test_mean_psnr_may_be_empty_or_inf(self, tmp_path, capsys, psnr):
        scores = SCORES_CSV.replace("mean,Classic,21.000000", f"mean,Classic,{psnr}")
        code, _ = run_report(tmp_path, capsys, LABELS_CSV.encode(), scores.encode())
        assert code == EXIT_OK
        assert (tmp_path / "out" / "report.csv").read_text().splitlines()[1] == (
            f"Classic,{psnr},0.550000,1.100000"
        )

    # Used to exit 0 and write the method twice into report.csv.
    def test_second_mean_row_for_a_method_exits_two(self, tmp_path, capsys):
        scores = SCORES_CSV + "mean,Classic,25,0.6,1.2,0.1,0.2,0.3,0.1,0.2,0.3\n"
        code, err = run_report(tmp_path, capsys, LABELS_CSV.encode(), scores.encode())
        assert code == EXIT_EMPTY
        assert err == ["parse failure: line 5: second mean row for 'Classic'"]
        assert not (tmp_path / "out").exists()

    def test_mean_rows_of_different_methods_are_kept(self, tmp_path, capsys):
        scores = SCORES_CSV + "mean,VGG19,25,0.6,1.2,0.1,0.2,0.3,0.1,0.2,0.3\n"
        code, _ = run_report(tmp_path, capsys, LABELS_CSV.encode(), scores.encode())
        assert code == EXIT_OK
        assert (tmp_path / "out" / "report.csv").read_text().splitlines()[1:] == [
            "Classic,21.000000,0.550000,1.100000", "VGG19,25,0.6,1.2",
        ]

    def test_parse_message_names_line_once(self, tmp_path, capsys):
        labels = LABELS_CSV + "x\n"
        code, err = run_report(tmp_path, capsys, labels.encode())
        assert code == EXIT_EMPTY
        assert err == ["parse failure: line 5: bad labels row: 'x'"]

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

    def test_failed_write_keeps_old_output(self, tmp_path, config, monkeypatch):
        src = tmp_path / "results"
        src.mkdir()
        (src / "labels.csv").write_text(LABELS_CSV)
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.md").write_text("old report\n")
        fail_writes_midway(monkeypatch)
        with pytest.raises(IoFailureError):
            cmd_report(src, config, out)
        assert [p.name for p in out.iterdir()] == ["report.md"]
        assert (out / "report.md").read_text() == "old report\n"

    def test_missing_labels_exits_two(self, tmp_path, config):
        src = tmp_path / "results"
        src.mkdir()
        assert cmd_report(src, config, tmp_path / "out") == EXIT_EMPTY


class TestReportFuzz:
    """Whatever the bytes of labels.csv and scores.csv, report exits 0, or 2
    with one stderr line."""

    @staticmethod
    def check(tmp_path, capsys, labels, scores):
        code, err = run_report(tmp_path, capsys, labels, scores)
        assert (code, err) == (EXIT_OK, []) or (code == EXIT_EMPTY and len(err) == 1)

    @FUZZ
    @given(labels=st.binary(max_size=64), scores=st.binary(max_size=64))
    def test_random_bytes(self, tmp_path, capsys, labels, scores):
        self.check(tmp_path, capsys, labels, scores)

    @FUZZ
    @given(scores=st.binary(max_size=64))
    def test_random_scores_bytes(self, tmp_path, capsys, scores):
        self.check(tmp_path, capsys, LABELS_CSV.encode(), scores)

    @FUZZ
    @given(label_edits=byte_edits(len(LABELS_CSV)), score_edits=byte_edits(len(SCORES_CSV)))
    def test_mutated_valid_files(self, tmp_path, capsys, label_edits, score_edits):
        self.check(tmp_path, capsys, mutate(LABELS_CSV.encode(), label_edits),
                   mutate(SCORES_CSV.encode(), score_edits))


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

    @pytest.mark.parametrize(
        "command", ["classify", "enhance", "evaluate", "split", "augment", "report"]
    )
    def test_unwritable_output_exits_four(self, tmp_path, capsys, command):
        src = tmp_path / "in"
        corpus(src, count=3)
        (src / "labels.csv").write_text(LABELS_CSV)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed\n")
        argv = [
            command, "--config", self.write_config(tmp_path),
            "--input", str(src), "--output", str(blocker / "out"),
        ]
        if command == "enhance":
            argv += ["--method", "classic"]
        assert main(argv) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_threads_config_round_trip(self, tmp_path):
        src = tmp_path / "in"
        corpus(src, count=4)
        out = tmp_path / "out"
        code = main([
            "classify", "--config", self.write_config(tmp_path, {"threads": 4}),
            "--input", str(src), "--output", str(out),
        ])
        assert code == EXIT_OK

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_warning_prints_one_line(self, tmp_path, capsys, threads):
        src = tmp_path / "in"
        src.mkdir()
        for i, side in enumerate((1, 4, 9)):
            save_ppm(constant_image(0.0, h=side, w=side), src / f"black{i}.ppm")
        code = main([
            "classify", "--config", self.write_config(tmp_path, {"threads": threads}),
            "--input", str(src), "--output", str(tmp_path / "out"),
        ])
        assert code == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: channel means too small for cast detection"] * 3

    @staticmethod
    def run_capped(argv):
        """Run the CLI in a child process under a 1 GiB address-space cap
        and a timeout, so a read that fills memory fails fast instead of
        taking the host."""
        package_root = Path(pipeline.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root), "OPENBLAS_NUM_THREADS": "1"}
        return subprocess.run(
            [sys.executable, "-m", "aquaclear.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )

    def enhance_vgg_capped(self, tmp_path, blob=None, manifest=None):
        """``enhance --method vgg`` under ``run_capped``, with saved VGG
        weights whose manifest names ``blob``, which ``blob(path)`` may
        rewrite first; ``manifest`` replaces the manifest path."""
        from aquaclear.neural import build_vgg_head, init_weights, save_weights

        src = tmp_path / "in"
        corpus(src, count=1)
        saved = save_weights(init_weights(build_vgg_head(), seed=1), tmp_path / "w")
        if blob is not None:
            doc = json.loads(saved.read_text())
            doc["blob"] = blob(saved.parent / doc["blob"])
            saved.write_text(json.dumps(doc))
        config = self.write_config(
            tmp_path, {"neural": {"vgg_manifest": manifest or str(saved)}}
        )
        return self.run_capped(["enhance", "--config", config, "--input", str(src),
                                "--output", str(tmp_path / "out"), "--method", "vgg"])

    def test_config_that_is_not_a_file_exits_two(self, tmp_path):
        """/dev/zero as the config used to end in a MemoryError traceback."""
        src = tmp_path / "in"
        corpus(src, count=1)
        proc = self.run_capped(["classify", "--config", "/dev/zero", "--input", str(src),
                                "--output", str(tmp_path / "out")])
        err = proc.stderr.splitlines()
        assert proc.returncode == EXIT_EMPTY, proc.stderr
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_manifest_that_is_not_a_file_exits_three(self, tmp_path):
        """/dev/zero as the manifest used to end in a MemoryError traceback."""
        proc = self.enhance_vgg_capped(tmp_path, manifest="/dev/zero")
        err = proc.stderr.splitlines()
        assert proc.returncode == EXIT_MISSING_WEIGHTS, proc.stderr
        assert len(err) == 1 and err[0].startswith("cannot load weights:")

    def test_blob_that_is_not_a_file_exits_three(self, tmp_path):
        """A manifest naming /dev/zero as its blob is refused before any read."""
        proc = self.enhance_vgg_capped(tmp_path, lambda weights: "/dev/zero")
        err = proc.stderr.splitlines()
        assert proc.returncode == EXIT_MISSING_WEIGHTS, proc.stderr
        assert len(err) == 1 and err[0].startswith("cannot load weights:")

    def test_blob_is_read_only_as_far_as_its_entries_go(self, tmp_path):
        """The real weights followed by a sparse 2 GiB tail: reading the
        whole blob used to end in a MemoryError traceback under the cap."""

        def huge(weights):
            with open(weights.parent / "huge.bin", "wb") as f:
                f.write(weights.read_bytes())
                f.truncate(2 << 30)
            return "huge.bin"

        proc = self.enhance_vgg_capped(tmp_path, huge)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "out" / "img_000.vgg.ppm").exists()


# Valid configs for the whole-command fuzz: the defaults, two pipeline
# threads, every flag forced with the smallest NLM and the largest paper-mode
# sharpening, and the most CLAHE tiles with a crop that is empty on tiny
# images (augment skips them).
COMMAND_FUZZ_CONFIGS = (
    {},
    {"threads": 2},
    {"thresholds": {"cast_ratio": 1e-9, "brightness_floor": 0.99, "sharpness_floor": 10.0},
     "nlm": {"patch_radius": 0, "window_radius": 1},
     "sharpen": {"strength": 1000, "kernel_mode": "paper"}},
    {"clahe": {"tiles_x": 64, "tiles_y": 64, "bins": 2}, "augment": {"crop_fraction": 0.01}},
)


def print_warning_as_python_does(message, category, filename, lineno, file=None,
                                 line=None):
    """Python's own warning display, which pytest replaces with a recorder."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


class TestCommandFuzz:
    """Every command, in pipeline order, on small black, white or random PPMs
    under a few valid configs and each enhance method, ends in a documented
    exit code with no traceback and no raw Python warning on stderr."""

    @settings(FUZZ, max_examples=40)
    @given(
        images=st.lists(
            st.tuples(st.integers(1, 32), st.integers(1, 32),
                      st.sampled_from(("black", "white", "random")),
                      st.integers(0, 2**32 - 1)),
            min_size=1, max_size=4,
        ),
        doc=st.sampled_from(COMMAND_FUZZ_CONFIGS),
        method=st.sampled_from(sorted(METHOD_LABELS)),
    )
    def test_every_command_ends_cleanly(self, tmp_path, capsys, images, doc, method):
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        src, out = run / "in", run / "out"
        src.mkdir()
        for i, (h, w, fill, seed) in enumerate(images):
            if fill == "random":
                rng = np.random.default_rng(seed)
                pixels = rng.integers(0, 256, h * w * 3, dtype=np.uint8).tobytes()
            else:
                pixels = bytes([0 if fill == "black" else 255]) * (h * w * 3)
            (src / f"img{i}.ppm").write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels)
        config = run / "config.json"
        config.write_text(json.dumps(doc))
        for command, input_dir in (("classify", src), ("enhance", src), ("evaluate", out),
                                   ("split", src), ("augment", src), ("report", out)):
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = print_warning_as_python_does
                code = main([command, "--config", str(config), "--input", str(input_dir),
                             "--output", str(out), "--method", method])
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_EMPTY, EXIT_MISSING_WEIGHTS, EXIT_BAD_PARAMS)
            for raw in ("Traceback", "Warning:", "warnings.warn("):
                assert raw not in err, (command, err)
