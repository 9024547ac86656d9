"""The package's public names, and what importing it loads."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import aquaclear
from aquaclear import errors

# import_module, because the package attribute ``classify`` is the function.
SUBMODULES = tuple(
    import_module(f"aquaclear.{name}")
    for name in ("classify", "enhance", "errors", "image", "metrics", "neural",
                 "pipeline", "synth")
)

# Names the package exported when it kept them in a hand-written list, less
# UnsupportedDepthError, deleted with build_vgg_head's depth,
# GrayscaleUnsupportedError, deleted when ImageF32 came to hold exactly three
# planes, QualityReport and EmptyBatchError, deleted when report_csv came to
# take the scored rows, DatasetReport, deleted when summarize came to
# return the counts, OddSpatialDimError, deleted when pooling came to
# drop an odd last row or column, and luminance, moved to the tests' BT.601
# oracle when no code of the package or its demos called it; none may be lost.
EXPORTED_BEFORE = """
AquaClearError BoundExtractor CastDiagnostics Category8 ChannelStats ClaheParams
ClassifierThresholds ConfigError ConvLayer CorruptBlobError CsvParseError
DegradationFlags DimMismatchError EmptyDatasetError
EnhancementPlan EvenKernelError ExtractorSpec ImageF32
ImageTooSmallError IndivisibleDimsError IoFailureError LayerSpec METHOD_LABELS
METHOD_ORDER MalformedHeaderError NearBlackImageWarning NegativeStrengthError
NlmParams NonIntegralOutputDimError PipelineConfig PlanStep
PlanStepError QualityScores RANK_ORDER ResidualBlock
ShapeMismatchError ShapeMismatchInManifestError StepKind TruncatedPayloadError
UCIQE_WEIGHTS UIQM_WEIGHTS UnsupportedMaxvalError
ZeroChannelMeanWarning __version__ apply_plan archetype_for_category
attention_adjust attention_map build_plan build_resnet_head build_vgg_head
channel_stats clahe_v classify cmd_augment cmd_classify cmd_enhance cmd_evaluate
cmd_report cmd_split conv2d_forward conv_output_dim convolve2d cooccurrence_csv
detect_blur detect_color_cast detect_low_light extract_features
feature_guided_enhance fuse_attention gray_world_correct hsv_to_rgb init_weights
laplacian_variance load_ppm load_weights make_archetype max_pool2
nlm_denoise psnr report_csv residual_forward rgb_to_hsv rgb_to_lab save_ppm
save_weights score_image sharpen summarize summary_csv uciqe uicm uiconm uiqm uism
write_corpus
""".split()


def test_all_is_version_plus_submodule_names():
    names = ["__version__"] + [n for m in SUBMODULES for n in m.__all__]
    assert len(names) == len(set(names))
    assert sorted(aquaclear.__all__) == sorted(names)


def test_every_name_resolves_to_its_submodule_object():
    assert aquaclear.__version__ == "0.1.0"
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(aquaclear, name) is getattr(module, name), name
    assert callable(aquaclear.classify)


def test_no_earlier_name_is_lost():
    assert len(EXPORTED_BEFORE) == 96
    assert set(EXPORTED_BEFORE) <= set(aquaclear.__all__)


def test_errors_exports_every_exception_and_warning_class():
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert set(errors.__all__) == defined
    assert "AquaClearError" in defined and "ZeroChannelMeanWarning" in defined


def test_importing_the_cli_loads_no_crypto_or_thread_pool():
    # hashlib pulls in libcrypto and concurrent.futures its executors, ~4 MB
    # of RSS in every CLI process; only augment and threaded runs use them
    src = str(Path(aquaclear.__file__).resolve().parents[1])
    code = ("import sys, aquaclear.cli; "
            "print(sorted({'_hashlib', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
