"""Run the whole batch pipeline on a synthetic corpus, end to end.

Equivalent to the CLI sequence

    aquaclear classify --config config.json --input corpus --output work
    aquaclear enhance  --config config.json --input corpus --output work/enhanced --method unite
    aquaclear evaluate --config config.json --input work/enhanced --output work
    aquaclear split    --config config.json --input corpus --output work
    aquaclear augment  --config config.json --input corpus --output work/augmented
    aquaclear report   --config config.json --input work --output work

Run from the repository root:

    python3 demos/05_batch_pipeline.py
"""

import tempfile
from pathlib import Path

from aquaclear import (
    PipelineConfig,
    cmd_augment,
    cmd_classify,
    cmd_enhance,
    cmd_evaluate,
    cmd_report,
    cmd_split,
    write_corpus,
)

# The work directory is removed when the block ends.
with tempfile.TemporaryDirectory(prefix="aquaclear_demo_") as tmp:
    root = Path(tmp)
    corpus = root / "corpus"
    work = root / "work"
    corpus.mkdir()

    # Twenty 32x32 frames cycling through all eight degradation categories.
    files = write_corpus(corpus, count=20, seed=7, size=32)
    print(f"corpus: {len(files)} images in {corpus}\n")

    # The config's seed (7 by default) draws the unite heads' weights,
    # split's shuffle and augment's crops; the output directories and the
    # method are arguments.
    config = PipelineConfig(reference_dir=str(corpus))

    cmd_classify(corpus, config, work)
    cmd_enhance(corpus, config, work / "enhanced", method="unite")
    cmd_evaluate(work / "enhanced", config, output_dir=work)
    cmd_split(corpus, config, work)
    cmd_augment(corpus, config, work / "augmented")
    cmd_report(work, config, work)

    print("\nwork directory now holds:")
    for path in sorted(work.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(work)}")

    print("\nreport.csv:")
    print((work / "report.csv").read_text())
