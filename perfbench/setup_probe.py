"""Time what every CLI call pays before it starts work: importing
``aquaclear.cli`` and loading the config, in a fresh interpreter.

    python3 setup_probe.py <src dir> <config.json>   # prints seconds
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from aquaclear.cli import PipelineConfig  # noqa: E402

PipelineConfig.load(sys.argv[2])
print(time.perf_counter() - t0)
