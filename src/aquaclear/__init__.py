"""aquaclear: batch underwater image enhancement.

Classifies degradations (color cast, low light, blur), enhances with
classical filters or attention-guided adjustment from small convolutional
feature extractors, and scores results with reference and no-reference
quality metrics. Everything runs on CPU with deterministic outputs.
"""

from . import classify, enhance, errors, image, metrics, neural, pipeline, synth

__version__ = "0.1.0"

# The package exports each submodule's public names.
__all__ = ["__version__"]
for _module in (classify, enhance, errors, image, metrics, neural, pipeline, synth):
    __all__ += _module.__all__
del _module

# Last, because this rebinds ``classify`` from the submodule to its function.
from .classify import *  # noqa: E402, F403
from .enhance import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .image import *  # noqa: E402, F403
from .metrics import *  # noqa: E402, F403
from .neural import *  # noqa: E402, F403
from .pipeline import *  # noqa: E402, F403
from .synth import *  # noqa: E402, F403
