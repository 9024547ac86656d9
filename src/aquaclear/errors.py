"""Exception and warning types shared across the toolkit."""


class AquaClearError(Exception):
    """Base class for every error this package raises."""


# ---------------------------------------------------------------- image I/O

class MalformedHeaderError(AquaClearError):
    """PPM header is not a valid binary P6 header."""


class TruncatedPayloadError(AquaClearError):
    """PPM payload holds fewer bytes than the header promises."""


class UnsupportedMaxvalError(AquaClearError):
    """PPM maxval is something other than 255."""


class IoFailureError(AquaClearError):
    """Underlying file read or write failed."""


class GrayscaleUnsupportedError(AquaClearError):
    """Operation needs a 3-channel image but got a single-channel one."""


# ------------------------------------------------------------------ filters

class EvenKernelError(AquaClearError):
    """Convolution kernels must have an odd side length."""


class NegativeStrengthError(AquaClearError, ValueError):
    """Sharpening strength must be non-negative."""


class ImageTooSmallError(AquaClearError):
    """Image is smaller than the operation's minimum working size."""


# ------------------------------------------------------------- neural path

class ShapeMismatchError(AquaClearError):
    """Tensor shape is incompatible with the layer it was fed to."""


class NonIntegralOutputDimError(AquaClearError):
    """Convolution cannot produce at least one output position."""


class OddSpatialDimError(AquaClearError):
    """2x2 pooling needs even spatial dimensions."""


class ShapeMismatchInManifestError(AquaClearError):
    """Weight manifest is malformed or disagrees with the extractor layout."""


class CorruptBlobError(AquaClearError):
    """Weight blob is missing or shorter than the manifest demands."""


class IndivisibleDimsError(AquaClearError):
    """Image dimensions do not survive the head's strides and poolings."""


class DimMismatchError(AquaClearError):
    """Two arrays that must share dimensions do not."""


# ------------------------------------------------------- batch / reporting

class EmptyDatasetError(AquaClearError):
    """A summary was requested over zero labels."""


class EmptyBatchError(AquaClearError):
    """An evaluation was requested over zero images."""


class PlanStepError(AquaClearError):
    """A pipeline step failed; carries the failing step's index and name."""

    def __init__(self, index: int, step, cause: Exception):
        super().__init__(f"step {index} ({step}) failed: {cause}")
        self.index = index
        self.step = step


class CsvParseError(AquaClearError):
    """A CSV input failed to parse; carries the 1-based line number, or 0
    when the failure belongs to no one line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ConfigError(AquaClearError):
    """Pipeline configuration document is invalid."""


# ----------------------------------------------------------------- warnings

class NearBlackImageWarning(UserWarning):
    """Color-cast detection is undefined on a near-black image."""


class ZeroChannelMeanWarning(UserWarning):
    """Gray-world left a channel unscaled because its mean is near zero."""


__all__ = [
    name for name, value in list(globals().items())
    if isinstance(value, type) and issubclass(value, (AquaClearError, Warning))
]
