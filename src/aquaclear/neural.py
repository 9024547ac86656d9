"""From-scratch CNN inference: conv layers, residual blocks, two small
feature-extraction heads, and attention-guided pixel adjustment.

Tensors are plain numpy arrays of shape (channels, height, width); weights
are float32 (matching the on-disk manifest format) and promoted to float64
for arithmetic. Everything is inference-only and deterministic: each conv
layer is one BLAS matrix product per block of output rows, written
straight into the layer's output, so every output value is one BLAS dot
product over all (kernel position, input channel) pairs of its window;
seeded initialization uses a PCG64 generator.

A head runs over an image in bands of rows and yields its output a band at
a time through its one entry point, ``BoundExtractor.bands``, which checks
the image size before any arithmetic; it never builds a whole-image
activation. Each layer is a generator that takes its input's bands and
yields its output's. A conv keeps one ring of the zero-padded input rows
its next _BAND_ROWS output rows read, padding columns included, and makes
them with an unpadded call on the ring once it is full, so no call copies
its input into a padded buffer and every call but each layer's last covers
a full band; a pool keeps at most one odd row, and a residual block holds
its input rows until conv_b's rows arrive. One band in flight per layer:
a conv or a pool makes all the output its current input band feeds and
lets go of that band before it yields, and the consumer
(BoundExtractor.channel_mean) lets go of each band before it asks for the next.
So while a layer works, the only bands alive are its input band, its own
output and the residual shortcut rows; the rest is the convs' rings and
one shared column buffer. No row is computed twice: the traced MACs equal
the whole-image count. So a head's memory grows with the image width, not
its area. A pool drops an odd last row or column, so a head takes any image
its convs can read: at least 2 px a side for VGG and 3 for ResNet. The
schedule depends only on the image size, never on threads. Every GEMM runs
on a column count padded with zeros to a multiple of 16, and at least 32
(_gemm_columns), so streamed features equal whole-tensor ones bit for bit,
and the OpenBLAS build measured gives the same bits at 1 and 2 BLAS threads
at every image size tested (README lists them).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classify import ClassifierThresholds, classify
from .enhance import apply_plan, build_plan
from .errors import (
    CorruptBlobError,
    DimMismatchError,
    IndivisibleDimsError,
    IoFailureError,
    NonIntegralOutputDimError,
    ShapeMismatchError,
    ShapeMismatchInManifestError,
)
from .image import (ImageF32, _band_rows, _decode, _make_dir, _map_bands, _open_input,
                    write_atomic)

__all__ = [
    "ConvLayer",
    "ResidualBlock",
    "LayerSpec",
    "ExtractorSpec",
    "BoundExtractor",
    "conv_output_dim",
    "conv2d_forward",
    "residual_forward",
    "max_pool2",
    "build_vgg_head",
    "build_resnet_head",
    "init_weights",
    "load_weights",
    "save_weights",
    "extract_features",
    "attention_map",
    "fuse_attention",
    "attention_adjust",
    "feature_guided_enhance",
]


# ------------------------------------------------------------ forward ops

@dataclass(frozen=True)
class ConvLayer:
    """2-D convolution layer: cross-correlation + bias + optional ReLU."""

    weights: np.ndarray  # (out_channels, in_channels, k, k) float32
    bias: np.ndarray  # (out_channels,) float32
    stride: int = 1
    padding: int = 0
    activation: str = "relu"

    def __post_init__(self):
        w = self.weights
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValueError("weights must have shape (out, in, k, k)")
        if w.shape[2] % 2 == 0:
            raise ValueError("kernel side must be odd")
        if self.bias.shape != (w.shape[0],):
            raise ValueError("bias length must equal out_channels")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class ResidualBlock:
    """Two channel-preserving convs plus the identity shortcut.

    Output is relu(x + conv_b(conv_a(x))): conv_a carries the inner ReLU,
    conv_b none. Both convs must keep spatial dims and channel count so the
    shortcut is shape-compatible.
    """

    conv_a: ConvLayer
    conv_b: ConvLayer

    def __post_init__(self):
        for conv in (self.conv_a, self.conv_b):
            if conv.stride != 1 or conv.padding != conv.kernel // 2:
                raise ValueError("residual convs must be stride 1, same padding")
            if conv.in_channels != conv.out_channels:
                raise ValueError("residual convs must preserve channel count")
        if self.conv_a.out_channels != self.conv_b.in_channels:
            raise ValueError("conv_a/conv_b channel mismatch")
        if self.conv_a.activation != "relu" or self.conv_b.activation != "none":
            raise ValueError("residual block needs conv_a relu, conv_b linear")


def conv_output_dim(extent: int, kernel: int, stride: int, padding: int) -> int:
    span = extent + 2 * padding - kernel
    if span < 0:
        raise NonIntegralOutputDimError(
            f"kernel {kernel} exceeds padded extent {extent + 2 * padding}"
        )
    return span // stride + 1


# Bytes of one call's column buffer. Rows per block are as many as fit,
# which bounds the GEMM operand: in a streamed head a call covers one band
# of at most _BAND_ROWS output rows, so the buffer holds at most that band's
# columns. A block holds at least one row, so an output row wider than the
# budget holds more (a VGG conv2 row at 1024 px takes 4.7 MB).
_COLS_BYTES = 2 << 20


def _gemm_columns(n: int) -> int:
    """Columns of the GEMM that makes n output columns: n rounded up to a
    multiple of 16, and at least 32. On the OpenBLAS measured, a column's
    bits depend on the product's column count, and at 2 threads on the
    thread count, unless that count is such a multiple; the zero columns
    added make every output value independent of both."""
    return max(32, -(-n // 16) * 16)


# The most zero columns _gemm_columns adds to a block.
_GEMM_PAD = _gemm_columns(1) - 1


class _ConvWork:
    """What a conv layer's calls in one forward pass share: the weights
    reordered once to a (c_out, k*k*c_in) float64 matrix with the bias as a
    float64 column, and a flat column buffer that grows to the largest call.
    ``buffers`` may be shared with the pass's other convs, since one conv
    call ends before the next begins."""

    def __init__(self, layer: ConvLayer, buffers: dict | None = None):
        c_out = layer.out_channels
        wmat = layer.weights.transpose(0, 2, 3, 1).reshape(c_out, -1)
        self.wmat = wmat.astype(np.float64)
        self.bias = layer.bias.astype(np.float64)[:, None]
        self._buffers = {} if buffers is None else buffers

    def columns(self, shape: tuple) -> np.ndarray:
        """An uninitialized float64 array of ``shape``, reusing the memory
        of the last one."""
        size = math.prod(shape)
        flat = self._buffers.get("columns")
        if flat is None or flat.size < size:
            flat = self._buffers["columns"] = np.empty(size, dtype=np.float64)
        return flat[:size].reshape(shape)


def conv2d_forward(x: np.ndarray, layer: ConvLayer, work=None) -> np.ndarray:
    """Strided cross-correlation with zero padding, bias, optional ReLU.

    Output spatial dims are floor((H + 2p - k) / s) + 1, with H the rows of
    x. ``work`` (a _ConvWork of the layer) lets many calls share the
    reordered weights and column buffer.

    With p > 0, x is first copied into a zero-padded array. The output is
    made in blocks of whole rows, as many as fit in a fixed byte budget and
    at least one. For each block the k*k strided input windows it reads are
    copied into one reusable (k*k*c_in, n) float64 column buffer, and one
    matrix product with the weight matrix writes the block's n outputs:
    every output value is one BLAS dot product over all (kernel position,
    channel) pairs. The product runs on _gemm_columns(n) columns, the
    block's n and zero columns after them, so a value's bits do not depend
    on the block's size. It writes straight into the output, whose channels
    each have _GEMM_PAD spare values after their last row: a block's zero
    columns land on the next block's rows, or on the spare values, before
    that block is made. Bias and activation are applied to the block in
    place.

    So the result is a view: each channel's (h_out, w_out) values are
    C-contiguous, but channels lie h_out*w_out + _GEMM_PAD values apart.
    np.ascontiguousarray gives a packed copy.
    """
    if x.ndim != 3:
        raise ShapeMismatchError(f"input must be rank 3, got rank {x.ndim}")
    c_in, h_in, w_in = x.shape
    if c_in != layer.in_channels:
        raise ShapeMismatchError(
            f"input has {c_in} channels, layer expects {layer.in_channels}"
        )
    k, s, p = layer.kernel, layer.stride, layer.padding
    h_out = conv_output_dim(h_in, k, s, p)
    w_out = conv_output_dim(w_in, k, s, p)
    c_out = layer.out_channels
    flat = np.empty((c_out, h_out * w_out + _GEMM_PAD), dtype=np.float64)
    if work is None:
        work = _ConvWork(layer)
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p)))
    # (ky, kx, c_in, h_out, w_out): a no-copy view of every output's window
    windows = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
    windows = windows.transpose(3, 4, 0, 1, 2)
    depth = work.wmat.shape[1]
    rows = max(1, min(h_out, _COLS_BYTES // (8 * depth * w_out)))
    for r0 in range(0, h_out, rows):
        r1 = min(r0 + rows, h_out)
        n = (r1 - r0) * w_out
        cols = work.columns((depth, _gemm_columns(n)))
        np.copyto(cols[:, :n].reshape(k, k, c_in, r1 - r0, w_out), windows[:, :, :, r0:r1])
        cols[:, n:] = 0.0
        start = r0 * w_out
        np.matmul(work.wmat, cols, out=flat[:, start : start + cols.shape[1]])
        block = flat[:, start : start + n]
        block += work.bias
        if layer.activation == "relu":
            np.maximum(block, 0.0, out=block)
    return flat[:, : h_out * w_out].reshape(c_out, h_out, w_out)


def residual_forward(x: np.ndarray, block: ResidualBlock) -> np.ndarray:
    inner = conv2d_forward(x, block.conv_a)
    outer = conv2d_forward(inner, block.conv_b)
    return np.maximum(x + outer, 0.0)


def max_pool2(t: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 max pooling; an odd last row or column is
    dropped (floor mode)."""
    c, h, w = t.shape
    t = t[:, : h - h % 2, : w - w % 2]
    top = np.maximum(t[:, 0::2, 0::2], t[:, 0::2, 1::2])
    return np.maximum(top, np.maximum(t[:, 1::2, 0::2], t[:, 1::2, 1::2]), out=top)


# ------------------------------------------------------- band streaming
#
# A head runs over the image a band of rows at a time and never holds a
# whole-image activation. Each layer is a generator that takes its input's
# bands and yields its output's; a conv's output bands are _BAND_ROWS rows,
# except its last. Every buffer belongs to one forward call, so threads can
# share a head.

# Image rows read per step, and output rows per conv call.
_BAND_ROWS = 8


def _conv_bands(layer: ConvLayer, bands, buffers: dict):
    """The conv layer's output bands, from one ring of zero-padded input.

    The ring is p columns wider than the input on each side, and those
    columns stay zero. Row 0 of the ring is the top padding row, or the
    input row, that the next output row reads first. Whenever the ring holds
    the (n-1)*s + k rows that n = _BAND_ROWS outputs read, an unpadded copy
    of the layer makes those outputs from them and the ring moves the k - s
    rows still needed to the top. At the end of the input the rows below the
    last input row are zeroed, as the bottom padding, and the layer makes
    the rest. An input band is let go of once all its rows are in the ring,
    and the outputs it completed are yielded after that.
    """
    k, s, p = layer.kernel, layer.stride, layer.padding
    if p > k // 2 or s > k:
        raise ValueError("a streamed conv needs padding <= kernel // 2 and stride <= kernel")
    need = (_BAND_ROWS - 1) * s + k
    # shares the weights array, so a tracer still finds the layer by its id
    valid = ConvLayer(layer.weights, layer.bias, s, 0, layer.activation)
    work = _ConvWork(valid, buffers)
    ring = None
    fill = p  # the top padding rows are the ring's first zeros
    rows_in = done = 0

    def run(m: int) -> np.ndarray:
        nonlocal fill, done
        out = conv2d_forward(ring[:, : (m - 1) * s + k], valid, work=work)
        keep = max(fill - m * s, 0)
        # by channel: a whole-ring copy's bounds overlap, so numpy would
        # copy it through a temporary
        for plane in ring:
            plane[:keep] = plane[m * s : fill]
        fill, done = keep, done + m
        return out

    for band in bands:
        if ring is None:
            ring = np.zeros((band.shape[0], need, band.shape[2] + 2 * p))
        rows_in += band.shape[1]
        # what this band completes, popped as yielded: no local holds an
        # output band while the generator waits
        outs = []
        while band is not None:
            n = min(band.shape[1], need - fill)
            ring[:, fill : fill + n, p : p + band.shape[2]] = band[:, :n]
            fill += n
            band = band[:, n:] if n < band.shape[1] else None
            if fill == need:
                outs.append(run(_BAND_ROWS))
        while outs:
            yield outs.pop(0)
    h_out = conv_output_dim(rows_in, k, s, p)
    while done < h_out:
        ring[:, fill:] = 0.0
        yield run(min(_BAND_ROWS, h_out - done))


def _pool_bands(bands):
    """2x2 max pooling of row pairs; an odd row waits, copied, for the next
    band, and one left at the end of the input is dropped. Each input band
    is let go of before its pooled rows are yielded."""
    odd = None
    for band in bands:
        if odd is not None:
            band = np.concatenate([odd, band], axis=1)
        pairs = band.shape[1] // 2
        odd = band[:, 2 * pairs :].copy() if band.shape[1] % 2 else None
        outs = [max_pool2(band[:, : 2 * pairs])] if pairs else []
        del band
        while outs:
            yield outs.pop()


def _residual_bands(block: ResidualBlock, bands, buffers: dict):
    """relu(x + conv_b(conv_a(x))): each input band goes to conv_a and is
    held for the shortcut until conv_b's output rows arrive. ``map``,
    unlike a generator's loop variable, holds no output band while the next
    one is made."""
    held = []  # input bands not yet added, oldest first

    def tee():
        for band in bands:
            held.append(band)
            yield band

    def add_shortcut(out):
        r = 0
        while r < out.shape[1]:
            n = min(out.shape[1] - r, held[0].shape[1])
            out[:, r : r + n] += held[0][:, :n]
            held[0] = held[0][:, n:]
            if not held[0].shape[1]:
                held.pop(0)
            r += n
        return np.maximum(out, 0.0, out=out)

    inner = _conv_bands(block.conv_a, tee(), buffers)
    return map(add_shortcut, _conv_bands(block.conv_b, inner, buffers))


# ------------------------------------------------------------ head specs

@dataclass(frozen=True)
class LayerSpec:
    """One layer slot in an extractor: conv, pool, or res(idual block)."""

    name: str
    kind: str  # "conv" | "pool" | "res"
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class ExtractorSpec:
    """A head's layers in execution order; its features are the last
    layer's output."""

    name: str
    layers: tuple


def build_vgg_head() -> ExtractorSpec:
    """Stacked 3x3 conv/ReLU head with one mid-stack pooling:
    conv1(3->64), conv2(64->64), pool, conv3(64->128), conv4(128->128)."""
    layers = (
        LayerSpec("conv1", "conv", 3, 64, 3, 1, 1),
        LayerSpec("conv2", "conv", 64, 64, 3, 1, 1),
        LayerSpec("pool1", "pool"),
        LayerSpec("conv3", "conv", 64, 128, 3, 1, 1),
        LayerSpec("conv4", "conv", 128, 128, 3, 1, 1),
    )
    return ExtractorSpec("vgg_head", layers)


def build_resnet_head() -> ExtractorSpec:
    """Strided 7x7 stem, one pooling, then two 64-channel residual blocks."""
    layers = (
        LayerSpec("conv1", "conv", 3, 64, 7, 2, 3),
        LayerSpec("pool1", "pool"),
        LayerSpec("res1", "res", 64, 64, 3, 1, 1),
        LayerSpec("res2", "res", 64, 64, 3, 1, 1),
    )
    return ExtractorSpec("resnet_head", layers)


def _weight_slots(spec: ExtractorSpec):
    """Manifest entries in execution order: (entry name, shape)."""
    slots = []
    for layer in spec.layers:
        convs = {"conv": [layer.name], "res": [f"{layer.name}.a", f"{layer.name}.b"]}
        for prefix in convs.get(layer.kind, []):
            slots.append(
                (f"{prefix}.weight",
                 (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel))
            )
            slots.append((f"{prefix}.bias", (layer.out_channels,)))
    return slots


@dataclass(frozen=True)
class BoundExtractor:
    """An ExtractorSpec with a weight array for every slot."""

    spec: ExtractorSpec
    weights: dict

    def _conv(self, prefix: str, layer: LayerSpec, activation: str) -> ConvLayer:
        return ConvLayer(
            weights=self.weights[f"{prefix}.weight"],
            bias=self.weights[f"{prefix}.bias"],
            stride=layer.stride,
            padding=layer.padding,
            activation=activation,
        )

    def bands(self, x: np.ndarray):
        """Run the layers over x (c, h, w), _BAND_ROWS rows at a time, and
        return an iterator of the last layer's output as bands of rows, top
        to bottom. An x too small for a conv raises IndivisibleDims here,
        before any arithmetic runs. A conv's ring holds float64, so each
        conv converts its input exactly as its rows arrive."""
        if x.ndim != 3:
            raise ShapeMismatchError(f"input must be rank 3, got rank {x.ndim}")
        _validate_dims(self.spec, x.shape[1], x.shape[2])
        bands = (x[:, r0 : r0 + _BAND_ROWS] for r0 in range(0, x.shape[1], _BAND_ROWS))
        buffers = {}  # the convs' shared scratch
        for layer in self.spec.layers:
            if layer.kind == "conv":
                bands = _conv_bands(self._conv(layer.name, layer, "relu"), bands, buffers)
            elif layer.kind == "pool":
                bands = _pool_bands(bands)
            elif layer.kind == "res":
                block = ResidualBlock(
                    conv_a=self._conv(f"{layer.name}.a", layer, "relu"),
                    conv_b=self._conv(f"{layer.name}.b", layer, "none"),
                )
                bands = _residual_bands(block, bands, buffers)
        return bands

    def channel_mean(self, x: np.ndarray) -> np.ndarray:
        """The (h, w) channel mean of the head's output for x (c, h, w),
        taken band by band as ``bands`` streams it, so the whole output
        never exists. Each band's mean has the bits of the whole tensor's:
        numpy reduces axis 0 in order."""
        means = []
        for band in self.bands(x):
            means.append(band.mean(axis=0, dtype=np.float64))
            del band  # so the head makes its next band with this one freed
        return np.concatenate(means)


def init_weights(spec: ExtractorSpec, seed: int) -> BoundExtractor:
    """Deterministic He-style initialization: weights ~ N(0, 2/fan_in), zero
    biases, drawn from a PCG64 generator in manifest slot order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = {}
    for name, shape in _weight_slots(spec):
        if name.endswith(".bias"):
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = shape[1] * shape[2] * shape[3]
            scale = math.sqrt(2.0 / fan_in)
            weights[name] = (rng.standard_normal(shape) * scale).astype(np.float32)
    return BoundExtractor(spec, weights)


def save_weights(bound: BoundExtractor, directory) -> Path:
    """Write manifest.json plus weights.bin (little-endian float32 blob),
    each with write_atomic; a failure raises IoFailureError."""
    directory = Path(directory)
    _make_dir(directory)
    entries = []
    blob = bytearray()
    for name, shape in _weight_slots(bound.spec):
        arr = np.ascontiguousarray(bound.weights[name], dtype="<f4")
        entries.append(
            {
                "name": name,
                "shape": list(shape),
                "dtype": "f32le",
                "byte_offset": len(blob),
                "byte_length": arr.nbytes,
            }
        )
        blob.extend(arr.tobytes())
    manifest = {"extractor": bound.spec.name, "blob": "weights.bin", "layers": entries}
    write_atomic(directory / "weights.bin", blob)
    manifest_path = directory / "manifest.json"
    write_atomic(manifest_path, (json.dumps(manifest, indent=2) + "\n").encode())
    return manifest_path


_ENTRY_KEYS = frozenset({"name", "shape", "byte_offset", "byte_length"})


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_weights(spec: ExtractorSpec, manifest_path) -> BoundExtractor:
    """Bind a manifest's blob to the spec; shapes must match slot-for-slot."""
    manifest_path = Path(manifest_path)
    try:
        with _open_input(manifest_path) as (f, _):
            doc = json.load(_decode(f))
    except OSError as exc:
        raise IoFailureError(f"cannot read manifest {str(manifest_path)!r}: {exc}") from exc
    # RecursionError: nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise ShapeMismatchInManifestError(f"manifest is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ShapeMismatchInManifestError("manifest needs an object with a layers list")
    entries = doc["layers"]
    expected = _weight_slots(spec)
    if len(entries) != len(expected):
        raise ShapeMismatchInManifestError(
            f"manifest has {len(entries)} entries, spec needs {len(expected)}"
        )
    blob_name = doc.get("blob", "weights.bin")
    if not isinstance(blob_name, str):
        raise CorruptBlobError(f"blob must be a file name, got {blob_name!r}")
    blob_path = manifest_path.parent / blob_name
    slices = []  # (name, shape, start, end) per entry
    for entry, (name, shape) in zip(entries, expected):
        if not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys():
            raise ShapeMismatchInManifestError(
                f"entry for {name} must be an object with keys {sorted(_ENTRY_KEYS)}"
            )
        if not isinstance(entry["shape"], list) or not all(
            _is_count(d) for d in entry["shape"]
        ):
            raise ShapeMismatchInManifestError(
                f"{name}: shape must be a list of non-negative ints, "
                f"got {entry['shape']!r}"
            )
        if not (_is_count(entry["byte_offset"]) and _is_count(entry["byte_length"])):
            raise CorruptBlobError(
                f"{name}: byte_offset and byte_length must be non-negative ints"
            )
        if entry["name"] != name or tuple(entry["shape"]) != shape:
            raise ShapeMismatchInManifestError(
                f"expected {name} {shape}, manifest has "
                f"{entry['name']} {tuple(entry['shape'])}"
            )
        if entry.get("dtype", "f32le") != "f32le":
            raise ShapeMismatchInManifestError(
                f"{name}: unsupported dtype {entry.get('dtype')!r}"
            )
        count = int(np.prod(shape)) if shape else 1
        if entry["byte_length"] != 4 * count:
            raise CorruptBlobError(
                f"{name}: byte_length {entry['byte_length']} != {4 * count}"
            )
        start = entry["byte_offset"]
        slices.append((name, shape, start, start + entry["byte_length"]))
    # Read only the bytes the entries name, however large the file is, and
    # never ask for more than it holds (read(n) allocates n bytes up front).
    need = max(end for *_, end in slices)
    try:
        with _open_input(blob_path) as (f, size):
            blob = f.read(min(need, size))
    except OSError as exc:
        raise CorruptBlobError(f"cannot read weight blob {blob_name!r}: {exc}") from exc
    weights = {}
    for name, shape, start, end in slices:
        if end > len(blob):
            raise CorruptBlobError(
                f"{name}: blob ends at {len(blob)}, entry needs {end}"
            )
        weights[name] = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape).copy()
    return BoundExtractor(spec, weights)


# ------------------------------------------------------ feature extraction

def _validate_dims(spec: ExtractorSpec, h: int, w: int) -> None:
    """Raise IndivisibleDims unless each conv of the head, a residual
    block's included, gets an input at least its kernel wide and tall once
    zero-padded. A pooling halves each side with floor."""
    for layer in spec.layers:
        if layer.kind == "pool":
            h, w = h // 2, w // 2
            continue
        # a residual block's two convs keep its input's shape
        try:
            h = conv_output_dim(h, layer.kernel, layer.stride, layer.padding)
            w = conv_output_dim(w, layer.kernel, layer.stride, layer.padding)
        except NonIntegralOutputDimError as exc:
            raise IndivisibleDimsError(
                f"image too small for {spec.name} {layer.name}: {exc}") from exc


def extract_features(img: ImageF32, extractor: BoundExtractor) -> np.ndarray:
    """Forward an RGB image (values in [0,1], no mean normalization) through
    the extractor's layers: ``extractor.bands(img.data)`` joined, so an image
    too small for a conv raises IndivisibleDims before any arithmetic runs."""
    return np.concatenate(list(extractor.bands(img.data)), axis=1)


def _bilinear_resize(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resampling with clamped borders, made in
    row bands of image._band_rows(out_w) rows straight into the result, so
    its temporaries are a band's. Every step is elementwise, so bands never
    change a bit."""
    in_h, in_w = plane.shape
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * in_w / out_w - 0.5
    y0f, x0f = np.floor(ys), np.floor(xs)
    wy, wx = ys - y0f, xs - x0f
    y0 = np.clip(y0f.astype(np.int64), 0, in_h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, in_h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, in_w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, in_w - 1)
    wy = wy[:, None]
    wx = wx[None, :]
    out = np.empty((out_h, out_w))
    step = _band_rows(out_w)
    for r0 in range(0, out_h, step):
        r = slice(r0, r0 + step)
        top = (1.0 - wx) * plane[np.ix_(y0[r], x0)] + wx * plane[np.ix_(y0[r], x1)]
        bottom = (1.0 - wx) * plane[np.ix_(y1[r], x0)] + wx * plane[np.ix_(y1[r], x1)]
        out[r] = (1.0 - wy[r]) * top + wy[r] * bottom
    return out


def attention_map(mean: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """A head's (h, w) channel mean (BoundExtractor.channel_mean), min-max
    normalized then upsampled to the requested size. A flat map
    (max == min) normalizes to all 0.5."""
    if mean.ndim != 2 or mean.size == 0:
        raise ValueError(f"mean must be a non-empty (h, w) array, got shape {mean.shape}")
    lo, hi = float(mean.min()), float(mean.max())
    if hi == lo:
        norm = np.full(mean.shape, 0.5)
    else:
        norm = (mean - lo) / (hi - lo)
    return _bilinear_resize(norm, out_h, out_w)


def fuse_attention(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean of two attention maps of the same shape."""
    if a.shape != b.shape:
        raise DimMismatchError(f"attention shapes differ: {a.shape} vs {b.shape}")
    return (a + b) / 2.0


def attention_adjust(img: ImageF32, attn: np.ndarray, gain: float = 0.5) -> ImageF32:
    """Scale V multiplicatively by 1 + gain*(attn - mean(attn)).

    Implemented as a per-pixel RGB scale with the factor capped at 1/V, which
    realizes V' = clamp(V * factor) while leaving hue and saturation exactly
    unchanged; gain 0 is a bit-exact identity. Runs in row bands
    (image._map_bands); only mean(attn) is taken over the whole map.
    """
    if attn.shape != (img.height, img.width):
        raise DimMismatchError(
            f"attention {attn.shape} vs image {img.height}x{img.width}"
        )
    if gain < 0.0:
        raise ValueError("gain must be >= 0")
    mean = float(np.mean(attn, dtype=np.float64))

    def scale(planes, rows):
        v = planes.max(axis=0)
        factor = attn[rows] - mean
        factor *= gain
        factor += 1.0
        np.maximum(factor, 0.0, out=factor)
        cap = np.divide(1.0, v, out=np.full_like(v, np.inf), where=v > 0.0)
        planes *= np.minimum(factor, cap, out=cap)
        return planes

    return _map_bands(img.data, scale)


def feature_guided_enhance(
    img: ImageF32,
    attn: np.ndarray,
    gain: float = 0.5,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
    plan_overrides: dict | None = None,
    on_step=None,
) -> ImageF32:
    """Attention-guided V adjustment followed by the image's classical plan.

    The plan is built from the original image's degradation flags, so at
    gain 0 the output matches the purely classical path bit-for-bit.
    ``plan_overrides`` maps a StepKind to its step's parameter object.

    No reference to ``img``, ``attn`` or the adjusted image is kept past
    its last reader: when the caller holds none either, the plan's steps
    run without the first two, and apply_plan frees the adjusted image
    once its first step has read it.
    """
    flags, _ = classify(img, thresholds)
    plan = build_plan(flags, plan_overrides)
    # popped into the call, so apply_plan's frame holds the only reference
    adjusted = [attention_adjust(img, attn, gain)]
    del img, attn
    return apply_plan(adjusted.pop(), plan, on_step)
