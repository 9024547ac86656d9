"""From-scratch CNN inference: conv layers, residual blocks, two small
feature-extraction heads, and attention-guided pixel adjustment.

Tensors are plain numpy arrays of shape (channels, height, width); weights
are float32 (matching the on-disk manifest format) and promoted to float64
for arithmetic. Everything is inference-only and deterministic: each conv
layer is one BLAS matrix product per block of output rows, so every output
value is one BLAS dot product over all (kernel position, input channel)
pairs of its window, and the same numpy/BLAS build gives the same bits at
any BLAS thread count; seeded initialization uses a PCG64 generator.

A head runs over an image in bands of rows and yields its output a band at
a time (``BoundExtractor.bands``); it never builds a whole-image
activation. Each conv layer keeps a zero-padded ring buffer of the input
rows its next band of _BAND_ROWS output rows reads, plus the k - s rows
the band after needs; each pool keeps at most one odd row, and each
residual block keeps its shortcut rows until conv_b's rows arrive. No row
is computed twice: the traced MACs equal the whole-image count. So a
head's memory grows with the image width, not its area: at 256 px a VGG
pass peaks near 13 MB of heap (a whole-tensor pass took 104 MB), and
``enhance --method unite`` holds about 290 B per pixel at 1024 px, close to
``classic``'s 240, where whole-tensor heads took about 1.6 KB. The
schedule depends only on the image size, never on threads. A band's GEMMs
have fewer columns than a whole-tensor call's; on the OpenBLAS build
measured, a column's bits do not depend on the column count when that
count is a multiple of 16 (and the product is not tiny), so streamed
features equal whole-tensor ones bit for bit whenever every layer's output
width is a multiple of 16, as at the benchmark's 128 px, and otherwise may
differ in the last bits (at most 1.6e-14 seen).
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
    OddSpatialDimError,
    ShapeMismatchError,
    ShapeMismatchInManifestError,
)
from .image import ImageF32

__all__ = [
    "ConvLayer",
    "ResidualBlock",
    "LayerSpec",
    "ExtractorSpec",
    "BoundExtractor",
    "conv_output_dim",
    "conv2d_forward",
    "relu",
    "residual_forward",
    "max_pool2",
    "build_vgg_head",
    "build_resnet_head",
    "init_weights",
    "load_weights",
    "save_weights",
    "validate_dims",
    "extract_features",
    "feature_bands",
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
# columns. An 8 MB budget raised the unite workload's peak RSS by about 10%
# for little speed.
_COLS_BYTES = 2 << 20


class _ConvWork:
    """What a conv layer's calls in one forward pass share: the weights
    reordered once to a (c_out, k*k*c_in) float64 matrix with the bias as a
    float64 column, and flat scratch buffers that grow to the largest call.
    ``buffers`` may be shared with the pass's other convs, since one conv
    call ends before the next begins."""

    def __init__(self, layer: ConvLayer, buffers: dict | None = None):
        c_out = layer.out_channels
        wmat = layer.weights.transpose(0, 2, 3, 1).reshape(c_out, -1)
        self.wmat = wmat.astype(np.float64)
        self.bias = layer.bias.astype(np.float64)[:, None]
        self._buffers = {} if buffers is None else buffers

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """An uninitialized float64 array of ``shape``, reusing the memory
        of the last one of that name."""
        size = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.size < size:
            flat = self._buffers[name] = np.empty(size, dtype=np.float64)
        return flat[:size].reshape(shape)


def _neighbour_rows(rows, x: np.ndarray, most: int, where: str) -> int:
    if rows is None:
        return 0
    if rows.ndim != 3 or rows.shape[0] != x.shape[0] or rows.shape[2] != x.shape[2]:
        raise ShapeMismatchError(f"{where} rows {rows.shape} do not match input {x.shape}")
    if rows.shape[1] > most:
        raise ShapeMismatchError(f"{where} has {rows.shape[1]} rows, padding is {most}")
    return rows.shape[1]


def conv2d_forward(x: np.ndarray, layer: ConvLayer, above=None, below=None,
                   out=None, work=None) -> np.ndarray:
    """Strided cross-correlation with zero padding, bias, optional ReLU.

    Output spatial dims are floor((H + 2p - k) / s) + 1, with H the rows of
    x. ``above`` and ``below`` are rows of the same tensor next to x, at
    most p each (nearest last in ``above``, first in ``below``); they take
    the place of that many rows of zero padding, and None means zeros. So x
    and its neighbours give the output rows of x in a call on the whole
    tensor. ``out`` receives the result when given; ``work`` (a _ConvWork
    of the layer) lets many calls share the reordered weights and buffers.

    The zero-padded input is assembled in one buffer. For each block of
    output rows, the k*k strided input windows the block reads are copied
    into one reusable (k*k*c_in, rows*w_out) column buffer, and one matrix
    product with the weight matrix writes the block's output: every output
    value is one BLAS dot product over all (kernel position, channel) pairs.
    Bias and activation are applied to the block in place. Rows per block
    are as many as fit in a fixed byte budget. The same numpy/BLAS build
    gives the same bits at any BLAS thread count.
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
    n_above = _neighbour_rows(above, x, p, "above")
    n_below = _neighbour_rows(below, x, p, "below")
    c_out = layer.out_channels
    if out is None:
        out = np.empty((c_out, h_out, w_out), dtype=np.float64)
    # each channel's rows must be contiguous, so a block reshapes as a view
    elif (out.dtype != np.float64 or out.shape != (c_out, h_out, w_out)
          or out.strides[1:] != (8 * w_out, 8)):
        raise ShapeMismatchError(
            f"out must be float64 rows of shape {(c_out, h_out, w_out)}, got {out.shape}"
        )
    if work is None:
        work = _ConvWork(layer)

    top, bottom = p - n_above, p + h_in + n_below  # rows from x and neighbours
    xp = work.buffer("padded", (c_in, h_in + 2 * p, w_in + 2 * p))
    xp[:, :top] = 0.0
    xp[:, bottom:] = 0.0
    xp[:, top:bottom, :p] = 0.0
    xp[:, top:bottom, p + w_in :] = 0.0
    xp[:, p : p + h_in, p : p + w_in] = x
    if n_above:
        xp[:, top:p, p : p + w_in] = above
    if n_below:
        xp[:, p + h_in : bottom, p : p + w_in] = below
    # (ky, kx, c_in, h_out, w_out): a no-copy view of every output's window
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    windows = windows.transpose(3, 4, 0, 1, 2)
    depth = work.wmat.shape[1]
    rows = max(1, min(h_out, _COLS_BYTES // (8 * depth * w_out)))
    for r0 in range(0, h_out, rows):
        r1 = min(r0 + rows, h_out)
        cols = work.buffer("columns", (k, k, c_in, r1 - r0, w_out))
        np.copyto(cols, windows[:, :, :, r0:r1])
        block = out[:, r0:r1].reshape(c_out, -1)
        np.matmul(work.wmat, cols.reshape(depth, -1), out=block)
        block += work.bias
        if layer.activation == "relu":
            np.maximum(block, 0.0, out=block)
    return out


def relu(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0)


def residual_forward(x: np.ndarray, block: ResidualBlock) -> np.ndarray:
    inner = conv2d_forward(x, block.conv_a)
    outer = conv2d_forward(inner, block.conv_b)
    return np.maximum(x + outer, 0.0)


def max_pool2(t: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 max pooling; spatial dims must be even."""
    c, h, w = t.shape
    if h % 2 or w % 2:
        raise OddSpatialDimError(f"cannot 2x2-pool odd dims {h}x{w}")
    return np.maximum(
        np.maximum(t[:, 0::2, 0::2], t[:, 0::2, 1::2]),
        np.maximum(t[:, 1::2, 0::2], t[:, 1::2, 1::2]),
    )


# ------------------------------------------------------- band streaming
#
# A head runs over the image a band of rows at a time and never holds a
# whole-image activation. Each stage owns the rows it is still waiting on:
# its upstream asks it for ``slot(n)``, writes n rows there, then calls
# ``commit(n)``, and ``finish()`` ends the input. Every buffer belongs to one
# forward call, so threads can share a head.

# Image rows read per step, and output rows per conv call.
_BAND_ROWS = 8


class _ConvStage:
    """A conv layer's zero-padded ring buffer of input rows.

    Row 0 of the ring is the top padding row, or the input row, that the
    next output row reads first. Once the ring holds the (n-1)*s + k rows
    that n = _BAND_ROWS outputs read, the layer writes those outputs into
    the next stage and moves the k - s rows it still needs to the top. When
    a write would not fit, the layer first runs the shorter band that the
    rows it holds allow, so the ring never holds more than one full band.
    """

    def __init__(self, layer: ConvLayer, width: int, nxt, buffers: dict):
        k, s, p = layer.kernel, layer.stride, layer.padding
        if p > k // 2:
            raise ValueError("a streamed conv needs padding <= kernel // 2")
        self.layer, self.next = layer, nxt
        self.channels = layer.in_channels
        self.need = (_BAND_ROWS - 1) * s + k
        self.ring = np.zeros((layer.in_channels, self.need, width))
        self.fill = p  # the top padding rows are the ring's first zeros
        self.rows_in = self.done = 0
        self.work = _ConvWork(layer, buffers)

    def slot(self, n: int) -> np.ndarray:
        """Room for n <= _BAND_ROWS rows; after a short band at most k - 1
        rows are held, and k - 1 + n <= need."""
        if self.fill + n > self.need:
            self._run((self.fill - self.layer.kernel) // self.layer.stride + 1)
        return self.ring[:, self.fill : self.fill + n]

    def commit(self, n: int) -> None:
        self.fill += n
        self.rows_in += n
        while self.fill >= self.need:
            self._run(_BAND_ROWS)

    def finish(self) -> None:
        layer = self.layer
        h_out = conv_output_dim(self.rows_in, layer.kernel, layer.stride, layer.padding)
        while self.done < h_out:
            self._run(min(_BAND_ROWS, h_out - self.done))
        self.next.finish()

    def _run(self, m: int) -> None:
        """Write the next m output rows; below the last input row, the rows
        the ring lacks are the bottom padding."""
        k, s, p = self.layer.kernel, self.layer.stride, self.layer.padding
        top = (m - 1) * s + k - p  # ring rows p..top-1 are the x of m outputs
        ring = self.ring
        conv2d_forward(
            ring[:, p:top], self.layer,
            above=ring[:, :p], below=ring[:, top : min(self.fill, top + p)],
            out=self.next.slot(m), work=self.work,
        )
        keep = self.fill - m * s
        ring[:, :keep] = ring[:, m * s : self.fill]
        self.fill = keep
        self.done += m
        self.next.commit(m)


class _PoolStage:
    """2x2 max pooling of row pairs; an odd last row waits for the next band."""

    def __init__(self, channels: int, width: int, nxt):
        self.channels, self.width, self.next = channels, width, nxt
        self.ring = np.empty((channels, _BAND_ROWS + 1, width))
        self.fill = self.rows_in = 0

    def slot(self, n: int) -> np.ndarray:
        return self.ring[:, self.fill : self.fill + n]

    def commit(self, n: int) -> None:
        self.fill += n
        self.rows_in += n
        pairs = self.fill // 2
        if pairs:
            self.next.slot(pairs)[...] = max_pool2(self.ring[:, : 2 * pairs])
            self.ring[:, : self.fill - 2 * pairs] = self.ring[:, 2 * pairs : self.fill]
            self.fill -= 2 * pairs
            self.next.commit(pairs)

    def finish(self) -> None:
        if self.fill:
            raise OddSpatialDimError(
                f"cannot 2x2-pool odd dims {self.rows_in}x{self.width}"
            )
        self.next.finish()


class _ResidualStage:
    """relu(x + conv_b(conv_a(x))): each input row goes to conv_a and is
    held for the shortcut until conv_b's output row arrives."""

    def __init__(self, block: ResidualBlock, width: int, nxt, buffers: dict):
        self.channels = block.conv_a.in_channels
        self.shortcut = _Shortcut(block, width, nxt)
        conv_b = _ConvStage(block.conv_b, width, self.shortcut, buffers)
        self.conv_a = _ConvStage(block.conv_a, width, conv_b, buffers)

    def slot(self, n: int) -> np.ndarray:
        return self.shortcut.room(n)

    def commit(self, n: int) -> None:
        self.conv_a.slot(n)[...] = self.shortcut.hold(n)
        self.conv_a.commit(n)

    def finish(self) -> None:
        self.conv_a.finish()


class _Shortcut:
    """The held input rows of a residual block, and conv_b's next stage:
    conv_b writes into the downstream stage's slot, where the held rows are
    added and the ReLU applied. It is apart from _ResidualStage so the
    stages form no reference cycle, which would keep a call's buffers alive
    until the garbage collector ran."""

    def __init__(self, block: ResidualBlock, width: int, nxt):
        # conv_a and conv_b each hold fewer than _BAND_ROWS + kernel rows
        rows = 3 * _BAND_ROWS + 2 * block.conv_a.kernel
        self.held = np.empty((block.conv_a.in_channels, rows, width))
        self.start = self.fill = 0
        self.next = nxt
        self.dest = None

    def room(self, n: int) -> np.ndarray:
        """Where the block's next n input rows go."""
        if self.fill + n > self.held.shape[1]:
            self.held[:, : self.fill - self.start] = self.held[:, self.start : self.fill]
            self.fill -= self.start
            self.start = 0
        return self.held[:, self.fill : self.fill + n]

    def hold(self, n: int) -> np.ndarray:
        """Keep the n rows just written to ``room``; returns them."""
        self.fill += n
        return self.held[:, self.fill - n : self.fill]

    def slot(self, n: int) -> np.ndarray:
        self.dest = self.next.slot(n)
        return self.dest

    def commit(self, n: int) -> None:
        np.add(self.dest, self.held[:, self.start : self.start + n], out=self.dest)
        np.maximum(self.dest, 0.0, out=self.dest)
        self.start += n
        self.next.commit(n)

    def finish(self) -> None:
        self.next.finish()


class _Sink:
    """Collects the last layer's output bands in fresh arrays."""

    def __init__(self, channels: int, width: int):
        self.channels, self.width = channels, width
        self.bands = []

    def slot(self, n: int) -> np.ndarray:
        self.bands.append(np.empty((self.channels, n, self.width)))
        return self.bands[-1]

    def commit(self, n: int) -> None:
        pass

    def finish(self) -> None:
        pass

    def take(self) -> list:
        bands, self.bands = self.bands, []
        return bands


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

    def _stages(self, channels: int, width: int):
        """This call's stages, first to last, ending in a _Sink."""
        dims = []
        for layer in self.spec.layers:
            dims.append((channels, width))
            if layer.kind == "pool":
                width //= 2  # an odd width fails in max_pool2
            else:
                channels = layer.out_channels
                width = conv_output_dim(width, layer.kernel, layer.stride, layer.padding)
        sink = stage = _Sink(channels, width)
        buffers = {}  # the convs' shared scratch
        for layer, (channels, width) in zip(reversed(self.spec.layers), reversed(dims)):
            if layer.kind == "conv":
                conv = self._conv(layer.name, layer, "relu")
                stage = _ConvStage(conv, width, stage, buffers)
            elif layer.kind == "pool":
                stage = _PoolStage(channels, width, stage)
            elif layer.kind == "res":
                block = ResidualBlock(
                    conv_a=self._conv(f"{layer.name}.a", layer, "relu"),
                    conv_b=self._conv(f"{layer.name}.b", layer, "none"),
                )
                stage = _ResidualStage(block, width, stage, buffers)
        return stage, sink

    def bands(self, x: np.ndarray):
        """Run the layers over x (c, h, w), _BAND_ROWS rows at a time, and
        yield the last layer's output as float64 bands of rows, top to
        bottom. x is converted to float64 one band at a time."""
        if x.ndim != 3:
            raise ShapeMismatchError(f"input must be rank 3, got rank {x.ndim}")
        first, sink = self._stages(x.shape[0], x.shape[2])
        if x.shape[0] != first.channels:
            raise ShapeMismatchError(
                f"input has {x.shape[0]} channels, head expects {first.channels}"
            )
        for r0 in range(0, x.shape[1], _BAND_ROWS):
            band = x[:, r0 : r0 + _BAND_ROWS]
            first.slot(band.shape[1])[...] = band
            first.commit(band.shape[1])
            yield from sink.take()
        first.finish()
        yield from sink.take()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The last layer's whole output: ``bands`` joined."""
        return np.concatenate(list(self.bands(x)), axis=1)


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
    """Write manifest.json plus weights.bin (little-endian float32 blob)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
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
    (directory / "weights.bin").write_bytes(bytes(blob))
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


_ENTRY_KEYS = frozenset({"name", "shape", "byte_offset", "byte_length"})


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_weights(spec: ExtractorSpec, manifest_path) -> BoundExtractor:
    """Bind a manifest's blob to the spec; shapes must match slot-for-slot."""
    manifest_path = Path(manifest_path)
    # reading a device or FIFO might never end, or fill memory
    if not manifest_path.is_file():
        raise IoFailureError(f"manifest {str(manifest_path)!r} is missing or not a regular file")
    try:
        doc = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise IoFailureError(f"cannot read manifest: {exc}") from exc
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
    if not blob_path.is_file():
        raise CorruptBlobError(f"blob {blob_name!r} is missing or not a regular file")
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
        with blob_path.open("rb") as f:
            blob = f.read(min(need, blob_path.stat().st_size))
    except OSError as exc:
        raise CorruptBlobError(f"cannot read weight blob: {exc}") from exc
    weights = {}
    for name, shape, start, end in slices:
        if end > len(blob):
            raise CorruptBlobError(
                f"{name}: blob ends at {len(blob)}, entry needs {end}"
            )
        weights[name] = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape).copy()
    return BoundExtractor(spec, weights)


# ------------------------------------------------------ feature extraction

def validate_dims(spec: ExtractorSpec, h: int, w: int) -> None:
    """Raise IndivisibleDims unless an h x w input survives the head's convs
    and poolings."""
    for layer in spec.layers:
        if layer.kind == "conv":
            try:
                h = conv_output_dim(h, layer.kernel, layer.stride, layer.padding)
                w = conv_output_dim(w, layer.kernel, layer.stride, layer.padding)
            except NonIntegralOutputDimError as exc:
                raise IndivisibleDimsError(str(exc)) from exc
        elif layer.kind == "pool":
            if h % 2 or w % 2:
                raise IndivisibleDimsError(
                    f"{spec.name}: {layer.name} needs even dims, got {h}x{w}"
                )
            h, w = h // 2, w // 2


def extract_features(img: ImageF32, extractor: BoundExtractor) -> np.ndarray:
    """Forward an RGB image (values in [0,1], no mean normalization) through
    the extractor's layers. Dims that break a pooling or stride raise
    IndivisibleDims before any arithmetic runs."""
    validate_dims(extractor.spec, img.height, img.width)
    return extractor.forward(img.data)


def feature_bands(img: ImageF32, extractor: BoundExtractor):
    """``extract_features`` as an iterator of row bands, so a caller can
    reduce each band as it arrives instead of holding the whole output."""
    validate_dims(extractor.spec, img.height, img.width)
    return extractor.bands(img.data)


def _bilinear_resize(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resampling with clamped borders."""
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
    top = (1.0 - wx) * plane[np.ix_(y0, x0)] + wx * plane[np.ix_(y0, x1)]
    bottom = (1.0 - wx) * plane[np.ix_(y1, x0)] + wx * plane[np.ix_(y1, x1)]
    return (1.0 - wy) * top + wy * bottom


def attention_map(features: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Channel-mean feature map, min-max normalized then upsampled to the
    requested size. ``features`` is a (c, h, w) tensor or its (h, w) channel
    mean. A flat map (max == min) normalizes to all 0.5."""
    if features.size == 0:
        raise ValueError("features must be non-empty")
    m = features if features.ndim == 2 else features.mean(axis=0, dtype=np.float64)
    lo, hi = float(m.min()), float(m.max())
    if hi == lo:
        norm = np.full(m.shape, 0.5)
    else:
        norm = (m - lo) / (hi - lo)
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
    unchanged; gain 0 is a bit-exact identity.
    """
    if attn.shape != (img.height, img.width):
        raise DimMismatchError(
            f"attention {attn.shape} vs image {img.height}x{img.width}"
        )
    if gain < 0.0:
        raise ValueError("gain must be >= 0")
    planes = img.data.astype(np.float64)
    v = planes.max(axis=0)
    factor = 1.0 + gain * (attn - float(np.mean(attn, dtype=np.float64)))
    factor = np.maximum(factor, 0.0)
    cap = np.where(v > 0.0, 1.0 / np.where(v > 0.0, v, 1.0), np.inf)
    return ImageF32.from_array(planes * np.minimum(factor, cap))


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
    """
    adjusted = attention_adjust(img, attn, gain)
    flags, _ = classify(img, thresholds)
    plan = build_plan(flags, plan_overrides)
    return apply_plan(adjusted, plan, on_step)
