"""Per-layer tracing of aquaclear from outside the program.

The tracer wraps public functions of each module where their callers look
them up: every ``aquaclear.*`` module global bound to the function is
replaced, so ``aquaclear.pipeline.load_ppm`` and ``aquaclear.enhance.nlm_denoise``
(which ``_STEP_FUNCS`` reads at call time) are both traced. Each call records
a span (name, metric key, start, end, parent) in memory; spans in a
``_pmap`` worker thread hang under the running command's span.

Self time is a span's duration minus the part of it its child spans cover.
Every ``<layer>.<function>.s`` metric is a self time, so per pass the
lower-layer self times plus ``pipeline.self_s`` add up to the summed
``cli.<command>.s`` wall times (exactly, at one pipeline thread).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time

# Per-layer metrics, in report order, with their units. Times are seconds
# per traced pass; counts are per pass and repeat exactly.
PER_LAYER = (
    ("cli.split.s", "s"),
    ("cli.augment.s", "s"),
    ("cli.classify.s", "s"),
    ("cli.enhance.s", "s"),
    ("cli.evaluate.s", "s"),
    ("cli.report.s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.item_s.p50", "s"),
    ("pipeline.item_s.max", "s"),
    ("pipeline.parallel_eff", "ratio"),
    ("pipeline.items_skipped", "count"),
    ("image.load_ppm.s", "s"),
    ("image.load_ppm.calls", "count"),
    ("image.load_ppm.mb_per_s", "MB/s"),
    ("image.save_ppm.s", "s"),
    ("image.save_ppm.calls", "count"),
    ("image.save_ppm.mb_per_s", "MB/s"),
    ("image.rgb_to_hsv.s", "s"),
    ("image.hsv_to_rgb.s", "s"),
    ("image.rgb_to_lab.s", "s"),
    ("image.convolve2d.s", "s"),
    ("image.convolve2d.calls", "count"),
    ("classify.classify.s", "s"),
    ("classify.classify.calls", "count"),
    ("classify.per_enhanced_image", "calls/image"),
    ("enhance.gray_world.s", "s"),
    ("enhance.clahe.s", "s"),
    ("enhance.sharpen.s", "s"),
    ("enhance.apply_plan.s", "s"),
    ("enhance.nlm.s", "s"),
    ("enhance.nlm.calls", "count"),
    ("enhance.nlm.offset_px", "px_computed"),
    ("enhance.nlm.offset_px_per_s", "px/s"),
    ("neural.vgg.conv1.s", "s"),
    ("neural.vgg.conv2.s", "s"),
    ("neural.vgg.conv3.s", "s"),
    ("neural.vgg.conv4.s", "s"),
    ("neural.resnet.conv1.s", "s"),
    ("neural.resnet.res1.s", "s"),
    ("neural.resnet.res2.s", "s"),
    ("neural.max_pool2.s", "s"),
    ("neural.attention_map.s", "s"),
    ("neural.attention_adjust.s", "s"),
    ("neural.init_weights.s", "s"),
    ("neural.conv.gmac", "GMAC_computed"),
    ("neural.conv.gmac_per_s", "GMAC/s"),
    ("neural.conv.bytes", "B_computed"),
    ("metrics.uciqe.s", "s"),
    ("metrics.uicm.s", "s"),
    ("metrics.uism.s", "s"),
    ("metrics.uiconm.s", "s"),
    ("metrics.psnr.s", "s"),
    ("metrics.score_image.s", "s"),
    ("metrics.score_image.calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Metrics that are exact counts: equal on every traced pass of a run.
COUNT_UNITS = ("count", "calls/image", "px_computed", "GMAC_computed", "B_computed")
COUNTS = tuple(name for name, unit in PER_LAYER if unit in COUNT_UNITS)

# Conv layer shapes of the two heads, (c_out, c_in, k, stride, pad, pool_after),
# written out here so the expected MAC count does not depend on the code
# under test.
VGG_HEAD = ((64, 3, 3, 1, 1, False), (64, 64, 3, 1, 1, True),
        (128, 64, 3, 1, 1, False), (128, 128, 3, 1, 1, False))
RESNET_HEAD = ((64, 3, 7, 2, 3, True), (64, 64, 3, 1, 1, False),
           (64, 64, 3, 1, 1, False), (64, 64, 3, 1, 1, False),
           (64, 64, 3, 1, 1, False))
NLM_OFFSETS = 21 * 21 - 1  # default window radius 10, centre excluded


def head_macs(layers, size: int) -> int:
    """Multiply-accumulates of one head on a size x size image."""
    total, extent = 0, size
    for c_out, c_in, k, stride, pad, pool_after in layers:
        extent = (extent + 2 * pad - k) // stride + 1
        total += c_out * c_in * k * k * extent * extent
        if pool_after:
            extent //= 2
    return total


def expected_macs(method: str | None, size: int) -> int:
    """Conv MACs one image costs under an enhance method."""
    heads = {"vgg": (VGG_HEAD,), "resnet": (RESNET_HEAD,), "unite": (VGG_HEAD, RESNET_HEAD)}
    return sum(head_macs(h, size) for h in heads.get(method, ()))


# Per-image MACs at 128px, derived by hand from the shapes above.
VGG_MACS_128 = 1_538_260_992
RESNET_MACS_128 = 189_530_112


class Span:
    __slots__ = ("name", "key", "start", "end", "children", "notes")

    def __init__(self, name: str, key: str):
        self.name = name
        self.key = key
        self.start = self.end = 0.0
        self.children = []
        self.notes = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _payload_bytes(img) -> int:
    return img.channels * img.height * img.width


def _note_load(tracer, span, args, kwargs, result):
    span.notes["bytes"] = _payload_bytes(result)


def _note_save(tracer, span, args, kwargs, result):
    span.notes["bytes"] = _payload_bytes(_arg(args, kwargs, 0, "img"))


def _note_conv(tracer, span, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    layer = _arg(args, kwargs, 1, "layer")
    span.key = tracer.slots.get(id(layer.weights), "neural.conv2d_forward")
    c_out, c_in, k, _ = layer.weights.shape
    s, p = layer.stride, layer.padding
    h_out = (x.shape[1] + 2 * p - k) // s + 1
    w_out = (x.shape[2] + 2 * p - k) // s + 1
    span.notes["macs"] = c_out * c_in * k * k * h_out * w_out
    # float64 padded input, weights and output, as the kernel touches them
    padded = c_in * (x.shape[1] + 2 * p) * (x.shape[2] + 2 * p)
    span.notes["bytes"] = 8 * (padded + layer.weights.size + c_out * h_out * w_out)


def _note_residual(tracer, span, args, kwargs, result):
    block = _arg(args, kwargs, 1, "block")
    span.key = tracer.slots.get(id(block.conv_a.weights), "neural.residual_forward")


def _note_nlm(tracer, span, args, kwargs, result):
    img = _arg(args, kwargs, 0, "img")
    params = _arg(args, kwargs, 1, "params")
    w = 10 if params is None else params.window_radius
    offsets = (2 * w + 1) ** 2 - 1
    span.notes["offset_px"] = offsets * _payload_bytes(img)


def _note_init_weights(tracer, span, args, kwargs, result):
    head = result.spec.name.removesuffix("_head")
    for name, array in result.weights.items():
        if name.endswith(".weight"):
            tracer.slots[id(array)] = f"neural.{head}.{name.split('.', 1)[0]}"


# (defining module, function, metric key, note taken after the call)
TARGETS = (
    ("image", "load_ppm", "image.load_ppm", _note_load),
    ("image", "save_ppm", "image.save_ppm", _note_save),
    ("image", "rgb_to_hsv", "image.rgb_to_hsv", None),
    ("image", "hsv_to_rgb", "image.hsv_to_rgb", None),
    ("image", "rgb_to_lab", "image.rgb_to_lab", None),
    ("image", "convolve2d", "image.convolve2d", None),
    ("classify", "classify", "classify.classify", None),
    ("enhance", "gray_world_correct", "enhance.gray_world", None),
    ("enhance", "clahe_v", "enhance.clahe", None),
    ("enhance", "sharpen", "enhance.sharpen", None),
    ("enhance", "nlm_denoise", "enhance.nlm", _note_nlm),
    ("enhance", "apply_plan", "enhance.apply_plan", None),
    ("neural", "conv2d_forward", "neural.conv2d_forward", _note_conv),
    ("neural", "residual_forward", "neural.residual_forward", _note_residual),
    ("neural", "max_pool2", "neural.max_pool2", None),
    ("neural", "attention_map", "neural.attention_map", None),
    ("neural", "attention_adjust", "neural.attention_adjust", None),
    ("neural", "init_weights", "neural.init_weights", _note_init_weights),
    ("metrics", "uciqe", "metrics.uciqe", None),
    ("metrics", "uicm", "metrics.uicm", None),
    ("metrics", "uism", "metrics.uism", None),
    ("metrics", "uiconm", "metrics.uiconm", None),
    ("metrics", "psnr", "metrics.psnr", None),
    ("metrics", "score_image", "metrics.score_image", None),
)

ITEM = "pipeline.item"


def _is_skip(result) -> bool:
    """Whether a _pmap item result is one of the runners' skip markers."""
    if result is None:
        return True
    if isinstance(result, dict):
        return "error" in result
    if isinstance(result, tuple) and len(result) == 3:
        return result[1] is None
    return isinstance(result, int) and result == 0


class Tracer:
    """Records spans while installed; ``command`` opens one root per stage."""

    def __init__(self):
        self.roots = []
        self.slots = {}  # id(conv weight array) -> metric key of its slot
        self._local = threading.local()
        self._root = None
        self._patches = []

    # -------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, key: str) -> Span:
        stack = self._stack()
        span = Span(name, key)
        parent = stack[-1] if stack else self._root
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def command(self, name: str):
        """Root span for one CLI command run on this (the main) thread."""
        span = self._open(f"cli.{name}", f"cli.{name}")
        self._root = span
        try:
            yield span
        finally:
            self._close(span)
            self._root = None
            self.roots.append(span)

    def take(self) -> list:
        roots, self.roots = self.roots, []
        return roots

    # ----------------------------------------------------------- patching

    def _wrap(self, fn, key: str, note):
        tracer = self
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:  # only calls that returned carry notes
                note(tracer, span, args, kwargs, result)
            return result

        return traced

    def _wrap_pmap(self, pmap):
        tracer = self

        @functools.wraps(pmap)
        def traced_pmap(fn, items, threads):
            def item(x):
                span = tracer._open(ITEM, ITEM)
                try:
                    result = fn(x)
                finally:
                    tracer._close(span)
                span.notes["skipped"] = int(_is_skip(result))
                return result

            return pmap(item, items, threads)

        return traced_pmap

    def _replace_everywhere(self, original, replacement) -> int:
        """Rebind every aquaclear module global that names ``original``."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("aquaclear.") or mod_name == "aquaclear.synth":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))
                    hits += 1
        return hits

    def install(self) -> list:
        """Patch every target; returns the targets that could not be found."""
        import aquaclear.cli  # noqa: F401  (loads every layer module)

        missing = []
        for mod_name, fn_name, key, note in TARGETS:
            module = sys.modules[f"aquaclear.{mod_name}"]
            fn = getattr(module, fn_name, None)
            if fn is None or not self._replace_everywhere(fn, self._wrap(fn, key, note)):
                missing.append(f"{mod_name}.{fn_name}")
        pipeline = sys.modules["aquaclear.pipeline"]
        pmap = getattr(pipeline, "_pmap", None)
        if pmap is None:
            missing.append("pipeline._pmap")
        else:
            self._replace_everywhere(pmap, self._wrap_pmap(pmap))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


# ------------------------------------------------------------ aggregation

def _covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end <= end:
            continue
        total += span.end - max(span.start, end)
        end = span.end
    return total


def pass_metrics(roots, threads: int) -> dict:
    """Per-layer metrics of one traced pass from its command spans."""
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    m["neural.conv.macs"] = 0  # exact integer, checked against expected_macs
    sums = {"load_bytes": 0, "save_bytes": 0, "conv_s": 0.0}
    items, pooled_wall = [], 0.0
    enhanced = enhance_classify = 0

    def visit(span, in_enhance):
        nonlocal enhance_classify
        self_s = span.duration - _covered(span.children)
        m[f"{span.key}.s"] = m.get(f"{span.key}.s", 0.0) + self_s
        calls = f"{span.key}.calls"
        if calls in m:
            m[calls] += 1
        if span.key == "classify.classify" and in_enhance:
            enhance_classify += 1
        if span.name == "neural.conv2d_forward":
            sums["conv_s"] += self_s
            m["neural.conv.macs"] += span.notes.get("macs", 0)
            m["neural.conv.bytes"] += span.notes.get("bytes", 0)
        elif span.key == "image.load_ppm":
            sums["load_bytes"] += span.notes.get("bytes", 0)
        elif span.key == "image.save_ppm":
            sums["save_bytes"] += span.notes.get("bytes", 0)
        elif span.key == "enhance.nlm":
            m["enhance.nlm.offset_px"] += span.notes.get("offset_px", 0)
        for child in span.children:
            visit(child, in_enhance)

    for root in roots:
        m[f"{root.key}.s"] += root.duration
        in_enhance = root.key == "cli.enhance"
        outer, own_items = [], []
        for child in root.children:
            if child.key == ITEM:
                own_items.append(child)
                outer.extend(child.children)
            else:
                outer.append(child)
        for span in outer:
            visit(span, in_enhance)
        m["pipeline.self_s"] += root.duration - _covered(outer)
        if own_items:
            pooled_wall += root.duration
            items.extend(own_items)
            skipped = sum(i.notes.get("skipped", 1) for i in own_items)
            m["pipeline.items_skipped"] += skipped
            if in_enhance:
                enhanced += len(own_items) - skipped

    durations = [i.duration for i in items]
    if durations:
        m["pipeline.item_s.p50"] = statistics.median(durations)
        m["pipeline.item_s.max"] = max(durations)
        m["pipeline.parallel_eff"] = sum(durations) / (pooled_wall * threads)
    if enhanced:
        m["classify.per_enhanced_image"] = enhance_classify / enhanced

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m["image.load_ppm.mb_per_s"] = rate(sums["load_bytes"] / 1e6, m["image.load_ppm.s"])
    m["image.save_ppm.mb_per_s"] = rate(sums["save_bytes"] / 1e6, m["image.save_ppm.s"])
    m["enhance.nlm.offset_px_per_s"] = rate(m["enhance.nlm.offset_px"], m["enhance.nlm.s"])
    m["neural.conv.gmac"] = m["neural.conv.macs"] / 1e9
    m["neural.conv.gmac_per_s"] = rate(m["neural.conv.gmac"], sums["conv_s"])
    return m


def dump(roots, pass_index: int, fh) -> None:
    """Write a pass's spans as JSON lines; ``parent`` indexes an earlier line
    of the same pass, and times are seconds from the first command's start."""
    origin = roots[0].start if roots else 0.0
    counter = 0

    def emit(span, parent):
        nonlocal counter
        index = counter
        counter += 1
        fh.write(json.dumps({
            "pass": pass_index, "id": index, "parent": parent, "name": span.name,
            "key": span.key, "start": span.start - origin, "end": span.end - origin,
            **span.notes}) + "\n")
        for child in span.children:
            emit(child, index)

    for root in roots:
        emit(root, None)


def self_time_total(m: dict) -> float:
    """Sum of all self times in a pass's metrics, pipeline.self_s included."""
    return sum(v for k, v in m.items()
               if (k.endswith(".s") and not k.startswith("cli.")) or k == "pipeline.self_s")


def command_wall_total(m: dict) -> float:
    return sum(v for k, v in m.items() if k.startswith("cli.") and k.endswith(".s"))
