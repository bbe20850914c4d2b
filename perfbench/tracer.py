"""In-memory span tracer that wraps skelclip's public functions from outside.

A span is recorded at each layer boundary: name, start, end, the span that
called it, and counts taken from the call's arguments and result. Wrappers
are installed where callers look the name up, i.e. every skelclip module
namespace that holds the function (``experiments.generate_clips``,
``clips.resize_bilinear``, ...), and removed again on exit, so the program's
own files never change. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    parent: int          # index of the calling span, -1 at the root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


class Tracer:
    """Records spans for the wrapped functions while ``active()`` is entered."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span called ``name``; ``count(result, *args,
        **kwargs)`` returns a dict of counts stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def active(self, targets, methods=()):
        """Install wrappers for ``targets`` — (module, function name, span
        name, count) — in every loaded skelclip module that binds the same
        function object, and for ``methods`` — (class, attribute, span name)
        — on the class; restore the originals on exit."""
        replaced = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "skelclip" or n.startswith("skelclip."))]
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        replaced.append((m, key, value))
                        setattr(m, key, wrapper)
        for cls, attr, name in methods:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            replaced.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(replaced):
                setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# The layers: skelclip modules and the public functions wrapped in each.


def _nbytes_stored(arr) -> int:
    arr = np.asarray(arr)
    return arr.size * (1 if arr.dtype == np.uint8 else 4)


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _train_counts(result, samples, cfg, n_classes, labels=None):
    n = len(samples)
    return {
        "mode": cfg.mode,
        "samples": n,
        "sgd_steps": cfg.epochs * math.ceil(n / cfg.batch_size),
        "sample_epochs": n * cfg.epochs,
    }


def _features_counts(result, cs, spec):
    h, w = cs.size
    return {"frames": 12, "h": h, "w": w, "spec": (spec.in_channels, spec.widths)}


def layer_targets():
    """(module, function, span name, count) for every wrapped function."""
    from skelclip import cli, clips, experiments, features, multitask, skeleton_io, tensorio

    return [
        (skeleton_io, "load_sequences", "skeleton_io.load_sequences",
         lambda r, path, layout: {"frames": sum(s.frame_count for s in r),
                                  "bytes": _file_size(path)}),
        (clips, "generate_clips", "clips.generate_clips", lambda r, *a, **k: {"clipsets": 1}),
        (clips, "resize_bilinear", "clips.resize_bilinear", None),
        (clips, "scale_to_gray", "clips.scale_to_gray", None),
        (features, "build_time_step_features", "features.build_time_step_features",
         _features_counts),
        (features, "load_feature_map_stack", "features.load_feature_map_stack", None),
        (features, "extractor_weights", "features.extractor_weights", None),
        (tensorio, "write_tensor", "tensorio.write_tensor",
         lambda r, dest, arr: {"bytes": _nbytes_stored(arr)}),
        (tensorio, "read_tensor", "tensorio.read_tensor", lambda r, src: {"bytes": r.nbytes}),
        (multitask, "train", "multitask.train", _train_counts),
        (multitask, "predict_multi_sample", "multitask.predict_multi_sample", None),
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (experiments, "compute_features", "experiments.compute_features", None),
        (experiments, "make_splits", "experiments.make_splits", None),
        (experiments, "train_mode", "experiments.train_mode", None),
        (experiments, "evaluate_mode", "experiments.evaluate_mode", None),
        (cli, "main", "cli.main", None),
    ]


def layer_methods():
    from skelclip.experiments import FeatureScaler

    return [
        (FeatureScaler, "fit", "experiments.FeatureScaler.fit"),
        (FeatureScaler, "apply", "experiments.FeatureScaler.apply"),
    ]


def extractor_cost(in_channels: int, widths, h: int, w: int, frames: int):
    """Per stage: (multiply-accumulates, im2col bytes) for ``frames`` frames
    of h x w through 3x3 same-padded convs, each followed by a 2x2 pool.
    The im2col matrix holds one float64 row of C_in * 9 taps per output
    pixel, which is how the extractor lays out its one GEMM per stage."""
    out = []
    cin = in_channels
    for cout in widths:
        taps = cin * 9
        out.append((frames * h * w * taps * cout, frames * h * w * taps * 8))
        cin, h, w = cout, h // 2, w // 2
    return out


MODES = ("mtln", "frame", "concat", "maxpool")

# (metric, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = [
    ("skeleton_io.busy_ms", "ms", "lower"),
    ("skeleton_io.frames", "count", "lower"),
    ("skeleton_io.bytes", "B", "lower"),
    ("clips.busy_ms", "ms", "lower"),
    ("clips.resize_ms", "ms", "lower"),
    ("clips.scale_ms", "ms", "lower"),
    ("clips.clipsets", "count", "lower"),
    ("features.busy_ms", "ms", "lower"),
    ("features.frames", "count", "lower"),
    ("features.ms_per_frame", "ms", "lower"),
    ("features.ingest_ms", "ms", "lower"),
    ("features.weights_ms", "ms", "lower"),
    *[(f"features.stage{i}.macs", "count", "lower") for i in range(1, 5)],
    *[(f"features.stage{i}.im2col_mb", "MB", "lower") for i in range(1, 5)],
    ("tensorio.write_ms", "ms", "lower"),
    ("tensorio.write_mb", "MB", "lower"),
    ("tensorio.read_ms", "ms", "lower"),
    ("tensorio.read_mb", "MB", "lower"),
    *[(f"multitask.train_ms.{m}", "ms", "lower") for m in MODES],
    ("multitask.sgd_steps", "count", "lower"),
    ("multitask.sample_epochs_per_s", "1/s", "higher"),
    ("multitask.predict_ms", "ms", "lower"),
    ("multitask.predict_calls", "count", "lower"),
    ("experiments.compute_features_ms", "ms", "lower"),
    ("experiments.evaluate_ms", "ms", "lower"),
    ("experiments.self_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Per-unit layer metrics from the spans of ``units`` traced units
    (``trace.*`` and ``features.weights_ms`` are filled in by the caller)."""
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own_s in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + own_s
        calls[s.name] = calls.get(s.name, 0) + 1

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def ms(seconds):
        return 1e3 * seconds / units

    def per(value):
        return value / units

    m = {
        "skeleton_io.busy_ms": ms(busy.get("skeleton_io.load_sequences", 0.0)),
        "skeleton_io.frames": per(total("skeleton_io.load_sequences", "frames")),
        "skeleton_io.bytes": per(total("skeleton_io.load_sequences", "bytes")),
        "clips.busy_ms": ms(busy.get("clips.generate_clips", 0.0)),
        "clips.resize_ms": ms(busy.get("clips.resize_bilinear", 0.0)),
        "clips.scale_ms": ms(busy.get("clips.scale_to_gray", 0.0)),
        "clips.clipsets": per(total("clips.generate_clips", "clipsets")),
        "features.busy_ms": ms(busy.get("features.build_time_step_features", 0.0)),
        "features.frames": per(total("features.build_time_step_features", "frames")),
        "features.ingest_ms": ms(busy.get("features.load_feature_map_stack", 0.0)),
        "tensorio.write_ms": ms(busy.get("tensorio.write_tensor", 0.0)),
        "tensorio.write_mb": per(total("tensorio.write_tensor", "bytes")) / 1e6,
        "tensorio.read_ms": ms(busy.get("tensorio.read_tensor", 0.0)),
        "tensorio.read_mb": per(total("tensorio.read_tensor", "bytes")) / 1e6,
        "multitask.sgd_steps": per(total("multitask.train", "sgd_steps")),
        "multitask.predict_ms": ms(busy.get("multitask.predict_multi_sample", 0.0)),
        "multitask.predict_calls": per(calls.get("multitask.predict_multi_sample", 0)),
        "experiments.compute_features_ms": ms(busy.get("experiments.compute_features", 0.0)),
        "experiments.evaluate_ms": ms(own.get("experiments.evaluate_mode", 0.0)),
        "experiments.self_ms": ms(sum(
            v for k, v in own.items()
            if k.startswith("experiments.")
            and k not in ("experiments.compute_features", "experiments.evaluate_mode")
        )),
        "cli.self_ms": ms(own.get("cli.main", 0.0)),
    }
    frames = m["features.frames"]
    m["features.ms_per_frame"] = m["features.busy_ms"] / frames if frames else 0.0

    extractor_calls = [s.counts for s in spans if s.name == "features.build_time_step_features"]
    stages = [(0, 0)] * 4
    if extractor_calls:
        c = extractor_calls[0]
        stages = extractor_cost(c["spec"][0], c["spec"][1], c["h"], c["w"], c["frames"])
    for i, (macs, col_bytes) in enumerate(stages[:4], start=1):
        m[f"features.stage{i}.macs"] = float(macs)
        m[f"features.stage{i}.im2col_mb"] = col_bytes / 1e6

    train_spans = [s for s in spans if s.name == "multitask.train"]
    for mode in MODES:
        m[f"multitask.train_ms.{mode}"] = ms(
            sum(s.duration for s in train_spans if s.counts["mode"] == mode)
        )
    train_s = sum(s.duration for s in train_spans)
    sample_epochs = sum(s.counts["sample_epochs"] for s in train_spans)
    m["multitask.sample_epochs_per_s"] = sample_epochs / train_s if train_s else 0.0
    return m


def root_coverage(spans: list[Span], first: int, start: float, end: float) -> float:
    """Seconds of [start, end] covered by root spans recorded from index ``first`` on."""
    return covered([(s.start, s.end) for s in spans[first:] if s.parent < 0], start, end)
