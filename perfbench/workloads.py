"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` (``setup_rounds``
times, so that the median set-up is reported) and then runs one
unit of work per ``run_unit`` call: one experiment (``replicate``), one
encoding pass over the file set (``encode_ntu``), or one ingest-train-evaluate
pass (``paper_scale``). ``check`` verifies a unit's outputs outside the timed
section and returns the problems it found. The library and CLI are reached
only through calls made from here; names are looked up on the skelclip
modules at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import inputs
from skelclip import cli, clips, experiments, features, layouts, multitask, skeleton_io, tensorio
from skelclip.errors import SkelclipError

clock = time.perf_counter


@dataclass
class Unit:
    start: float
    end: float
    entry_s: list[float]              # per-entry latencies
    attempted: int                    # entries, files or stacks, plus nets
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, str] = field(default_factory=dict)
    covered: float = 0.0              # seconds under root spans, traced units only
    outputs: object = None            # what ``check`` inspects

    @property
    def wall(self) -> float:
        return self.end - self.start


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Replicate:
    """The acceptance replication through ``run_experiment`` with the
    in-memory ``sequence_table_loader``: mtln and frame modes."""

    name = "replicate"
    setup_rounds = 5
    modes = ("mtln", "frame")
    mtln_floor = 0.95    # acceptance criterion 6
    feature_shape = (4, 2688)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> dict[str, float]:
        self.manifest, self.sequences, self.protocol = inputs.replicate_data(self.seed)
        self.pipeline = experiments.PipelineConfig(
            clip_options=clips.ClipOptions(),
            extractor=features.ExtractorSpec(channels=64, seed=self.seed),
            train=multitask.TrainConfig(seed=self.seed, batch_size=inputs.REPLICATE_BATCH),
        )
        features.extractor_weights.cache_clear()
        t0 = clock()
        features.extractor_weights(self.pipeline.extractor)
        weights_s = clock() - t0
        cs = clips.generate_clips(self.sequences[0], self.pipeline.clip_options)
        features.build_time_step_features(cs, self.pipeline.extractor)
        return {"features.weights_ms": 1e3 * weights_s}

    def run_unit(self) -> Unit:
        table = experiments.sequence_table_loader(self.manifest, self.sequences)
        starts, ends, stacked = [], [], []

        def loader(path):
            starts.append(clock())
            return table(path)

        # run_experiment keeps its features to itself; this pass-through keeps
        # a reference to each stacked (4, d) array and when it was ready
        stack = experiments.stack_time_step_features

        def keep(steps):
            out = stack(steps)
            ends.append(clock())
            stacked.append(out)
            return out

        n = len(self.manifest.entries)
        attempted = n + 1 + multitask.TASK_COUNT
        experiments.stack_time_step_features = keep
        try:
            t0 = clock()
            report = experiments.run_experiment(
                self.manifest, loader, self.protocol, self.pipeline, modes=self.modes
            )
            t1 = clock()
        except Exception as exc:  # counted as a failed unit, reported by check
            return Unit(0.0, 0.0, [], attempted, attempted, [f"run_experiment: {exc!r}"])
        finally:
            experiments.stack_time_step_features = stack
        return Unit(
            t0, t1, [e - s for s, e in zip(starts, ends)], attempted,
            accuracy={m.mode: m.accuracy for m in report.modes},
            outputs=(report, stacked),
        )

    def check(self, unit: Unit) -> None:
        if unit.outputs is None:
            return
        report, stacked = unit.outputs
        n = len(self.manifest.entries)
        if len(stacked) != n or len(unit.entry_s) != n:
            unit.problems.append(f"expected {n} feature arrays, got {len(stacked)}")
            unit.failed += n
        bad = sum(1 for f in stacked if f.shape != self.feature_shape or not np.isfinite(f).all())
        if bad:
            unit.problems.append(f"{bad} feature arrays not finite {self.feature_shape}")
            unit.failed += bad
        if not unit.accuracy.get("mtln", 0.0) >= self.mtln_floor:
            unit.problems.append(f"acc.mtln {unit.accuracy.get('mtln')} < {self.mtln_floor}")
            unit.failed += 1
        unit.fingerprint = {
            "features_sha256": _sha256(np.stack(stacked).tobytes()),
            "results_sha256": _sha256(experiments.render_results(report).encode("utf-8")),
        }
        unit.outputs = None


class EncodeNtu:
    """NTU ``.skeleton`` files encoded one at a time through
    ``skelclip gen-clips``: one caller in a closed loop."""

    name = "encode_ntu"
    setup_rounds = 5
    clip_shape = (3, 4, 224, 224)

    def __init__(self, seed: int):
        self.seed = seed
        self.passes = 0

    def setup(self, work: Path) -> dict[str, float]:
        self.files = inputs.ntu_file_set(self.seed)
        self.paths = inputs.write_ntu_files(self.files, work / "in")
        self.out = work / "out"
        self.layout = layouts.load_layout("ntu-25")
        with contextlib.redirect_stdout(io.StringIO()):
            self._encode(self.paths[0], work / "warm-up")
        return {}

    def _encode(self, path: Path, out: Path) -> int:
        return cli.main(["gen-clips", "--input", str(path), "--layout", "ntu-25",
                         "--out", str(out)])

    def run_unit(self) -> Unit:
        shutil.rmtree(self.out, ignore_errors=True)
        codes, latencies = [], []
        # the CLI reports each file on stdout and failures on stderr
        messages = io.StringIO()
        with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
            t0 = clock()
            for path in self.paths:
                a = clock()
                try:
                    codes.append(self._encode(path, self.out))
                except Exception as exc:  # an escaped error counts as a failed file
                    print(f"{path.name}: {exc!r}", file=sys.stderr)
                    codes.append(-1)
                latencies.append(clock() - a)
            t1 = clock()
        unit = Unit(t0, t1, latencies, len(self.paths), outputs=codes)
        if any(codes):
            unit.problems.append("gen-clips said: " + messages.getvalue().strip()[-300:])
        return unit

    def check(self, unit: Unit) -> None:
        digest = hashlib.sha256()
        checked_values = set()
        for (rec, _), code in zip(self.files, unit.outputs):
            problem = self._check_file(rec, code, digest, checked_values)
            if problem:
                unit.problems.append(f"{rec.name}: {problem}")
                unit.failed += 1
        unit.fingerprint = {"clips_sha256": digest.hexdigest()}
        self.passes += 1
        unit.outputs = None

    def _check_file(self, rec, code, digest, checked_values) -> str | None:
        """One clip tensor per body, each (3, 4, 224, 224) uint8. On the first
        pass, the first recording of each body count is also compared value
        by value with clips made from the generated coordinates."""
        if code != 0:
            return f"gen-clips exit code {code}"
        names = ([f"{rec.name}.clips.sktf"] if len(rec.bodies) == 1 else
                 [f"{rec.name}.b{b}.clips.sktf" for b in range(len(rec.bodies))])
        written = sorted(p.name for p in self.out.glob(f"{rec.name}.*"))
        if written != sorted(names):
            return f"wrote {written}, expected {names}"
        try:
            arrays = [tensorio.read_tensor(self.out / n) for n in names]
        except (OSError, SkelclipError) as exc:
            return f"unreadable clip tensor: {exc}"
        for a in arrays:
            if a.dtype != np.uint8 or a.shape != self.clip_shape:
                return f"clip tensor is {a.dtype} {a.shape}"
        if self.passes == 0 and len(rec.bodies) not in checked_values:
            checked_values.add(len(rec.bodies))
            for body, got in zip(rec.bodies, arrays):
                seq = skeleton_io.SkeletonSequence(layout=self.layout, frames=body)
                if not np.array_equal(clips.generate_clips(seq).as_array(), got):
                    return "clips differ from those of the generated recording"
        for a in arrays:
            digest.update(a.tobytes())
        return None


class PaperScale:
    """Precomputed (3, 4, 14, 14, 512) stacks ingested with
    ``load_feature_map_stack``, then split, scaler, and all four modes trained
    and evaluated at the paper's 21504-D time-step size."""

    name = "paper_scale"
    setup_rounds = 3     # each writes 290 MB of stacks and trains one epoch
    modes = multitask.MODES
    feature_shape = (4, 21504)
    train = dict(hidden=64, epochs=10, batch_size=10)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> dict[str, float]:
        self.manifest, self.protocol = inputs.stack_manifest()
        self.paths = inputs.write_feature_stacks(self.seed, self.manifest, work / "stacks")
        self.config = multitask.TrainConfig(seed=self.seed, **self.train)
        # a one-epoch pass: the first pass of a process is slower until the
        # allocator has served (and been handed back) training-sized arrays
        self._pass(replace(self.config, epochs=1))
        return {}

    def run_unit(self) -> Unit:
        return self._pass(self.config)

    def _pass(self, config) -> Unit:
        k = self.manifest.class_count
        attempted = len(self.paths) + sum(multitask.TASK_COUNT if m == "frame" else 1
                                          for m in self.modes)
        latencies, rows, accuracy = [], {}, {}
        try:
            t0 = clock()
            for entry, path in zip(self.manifest.entries, self.paths):
                a = clock()
                rows[entry.path] = features.stack_time_step_features(
                    features.load_feature_map_stack(path)
                )
                latencies.append(clock() - a)
            (train_m, test_m), = experiments.make_splits(self.manifest, self.protocol)
            train_x = np.stack([rows[e.path] for e in train_m.entries])
            train_y = np.array([e.label for e in train_m.entries], dtype=np.intp)
            scaler = experiments.FeatureScaler.fit(train_x)
            train_x = scaler.apply(train_x)
            groups = [(e.label, [scaler.apply(rows[e.path])]) for e in test_m.entries]
            for mode in self.modes:
                models, _ = experiments.train_mode(mode, train_x, train_y, config, k)
                accuracy[mode], _ = experiments.evaluate_mode(mode, models, groups, k)
            t1 = clock()
        except Exception as exc:  # counted as a failed unit, reported by check
            return Unit(0.0, 0.0, [], attempted, attempted, [f"paper_scale: {exc!r}"])
        return Unit(t0, t1, latencies, attempted, accuracy=accuracy, outputs=rows)

    def check(self, unit: Unit) -> None:
        if unit.outputs is None:
            return
        bad = sum(1 for f in unit.outputs.values()
                  if f.shape != self.feature_shape or not np.isfinite(f).all())
        if bad:
            unit.problems.append(f"{bad} time-step features not finite {self.feature_shape}")
            unit.failed += bad
        chance = 1.0 / self.manifest.class_count
        for mode, acc in unit.accuracy.items():
            if not acc > chance:
                unit.problems.append(f"acc.{mode} {acc:.3f} not above chance {chance:.3f}")
                unit.failed += multitask.TASK_COUNT if mode == "frame" else 1
        unit.fingerprint = {"features_sha256": _sha256(
            np.stack([unit.outputs[e.path] for e in self.manifest.entries]).tobytes())}
        unit.outputs = None


WORKLOADS = {w.name: w for w in (Replicate, EncodeNtu, PaperScale)}
