"""End-to-end experiment runner: splits, pipeline, evaluation, reports.

A run takes a dataset (manifest plus a way to load each entry's sequences),
partitions it by the chosen protocol, pushes every sequence through
clip generation -> frozen feature extraction -> (optional train-set
standardization) -> classifier training, and evaluates each requested mode
on the held-out side. Every skeleton becomes one (4, d) feature array, one
row per time-step, and a fold trains on one stacked (N, 4, d) array.
Recordings that contain several skeletons contribute one training sample per
skeleton and are scored at test time by averaging the samples' class
probabilities.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .clips import CROP_SIZE, ClipOptions, augment_crops, generate_clips
from .errors import StageError
from .features import ExtractorSpec, build_time_step_features, stack_time_step_features
from .multitask import (
    MODES, FeatureScaler, MtlnParams, TrainConfig, mode_inputs, mode_probas, train,
)
from .skeleton_io import DatasetManifest, SkeletonSequence, load_sequences

# ---------------------------------------------------------------------------
# Split protocols


@dataclass(frozen=True)
class SplitProtocol:
    kind: str  # cross-subject | cross-view | k-fold
    train_ids: frozenset[int] | None = None
    test_ids: frozenset[int] | None = None
    fold_count: int = 0

    def __post_init__(self):
        if self.kind in ("cross-subject", "cross-view"):
            if not self.train_ids or not self.test_ids:
                raise ValueError(f"{self.kind} needs non-empty train_ids and test_ids")
            if self.train_ids & self.test_ids:
                raise ValueError("train and test ID sets overlap")
        elif self.kind == "k-fold":
            if self.fold_count < 2:
                raise ValueError("k-fold needs fold_count >= 2")
        else:
            raise ValueError(f"unknown protocol kind {self.kind!r}")


def make_splits(
    manifest: DatasetManifest, protocol: SplitProtocol, seed: int = 0
) -> list[tuple[DatasetManifest, DatasetManifest]]:
    """Deterministic (train, test) manifest pairs; one pair per fold.

    Cross-subject and cross-view filter by ID lists; k-fold shuffles once
    with the seeded generator and cuts contiguous folds.
    """
    entries = manifest.entries
    if protocol.kind in ("cross-subject", "cross-view"):
        attr = "subject_id" if protocol.kind == "cross-subject" else "camera_id"
        ids = [getattr(e, attr) for e in entries]
        if any(v is None for v in ids):
            raise ValueError(f"{protocol.kind} split needs {attr} on every entry")
        train = [e for e, v in zip(entries, ids) if v in protocol.train_ids]
        test = [e for e, v in zip(entries, ids) if v in protocol.test_ids]
        pairs = [(train, test)]
    else:
        order = np.random.default_rng(seed).permutation(len(entries))
        k = protocol.fold_count
        if k > len(entries):
            raise ValueError(f"cannot cut {k} folds from {len(entries)} entries")
        folds = [[entries[j] for j in part] for part in np.array_split(order, k)]
        pairs = [
            ([e for j, f in enumerate(folds) if j != i for e in f], folds[i])
            for i in range(k)
        ]
    for train, test in pairs:
        if not train or not test:
            raise ValueError("split produced an empty train or test side")
    return [
        (
            DatasetManifest(entries=train, class_count=manifest.class_count, layout=manifest.layout),
            DatasetManifest(entries=test, class_count=manifest.class_count, layout=manifest.layout),
        )
        for train, test in pairs
    ]


# ---------------------------------------------------------------------------
# Pipeline configuration


@dataclass(frozen=True)
class PipelineConfig:
    clip_options: ClipOptions = ClipOptions()
    extractor: ExtractorSpec = ExtractorSpec()
    train: TrainConfig = TrainConfig()
    augment_count: int = 0        # training-set crops per sequence; 0 disables
    augment_seed: int = 0
    standardize: bool = True      # center/scale features with train-set statistics
    test_average_crops: bool = False

    def __post_init__(self):
        if self.augment_count < 0:
            raise ValueError("augment_count must be >= 0")
        size = self.clip_options.size
        try:
            self.extractor.check_frame_size(size, size)
        except ValueError as exc:
            raise ValueError(f"size: {exc}") from None
        if self.augment_count > 0 and size != CROP_SIZE:
            raise ValueError(f"augment: crop augmentation is defined for {CROP_SIZE}x{CROP_SIZE} "
                             f"clips; got size {size}")
        if self.test_average_crops and self.augment_count == 0:
            raise ValueError("test_average_crops: needs augment > 0")


# ---------------------------------------------------------------------------
# Evaluation report


@dataclass
class ModeResult:
    mode: str
    fold_accuracies: list[float]
    confusions: list[np.ndarray]     # one matrix per trained net, rows = true class
    loss_curves: list[list[float]]   # one curve per trained net per fold

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))


@dataclass
class EvalReport:
    class_count: int
    modes: list[ModeResult]

    def mode(self, name: str) -> ModeResult:
        for m in self.modes:
            if m.mode == name:
                return m
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Feature preparation


SequenceLoader = Callable[[str], list[SkeletonSequence]]


def directory_loader(root: str | Path, manifest: DatasetManifest) -> SequenceLoader:
    """Load manifest entries relative to ``root`` via the standard readers."""
    root = Path(root)

    def load(path: str) -> list[SkeletonSequence]:
        return load_sequences(root / path, manifest.layout)

    return load


def sequence_table_loader(
    manifest: DatasetManifest, sequences: Sequence[SkeletonSequence]
) -> SequenceLoader:
    """Serve pre-built sequences (e.g. synthetic data) keyed by manifest path."""
    table = {e.path: [s] for e, s in zip(manifest.entries, sequences)}
    return lambda path: table[path]


@contextmanager
def _stage(name: str, source: object = None):
    """Re-raise any failure inside the block as a StageError tagged ``name``;
    a ``source`` (a file, or a file and body) prefixes the message."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc) if source is None else f"{source}: {exc}") from exc


def compute_features(
    manifest: DatasetManifest,
    loader: SequenceLoader,
    config: PipelineConfig,
) -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Per-entry ``(plain, crops)`` lists of (4, d) feature arrays: ``plain``
    holds one array per skeleton in the recording, ``crops`` augment_count
    arrays per skeleton."""

    def features(cs):
        return stack_time_step_features(build_time_step_features(cs, config.extractor))

    out: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for entry_index, entry in enumerate(manifest.entries):
        with _stage("load", entry.path):
            bodies = loader(entry.path)
            if not bodies:
                raise ValueError("no skeleton in the recording")
        plain: list[np.ndarray] = []
        crops: list[np.ndarray] = []
        for body_index, body in enumerate(bodies):
            source = f"{entry.path} body {body_index}"
            with _stage("clips", source):
                cs = generate_clips(body, config.clip_options)
            with _stage("features", source):
                plain.append(features(cs))
                if config.augment_count > 0:
                    # one offset stream per entry and body
                    seed = np.random.SeedSequence(
                        [config.augment_seed, entry_index, body_index]
                    )
                    crops.extend(features(crop) for crop in
                                 augment_crops(cs, config.augment_count, seed))
        out[entry.path] = (plain, crops)
    return out


# ---------------------------------------------------------------------------
# Mode training and evaluation


def train_nets(mode: str, train_x: np.ndarray, train_y: np.ndarray, cfg: TrainConfig,
               n_classes: int, curves: list[list[float]]) -> Iterator[MtlnParams]:
    """Train the nets a mode needs (four for ``frame``, one otherwise) one at
    a time, in net order, appending each net's loss curve to ``curves``.
    Each net is yielded as soon as it is trained and not held afterwards, so
    a caller that drops it frees it before the next one trains."""
    with _stage("train"):
        for i, inputs in enumerate(mode_inputs(mode, train_x)):
            net, curve = train(inputs, replace(cfg, mode=mode, seed=cfg.seed + i), n_classes,
                               labels=train_y)
            curves.append(curve)
            yield net
            del net  # the next net trains without this one


def train_mode(mode: str, train_x: np.ndarray, train_y: np.ndarray, cfg: TrainConfig,
               n_classes: int) -> tuple[list[MtlnParams], list[list[float]]]:
    """``train_nets``' nets, all held at once, and their loss curves."""
    curves: list[list[float]] = []
    return list(train_nets(mode, train_x, train_y, cfg, n_classes, curves)), curves


def evaluate_mode(
    mode: str,
    nets: Iterable[MtlnParams],
    test_groups: list[tuple[int, list[np.ndarray]]],
    n_classes: int,
    scaler: FeatureScaler | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Accuracy and per-net confusion matrices over grouped test samples.

    Each group is one recording: (label, feature arrays of its samples),
    scored by the mean of its samples' probabilities. The frame baseline
    reports the mean of its four nets' accuracies. ``nets`` may be any
    iterable (``train_nets``, say); it is drawn one net at a time. Each net
    scores its own stack of the samples, standardized with ``scaler`` when
    one is given, built after the net is drawn and released with it, so no
    test-side array is held while the next net is drawn (trained).
    """
    sizes = [len(samples) for _, samples in test_groups]
    if 0 in sizes:
        raise ValueError("every test group needs at least one sample")
    labels = np.array([label for label, _ in test_groups], dtype=np.intp)
    bounds = np.cumsum(sizes)[:-1]

    def stacked() -> np.ndarray:
        x = np.stack([f for _, samples in test_groups for f in samples], dtype=np.float64)
        if scaler is not None:  # in place: the fresh stack is the only test-side copy
            x -= scaler.mean
            x /= scaler.scale
        return x

    confusions = []
    for probs in mode_probas(mode, nets, stacked):
        preds = [int(np.argmax(p.mean(axis=0))) for p in np.split(probs, bounds)]
        confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(confusion, (labels, preds), 1)
        confusions.append(confusion)
    accs = [np.trace(c) / c.sum() for c in confusions]
    return float(np.mean(accs)), confusions


def run_experiment(
    manifest: DatasetManifest,
    loader: SequenceLoader,
    protocol: SplitProtocol,
    config: PipelineConfig,
    modes: Sequence[str] = ("mtln",),
    split_seed: int = 0,
) -> EvalReport:
    """Run every requested mode through every fold of the protocol.

    Features are computed once per entry that some fold trains or tests on,
    and shared by all modes; other entries are never loaded. When crop
    augmentation is enabled it applies to training samples only; test
    recordings are scored on their un-augmented representation unless
    ``test_average_crops`` is set.
    """
    if not modes:
        raise ValueError("need at least one mode")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")

    with _stage("split"):
        splits = make_splits(manifest, protocol, seed=split_seed)
    used = {e.path for pair in splits for side in pair for e in side.entries}
    entries = [e for e in manifest.entries if e.path in used]
    features = compute_features(replace(manifest, entries=entries), loader, config)

    results = {mode: ModeResult(mode, [], [], []) for mode in modes}
    train_part = 1 if config.augment_count > 0 else 0  # crops, else plain
    test_parts = 2 if config.test_average_crops else 1  # plain, then crops
    for train_manifest, test_manifest in splits:
        train_samples = [features[e.path][train_part] for e in train_manifest.entries]
        train_x = np.stack([f for samples in train_samples for f in samples])
        train_y = np.repeat(
            np.array([e.label for e in train_manifest.entries], dtype=np.intp),
            [len(samples) for samples in train_samples],
        )

        scaler = FeatureScaler.fit(train_x, config.standardize)
        train_x = scaler.apply(train_x)
        test_groups = [  # unscaled: evaluate_mode scales one net's stack at a time
            (e.label, [f for part in features[e.path][:test_parts] for f in part])
            for e in test_manifest.entries
        ]

        for mode in modes:
            res = results[mode]
            nets = train_nets(mode, train_x, train_y, config.train, manifest.class_count,
                              res.loss_curves)
            with _stage("evaluate"):  # a StageError from training passes through as is
                acc, confusions = evaluate_mode(mode, nets, test_groups, manifest.class_count, scaler)
            res.fold_accuracies.append(acc)
            if res.confusions:
                for total, fold in zip(res.confusions, confusions):
                    total += fold
            else:
                res.confusions = confusions
    return EvalReport(class_count=manifest.class_count, modes=[results[m] for m in modes])


# ---------------------------------------------------------------------------
# Report rendering


def render_table(report: EvalReport) -> str:
    """Aligned text table of modes and accuracies (two-decimal percentages)."""
    if not report.modes:
        raise ValueError("report has no modes")
    width = max(len(m.mode) for m in report.modes)
    lines = [f"{'mode'.ljust(width)}  accuracy"]
    for m in report.modes:
        lines.append(f"{m.mode.ljust(width)}  {m.accuracy * 100:.2f}%")
    return "\n".join(lines) + "\n"


def render_results(report: EvalReport) -> str:
    """Machine-readable key-value dump; floats use repr so parsing is exact."""
    if not report.modes:
        raise ValueError("report has no modes")
    pairs: list[tuple[str, str]] = [
        ("classes", str(report.class_count)),
        ("modes", ",".join(m.mode for m in report.modes)),
    ]
    for m in report.modes:
        pairs.append((f"{m.mode}.accuracy", repr(m.accuracy)))
        pairs.append((f"{m.mode}.folds", str(len(m.fold_accuracies))))
        for i, acc in enumerate(m.fold_accuracies):
            pairs.append((f"{m.mode}.fold{i}.accuracy", repr(float(acc))))
        pairs.append((f"{m.mode}.nets", str(len(m.confusions))))
        for i, conf in enumerate(m.confusions):
            rows = ";".join(",".join(str(v) for v in row) for row in conf)
            pairs.append((f"{m.mode}.net{i}.confusion", rows))
        for i, curve in enumerate(m.loss_curves):
            pairs.append((f"{m.mode}.curve{i}", ",".join(repr(float(v)) for v in curve)))
    return "".join(f"{k} = {v}\n" for k, v in pairs)
