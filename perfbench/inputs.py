"""Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so the
same seed gives byte-identical inputs. The program under test only ever sees
what these functions produce: sequences for ``replicate``, NTU ``.skeleton``
text files for ``encode_ntu`` and SKTF feature-map stacks for ``paper_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skelclip import layouts, skeleton_io, synthetic, tensorio

# ---------------------------------------------------------------------------
# replicate: the acceptance suite's synthetic data at a run-sized count

REPLICATE_CLASSES = 5
REPLICATE_TRAIN_SUBJECTS = 4
REPLICATE_TEST_SUBJECTS = 8
# The acceptance run trains on 200 samples in batches of 100: two SGD steps
# an epoch, 70 in all. Scaling the batch with the 20 training samples keeps
# that schedule; with the default batch, 35 full-batch steps leave MTLN
# undertrained and it misses the criterion-6 floor on some seeds.
REPLICATE_BATCH = 10


def replicate_data(seed: int):
    """(manifest, sequences, protocol) for one replication.

    Same generator settings as the acceptance suite (figure2-16, 5 classes,
    t in [20, 60], sigma 0.05); only the draws per class are fewer (4 train,
    8 test), so one experiment fits a run. Per-entry work (224x224 clips,
    C=64 extractor) is the same as in the full replication; the 40 test
    recordings let two misses pass the 0.95 floor.
    """
    from skelclip.experiments import SplitProtocol

    cfg = synthetic.SynthConfig(
        layout=layouts.load_layout("figure2-16"),
        n_classes=REPLICATE_CLASSES,
        t_min=20,
        t_max=60,
        sigma=0.05,
        samples_per_class=REPLICATE_TRAIN_SUBJECTS + REPLICATE_TEST_SUBJECTS,
        seed=seed,
    )
    manifest, sequences = synthetic.generate_synthetic(cfg)
    protocol = SplitProtocol(
        kind="cross-subject",
        train_ids=frozenset(range(REPLICATE_TRAIN_SUBJECTS)),
        test_ids=frozenset(range(
            REPLICATE_TRAIN_SUBJECTS, REPLICATE_TRAIN_SUBJECTS + REPLICATE_TEST_SUBJECTS
        )),
    )
    return manifest, sequences, protocol


# ---------------------------------------------------------------------------
# encode_ntu: NTU RGB+D ``.skeleton`` text files

NTU_FILES = 32
# Two-person share: NTU RGB+D (Shahroudy et al., CVPR 2016, arXiv:1604.02808)
# has 11 mutual-action classes (A50-A60) among its 60, with about the same
# number of samples in each class.
NTU_TWO_BODY_SHARE = 11 / 60
# Chosen stress shape, not measured traffic: long recordings spread evenly
# over this range of frames (300 is the longest a parser must take), and a
# contiguous gap of this share of frames with one body missing.
NTU_FRAMES = (150, 300)
NTU_GAP_SHARE = 0.1


@dataclass(frozen=True)
class NtuRecording:
    """One generated recording: per-body (t_b, 25, 3) coordinates exactly as
    written, and per frame the indices of the bodies present in it."""

    name: str
    bodies: tuple[np.ndarray, ...]
    present: tuple[tuple[int, ...], ...]


def _body_motion(rng: np.random.Generator, t: int, offset: float) -> np.ndarray:
    """(t, 25, 3) joint coordinates in metres, camera-space like NTU's."""
    pose = rng.uniform(-0.4, 0.4, size=(25, 3)) + np.array([offset, 0.1, 3.2])
    amplitude = rng.uniform(0.02, 0.25, size=(25, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(25, 3))
    cycles = rng.uniform(1.0, 4.0)
    tau = (np.arange(t, dtype=np.float64) / t)[:, None, None]
    frames = pose + amplitude * np.sin(2.0 * np.pi * cycles * tau + phase)
    frames += rng.normal(0.0, 0.005, size=frames.shape)
    # written with six decimals, so these are exactly the parsed values
    return np.round(frames, 6)


def ntu_recording(rng: np.random.Generator, name: str, t: int, two_bodies: bool) -> NtuRecording:
    """A recording of ``t`` frames. With two bodies, the second one is absent
    for a contiguous gap of frames; with one, a gap of frames has no body."""
    gap = max(1, int(round(NTU_GAP_SHARE * t)))
    start = int(rng.integers(1, t - gap))
    absent = set(range(start, start + gap))
    if two_bodies:
        present = tuple((0,) if i in absent else (0, 1) for i in range(t))
        bodies = (_body_motion(rng, t, -0.5), _body_motion(rng, t - gap, 0.5))
    else:
        present = tuple(() if i in absent else (0,) for i in range(t))
        bodies = (_body_motion(rng, t - gap, 0.0),)
    return NtuRecording(name=name, bodies=bodies, present=present)


def write_ntu_skeleton(rec: NtuRecording, rng: np.random.Generator) -> str:
    """NTU ``.skeleton`` text: frame count; per frame a body count, then per
    body a 10-field metadata line, the joint count and 25 joint lines of 12
    fields (x y z depthX depthY colorX colorY orientationWXYZ trackingState).
    Only x y z carry the recording; the other fields are plausible filler,
    drawn once per body and joint."""
    body_ids = [f"720575940379{int(rng.integers(10000, 99999))}{b}" for b in range(len(rec.bodies))]
    filler = [
        [
            "%.4f %.4f %.3f %.3f %.7f %.7f %.7f %.7f 2" % tuple(e)
            for e in (rng.uniform(0.0, 1.0, size=(25, 8)) * [250, 200, 1900, 1000, 1, 1, 1, 1]).tolist()
        ]
        for _ in rec.bodies
    ]
    coords = [body.tolist() for body in rec.bodies]
    leans = rng.uniform(-0.3, 0.3, size=(len(rec.present), 2)).tolist()
    cursor = [0] * len(rec.bodies)
    out = [f"{len(rec.present)}"]
    for bodies_here, lean in zip(rec.present, leans):
        out.append(f"{len(bodies_here)}")
        for b in bodies_here:
            out.append("%s 0 1 1 1 1 0 %.7f %.7f 2" % (body_ids[b], lean[0], lean[1]))
            out.append("25")
            joints = coords[b][cursor[b]]
            cursor[b] += 1
            out.extend(
                "%.6f %.6f %.6f %s" % (x, y, z, rest)
                for (x, y, z), rest in zip(joints, filler[b])
            )
    return "\n".join(out) + "\n"


def ntu_file_set(seed: int, n_files: int = NTU_FILES) -> list[tuple[NtuRecording, str]]:
    """``n_files`` recordings with their NTU text.

    Lengths are spread evenly over ``NTU_FRAMES``, and
    ``round(NTU_TWO_BODY_SHARE * n_files)`` of them, spread evenly over the
    range, have two bodies; the seed picks the order, the gaps and every
    coordinate. Fixing the mix of (length, bodies) keeps the work per pass
    the same from seed to seed while the content changes.
    """
    rng = np.random.default_rng(seed)
    lengths = np.linspace(*NTU_FRAMES, n_files).round().astype(int)
    n_two = round(NTU_TWO_BODY_SHARE * n_files)
    two_body = {int((j + 0.5) * n_files / n_two) for j in range(n_two)}
    files = []
    for i, k in enumerate(rng.permutation(n_files)):
        rec = ntu_recording(rng, f"S{seed:03d}R{i:03d}", int(lengths[k]), k in two_body)
        files.append((rec, write_ntu_skeleton(rec, rng)))
    return files


def write_ntu_files(files, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec, text in files:
        path = directory / f"{rec.name}.skeleton"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# paper_scale: precomputed (3, 4, 14, 14, 512) feature-map stacks

STACK_SHAPE = (3, 4, 14, 14, 512)
STACK_CLASSES = 5
STACK_TRAIN_SUBJECTS = 8
STACK_TEST_SUBJECTS = 4
STACK_PATTERN_SHARE = 0.1
# class signal added on the pattern cells, per time step; the weaker early
# steps keep a single-step (frame) net from saturating where all four
# steps together (mtln) do not need to
STACK_SIGNAL = (0.1, 0.175, 0.25, 0.325)


def stack_manifest():
    """(manifest, protocol) over the stack files; subject = draw index."""
    from skelclip.experiments import SplitProtocol

    entries = [
        skeleton_io.ManifestEntry(path=f"c{c}_s{s:02d}.fmaps.sktf", label=c, subject_id=s)
        for c in range(STACK_CLASSES)
        for s in range(STACK_TRAIN_SUBJECTS + STACK_TEST_SUBJECTS)
    ]
    manifest = skeleton_io.DatasetManifest(
        entries=entries, class_count=STACK_CLASSES, layout=layouts.load_layout("figure2-16")
    )
    protocol = SplitProtocol(
        kind="cross-subject",
        train_ids=frozenset(range(STACK_TRAIN_SUBJECTS)),
        test_ids=frozenset(range(
            STACK_TRAIN_SUBJECTS, STACK_TRAIN_SUBJECTS + STACK_TEST_SUBJECTS
        )),
    )
    return manifest, protocol


def write_feature_stacks(seed: int, manifest, directory: Path) -> list[Path]:
    """One non-negative float32 stack per manifest entry: half-normal noise
    plus the class's pattern (a fixed random 10% of cells per class, channel
    and time step) scaled by that time step's signal, constant over rows so
    temporal pooling keeps it."""
    rng = np.random.default_rng(seed)
    c, k, h, w, ch = STACK_SHAPE
    patterns = rng.random((manifest.class_count, c, k, 1, w, ch)) < STACK_PATTERN_SHARE
    signal = np.asarray(STACK_SIGNAL, dtype=np.float32).reshape(1, k, 1, 1, 1)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in manifest.entries:
        stack = np.abs(rng.standard_normal(STACK_SHAPE, dtype=np.float32))
        stack += signal * patterns[entry.label]
        path = directory / entry.path
        tensorio.write_tensor(path, stack)
        paths.append(path)
    return paths
