"""Skeleton sequence parsing and the canonical interchange format.

Two on-disk representations are supported: the NTU ``.skeleton`` plain-text
layout, and a canonical JSON document with fields ``layout`` (layout name),
``label`` and ``frames`` (t lists of m ``[x, y, z]`` triples). Optional
``subject_id`` / ``camera_id`` keys round-trip when present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, check_array
from .layouts import BUILTIN_LAYOUTS, JointLayout


@dataclass(eq=False)
class SkeletonSequence:
    """t frames of m joints in 3D Cartesian coordinates, dataset-native units."""

    layout: JointLayout
    frames: np.ndarray  # (t, m, 3) float64
    label: int | None = None
    subject_id: int | None = None
    camera_id: int | None = None

    def __post_init__(self):
        self.frames = check_array(np.asarray(self.frames, dtype=np.float64),
                                  ("t", self.layout.joint_count, 3),
                                  f"sequence of {self.layout.name!r} joints", finite=True)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeletonSequence):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.label == other.label
            and self.subject_id == other.subject_id
            and self.camera_id == other.camera_id
            and self.frames.shape == other.frames.shape
            and bool(np.all(self.frames == other.frames))
        )


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    subject_id: int | None = None
    camera_id: int | None = None


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    class_count: int
    layout: JointLayout

    def __post_init__(self):
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest paths must be distinct")
        for e in self.entries:
            if not 0 <= e.label < self.class_count:
                raise ValueError(f"label {e.label} out of range for {self.class_count} classes")


# ---------------------------------------------------------------------------
# NTU .skeleton format


def _joint_fault(line: str) -> str | None:
    """Why one joint line fails the checks of ``parse_ntu_skeleton``, or None."""
    try:
        xyz = np.loadtxt([line], usecols=(0, 1, 2), comments=None)
    except ValueError:
        fields = line.split(None, 3)
        if len(fields) < 3:
            return f"joint line has {len(fields)} fields, need at least 3"
        return f"non-numeric coordinate in {fields[:3]}"
    return None if np.isfinite(xyz).all() else "non-finite coordinate"


def parse_ntu_skeleton(text: str, layout: JointLayout) -> list[SkeletonSequence]:
    """Parse an NTU-style ``.skeleton`` document into one sequence per body.

    Format: first line is the frame count; each frame holds a body-count
    line, then per body a metadata line (first token is the body ID, at most
    once per frame), a joint-count line, and one line per joint whose first
    three whitespace-separated fields are x y z: C-style decimal floats, so
    ``1_0`` and non-ASCII digits are rejected. Blank lines and extra fields
    are ignored. A frame where a body is absent is dropped from its sequence.

    Python walks only the count and metadata lines; all joint lines, body by
    body, go through one ``np.loadtxt`` call (the doubles ``float()`` gives)
    and one ``np.isfinite`` check. An error names the first faulty line in the file.
    """
    raw = text.splitlines()
    lines = list(filter(str.strip, raw))
    if not lines:
        raise ParseError("empty file")
    # the file line of each kept line; a list only when blank lines were dropped
    numbers = (range(1, len(raw) + 1) if len(lines) == len(raw)
               else [n for n, s in enumerate(raw, 1) if s.strip()])
    last_line, raw = len(raw), None

    def count(k: int, what: str) -> int:  # an IndexError past the end is caught below
        try:
            return int(lines[k])
        except ValueError:
            raise ParseError(f"malformed {what} {lines[k].strip()!r}", line=numbers[k]) from None

    # A structure fault is raised only after the joint lines before it are checked.
    m = layout.joint_count
    blocks: dict[str, list[int]] = {}  # body ID -> index in lines of each joint block
    pos, structure_fault = 1, None
    try:
        frame_count = count(0, "frame count")
        if frame_count < 1:
            raise ParseError(f"frame count must be >= 1, got {frame_count}", line=numbers[0])
        for _ in range(frame_count):
            body_count = count(pos, "body count")
            if body_count < 0:
                raise ParseError(f"body count must be >= 0, got {body_count}", line=numbers[pos])
            pos, seen = pos + 1, set()
            for _ in range(body_count):
                body_id = lines[pos].split()[0]
                if body_id in seen:
                    raise ParseError(f"body ID {body_id} repeated in one frame", line=numbers[pos])
                seen.add(body_id)
                joint_count = count(pos + 1, "joint count")
                if joint_count != m:
                    raise ParseError(f"joint count {joint_count} does not match layout "
                                     f"{layout.name!r} ({m})", line=numbers[pos + 1])
                blocks.setdefault(body_id, []).append(pos + 2)
                pos += 2 + m
        if pos > len(lines):
            raise IndexError  # the last joint block is cut short
    except ParseError as exc:
        structure_fault = exc
    except IndexError:
        structure_fault = ParseError("unexpected end of file", line=last_line)

    joints = [joint for body in blocks.values() for s in body for joint in lines[s:s + m]]
    try:  # loadtxt warns on no lines; a file without joint lines fails the checks below
        xyz = np.loadtxt(joints, usecols=(0, 1, 2), comments=None, ndmin=2) if joints else None
    except ValueError:
        xyz = np.array(np.nan)  # a line loadtxt rejects: the scan below names it
    if xyz is not None and not np.isfinite(xyz).all():
        k, why = next((k, why) for s in sorted(s for body in blocks.values() for s in body)
                      for k, joint in enumerate(lines[s:s + m], s) if (why := _joint_fault(joint)))
        raise ParseError(why, line=numbers[k])
    if structure_fault is not None:
        raise structure_fault
    if pos < len(lines):
        raise ParseError("trailing content after final frame", line=numbers[pos])
    if not blocks:
        raise ParseError("no bodies found in any frame")
    cuts = np.cumsum([len(body) * m for body in blocks.values()])[:-1]
    return [SkeletonSequence(layout, part.reshape(-1, m, 3)) for part in np.split(xyz, cuts)]


# ---------------------------------------------------------------------------
# Canonical JSON format


def write_canonical(seq: SkeletonSequence) -> str:
    doc = {"layout": seq.layout.name, "label": seq.label}
    if seq.subject_id is not None:
        doc["subject_id"] = seq.subject_id
    if seq.camera_id is not None:
        doc["camera_id"] = seq.camera_id
    doc["frames"] = seq.frames.tolist()
    return json.dumps(doc)


def parse_canonical(
    text: str, layouts: dict[str, JointLayout] | None = None
) -> SkeletonSequence:
    """Parse a canonical document; layout names resolve against the built-ins
    unless an explicit mapping is supplied."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid document: {exc}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for field in ("layout", "label", "frames"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    table = BUILTIN_LAYOUTS if layouts is None else layouts
    name = doc["layout"]
    if name not in table:
        raise ParseError(f"unknown layout {name!r}")
    layout = table[name]
    frames = doc["frames"]
    if not isinstance(frames, list) or not frames:
        raise ParseError("frames must be a non-empty array")
    lengths = {len(f) if isinstance(f, list) else -1 for f in frames}
    if lengths != {layout.joint_count}:
        raise ParseError(
            f"ragged or wrong-size frames: joint counts {sorted(lengths)}, "
            f"expected {layout.joint_count}"
        )
    for frame in frames:
        for joint in frame:
            if not (isinstance(joint, list) and len(joint) == 3
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                            for v in joint)
                    and all(math.isfinite(v) for v in joint)):
                raise ParseError(f"bad joint entry {joint!r}")
    ids = {field: doc.get(field) for field in ("label", "subject_id", "camera_id")}
    for field, value in ids.items():
        # bool is an int subclass; JSON true/false is not a number here
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ParseError(f"{field} must be an integer or null, got {value!r}")
    try:
        return SkeletonSequence(layout, np.asarray(frames, dtype=np.float64), **ids)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _reject_constant(name: str):
    raise ParseError(f"non-finite constant {name!r} not allowed")


def load_sequences(path: str | Path, layout: JointLayout) -> list[SkeletonSequence]:
    """Load sequences from disk; `.skeleton` files parse as NTU, others as canonical."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".skeleton":
        return parse_ntu_skeleton(text, layout)
    return [parse_canonical(text, layouts={**BUILTIN_LAYOUTS, layout.name: layout})]


# ---------------------------------------------------------------------------
# Manifest files: one record per line: path label subject_id camera_id
# ("-" marks a missing id).


def write_manifest(manifest: DatasetManifest) -> str:
    lines = []
    for e in manifest.entries:
        sid = "-" if e.subject_id is None else str(e.subject_id)
        cid = "-" if e.camera_id is None else str(e.camera_id)
        lines.append(f"{e.path} {e.label} {sid} {cid}")
    return "\n".join(lines) + "\n"


def parse_manifest(
    text: str, layout: JointLayout, class_count: int | None = None
) -> DatasetManifest:
    entries, first_line = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=lineno)
        path, label, sid, cid = fields
        try:
            entry = ManifestEntry(
                path=path,
                label=int(label),
                subject_id=None if sid == "-" else int(sid),
                camera_id=None if cid == "-" else int(cid),
            )
        except ValueError:
            raise ParseError(f"malformed record {line!r}", line=lineno) from None
        if entry.label < 0 or (class_count is not None and entry.label >= class_count):
            raise ParseError(f"label {entry.label} out of range", line=lineno)
        if path in first_line:
            raise ParseError(f"duplicate path {path!r} (first on line {first_line[path]})",
                             line=lineno)
        first_line[path] = lineno
        entries.append(entry)
    if not entries:
        raise ParseError("manifest contains no records")
    if class_count is None:
        class_count = max(e.label for e in entries) + 1
    return DatasetManifest(entries=entries, class_count=class_count, layout=layout)
