import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelclip import (
    DatasetManifest,
    JointLayout,
    ManifestEntry,
    ParseError,
    SkelclipError,
    SkeletonSequence,
    load_layout,
    parse_canonical,
    parse_manifest,
    parse_ntu_skeleton,
    write_canonical,
    write_manifest,
)
from skelclip.layouts import BUILTIN_LAYOUTS


# ---------------------------------------------------------------------------
# Layouts


def test_builtin_figure2_16():
    layout = load_layout("figure2-16")
    assert layout.joint_count == 16
    assert layout.reference_joints == (4, 7, 10, 13)
    assert layout.chain_order == tuple(range(16))


@pytest.mark.parametrize("name,m", [("ntu-25", 25), ("sbu-15", 15), ("cmu-31", 31)])
def test_builtin_layouts_valid(name, m):
    layout = load_layout(name)
    assert layout.joint_count == m
    assert sorted(layout.chain_order) == list(range(m))
    assert len(set(layout.reference_joints)) == 4


def test_layout_from_file(tmp_path):
    cfg = tmp_path / "layout.cfg"
    cfg.write_text(
        "name = demo\njoint_count = 6\nchain = 0-5\nreference_joints = 1,2,3,4\n"
    )
    assert load_layout(cfg).reference_joints == (1, 2, 3, 4)
    cfg.write_text("name = demo\njoint_count = 6\nchain = 5,4,3,2,1,0\nreference_joints = 0-3\n")
    assert load_layout(str(cfg)).chain_order == (5, 4, 3, 2, 1, 0)


LAYOUT_CONFIG = "name = demo\njoint_count = 6\nchain = 0-5\nreference_joints = 1,2,3,4\n"


@pytest.mark.parametrize("edit, message", [
    (("", "joints = 6\n"), "unknown key joints"),
    (("reference_joints = 1,2,3,4\n", ""), "missing key reference_joints"),
    (("joint_count = 6", "joint_count = six"), "joint_count: invalid literal for int()"),
    (("chain = 0-5", "chain = 0-5-"), "chain: invalid literal"),
    (("1,2,3,4", "1,2,3"), "need exactly 4 distinct reference joints"),
    (("chain = 0-5", "chain = 0-4"), "chain_order must be a permutation"),
    (("name = demo", "name demo"), "line 1: expected 'key = value'"),
])
def test_layout_file_faults_name_the_file(tmp_path, edit, message):
    old, new = edit
    cfg = tmp_path / "layout.cfg"
    cfg.write_text(LAYOUT_CONFIG.replace(old, new, 1) if old else LAYOUT_CONFIG + new)
    with pytest.raises(ParseError) as info:
        load_layout(cfg)
    assert str(info.value).startswith(f"{cfg}: ")
    assert message in str(info.value)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=200))
def test_layout_file_any_bytes_loads_or_fails_cleanly(blob):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "layout.cfg"
        cfg.write_bytes(blob)
        try:
            layout = load_layout(cfg)
        except SkelclipError:
            return
    assert layout.joint_count == len(layout.chain_order)


def test_layout_three_references_rejected():
    with pytest.raises(ValueError, match="reference"):
        JointLayout(name="bad", joint_count=6, chain_order=tuple(range(6)),
                    reference_joints=(0, 1, 2))


def test_layout_reference_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        JointLayout(name="bad", joint_count=6, chain_order=tuple(range(6)),
                    reference_joints=(0, 1, 2, 6))


def test_layout_duplicate_chain_rejected():
    with pytest.raises(ValueError, match="permutation"):
        JointLayout(name="bad", joint_count=6, chain_order=(0, 1, 2, 3, 4, 4),
                    reference_joints=(0, 1, 2, 3))


def test_unknown_layout_name():
    with pytest.raises(ValueError, match="unknown layout"):
        load_layout("no-such-layout")


@given(st.permutations(list(range(8))), st.integers(0, 7))
def test_layout_rejects_corrupted_permutation(perm, corrupt_at):
    # duplicating one entry always breaks the permutation property
    bad = list(perm)
    bad[corrupt_at] = bad[(corrupt_at + 1) % len(bad)]
    with pytest.raises(ValueError):
        JointLayout(name="bad", joint_count=8, chain_order=tuple(bad),
                    reference_joints=(0, 1, 2, 3))


# ---------------------------------------------------------------------------
# Sequence validation


def test_sequence_rejects_empty(fig16):
    with pytest.raises(ValueError, match=r"expected a \(t, 16, 3\) .* got float64 \(0, 16, 3\)"):
        SkeletonSequence(layout=fig16, frames=np.zeros((0, 16, 3)))


def test_sequence_rejects_wrong_joint_count(fig16):
    with pytest.raises(ValueError, match="joints"):
        SkeletonSequence(layout=fig16, frames=np.zeros((2, 15, 3)))


def test_sequence_rejects_non_finite(fig16):
    frames = np.zeros((2, 16, 3))
    frames[1, 3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SkeletonSequence(layout=fig16, frames=frames)


# ---------------------------------------------------------------------------
# NTU parser


def ntu_text(frames_per_body, joint_count=25, body_ids=("72057594037931101",)):
    """Build an NTU-style document; frames_per_body[i][f] is an (m, 3) array."""
    t = len(frames_per_body[0])
    lines = [str(t)]
    for f in range(t):
        present = [i for i, fr in enumerate(frames_per_body) if fr[f] is not None]
        lines.append(str(len(present)))
        for i in present:
            lines.append(f"{body_ids[i]} 0 0 0 0 0 0 0 0 2")
            lines.append(str(joint_count))
            for joint in frames_per_body[i][f]:
                x, y, z = (float(v) for v in joint)
                lines.append(f"{x!r} {y!r} {z!r} 0 0 0 0 0 0 0 0 2")
    return "\n".join(lines) + "\n"


def test_ntu_single_body_shape():
    layout = load_layout("ntu-25")
    frames = [np.zeros((25, 3)), np.ones((25, 3))]
    seqs = parse_ntu_skeleton(ntu_text([frames]), layout)
    assert len(seqs) == 1
    assert seqs[0].frames.shape == (2, 25, 3)


def test_ntu_zero_frames_rejected():
    layout = load_layout("ntu-25")
    with pytest.raises(ParseError, match="frame count"):
        parse_ntu_skeleton("0\n", layout)


def test_ntu_known_coordinates_exact():
    # hand-written 3-frame file: coordinates must round-trip exactly
    layout = load_layout("ntu-25")
    rng = np.random.default_rng(7)
    frames = [rng.uniform(-2, 2, size=(25, 3)) for _ in range(3)]
    seqs = parse_ntu_skeleton(ntu_text([frames]), layout)
    assert np.array_equal(seqs[0].frames, np.stack(frames))


def test_ntu_two_bodies_split():
    layout = load_layout("ntu-25")
    a = [np.full((25, 3), 1.0), np.full((25, 3), 2.0), np.full((25, 3), 3.0)]
    b = [np.full((25, 3), -1.0), None, np.full((25, 3), -3.0)]  # absent in frame 1
    seqs = parse_ntu_skeleton(ntu_text([a, b], body_ids=("100", "200")), layout)
    assert len(seqs) == 2
    assert seqs[0].frames.shape == (3, 25, 3)
    assert seqs[1].frames.shape == (2, 25, 3)  # missing frame dropped
    assert np.array_equal(seqs[1].frames[1], np.full((25, 3), -3.0))


def test_ntu_wrong_joint_count_names_line():
    layout = load_layout("ntu-25")
    text = "1\n1\n100 0 0 0 0 0 0 0 0 2\n24\n" + "0 0 0\n" * 24
    with pytest.raises(ParseError, match="line 4"):
        parse_ntu_skeleton(text, layout)


def test_ntu_non_numeric_coordinate_names_line():
    layout = load_layout("ntu-25")
    joints = "\n".join("0 0 0" for _ in range(24))
    text = f"1\n1\n100 0\n25\n{joints}\n0 oops 0\n"
    with pytest.raises(ParseError, match="line 29"):
        parse_ntu_skeleton(text, layout)


def test_ntu_truncated_file():
    layout = load_layout("ntu-25")
    with pytest.raises(ParseError, match="end of file"):
        parse_ntu_skeleton("2\n1\n100 0\n25\n0 0 0\n", layout)


@pytest.mark.parametrize("text", ["", "  \n\t\n\n"])
def test_ntu_empty_file_says_so_without_a_line_number(text):
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton(text, load_layout("ntu-25"))
    assert str(info.value) == "empty file"
    assert info.value.line is None


def ntu_reference(text, layout):
    """The per-joint parser parse_ntu_skeleton replaced: one numpy row
    assignment and one ``np.isfinite`` check per joint, then ``np.stack``."""
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while not lines[pos].strip():
            pos += 1
        pos += 1
        return lines[pos - 1]

    bodies = {}
    for _ in range(int(next_line())):
        for _ in range(int(next_line())):
            body_id = next_line().split()[0]
            joints = np.empty((int(next_line()), 3), dtype=np.float64)
            for j in range(len(joints)):
                fields = next_line().split()
                joints[j] = [float(fields[0]), float(fields[1]), float(fields[2])]
                assert np.isfinite(joints[j]).all()
            bodies.setdefault(body_id, []).append(joints)
    return [np.stack(frames) for frames in bodies.values()]


def _joint_lines(rng, m, spelled):
    """m joints of three coordinate strings, each one of ``spelled`` half
    the time and otherwise a random float's repr."""
    def coordinate():
        if rng.random() < 0.5:
            return spelled[rng.integers(len(spelled))]
        return repr(float(rng.uniform(-3, 3)))
    return [[coordinate() for _ in range(3)] for _ in range(m)]


def test_ntu_matches_reference_parser():
    # odd spellings, tabs, blank lines, trailing fields, and body 200 that
    # leaves in frame 1 and comes back in frame 3
    layout = load_layout("ntu-25")
    rng = np.random.default_rng(4)
    spelled = ["1e-3", "-0.0", "+5", "0", "-1.5E+2", ".25", "7.", "  3"]
    present = [("100", "200"), ("100",), ("100",), ("200", "100")]
    lines = [str(len(present)), ""]
    for ids in present:
        lines.append(str(len(ids)))
        for body_id in ids:
            lines += [f"{body_id} 0 1 0 0 0 -0.2 0.1 0 2", "", "25"]
            for k, values in enumerate(_joint_lines(rng, 25, spelled)):
                sep = "\t" if k % 3 == 0 else " "
                tail = " 0.1 0.2\t-0.3 0 0 0 0 2" if k % 2 else ""
                lines.append(sep.join(values) + tail)
                if k % 7 == 0:
                    lines.append("   ")
    text = "\n".join(lines) + "\n\n"
    got = parse_ntu_skeleton(text, layout)
    expected = ntu_reference(text, layout)
    assert [s.frames.shape for s in got] == [(4, 25, 3), (2, 25, 3)]
    assert len(got) == len(expected)
    for seq, ref in zip(got, expected):
        assert seq.frames.tobytes() == ref.tobytes()
    assert any(np.signbit(seq.frames[seq.frames == 0]).any() for seq in got)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_ntu_matches_reference_on_random_documents(seed, t):
    layout = load_layout("ntu-25")
    rng = np.random.default_rng(seed)
    frames = [[rng.uniform(-2, 2, (25, 3)) if rng.random() < 0.8 else None for _ in range(t)]
              for _ in range(2)]
    frames[0][0] = rng.uniform(-2, 2, (25, 3))
    text = ntu_text(frames, body_ids=("100", "200"))
    got = [seq.frames.tobytes() for seq in parse_ntu_skeleton(text, layout)]
    assert got == [ref.tobytes() for ref in ntu_reference(text, layout)]


def test_ntu_frames_are_writable_contiguous_float64():
    layout = load_layout("ntu-25")
    a = [np.full((25, 3), 1.0), None, np.full((25, 3), 3.0)]
    b = [np.full((25, 3), 2.0)] * 3
    for seq in parse_ntu_skeleton(ntu_text([a, b], body_ids=("1", "2")), layout):
        frames = seq.frames
        assert frames.dtype == np.float64
        assert frames.flags.c_contiguous and frames.flags.writeable
        frames[0, 0, 0] = -1.0
        assert frames[0, 0, 0] == -1.0


@pytest.mark.parametrize("joint, message", [
    ("0\t0", "joint line has 2 fields, need at least 3"),
    ("0 nan 0", "non-finite coordinate"),
    ("inf 0 0 1 2 3", "non-finite coordinate"),
    ("0 0 -Infinity", "non-finite coordinate"),
])
def test_ntu_bad_joint_line_names_line(joint, message):
    layout = load_layout("ntu-25")
    joints = "\n".join("0 0 0" for _ in range(24))
    # joint 25 of the only body sits on line 30, after a blank line 5
    text = f"1\n1\n100 0\n25\n\n{joints}\n{joint}\n"
    with pytest.raises(ParseError, match="line 30") as info:
        parse_ntu_skeleton(text, layout)
    assert message in str(info.value)


def _bulk_document():
    """Lines of a 3-frame document: body 100 in every frame, body 200 in
    frames 1 and 3, a blank line inside each body's joint block, and 12
    fields on every other joint line. Returns the lines and, per (frame,
    body ID), the file line numbers of its 25 joint lines."""
    lines, joints = ["3"], {}
    for f, ids in enumerate([("100", "200"), ("100",), ("200", "100")], start=1):
        lines.append(str(len(ids)))
        for body_id in ids:
            lines += [f"{body_id} 0 1 0 0 0 -0.2 0.1 0 2", "25"]
            joints[f, body_id] = []
            for k in range(25):
                if k == 10:
                    lines.append("")
                tail = " 0.1 0.2 0.3 0 0 0 0 0 2" if k % 2 else ""
                lines.append(f"{k / 8} {f} -{int(body_id) / 64}{tail}")
                joints[f, body_id].append(len(lines))
    return lines, joints


@pytest.mark.parametrize("frame, body_id, k, joint, line, message", [
    (3, "100", 24, "0.5\t0.25", 144, "joint line has 2 fields, need at least 3"),
    (1, "200", 12, "0.5 oops 1 2 3", 46, "non-numeric coordinate in ['0.5', 'oops', '1']"),
    (3, "200", 0, "0 0 -inf", 91, "non-finite coordinate"),
    (2, "100", 9, "nan 1 2 0 0 0 0 0 0 0 0 2", 71, "non-finite coordinate"),
])
def test_ntu_bulk_fault_names_line(frame, body_id, k, joint, line, message):
    lines, joints = _bulk_document()
    assert joints[frame, body_id][k] == line
    lines[line - 1] = joint
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton("\n".join(lines) + "\n", load_layout("ntu-25"))
    assert str(info.value) == f"line {line}: {message}"


def test_ntu_first_fault_in_file_order_wins_across_bodies():
    # body 100's fault comes later in the file than body 200's
    lines, joints = _bulk_document()
    lines[joints[3, "100"][3] - 1] = "0 x 0"
    lines[joints[3, "200"][20] - 1] = "0 0 nan"
    with pytest.raises(ParseError, match="^line 112: non-finite coordinate$"):
        parse_ntu_skeleton("\n".join(lines) + "\n", load_layout("ntu-25"))


@pytest.mark.parametrize("cut", [100, 116, 117, 118, 143])
def test_ntu_bulk_truncated_file_names_last_line(cut):
    # cut inside a block, after a whole block, after a metadata line, after
    # a joint-count line, and one line short of the end
    lines, _ = _bulk_document()
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton("\n".join(lines[:cut]) + "\n", load_layout("ntu-25"))
    assert str(info.value) == f"line {cut}: unexpected end of file"


def test_ntu_truncated_file_checks_the_joint_lines_it_has():
    lines, joints = _bulk_document()
    lines[joints[3, "200"][4] - 1] = "1 2"
    with pytest.raises(ParseError, match="^line 95: joint line has 2 fields"):
        parse_ntu_skeleton("\n".join(lines[:100]) + "\n", load_layout("ntu-25"))


def test_ntu_mixed_field_counts_match_reference():
    lines, _ = _bulk_document()
    text = "\n".join(lines) + "\n"
    layout = load_layout("ntu-25")
    got = parse_ntu_skeleton(text, layout)
    expected = ntu_reference(text, layout)
    assert [seq.frames.shape for seq in got] == [(3, 25, 3), (2, 25, 3)]
    assert [seq.frames.tobytes() for seq in got] == [ref.tobytes() for ref in expected]


def test_ntu_body_listed_twice_in_one_frame_is_rejected():
    joints = "0 0 0\n" * 25
    text = f"1\n2\n100 0\n25\n{joints}100 1\n25\n{joints}"
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton(text, load_layout("ntu-25"))
    assert str(info.value) == "line 30: body ID 100 repeated in one frame"
    assert info.value.line == 30


def test_ntu_trailing_content_names_the_first_non_blank_line():
    joints = "0 0 0\n" * 25
    text = f"1\n1\n100 0\n25\n{joints}\n \n\t\njunk\n\n"
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton(text, load_layout("ntu-25"))
    assert str(info.value) == "line 33: trailing content after final frame"


@pytest.mark.parametrize("field", ["1_0", "١٢", "0.3#x"])
def test_ntu_coordinates_are_c_style_decimal_floats(field):
    # float() accepts the first two; the parser rejects them all
    joints = "0 0 0\n" * 24
    text = f"1\n1\n100 0\n25\n{joints}0 {field} 0 0 0\n"
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton(text, load_layout("ntu-25"))
    assert str(info.value) == f"line 29: non-numeric coordinate in ['0', '{field}', '0']"


@pytest.mark.parametrize("bodies", [1, 2, 3])
def test_ntu_parses_all_joint_lines_in_one_loadtxt_call(monkeypatch, bodies):
    calls = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    rng = np.random.default_rng(bodies)
    frames = [[rng.uniform(-2, 2, (25, 3)) if f % (b + 1) == 0 else None for f in range(4)]
              for b in range(bodies)]  # body b is present in every (b + 1)-th frame
    seqs = parse_ntu_skeleton(ntu_text(frames, body_ids=("100", "200", "300")),
                              load_layout("ntu-25"))
    assert [seq.frame_count for seq in seqs] == [4, 2, 2][:bodies]
    assert len(calls) == 1
    assert len(calls[0][0]) == 25 * sum(seq.frame_count for seq in seqs)


@pytest.mark.parametrize("text, message", [
    ("2\n0\n0\n", "no bodies found in any frame"),
    ("1\n1\n100 0\n25\n", "line 4: unexpected end of file"),
])
def test_ntu_file_without_joint_lines_fails_without_a_warning(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on an empty list of lines
        with pytest.raises(ParseError) as info:
            parse_ntu_skeleton(text, load_layout("ntu-25"))
    assert str(info.value) == message


TINY_LAYOUT = JointLayout(name="tiny-6", joint_count=6, chain_order=(0, 1, 2, 3, 4, 5),
                          reference_joints=(1, 2, 3, 4))


@st.composite
def faulty_ntu_documents(draw):
    """A 1-3 body document in ``TINY_LAYOUT`` with blank lines, 3- and
    12-field joint lines and bodies absent from some frames, one or two of
    its joint lines made faulty, and maybe cut short. Returns the text and
    the error a parser that reads the file in order reports first."""
    bodies, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    lines, joint_lines = [str(t)], []
    for f in range(t):
        present = [b for b in range(bodies) if (f, b) == (0, 0) or draw(st.booleans())]
        lines.append(str(len(present)))
        for b in present:
            lines += [f"{100 + b} 0 1 0 0 0 -0.2 0.1 0 2", "6"]
            for k in range(6):
                joint_lines.append(len(lines))
                tail = " 0.1 0.2 0.3 0 0 0 0 0 2" if draw(st.booleans()) else ""
                lines.append(f"{k / 8} {f} -{b / 64}{tail}")
    for at in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=4)), reverse=True):
        lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
        joint_lines = [i + (i >= at) for i in joint_lines]
    faults = {}
    for i in draw(st.lists(st.sampled_from(joint_lines), min_size=1, max_size=2, unique=True)):
        fields = lines[i].split()
        kind = draw(st.sampled_from(["fields", "text", "nan"]))
        if kind == "fields":
            lines[i] = " ".join(fields[:2])
            faults[i + 1] = "joint line has 2 fields, need at least 3"
        else:
            fields[1] = "oops" if kind == "text" else "nan"
            lines[i] = " ".join(fields)
            faults[i + 1] = (f"non-numeric coordinate in {fields[:3]}" if kind == "text"
                             else "non-finite coordinate")
    if draw(st.booleans()):  # drop at least the last joint line
        lines = lines[:draw(st.integers(1, joint_lines[-1]))]
    kept = [line for line in faults if line <= len(lines)]
    if kept:
        expected = f"line {min(kept)}: {faults[min(kept)]}"
    else:
        expected = f"line {len(lines)}: unexpected end of file"
    return "\n".join(lines) + "\n", expected


@settings(max_examples=200, deadline=None)
@given(faulty_ntu_documents())
def test_ntu_reports_the_first_fault_in_file_order(case):
    text, expected = case
    with pytest.raises(ParseError) as info:
        parse_ntu_skeleton(text, TINY_LAYOUT)
    assert str(info.value) == expected


# ---------------------------------------------------------------------------
# Canonical format


def test_canonical_round_trip_exact(fig16, rng):
    frames = rng.uniform(-3, 3, size=(5, 16, 3))
    seq = SkeletonSequence(layout=fig16, frames=frames, label=2, subject_id=7, camera_id=1)
    assert parse_canonical(write_canonical(seq)) == seq


def test_canonical_ragged_frames_rejected(fig16):
    doc = '{"layout": "figure2-16", "label": 0, "frames": [[[0,0,0]]]}'
    with pytest.raises(ParseError, match="ragged|wrong-size"):
        parse_canonical(doc)


def test_canonical_empty_frames_rejected():
    doc = '{"layout": "figure2-16", "label": 0, "frames": []}'
    with pytest.raises(ParseError, match="non-empty"):
        parse_canonical(doc)


def test_canonical_missing_field_rejected():
    with pytest.raises(ParseError, match="missing field"):
        parse_canonical('{"layout": "figure2-16", "frames": [[[0,0,0]]]}')


def test_canonical_unknown_layout():
    with pytest.raises(ParseError, match="unknown layout"):
        parse_canonical('{"layout": "nope", "label": 0, "frames": [[[0,0,0]]]}')


@pytest.mark.parametrize("label, joint, match", [
    (True, [0, 0, 0], "label"),
    (0, [True, 0, 0], "joint"),
])
def test_canonical_boolean_rejected(label, joint, match):
    frame = [joint] + [[0, 0, 0]] * 15
    doc = json.dumps({"layout": "figure2-16", "label": label, "frames": [frame]})
    with pytest.raises(ParseError, match=match):
        parse_canonical(doc)


@pytest.mark.parametrize("field, value", [
    ("subject_id", "seven"),
    ("subject_id", True),
    ("camera_id", False),
    ("camera_id", 1.5),
])
def test_canonical_non_integer_ids_rejected(field, value):
    doc = json.dumps({"layout": "figure2-16", "label": 0, field: value,
                      "frames": [[[0, 0, 0]] * 16]})
    with pytest.raises(ParseError, match=field):
        parse_canonical(doc)


def test_canonical_integer_or_null_ids_accepted():
    doc = json.dumps({"layout": "figure2-16", "label": 0, "subject_id": 7,
                      "camera_id": None, "frames": [[[0, 0, 0]] * 16]})
    seq = parse_canonical(doc)
    assert seq.subject_id == 7 and seq.camera_id is None


@settings(max_examples=25, deadline=None)
@given(
    t=st.integers(1, 6),
    label=st.one_of(st.none(), st.integers(0, 10)),
    seed=st.integers(0, 2**31),
)
def test_canonical_round_trip_property(t, label, seed):
    layout = BUILTIN_LAYOUTS["figure2-16"]
    rng = np.random.default_rng(seed)
    seq = SkeletonSequence(
        layout=layout,
        frames=rng.uniform(-1e3, 1e3, size=(t, 16, 3)),
        label=label,
    )
    assert parse_canonical(write_canonical(seq)) == seq


# ---------------------------------------------------------------------------
# Manifests


def test_manifest_round_trip(fig16):
    manifest = DatasetManifest(
        entries=[
            ManifestEntry("a.json", 0, subject_id=1, camera_id=0),
            ManifestEntry("b.json", 2, subject_id=None, camera_id=None),
        ],
        class_count=3,
        layout=fig16,
    )
    back = parse_manifest(write_manifest(manifest), fig16, class_count=3)
    assert back.entries == manifest.entries
    assert back.class_count == 3


def test_manifest_duplicate_paths_rejected(fig16):
    with pytest.raises(ValueError, match="distinct"):
        DatasetManifest(
            entries=[ManifestEntry("a", 0), ManifestEntry("a", 1)],
            class_count=2,
            layout=fig16,
        )


def test_manifest_label_out_of_range(fig16):
    with pytest.raises(ValueError, match="label"):
        DatasetManifest(entries=[ManifestEntry("a", 5)], class_count=3, layout=fig16)


def test_manifest_class_count_inferred(fig16):
    m = parse_manifest("a.json 4 - -\nb.json 0 - -\n", fig16)
    assert m.class_count == 5


@pytest.mark.parametrize("text, class_count, lineno", [
    ("a.json 0 - -\n\nb.json -1 0 0\n", None, 3),
    ("a.json 0 - -\nb.json 3 0 0\n", 3, 2),
])
def test_manifest_label_out_of_range_names_line(fig16, text, class_count, lineno):
    with pytest.raises(ParseError, match=f"line {lineno}: label -?\\d+ out of range") as info:
        parse_manifest(text, fig16, class_count=class_count)
    assert info.value.line == lineno


def test_manifest_duplicate_path_names_second_line(fig16):
    text = "a.json 0 - -\n# comment\nb.json 1 - -\na.json 1 - -\n"
    with pytest.raises(ParseError, match="line 4: duplicate path 'a.json' \\(first on line 1\\)"):
        parse_manifest(text, fig16)
