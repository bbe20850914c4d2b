"""Self-tests of the benchmark: span arithmetic, extractor cost counts, seeded
inputs, the NTU writer and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from skelclip import clips, experiments, layouts, skeleton_io  # noqa: E402
from skelclip.features import ExtractorSpec  # noqa: E402


def test_covered_merges_and_clips_intervals():
    assert tracer.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert tracer.covered([], 0, 10) == 0
    assert tracer.covered([(2, 3), (2, 3)], 0, 10) == 1


def test_self_time_subtracts_children_only():
    spans = [
        tracer.Span("root", -1, 0.0, 10.0),
        tracer.Span("a", 0, 1.0, 4.0),
        tracer.Span("a.child", 1, 2.0, 3.0),
        tracer.Span("b", 0, 5.0, 9.0),
        tracer.Span("other_root", -1, 11.0, 12.0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracer.root_coverage(spans, 0, 0.0, 12.0) == 11.0


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))

    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2, count=lambda r, x: {"x": x})
    assert outer(3) == 8
    assert [(s.name, s.parent, s.start, s.end) for s in t.spans] == [
        ("outer", -1, 0, 3), ("inner", 0, 1, 2)]
    assert t.spans[0].counts == {"x": 3}
    assert tracer.self_times(t.spans) == [2, 1]


def test_tracer_wraps_where_callers_look_up_and_restores(fig16_sequence):
    originals = (experiments.generate_clips, clips.generate_clips, clips.resize_bilinear)
    t = tracer.Tracer()
    with t.active(tracer.layer_targets(), tracer.layer_methods()):
        experiments.generate_clips(fig16_sequence, clips.ClipOptions(size=16))
    assert (experiments.generate_clips, clips.generate_clips, clips.resize_bilinear) == originals
    names = [s.name for s in t.spans]
    assert names.count("clips.generate_clips") == 1
    assert names.count("clips.resize_bilinear") == 12
    assert names.count("clips.scale_to_gray") == 12
    assert all(s.parent == 0 for s in t.spans[1:])
    m = tracer.layer_metrics(t.spans, 1)
    assert m["clips.clipsets"] == 1
    assert 0 < m["clips.resize_ms"] < m["clips.busy_ms"]
    assert set(m) | {"features.weights_ms", "trace.coverage_pct", "trace.overhead_pct"} == {
        name for name, _, _ in tracer.LAYER_METRICS}


def test_extractor_cost_matches_hand_counts_at_224_c64():
    spec = ExtractorSpec(channels=64)
    got = tracer.extractor_cost(spec.in_channels, spec.widths, 224, 224, frames=1)
    # stage: out pixels * (C_in * 9) taps * C_out MACs; im2col 8 bytes per tap
    assert got == [
        (224 * 224 * 9 * 8, 224 * 224 * 9 * 8),             # 1 -> 8 at 224^2
        (112 * 112 * 72 * 16, 112 * 112 * 72 * 8),          # 8 -> 16 at 112^2
        (56 * 56 * 144 * 32, 56 * 56 * 144 * 8),            # 16 -> 32 at 56^2
        (28 * 28 * 288 * 64, 28 * 28 * 288 * 8),            # 32 -> 64 at 28^2
    ]
    assert [macs for macs, _ in got] == [3_612_672, 14_450_688, 14_450_688, 14_450_688]
    assert [b for _, b in got] == [3_612_672, 7_225_344, 3_612_672, 1_806_336]
    per_sequence = tracer.extractor_cost(1, spec.widths, 224, 224, frames=12)
    assert round(per_sequence[1][1] / 1e6, 1) == 86.7   # the stage-2 column matrix


def test_same_seed_gives_identical_inputs(tmp_path):
    a = inputs.ntu_file_set(3, n_files=4)
    b = inputs.ntu_file_set(3, n_files=4)
    assert [text for _, text in a] == [text for _, text in b]
    assert [text for _, text in inputs.ntu_file_set(4, n_files=4)] != [text for _, text in a]

    manifest, _ = inputs.stack_manifest()
    manifest.entries = manifest.entries[:2]
    first = inputs.write_feature_stacks(3, manifest, tmp_path / "a")
    second = inputs.write_feature_stacks(3, manifest, tmp_path / "b")
    other = inputs.write_feature_stacks(4, manifest, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert first[0].read_bytes() != other[0].read_bytes()

    (_, seqs_a, _), (_, seqs_b, _) = inputs.replicate_data(3), inputs.replicate_data(3)
    assert all(x.frames.tobytes() == y.frames.tobytes() for x, y in zip(seqs_a, seqs_b))


def test_ntu_file_set_has_the_two_person_share_of_ntu_rgbd():
    files = inputs.ntu_file_set(0)
    two = sorted(len(rec.present) for rec, _ in files if len(rec.bodies) == 2)
    assert len(files) == inputs.NTU_FILES
    assert len(two) == round(inputs.NTU_FILES * 11 / 60) == 6
    # spread over the length range, not bunched at one end
    assert two[0] < 200 < two[-1]
    assert len(inputs.ntu_file_set(0, n_files=2)) == 2    # no two-body file


@pytest.mark.parametrize("two_bodies", [False, True])
def test_ntu_writer_round_trips_through_the_parser(two_bodies):
    rng = np.random.default_rng(7)
    rec = inputs.ntu_recording(rng, "rt", 40, two_bodies)
    text = inputs.write_ntu_skeleton(rec, rng)
    lines = text.splitlines()
    assert int(lines[0]) == 40
    assert len(lines[2].split()) == 10 and lines[3] == "25" and len(lines[4].split()) == 12
    # some frames lack a body: a two-body frame with one body, or no body
    assert any(len(p) < len(rec.bodies) for p in rec.present)

    parsed = skeleton_io.parse_ntu_skeleton(text, layouts.load_layout("ntu-25"))
    assert len(parsed) == len(rec.bodies)
    for seq, body in zip(parsed, rec.bodies):
        assert seq.frames.shape == body.shape
        assert np.array_equal(seq.frames, body)


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "replicate", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_metric_lists_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == ["replicate", "encode_ntu", "paper_scale"]


@pytest.fixture
def fig16_sequence():
    rng = np.random.default_rng(0)
    return skeleton_io.SkeletonSequence(
        layout=layouts.load_layout("figure2-16"), frames=rng.uniform(-1, 1, (12, 16, 3))
    )
