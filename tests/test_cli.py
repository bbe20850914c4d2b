import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import skelclip
from skelclip import (
    ClipOptions,
    SkeletonSequence,
    generate_clips,
    load_layout,
    load_sequences,
    read_tensor,
    write_canonical,
    write_tensor,
)
from skelclip.cli import _feature_files_for, build_parser, main, pipeline_from_config
from skelclip.config import ConfigFile
from skelclip.experiments import PipelineConfig
from skelclip.features import ExtractorSpec
from skelclip.multitask import TrainConfig
from skelclip.synthetic import SynthConfig

from conftest import write_raw_checkpoint


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli(
        "synth", "--out", out, "--classes", 2, "--per-class", 4,
        "--t-min", 6, "--t-max", 10, "--sigma", 0.05, "--seed", 3,
    ) == 0
    return out


def test_synth_writes_dataset(synth_dir):
    files = sorted(synth_dir.glob("*.json"))
    assert len(files) == 8
    doc = json.loads(files[0].read_text())
    assert doc["layout"] == "figure2-16"
    manifest = (synth_dir / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 8
    assert all(len(line.split()) == 4 for line in manifest)


def test_gen_clips_and_pgm(synth_dir, tmp_path):
    clips = tmp_path / "clips"
    src = sorted(synth_dir.glob("*.json"))[0]
    assert run_cli(
        "gen-clips", "--input", src, "--layout", "figure2-16",
        "--size", 32, "--out", clips, "--pgm",
    ) == 0
    tensor = read_tensor(clips / f"{src.stem}.clips.sktf")
    assert tensor.shape == (3, 4, 32, 32)
    assert tensor.dtype == np.uint8
    pgms = sorted(clips.glob("*.pgm"))
    assert len(pgms) == 12
    assert pgms[0].read_bytes().startswith(b"P5\n32 32\n255\n")


@pytest.fixture
def feature_dir(synth_dir, tmp_path):
    clips = tmp_path / "clips"
    for src in sorted(synth_dir.glob("*.json")):
        assert run_cli(
            "gen-clips", "--input", src, "--layout", "figure2-16",
            "--size", 32, "--out", clips,
        ) == 0
    feats = tmp_path / "feats"
    assert run_cli(
        "extract", "--clips", clips, "--channels", 4, "--seed", 1, "--out", feats,
    ) == 0
    return feats


def test_extract_feature_shape(feature_dir):
    files = sorted(feature_dir.glob("*.feat.sktf"))
    assert len(files) == 8
    arr = read_tensor(files[0])
    assert arr.shape == (4, 3 * 2 * 4)  # 32px through 4 stages -> 2 columns, C=4
    assert arr.dtype == np.float32


def test_extract_precomputed_stack(tmp_path, rng):
    clips = tmp_path / "stacks"
    clips.mkdir()
    stack = rng.standard_normal((3, 4, 6, 5, 2)).astype(np.float32)
    write_tensor(clips / "sample.fmaps.sktf", stack)
    out = tmp_path / "feats"
    assert run_cli("extract", "--clips", clips, "--extractor", "precomputed",
                   "--out", out) == 0
    arr = read_tensor(out / "sample.feat.sktf")
    assert arr.shape == (4, 3 * 5 * 2)


def test_train_and_predict(synth_dir, feature_dir, tmp_path, capsys):
    model = tmp_path / "model.sktf"
    assert run_cli(
        "train", "--features", feature_dir, "--manifest", synth_dir / "manifest.txt",
        "--mode", "mtln", "--epochs", 10, "--lr", 0.05, "--batch", 8,
        "--hidden", 16, "--seed", 2, "--out", model,
    ) == 0
    capsys.readouterr()
    assert run_cli("predict", "--model", model, "--features", feature_dir) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8
    for line in out:
        name, cls = line.split()
        assert cls in ("0", "1")


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_predict_matches_in_memory_models(mode, synth_dir, feature_dir, tmp_path, capsys):
    # the checkpoint stores f32 weights, so classes, not probabilities, must
    # match; outside frame the expected class is run_experiment's scoring of
    # a one-recording test group
    from skelclip import FeatureScaler, TrainConfig, load_layout, parse_manifest, predict_proba
    from skelclip.experiments import evaluate_mode, train_mode

    model = tmp_path / "model.sktf"
    assert run_cli(
        "train", "--features", feature_dir, "--manifest", synth_dir / "manifest.txt",
        "--mode", mode, "--epochs", 10, "--lr", 0.05, "--batch", 8,
        "--hidden", 16, "--seed", 2, "--out", model,
    ) == 0
    capsys.readouterr()
    assert run_cli("predict", "--model", model, "--features", feature_dir) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())

    manifest = parse_manifest((synth_dir / "manifest.txt").read_text(),
                              load_layout("figure2-16"))
    stems = [e.path[: -len(".json")] for e in manifest.entries]
    x = np.stack([read_tensor(feature_dir / f"{s}.feat.sktf") for s in stems]).astype(float)
    scaler = FeatureScaler.fit(x)
    cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=10, seed=2, mode=mode,
                      hidden=16)
    y = np.array([e.label for e in manifest.entries])
    models, _ = train_mode(mode, scaler.apply(x), y, cfg, manifest.class_count)
    for stem, feats in zip(stems, scaler.apply(x)):
        if mode == "frame":
            probs = np.mean([predict_proba(m, feats[None, k:k + 1])[0]
                             for k, m in enumerate(models)], axis=0)
            want = int(np.argmax(probs))
        else:
            _, [confusion] = evaluate_mode(mode, models, [(0, [feats])], manifest.class_count)
            want = int(np.argmax(confusion[0]))
        assert printed[stem] == str(want)
    assert len(printed) == len(stems)


@pytest.mark.parametrize("mode", ["mtln", "frame"])
def test_train_prints_each_nets_final_loss(mode, synth_dir, feature_dir, tmp_path, capsys):
    from skelclip import FeatureScaler, TrainConfig, load_layout, parse_manifest
    from skelclip.experiments import train_mode

    model = tmp_path / "model.sktf"
    assert run_cli(
        "train", "--features", feature_dir, "--manifest", synth_dir / "manifest.txt",
        "--mode", mode, "--epochs", 3, "--lr", 0.05, "--batch", 8,
        "--hidden", 8, "--seed", 5, "--out", model,
    ) == 0
    out = capsys.readouterr().out

    manifest = parse_manifest((synth_dir / "manifest.txt").read_text(),
                              load_layout("figure2-16"))
    stems = [e.path[: -len(".json")] for e in manifest.entries]
    x = np.stack([read_tensor(feature_dir / f"{s}.feat.sktf") for s in stems]).astype(float)
    cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=3, seed=5, mode=mode, hidden=8)
    y = np.array([e.label for e in manifest.entries])
    models, curves = train_mode(mode, FeatureScaler.fit(x).apply(x), y, cfg,
                                manifest.class_count)
    losses = " ".join(f"{curve[-1]:.4f}" for curve in curves)
    assert len(curves) == (4 if mode == "frame" else 1)
    assert out == (f"trained {len(models)} net(s) on {len(x)} samples; "
                   f"final epoch mean loss {losses}; saved to {model}\n")


def test_train_frame_mode_checkpoint(synth_dir, feature_dir, tmp_path):
    model = tmp_path / "model.sktf"
    assert run_cli(
        "train", "--features", feature_dir, "--manifest", synth_dir / "manifest.txt",
        "--mode", "frame", "--epochs", 2, "--batch", 8, "--hidden", 8, "--out", model,
    ) == 0
    from skelclip import load_checkpoint

    loaded, meta = load_checkpoint(model)
    assert len(loaded.nets) == 4
    assert meta["mode"] == "frame"
    assert loaded.scaler.mean.shape == (4, 24) and loaded.scaler.mean.any()


def test_eval_end_to_end(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "layout = figure2-16\n"
        "size = 32\n"
        "channels = 4\n"
        "extractor_seed = 1\n"
        "lr = 0.05\n"
        "batch = 8\n"
        "epochs = 8\n"
        "hidden = 16\n"
        "protocol = cross-subject\n"
        "train_subjects = 0-2\n"
        "test_subjects = 3\n"
        "modes = mtln,maxpool\n"
    )
    out = tmp_path / "run"
    assert run_cli("eval", "--config", cfg, "--data", synth_dir, "--out", out) == 0
    table = (out / "report.txt").read_text()
    assert "mtln" in table and "maxpool" in table and "%" in table
    results = (out / "results.txt").read_text()
    from skelclip.config import parse_kv

    assert parse_kv(results)["classes"] == "2"
    printed = capsys.readouterr().out
    assert "accuracy" in printed


def test_cli_deterministic_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        data = tmp_path / name
        assert run_cli("synth", "--out", data, "--classes", 2, "--per-class", 2,
                       "--t-min", 5, "--t-max", 6, "--seed", 9) == 0
        clips = tmp_path / f"{name}_clips"
        for src in sorted(data.glob("*.json")):
            run_cli("gen-clips", "--input", src, "--layout", "figure2-16",
                    "--size", 32, "--out", clips)
        feats = tmp_path / f"{name}_feats"
        run_cli("extract", "--clips", clips, "--channels", 4, "--seed", 1, "--out", feats)
        model = tmp_path / f"{name}_model.sktf"
        run_cli("train", "--features", feats, "--manifest", data / "manifest.txt",
                "--epochs", 2, "--batch", 4, "--hidden", 8, "--out", model)
        outs.append((data, clips, feats, model))
    (da, ca, fa, ma), (db, cb, fb, mb) = outs
    for pa, pb in zip(sorted(ca.iterdir()), sorted(cb.iterdir())):
        assert pa.read_bytes() == pb.read_bytes()
    for pa, pb in zip(sorted(fa.iterdir()), sorted(fb.iterdir())):
        assert pa.read_bytes() == pb.read_bytes()
    assert ma.read_bytes() == mb.read_bytes()


def test_cli_error_is_tagged(tmp_path, capsys):
    code = run_cli("extract", "--clips", tmp_path, "--out", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err
    assert "skelclip:" in err and "extract" in err


def test_cli_missing_feature_file(synth_dir, tmp_path, capsys):
    empty = tmp_path / "nofeats"
    empty.mkdir()
    code = run_cli("train", "--features", empty,
                   "--manifest", synth_dir / "manifest.txt", "--out", tmp_path / "m.sktf")
    assert code == 1
    assert "no feature file" in capsys.readouterr().err


@pytest.mark.parametrize("shape, dtype", [
    ((2, 4, 16, 16), np.uint8),
    ((4, 4, 16, 16), np.uint8),
    ((3, 4, 16, 16), np.float32),
])
def test_extract_rejects_bad_clip_tensor(tmp_path, capsys, shape, dtype):
    clips = tmp_path / "clips"
    clips.mkdir()
    write_tensor(clips / "bad.clips.sktf", np.zeros(shape, dtype=dtype))
    assert run_cli("extract", "--clips", clips, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("skelclip: [extract] ")
    assert "bad.clips.sktf" in err
    assert not (tmp_path / "o" / "bad.feat.sktf").exists()


def test_extract_precomputed_failure_names_file(tmp_path, capsys):
    clips = tmp_path / "stacks"
    clips.mkdir()
    write_tensor(clips / "bad.fmaps.sktf", np.zeros((4, 3, 6, 5, 2), dtype=np.float32))
    assert run_cli("extract", "--clips", clips, "--extractor", "precomputed",
                   "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("skelclip: [extract] ")
    assert "bad.fmaps.sktf" in err and "(3, 4, H, W, C)" in err


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(
    dtype=st.sampled_from([np.uint8, np.float32]),
    shape=hnp.array_shapes(min_dims=1, max_dims=5, min_side=0, max_side=6),
))
def test_extract_any_small_tensor_fails_cleanly(arr):
    # no tensor this small passes the four halving stages, so every one must
    # end as a one-line skelclip error naming the file, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        clips = Path(tmp) / "clips"
        clips.mkdir()
        write_tensor(clips / "x.clips.sktf", arr)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("extract", "--clips", clips, "--channels", 4,
                           "--out", Path(tmp) / "o")
    assert code == 1
    assert err.getvalue().startswith("skelclip: [extract] ")
    assert "x.clips.sktf" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def train_args(feature_dir, synth_dir, model, *extra):
    return ("train", "--features", feature_dir, "--manifest", synth_dir / "manifest.txt",
            "--epochs", 2, "--batch", 8, "--hidden", 8, "--out", model, *extra)


@pytest.mark.parametrize("arr, message", [
    pytest.param(np.zeros((4, 6), dtype=np.float32),
                 r"expected a float32 \(4, 24\) feature tensor, got float32 \(4, 6\)", id="width"),
    pytest.param(np.zeros((4, 24), dtype=np.uint8),
                 r"expected a float32 \(4, 24\) feature tensor, got uint8 \(4, 24\)", id="dtype"),
    pytest.param(np.zeros((3, 24), dtype=np.float32),
                 r"expected a float32 \(4, 24\) feature tensor, got float32 \(3, 24\)", id="rows"),
    (np.full((4, 24), np.nan, dtype=np.float32), "non-finite"),
])
def test_train_rejects_bad_feature_file(synth_dir, feature_dir, tmp_path, capsys, arr, message):
    bad = sorted(feature_dir.glob("*.feat.sktf"))[-1]
    write_tensor(bad, arr)
    model = tmp_path / "model.sktf"
    assert run_cli(*train_args(feature_dir, synth_dir, model)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"skelclip: [train] {bad}: ")
    assert re.search(message, err)
    assert not model.exists()


def test_train_refuses_manifest_entries_sharing_a_stem(tmp_path, capsys):
    # features are looked up by file stem, so both entries would train on x.feat.sktf
    feats = tmp_path / "feats"
    feats.mkdir()
    write_tensor(feats / "x.feat.sktf", np.ones((4, 6), dtype=np.float32))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a/x.json 0 - -\nb/x.json 1 - -\n")
    model = tmp_path / "model.sktf"
    assert run_cli("train", "--features", feats, "--manifest", manifest, "--epochs", 1,
                   "--hidden", 4, "--out", model) == 1
    assert capsys.readouterr().err == (
        "skelclip: [train] manifest entries a/x.json and b/x.json share a stem\n")
    assert not model.exists()


def test_train_holds_its_features_at_most_twice(tmp_path):
    # 40 (4, 21504) files: 27.5 MB once stacked as float64
    feats = tmp_path / "feats"
    feats.mkdir()
    rng = np.random.default_rng(0)
    n, d = 40, 21504
    for i in range(n):
        write_tensor(feats / f"s{i:02d}.feat.sktf", rng.standard_normal((4, d), np.float32))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"s{i:02d}.json {i % 2} - -\n" for i in range(n)))
    tracemalloc.start()
    try:
        assert run_cli("train", "--features", feats, "--manifest", manifest, "--epochs", 1,
                       "--hidden", 8, "--out", tmp_path / "model.sktf") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (n * 4 * d * 8)


def test_predict_rejects_feature_file_of_another_width(synth_dir, feature_dir, tmp_path,
                                                       capsys):
    model = tmp_path / "model.sktf"
    assert run_cli(*train_args(feature_dir, synth_dir, model, "--mode", "concat")) == 0
    bad = feature_dir / "zz.feat.sktf"
    write_tensor(bad, np.zeros((4, 5), dtype=np.float32))
    capsys.readouterr()
    assert run_cli("predict", "--model", model, "--features", feature_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"skelclip: [predict] {bad}: expected a float32 (4, 24) feature tensor, "
                          "got float32 (4, 5)")


def test_predict_rejects_scaler_of_another_width(tmp_path, rng, capsys):
    model = tmp_path / "model.sktf"
    write_raw_checkpoint(model, "mtln", {
        "W1": rng.standard_normal((5, 3)), "b1": np.zeros(3),
        "W2": rng.standard_normal((3, 2)), "b2": np.zeros(2),
        "feat_mean": np.zeros((4, 6)), "feat_scale": np.ones(1),
    })
    feats = tmp_path / "feats"
    feats.mkdir()
    write_tensor(feats / "a.feat.sktf", np.zeros((4, 5), dtype=np.float32))
    assert run_cli("predict", "--model", model, "--features", feats) == 1
    assert "feat_mean and feat_scale do not fit the nets' d = 5" in capsys.readouterr().err


def test_predict_rejects_checkpoint_with_zero_scale(synth_dir, feature_dir, tmp_path, capsys):
    # feat_scale is the checkpoint's last tensor: overwrite its one float32
    model = tmp_path / "model.sktf"
    assert run_cli(*train_args(feature_dir, synth_dir, model)) == 0
    model.write_bytes(model.read_bytes()[:-4] + np.float32(0.0).tobytes())
    capsys.readouterr()
    assert run_cli("predict", "--model", model, "--features", feature_dir) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"skelclip: {model}: feat_mean must be finite and feat_scale finite and > 0\n"


def test_predict_rejects_malformed_checkpoint(tmp_path, capsys):
    model = tmp_path / "model.sktf"
    model.write_bytes(b"skelclip-model 1\nmode frame\ntensors\nend\n")
    assert run_cli("predict", "--model", model, "--features", tmp_path) == 1
    names = [f"frame{i}.{t}" for i in range(4) for t in ("W1", "b1", "W2", "b2")]
    assert capsys.readouterr().err == (
        f"skelclip: {model}: mode frame stores tensors {' '.join(names)} feat_mean feat_scale, "
        "got none\n")


# ---------------------------------------------------------------------------
# eval config files

EVAL_CONFIG = (
    "layout = figure2-16\n"
    "size = 32\n"
    "channels = 4\n"
    "protocol = cross-subject\n"
    "train_subjects = 0-2\n"
    "test_subjects = 3\n"
)


@pytest.mark.parametrize("edit, message", [
    (("", "epoch = 2\n"), "unknown key epoch"),
    (("", "standardize = flase\n"), "standardize: expected true or false, got 'flase'"),
    (("", "test_average_crops = yes\n"), "test_average_crops: expected true or false"),
    (("size = 32", "size = abc"), "size: invalid literal for int()"),
    (("train_subjects = 0-2\n", ""), "missing key train_subjects"),
    (("test_subjects = 3", "test_subjects = 3-x"), "test_subjects: invalid literal"),
    (("protocol = cross-subject", "protocol = cross-body"), "protocol: expected cross-subject"),
    (("", "modes = mtln,frames\n"), "modes: expected a comma-separated list"),
    (("", "epochs = 0\n"), "epochs must be >= 1"),
    (("", "size\n"), "line 7: expected 'key = value'"),
    (("", "batch = 0\n"), "batch: batch_size must be >= 1"),
    (("", "coords = polar\n"), "coords: coords must be cylindrical or cartesian"),
    # 30 halves once to 15: refused before the manifest is read, by the size asked for
    (("size = 32", "size = 30"),
     "size: frame size 30x30 not halvable through 4 stages: each side must be a multiple of 16"),
    (("", "augment = 2\n"), "augment: crop augmentation is defined for 224x224 clips; got size 32"),
    (("", "test_average_crops = true\n"), "test_average_crops: needs augment > 0"),
    # a key counts only if the chosen settings read it
    (("", "folds = 3\nsplit_seed = 1\ntrain_cameras = 0\n"),
     "unknown key folds, split_seed, train_cameras"),
    (("protocol = cross-subject", "protocol = k-fold"), "unknown key test_subjects, train_subjects"),
    (("", "augment_seed = 1\n"), "unknown key augment_seed"),
    (("layout = figure2-16", "layout = figure9"),
     "layout: unknown layout 'figure9': not a built-in name or config file"),
    (("", "classes = 0\n"), "classes: expected a class count >= 1, got 0"),
])
def test_eval_config_faults_name_the_file_and_key(tmp_path, capsys, edit, message):
    old, new = edit
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EVAL_CONFIG.replace(old, new, 1) if old else EVAL_CONFIG + new)
    assert run_cli("eval", "--config", cfg, "--data", tmp_path / "data",
                   "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"skelclip: {cfg}: ")
    assert message in err
    assert not (tmp_path / "run").exists()


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=300))
def test_eval_config_any_bytes_fail_cleanly(blob):
    # every config that does not name a readable data set ends as one
    # skelclip error line, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("eval", "--config", cfg, "--data", Path(tmp) / "none",
                           "--out", Path(tmp) / "run")
    assert code == 1
    assert err.getvalue().startswith("skelclip: ")
    assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# Bounded ranges and reader fuzz


LAYOUT_CONFIG = "name = demo\njoint_count = 6\nchain = 0-5\nreference_joints = 1,2,3,4\n"


def run_cli_capped(*argv, limit_mb=1024):
    """Run the CLI in a child process whose address space is capped, so an
    input that asks for a huge allocation fails there rather than here."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    src = str(Path(skelclip.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys; from skelclip.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)


def test_huge_id_range_fails_cleanly_under_memory_cap(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EVAL_CONFIG.replace("train_subjects = 0-2", "train_subjects = 0-4000000000"))
    run = run_cli_capped("eval", "--config", cfg, "--data", tmp_path / "data",
                         "--out", tmp_path / "run")
    assert run.returncode == 1
    assert run.stderr == (f"skelclip: {cfg}: train_subjects: range '0-4000000000' "
                          "spans more than 1000 ids\n")

    layout = tmp_path / "layout.cfg"
    layout.write_text(LAYOUT_CONFIG.replace("chain = 0-5", "chain = 0-4000000000"))
    run = run_cli_capped("gen-clips", "--input", tmp_path / "x.json", "--layout", layout,
                         "--out", tmp_path / "clips")
    assert run.returncode == 1
    assert run.stderr == (f"skelclip: {layout}: chain: range '0-4000000000' "
                          "spans more than 1000 ids\n")


def test_reversed_id_range_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EVAL_CONFIG.replace("train_subjects = 0-2", "train_subjects = 0, 5-3"))
    assert run_cli("eval", "--config", cfg, "--data", tmp_path / "data",
                   "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err == f"skelclip: {cfg}: train_subjects: range '5-3' is reversed\n"


# bytes an overwrite draws from: the digits, signs and punctuation of the
# three formats, whitespace, and one byte that is not UTF-8
_TEXT_BYTES = b"0123456789-+.eEn \t\n{}[],:\"\xff"


@st.composite
def mutated(draw, doc: bytes) -> bytes:
    """``doc`` truncated, with 1-4 bytes overwritten, or with a line inserted."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    if kind == "truncate":
        return doc[:draw(st.integers(0, len(doc) - 1))]
    if kind == "overwrite":
        at = draw(st.integers(0, len(doc) - 1))
        patch = bytes(draw(st.lists(st.sampled_from(_TEXT_BYTES), min_size=1, max_size=4)))
        return doc[:at] + patch + doc[at + len(patch):]
    lines = doc.split(b"\n")
    at = draw(st.integers(0, len(lines)))
    line = draw(st.sampled_from([b"", b"0", b"-1", b"2", b"25", b"1 2", b"0 0 0",
                                 b"nan 0 0", b"1e309 0 0", b"100 0 0", b"x.json 0 1 -"]))
    return b"\n".join(lines[:at] + [line] + lines[at:])


def assert_ran_or_failed_cleanly(code, err):
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("skelclip: ")
        assert err.count("\n") == 1
    assert "Traceback" not in err


def _gen_clips(doc: bytes, name: str, layout: str):
    """Run gen-clips on ``doc``; a failure must name the input file and stage."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / name
        src.write_bytes(doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("gen-clips", "--input", src, "--layout", layout, "--size", 8,
                           "--out", Path(tmp) / "clips")
    err = err.getvalue()
    if code == 1:
        assert err.startswith((f"skelclip: [load] {src}: ", f"skelclip: [clips] {src} body "))
    return code, err


def _ntu_document() -> bytes:
    rng = np.random.default_rng(0)
    lines = ["3"]
    for f in range(3):
        ids = ("100", "200") if f != 1 else ("100",)
        lines.append(str(len(ids)))
        for body_id in ids:
            lines += [f"{body_id} 0 1 0 0 0 -0.2 0.1 0 2", "25"]
            lines += [" ".join(f"{v:.4f}" for v in rng.uniform(-1, 1, 3)) + " 0 0 2"
                      for _ in range(25)]
    return ("\n".join(lines) + "\n").encode()


NTU_DOCUMENT = _ntu_document()


@settings(max_examples=50, deadline=None)
@given(mutated(NTU_DOCUMENT))
def test_gen_clips_on_mutated_ntu_text_fails_cleanly(doc):
    assert_ran_or_failed_cleanly(*_gen_clips(doc, "a.skeleton", "ntu-25"))


def _canonical_document() -> bytes:
    frames = np.random.default_rng(1).uniform(-1, 1, (4, 16, 3)).round(3)
    seq = SkeletonSequence(load_layout("figure2-16"), frames, label=1, subject_id=2,
                           camera_id=0)
    # one frame per line, so that an inserted line lands between frames
    return write_canonical(seq).replace("], [[", "],\n[[").encode()


CANONICAL_DOCUMENT = _canonical_document()


@settings(max_examples=50, deadline=None)
@given(mutated(CANONICAL_DOCUMENT))
def test_gen_clips_on_mutated_canonical_json_fails_cleanly(doc):
    assert_ran_or_failed_cleanly(*_gen_clips(doc, "a.json", "figure2-16"))


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("fuzz") / "data"
    assert run_cli("synth", "--out", data, "--classes", 2, "--per-class", 4,
                   "--t-min", 4, "--t-max", 6, "--seed", 5) == 0
    return data


@settings(max_examples=40, deadline=None)
@given(doc=st.data())
def test_eval_on_mutated_manifest_fails_cleanly(fuzz_dataset, doc):
    manifest = (fuzz_dataset / "manifest.txt").read_bytes()
    text = doc.draw(mutated(manifest))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fuzzed.txt").write_bytes(text)
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(EVAL_CONFIG.replace("size = 32", "size = 16")
                       + f"manifest = {Path(tmp) / 'fuzzed.txt'}\n"
                       "epochs = 1\nbatch = 4\nhidden = 4\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("eval", "--config", cfg, "--data", fuzz_dataset,
                           "--out", Path(tmp) / "run")
    assert_ran_or_failed_cleanly(code, err.getvalue())
    if code == 1:
        assert re.match(r"skelclip: \[\w+\] ", err.getvalue())  # a stage, never a bare line


@pytest.mark.parametrize("doc, message", [
    (b"", "empty file"),
    (b" \n\t\n", "empty file"),
    (b"\n".join(NTU_DOCUMENT.split(b"\n")[:4]), "line 4: unexpected end of file"),
])
def test_gen_clips_load_failure_names_the_file(doc, message):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "a.skeleton"
        src.write_bytes(doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("gen-clips", "--input", src, "--layout", "ntu-25",
                           "--out", Path(tmp) / "clips")
    assert code == 1
    assert err.getvalue() == f"skelclip: [load] {src}: {message}\n"


def test_eval_manifest_fault_names_the_manifest(fuzz_dataset, tmp_path, capsys):
    lines = (fuzz_dataset / "manifest.txt").read_text().splitlines()
    lines[3] = "broken"
    manifest = tmp_path / "bad.txt"
    manifest.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EVAL_CONFIG + f"manifest = {manifest}\n")
    assert run_cli("eval", "--config", cfg, "--data", fuzz_dataset, "--out", tmp_path / "r") == 1
    assert capsys.readouterr().err == (
        f"skelclip: [manifest] {manifest}: line 4: expected 4 fields, got 1\n")


def test_train_manifest_fault_names_the_manifest(tmp_path, capsys):
    manifest = tmp_path / "bad.txt"
    manifest.write_text("a.json 0 1\n")
    assert run_cli("train", "--features", tmp_path, "--manifest", manifest,
                   "--out", tmp_path / "m.sktf") == 1
    assert capsys.readouterr().err == (
        f"skelclip: [manifest] {manifest}: line 1: expected 4 fields, got 3\n")


def test_train_refuses_a_class_count_below_one_by_its_flag(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a.json 0 - -\n")
    assert run_cli("train", "--features", tmp_path, "--manifest", manifest, "--classes", 0,
                   "--out", tmp_path / "m.sktf") == 1
    assert capsys.readouterr().err == (
        "skelclip: [train] --classes: expected a class count >= 1, got 0\n")
    assert not (tmp_path / "m.sktf").exists()


def test_one_parser_per_process_leaks_nothing_between_calls(synth_dir, tmp_path, capsys):
    assert build_parser() is build_parser()
    src = sorted(synth_dir.glob("*.json"))[0]
    name = f"{src.stem}.clips.sktf"
    gen = ("gen-clips", "--layout", "figure2-16", "--size", 16)
    assert run_cli(*gen, "--input", src, "--out", tmp_path / "pgm", "--pgm") == 0
    bad = tmp_path / "empty.json"
    bad.write_bytes(b"")
    assert run_cli(*gen, "--input", bad, "--out", tmp_path / "bad") == 1
    assert capsys.readouterr().err.startswith(f"skelclip: [load] {bad}: ")
    assert run_cli(*gen, "--input", src, "--out", tmp_path / "last") == 0
    fresh = run_cli_capped(*gen, "--input", src, "--out", tmp_path / "fresh")
    assert fresh.returncode == 0, fresh.stderr
    assert [p.name for p in (tmp_path / "last").iterdir()] == [name]  # no --pgm carried over
    for out in ("pgm", "last"):
        assert (tmp_path / out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_outputs_sharing_a_stem_are_replaced_with_a_notice(synth_dir, tmp_path, capsys):
    first, second = sorted(synth_dir.glob("*.json"))[:2]
    for side, data in (("a", first), ("b", second)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "x.json").write_bytes(data.read_bytes())
    clips, feats = tmp_path / "clips", tmp_path / "feats"
    capsys.readouterr()
    for side in ("a", "b"):
        assert run_cli("gen-clips", "--input", tmp_path / side / "x.json",
                       "--layout", "figure2-16", "--size", 32, "--out", clips) == 0
        assert run_cli("extract", "--clips", clips, "--channels", 4, "--out", feats) == 0
        notices = [f"skelclip: replaced {clips / 'x.clips.sktf'}\n",
                   f"skelclip: replaced {feats / 'x.feat.sktf'}\n"] if side == "b" else []
        assert capsys.readouterr().err == "".join(notices)
    expected = generate_clips(load_sequences(second, load_layout("figure2-16"))[0],
                              ClipOptions(size=32))
    assert np.array_equal(read_tensor(clips / "x.clips.sktf"), expected.as_array())
    assert run_cli("gen-clips", "--input", second, "--layout", "figure2-16", "--size", 32,
                   "--out", clips, "--pgm") == 0
    assert capsys.readouterr().err.count("skelclip: replaced ") == 0
    assert run_cli("gen-clips", "--input", second, "--layout", "figure2-16", "--size", 32,
                   "--out", clips, "--pgm") == 0
    assert capsys.readouterr().err.count("skelclip: replaced ") == 13


def test_cli_defaults_are_the_library_defaults(tmp_path):
    def parsed(*argv):
        return vars(build_parser().parse_args([*argv, "--out", "o"]))

    synth = SynthConfig(layout=load_layout("figure2-16"))
    args = parsed("synth")
    assert (args["classes"], args["per_class"], args["t_min"], args["t_max"], args["sigma"],
            args["seed"]) == (synth.n_classes, synth.samples_per_class, synth.t_min,
                              synth.t_max, synth.sigma, synth.seed)
    args = parsed("gen-clips", "--input", "a.json", "--layout", "figure2-16")
    assert ClipOptions(args["coords"], args["scale"], args["size"]) == ClipOptions()
    args = parsed("extract", "--clips", "c")
    assert ExtractorSpec(args["channels"], args["seed"]) == ExtractorSpec()
    args = parsed("train", "--features", "f", "--manifest", "m")
    assert TrainConfig(args["lr"], args["batch"], args["epochs"], args["seed"], args["mode"],
                       args["hidden"]) == TrainConfig()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("protocol = k-fold\nfolds = 2\nmodes = mtln\n")
    assert pipeline_from_config(ConfigFile(cfg)) == PipelineConfig()


def test_eval_config_averages_crops_when_augment_is_set(tmp_path):
    # test_average_crops is checked with augment, not against the default augment = 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("test_average_crops = true\naugment = 2\n")
    assert pipeline_from_config(ConfigFile(cfg)) == PipelineConfig(
        augment_count=2, test_average_crops=True)


def test_gen_clips_rejects_a_value_range_too_wide_to_scale(tmp_path):
    # joints 3 and 5, neither a reference joint, 2e308 apart in height: the
    # height frames' range overflows float64
    frames = np.zeros((3, 16, 3))
    frames[:, 3, 2], frames[:, 5, 2] = 1e308, -1e308
    src = tmp_path / "wide.json"
    src.write_text(write_canonical(SkeletonSequence(load_layout("figure2-16"), frames, label=0)))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli("gen-clips", "--input", src, "--layout", "figure2-16", "--size", 16,
                       "--out", tmp_path / "clips")
    assert code == 1
    assert err.getvalue().startswith(f"skelclip: [clips] {src} body 0: value range [")
    assert err.getvalue().endswith("] is too wide to scale to gray\n")
    assert caught == []
    assert list((tmp_path / "clips").iterdir()) == []


@pytest.mark.parametrize("place, message", [
    # the subtraction overflows: -1e308 - 1e308
    ({(4, 2): 1e308, (5, 2): -1e308}, "height relative to reference joint 4 overflows float64"),
    # the vector is finite, its radius hypot(1.5e308, 1.5e308) is not
    ({(5, 0): 1.5e308, (5, 1): 1.5e308}, "radius relative to reference joint 4 overflows float64"),
])
def test_gen_clips_names_the_channel_and_joint_that_overflow(tmp_path, place, message):
    frames = np.zeros((3, 16, 3))
    for (joint, axis), value in place.items():
        frames[:, joint, axis] = value
    src = tmp_path / "far.json"
    src.write_text(write_canonical(SkeletonSequence(load_layout("figure2-16"), frames, label=0)))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli("gen-clips", "--input", src, "--layout", "figure2-16", "--size", 16,
                       "--out", tmp_path / "clips")
    assert code == 1
    assert err.getvalue() == f"skelclip: [clips] {src} body 0: {message}\n"
    assert caught == []
    assert list((tmp_path / "clips").iterdir()) == []


def _write_features(feats, *stems):
    feats.mkdir(exist_ok=True)
    for i, stem in enumerate(stems):
        write_tensor(feats / f"{stem}.feat.sktf", np.full((4, 6), i, dtype=np.float32))


def _train_on(tmp_path, feats, manifest_text):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest_text)
    return run_cli("train", "--features", feats, "--manifest", manifest, "--epochs", 1,
                   "--hidden", 4, "--out", tmp_path / "model.sktf")


def test_train_does_not_take_another_entrys_file_as_a_body(tmp_path, capsys):
    # a.bx.feat.sktf belongs to entry a.bx.json, not to a body of entry a.json
    feats = tmp_path / "feats"
    _write_features(feats, "a.b0", "a.b1", "a.bx")
    assert _train_on(tmp_path, feats, "a.json 0 - -\na.bx.json 1 - -\n") == 0
    assert " on 3 samples;" in capsys.readouterr().out


def test_train_finds_the_bodies_of_a_stem_with_glob_characters(tmp_path, capsys):
    feats = tmp_path / "feats"
    _write_features(feats, "c[1].b0", "c[1].b1", "d")
    assert _train_on(tmp_path, feats, "c[1].json 0 - -\nd.json 1 - -\n") == 0
    assert " on 3 samples;" in capsys.readouterr().out


def test_train_reads_bodies_in_body_order(tmp_path):
    feats = tmp_path / "feats"
    _write_features(feats, *(f"r.b{i}" for i in range(11)), "r.b12")
    # b12 follows a gap: gen-clips never writes one, so it is not a body of r
    assert _feature_files_for(feats, "data/r.json") == [
        feats / f"r.b{i}.feat.sktf" for i in range(11)]


def _ntu_text(bodies: int, seed: int) -> str:
    """Two frames of ``bodies`` 25-joint bodies in NTU .skeleton text."""
    rng = np.random.default_rng(seed)
    lines = ["2"]
    for _ in range(2):
        lines.append(str(bodies))
        for b in range(bodies):
            lines += [f"{100 + b} 0 1 0 0 0 -0.2 0.1 0 2", "25"]
            lines += [" ".join(f"{v:.4f}" for v in rng.uniform(-1, 1, 3)) + " 0 0 2"
                      for _ in range(25)]
    return "\n".join(lines) + "\n"


def test_two_body_recording_trains_on_both_bodies(tmp_path, capsys):
    data, clips, feats = tmp_path / "data", tmp_path / "clips", tmp_path / "feats"
    data.mkdir()
    (data / "a.skeleton").write_text(_ntu_text(1, seed=0))
    (data / "ab.skeleton").write_text(_ntu_text(2, seed=1))
    for name in ("a", "ab"):
        assert run_cli("gen-clips", "--input", data / f"{name}.skeleton", "--layout", "ntu-25",
                       "--size", 32, "--out", clips) == 0
    assert sorted(p.name for p in clips.iterdir()) == [
        "a.clips.sktf", "ab.b0.clips.sktf", "ab.b1.clips.sktf"]
    assert run_cli("extract", "--clips", clips, "--channels", 4, "--out", feats) == 0
    body0, body1 = (read_tensor(feats / f"ab.b{b}.feat.sktf") for b in (0, 1))
    assert not np.array_equal(body0, body1)
    capsys.readouterr()
    assert _train_on(tmp_path, feats, "a.skeleton 0 - -\nab.skeleton 1 - -\n") == 0
    assert " on 3 samples;" in capsys.readouterr().out


@pytest.mark.parametrize("manifest", ["a.json 0 - -\na.b0.json 1 - -\n",
                                      "a.b0.json 1 - -\na.json 0 - -\n"], ids=["a", "a.b0"])
def test_train_refuses_an_entry_whose_stem_names_another_entrys_body(tmp_path, capsys,
                                                                      manifest):
    # a.b0.feat.sktf is entry a.b0.json's file, but train would also read it as a's body 0
    feats = tmp_path / "feats"
    _write_features(feats, "a.b0")
    assert _train_on(tmp_path, feats, manifest) == 1
    assert capsys.readouterr().err == (
        "skelclip: [train] manifest entry a.b0.json is a body of entry a.json\n")
    assert not (tmp_path / "model.sktf").exists()


def test_train_accepts_a_stem_that_is_no_body_file_name(tmp_path, capsys):
    # the body files of a are a.b0, a.b1, ...: never a.b01
    feats = tmp_path / "feats"
    _write_features(feats, "a", "a.b01")
    assert _train_on(tmp_path, feats, "a.json 0 - -\na.b01.json 1 - -\n") == 0
    assert " on 2 samples;" in capsys.readouterr().out


@pytest.fixture(scope="module")
def toy_features(tmp_path_factory):
    """2 classes x 3 synthetic recordings, 16-pixel clips, 2-channel features."""
    root = tmp_path_factory.mktemp("toy")
    data, clips, feats = root / "data", root / "clips", root / "feats"
    assert run_cli("synth", "--out", data, "--classes", 2, "--per-class", 3,
                   "--t-min", 6, "--t-max", 8, "--seed", 1) == 0
    for src in sorted(data.glob("*.json")):
        assert run_cli("gen-clips", "--input", src, "--layout", "figure2-16", "--size", 16,
                       "--out", clips) == 0
    assert run_cli("extract", "--clips", clips, "--channels", 2, "--out", feats) == 0
    return data, feats


def run_cli_quietly(*argv):
    """The exit code, stderr and any warnings of one in-process CLI run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run_cli(*argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("lr, message", [
    ("nan", "learning_rate must be > 0 and finite"),
    ("inf", "learning_rate must be > 0 and finite"),
    # training stays finite in float64, but W1 overflows float32
    ("1e300", "W1 tensor as float32 contains non-finite values"),
])
def test_train_with_a_learning_rate_that_gives_no_usable_model_fails(toy_features, tmp_path,
                                                                     lr, message):
    data, feats = toy_features
    model = tmp_path / "model.sktf"
    assert run_cli_quietly("train", "--features", feats, "--manifest", data / "manifest.txt",
                           "--hidden", 4, "--epochs", 1, "--lr", lr, "--out", model) == (
        1, f"skelclip: [train] {message}\n", [])
    assert not model.exists()


@pytest.mark.parametrize("lr, message", [
    ("nan", "{cfg}: lr: learning_rate must be > 0 and finite"),
    # the trained weights overflow the forward pass at evaluation
    ("1e308", "[evaluate] mtln class probabilities are not finite"),
])
def test_eval_with_a_learning_rate_that_gives_no_usable_model_fails(toy_features, tmp_path,
                                                                    lr, message):
    data, _ = toy_features
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("protocol = k-fold\nfolds = 2\nsize = 16\nchannels = 2\nhidden = 4\n"
                   f"epochs = 1\nlr = {lr}\n")
    out = tmp_path / "run"
    assert run_cli_quietly("eval", "--config", cfg, "--data", data, "--out", out) == (
        1, f"skelclip: {message.format(cfg=cfg)}\n", [])
    assert not out.exists()


DIVERGES = "skelclip: [train] non-finite loss at epoch 1, sample offset 2\n"


def test_train_that_diverges_fails_tagged_without_a_warning(toy_features, tmp_path):
    # the first SGD step overflows the weights, so the second batch's loss is not finite
    data, feats = toy_features
    model = tmp_path / "model.sktf"
    assert run_cli_quietly("train", "--features", feats, "--manifest", data / "manifest.txt",
                           "--hidden", 4, "--lr", "1e200", "--epochs", 4, "--batch", 2,
                           "--out", model) == (1, DIVERGES, [])
    assert not model.exists()


def test_eval_that_diverges_fails_tagged_without_a_warning(toy_features, tmp_path):
    data, _ = toy_features
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("protocol = k-fold\nfolds = 2\nsize = 16\nchannels = 2\nhidden = 4\n"
                   "epochs = 4\nbatch = 2\nlr = 1e200\n")
    out = tmp_path / "run"
    assert run_cli_quietly("eval", "--config", cfg, "--data", data, "--out", out) == (
        1, DIVERGES, [])
    assert not out.exists()
