"""Command-line umbrella: synth, gen-clips, extract, train, predict, eval.

Every command exits 0 on success and nonzero with a stage-tagged message on
stderr otherwise. File outputs are deterministic given the same inputs,
configuration and seeds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .clips import ClipOptions, ClipSet, generate_clips, write_pgm
from .config import ConfigFile, parse_bool, parse_int_list
from .errors import SkelclipError, StageError, check_array
from .experiments import (
    PipelineConfig,
    SplitProtocol,
    _stage,
    directory_loader,
    render_results,
    render_table,
    run_experiment,
    train_mode,
)
from .features import (
    ExtractorSpec,
    build_time_step_features,
    load_feature_map_stack,
    stack_time_step_features,
)
from .layouts import load_layout
from .multitask import (
    MODES,
    TASK_COUNT,
    FeatureScaler,
    ModeModel,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from .skeleton_io import load_sequences, parse_manifest, write_canonical, write_manifest
from .synthetic import SynthConfig, generate_synthetic
from .tensorio import read_tensor, write_tensor


def _cmd_synth(args) -> int:
    layout = load_layout(args.layout)
    cfg = SynthConfig(
        layout=layout,
        n_classes=args.classes,
        t_min=args.t_min,
        t_max=args.t_max,
        sigma=args.sigma,
        samples_per_class=args.per_class,
        seed=args.seed,
    )
    manifest, sequences = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for entry, seq in zip(manifest.entries, sequences):
        (out / entry.path).write_text(write_canonical(seq), encoding="utf-8")
    (out / "manifest.txt").write_text(write_manifest(manifest), encoding="utf-8")
    print(f"wrote {len(sequences)} sequences and manifest.txt to {out}")
    return 0


def _replacing(path: Path) -> Path:
    """``path``, after a stderr notice if a file there is about to be replaced."""
    if path.exists():
        print(f"skelclip: replaced {path}", file=sys.stderr)
    return path


def _cmd_gen_clips(args) -> int:
    layout = load_layout(args.layout)
    options = ClipOptions(coords=args.coords, scale_scope=args.scale, size=args.size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    src = Path(args.input)
    with _stage("load", src):
        bodies = load_sequences(src, layout)
    for i, seq in enumerate(bodies):
        with _stage("clips", f"{src} body {i}"):
            cs = generate_clips(seq, options)
        stem = src.stem if len(bodies) == 1 else f"{src.stem}.b{i}"
        write_tensor(_replacing(out / f"{stem}.clips.sktf"), cs.as_array())
        if args.pgm:
            for c, channel in enumerate(cs.channels):
                for r in range(4):
                    write_pgm(cs.pixels[c, r], _replacing(out / f"{stem}.{channel}.ref{r}.pgm"))
    print(f"wrote {len(bodies)} clip set(s) to {out}")
    return 0


def _cmd_extract(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clip_dir = Path(args.clips)
    if args.extractor == "builtin":
        spec = ExtractorSpec(channels=args.channels, seed=args.seed)
        suffix = ".clips.sktf"

        def features(path):
            return build_time_step_features(ClipSet(pixels=read_tensor(path)), spec)
    else:
        suffix, features = ".fmaps.sktf", load_feature_map_stack
    paths = sorted(clip_dir.glob(f"*{suffix}"))
    if not paths:
        raise StageError("extract", f"no input tensors found in {clip_dir}")
    for path in paths:
        with _stage("extract", path):
            feats = stack_time_step_features(features(path))
        write_tensor(_replacing(out / f"{path.name[:-len(suffix)]}.feat.sktf"), feats)
    print(f"wrote {len(paths)} feature file(s) to {out}")
    return 0


def _feature_files_for(feature_dir: Path, entry_path: str) -> list[Path]:
    """``<stem>.feat.sktf``, else ``<stem>.b0.feat.sktf``, ``.b1``, ... up to the first gap."""
    stem = Path(entry_path).stem
    exact = feature_dir / f"{stem}.feat.sktf"
    if exact.exists():
        return [exact]
    bodies = (feature_dir / f"{stem}.b{i}.feat.sktf" for i in itertools.count())
    return list(itertools.takewhile(Path.exists, bodies))


def _read_features(path: Path, stage: str, width: int | None = None) -> np.ndarray:
    """One finite float32 (4, d) feature file as float64, with d = ``width``
    when one is given; a bad file fails as a StageError naming it."""
    with _stage(stage, path):
        arr = check_array(read_tensor(path), (TASK_COUNT, width or "d"), "feature tensor",
                          dtype=np.float32, finite=True)
    return arr.astype(np.float64)


def _cmd_train(args) -> int:
    # train reads features, never sequences, so the manifest's layout goes unused
    with _stage("manifest", args.manifest):
        manifest = parse_manifest(Path(args.manifest).read_text(encoding="utf-8"),
                                  load_layout("figure2-16"), class_count=args.classes)
    stems = {}
    for entry in manifest.entries:
        other = stems.setdefault(Path(entry.path).stem, entry.path)
        if other != entry.path:
            raise StageError("train", f"manifest entries {other} and {entry.path} share a stem")
    for stem, path in stems.items():  # a stem <s>.b<i> names a body file of entry <s>
        body = re.fullmatch(r"(.*)\.b(0|[1-9][0-9]*)", stem)
        if body and body[1] in stems:
            raise StageError("train", f"manifest entry {path} is a body of entry {stems[body[1]]}")
    xs, ys = [], []
    for entry in manifest.entries:
        files = _feature_files_for(Path(args.features), entry.path)
        if not files:
            raise StageError("train", f"no feature file for manifest entry {entry.path}")
        for path in files:
            xs.append(_read_features(path, "train", xs[0].shape[1] if xs else None))
            ys.append(entry.label)
    x = np.stack(xs)
    del xs  # once stacked, the per-file arrays would only double the memory held
    scaler = FeatureScaler.fit(x, not args.no_standardize)
    x = scaler.apply(x)
    cfg = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        hidden=args.hidden,
    )
    nets, curves = train_mode(args.mode, x, np.array(ys, dtype=np.intp), cfg, manifest.class_count)
    save_checkpoint(args.out, ModeModel(args.mode, nets, scaler), seed=args.seed)
    losses = " ".join(f"{curve[-1]:.4f}" for curve in curves)  # one per net, in net order
    print(f"trained {len(nets)} net(s) on {len(x)} samples; "
          f"final epoch mean loss {losses}; saved to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model, _ = load_checkpoint(args.model)
    feature_dir = Path(args.features)
    files = sorted(feature_dir.glob("*.feat.sktf"))
    if not files:
        raise StageError("predict", f"no feature files in {feature_dir}")
    for path in files:
        feats = _read_features(path, "predict", model.scaler.mean.shape[1])
        name = path.name[: -len(".feat.sktf")]
        print(f"{name} {int(np.argmax(model.proba(feats[None])[0]))}")
    return 0


_EVAL_KEYS = (
    "layout", "manifest", "classes", "modes",
    "protocol", "split_seed", "folds",
    "train_subjects", "test_subjects", "train_cameras", "test_cameras",
    "coords", "scale", "size", "channels", "extractor_seed",
    "lr", "batch", "epochs", "train_seed", "hidden",
    "augment", "augment_seed", "standardize", "test_average_crops",
)


def _protocol_from_config(cfg: ConfigFile) -> tuple[SplitProtocol, int]:
    kind = cfg.get("protocol", str, "cross-subject")
    split_seed = cfg.get("split_seed", int, 0)
    if kind == "k-fold":
        return SplitProtocol(kind="k-fold", fold_count=cfg.get("folds", int, 5)), split_seed
    if kind not in ("cross-subject", "cross-view"):
        raise ValueError(f"protocol: expected cross-subject, cross-view or k-fold, got {kind!r}")
    ids = "subjects" if kind == "cross-subject" else "cameras"
    train_ids, test_ids = (
        frozenset(cfg.get(f"{side}_{ids}", parse_int_list)) for side in ("train", "test")
    )
    return SplitProtocol(kind=kind, train_ids=train_ids, test_ids=test_ids), split_seed


def pipeline_from_config(cfg: ConfigFile) -> PipelineConfig:
    """The config's pipeline; an absent key keeps ``PipelineConfig()``'s value. Each
    value is checked by the dataclass that owns it, so a rejected value names its key."""
    base = PipelineConfig()
    clip, ext, train = base.clip_options, base.extractor, base.train

    def get(owner, field: str, key: str, convert):
        return cfg.get(key, lambda v: getattr(replace(owner, **{field: convert(v)}), field),
                       getattr(owner, field))

    return PipelineConfig(
        clip_options=ClipOptions(
            coords=get(clip, "coords", "coords", str),
            scale_scope=get(clip, "scale_scope", "scale", str),
            size=get(clip, "size", "size", int),
        ),
        extractor=ExtractorSpec(
            channels=get(ext, "channels", "channels", int),
            seed=get(ext, "seed", "extractor_seed", int),
        ),
        train=TrainConfig(
            learning_rate=get(train, "learning_rate", "lr", float),
            batch_size=get(train, "batch_size", "batch", int),
            epochs=get(train, "epochs", "epochs", int),
            seed=get(train, "seed", "train_seed", int),
            hidden=get(train, "hidden", "hidden", int),
        ),
        augment_count=get(base, "augment_count", "augment", int),
        augment_seed=get(base, "augment_seed", "augment_seed", int),
        standardize=get(base, "standardize", "standardize", parse_bool),
        test_average_crops=get(base, "test_average_crops", "test_average_crops", parse_bool),
    )


def _parse_modes(value: str) -> list[str]:
    modes = [m.strip() for m in value.split(",") if m.strip()]
    if not modes or any(m not in MODES for m in modes):
        raise ValueError(f"expected a comma-separated list of {', '.join(MODES)}, got {value!r}")
    return modes


def _cmd_eval(args) -> int:
    cfg = ConfigFile(args.config, _EVAL_KEYS)
    with cfg.checking():
        protocol, split_seed = _protocol_from_config(cfg)
        config = pipeline_from_config(cfg)
    modes = cfg.get("modes", _parse_modes, ["mtln"])
    layout = load_layout(cfg.get("layout", str, "figure2-16"))
    data = Path(args.data)
    manifest_path = data / cfg.get("manifest", str, "manifest.txt")
    class_count = cfg.get("classes", int, None)
    with _stage("manifest", manifest_path):
        manifest = parse_manifest(
            manifest_path.read_text(encoding="utf-8"), layout, class_count=class_count
        )
    report = run_experiment(
        manifest,
        directory_loader(data, manifest),
        protocol,
        config,
        modes=modes,
        split_seed=split_seed,
    )
    table = render_table(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(table, encoding="utf-8")
    (out / "results.txt").write_text(render_results(report), encoding="utf-8")
    print(table, end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: no default is mutable, and parse_args returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="skelclip",
        description="Skeleton clip encoding, frozen-feature extraction and "
                    "multi-task action classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--layout", default="figure2-16")
    p.add_argument("--classes", type=int, default=SynthConfig.n_classes)
    p.add_argument("--per-class", type=int, default=SynthConfig.samples_per_class)
    p.add_argument("--t-min", type=int, default=SynthConfig.t_min)
    p.add_argument("--t-max", type=int, default=SynthConfig.t_max)
    p.add_argument("--sigma", type=float, default=SynthConfig.sigma)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gen-clips", help="encode a sequence file as clips")
    p.add_argument("--input", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--coords", choices=["cylindrical", "cartesian"], default=ClipOptions.coords)
    p.add_argument("--scale", choices=["frame", "clip"], default=ClipOptions.scale_scope)
    p.add_argument("--size", type=int, default=ClipOptions.size)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", action="store_true", help="also write PGM images")
    p.set_defaults(func=_cmd_gen_clips)

    p = sub.add_parser("extract", help="clips -> pooled time-step features")
    p.add_argument("--clips", required=True)
    p.add_argument("--extractor", choices=["builtin", "precomputed"], default="builtin")
    p.add_argument("--channels", type=int, default=ExtractorSpec.channels)
    p.add_argument("--seed", type=int, default=ExtractorSpec.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a classifier on extracted features")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=TrainConfig.mode)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict classes for feature files")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SkelclipError as exc:
        print(f"skelclip: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"skelclip: [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
