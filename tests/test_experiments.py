import tracemalloc
import weakref

import numpy as np
import pytest

from skelclip import (
    ClipOptions,
    DatasetManifest,
    ExtractorSpec,
    FeatureScaler,
    ManifestEntry,
    ParseError,
    PipelineConfig,
    SplitProtocol,
    StageError,
    SynthConfig,
    TrainConfig,
    generate_synthetic,
    make_splits,
    render_results,
    render_table,
    run_experiment,
    sequence_table_loader,
)
from skelclip import experiments
from skelclip.experiments import EvalReport, ModeResult, compute_features


def entries_with_subjects(subjects, cameras=None):
    cameras = cameras or [0] * len(subjects)
    return [
        ManifestEntry(f"p{i}.json", label=i % 2, subject_id=s, camera_id=c)
        for i, (s, c) in enumerate(zip(subjects, cameras))
    ]


@pytest.fixture
def manifest40(fig16):
    return DatasetManifest(
        entries=entries_with_subjects(list(range(1, 41))), class_count=2, layout=fig16
    )


# ---------------------------------------------------------------------------
# splits


def test_cross_subject_split(manifest40):
    protocol = SplitProtocol(
        kind="cross-subject",
        train_ids=frozenset(range(1, 21)),
        test_ids=frozenset(range(21, 41)),
    )
    [(train, test)] = make_splits(manifest40, protocol)
    assert len(train.entries) == 20
    assert len(test.entries) == 20
    assert {e.subject_id for e in train.entries} == set(range(1, 21))
    assert {e.subject_id for e in test.entries} == set(range(21, 41))


def test_cross_view_split(fig16):
    manifest = DatasetManifest(
        entries=entries_with_subjects([1] * 9, cameras=[0, 1, 2] * 3),
        class_count=2,
        layout=fig16,
    )
    protocol = SplitProtocol(
        kind="cross-view", train_ids=frozenset({0, 1}), test_ids=frozenset({2})
    )
    [(train, test)] = make_splits(manifest, protocol)
    assert len(train.entries) == 6
    assert len(test.entries) == 3


def test_cross_subject_missing_metadata(fig16):
    manifest = DatasetManifest(
        entries=[ManifestEntry("a.json", 0, subject_id=None)], class_count=1, layout=fig16
    )
    protocol = SplitProtocol(
        kind="cross-subject", train_ids=frozenset({1}), test_ids=frozenset({2})
    )
    with pytest.raises(ValueError, match="subject_id"):
        make_splits(manifest, protocol)


def test_split_empty_side_rejected(manifest40):
    protocol = SplitProtocol(
        kind="cross-subject", train_ids=frozenset(range(1, 41)), test_ids=frozenset({99})
    )
    with pytest.raises(ValueError, match="empty"):
        make_splits(manifest40, protocol)


def test_overlapping_ids_rejected():
    with pytest.raises(ValueError, match="overlap"):
        SplitProtocol(kind="cross-subject", train_ids=frozenset({1, 2}),
                      test_ids=frozenset({2, 3}))


def test_kfold_partition(fig16):
    manifest = DatasetManifest(
        entries=entries_with_subjects(list(range(10))), class_count=2, layout=fig16
    )
    protocol = SplitProtocol(kind="k-fold", fold_count=5)
    splits = make_splits(manifest, protocol, seed=3)
    assert len(splits) == 5
    all_test = []
    for train, test in splits:
        assert len(test.entries) == 2
        assert len(train.entries) == 8
        test_paths = {e.path for e in test.entries}
        train_paths = {e.path for e in train.entries}
        assert not test_paths & train_paths
        all_test.extend(test_paths)
    assert len(all_test) == 10
    assert set(all_test) == {e.path for e in manifest.entries}


def test_kfold_uneven_sizes(fig16):
    manifest = DatasetManifest(
        entries=entries_with_subjects(list(range(11))), class_count=2, layout=fig16
    )
    splits = make_splits(manifest, SplitProtocol(kind="k-fold", fold_count=3), seed=0)
    sizes = sorted(len(test.entries) for _, test in splits)
    assert sizes == [3, 4, 4]


def test_kfold_cuts_the_seeded_permutation_in_order(fig16):
    # reference: contiguous folds of the permutation, the first n % k one entry longer
    for n in range(2, 25):
        manifest = DatasetManifest(
            entries=entries_with_subjects(list(range(n))), class_count=2, layout=fig16
        )
        for k in range(2, n + 1):
            for seed in (0, 1):
                order = np.random.default_rng(seed).permutation(n)
                base, extra = divmod(n, k)
                want, start = [], 0
                for i in range(k):
                    size = base + (1 if i < extra else 0)
                    want.append([manifest.entries[j].path for j in order[start:start + size]])
                    start += size
                splits = make_splits(manifest, SplitProtocol(kind="k-fold", fold_count=k), seed)
                assert [[e.path for e in test.entries] for _, test in splits] == want


def test_kfold_deterministic(fig16):
    manifest = DatasetManifest(
        entries=entries_with_subjects(list(range(12))), class_count=2, layout=fig16
    )
    protocol = SplitProtocol(kind="k-fold", fold_count=4)
    a = make_splits(manifest, protocol, seed=5)
    b = make_splits(manifest, protocol, seed=5)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert [e.path for e in ta.entries] == [e.path for e in tb.entries]
        assert [e.path for e in sa.entries] == [e.path for e in sb.entries]
    c = make_splits(manifest, protocol, seed=6)
    assert any(
        [e.path for e in sa.entries] != [e.path for e in sc.entries]
        for (_, sa), (_, sc) in zip(a, c)
    )


def test_split_disjoint_for_all_protocols_and_seeds(fig16):
    manifest = DatasetManifest(
        entries=entries_with_subjects(list(range(20)), cameras=[i % 4 for i in range(20)]),
        class_count=2,
        layout=fig16,
    )
    protocols = [
        SplitProtocol(kind="cross-subject", train_ids=frozenset(range(10)),
                      test_ids=frozenset(range(10, 20))),
        SplitProtocol(kind="cross-view", train_ids=frozenset({0, 1}),
                      test_ids=frozenset({2, 3})),
        SplitProtocol(kind="k-fold", fold_count=4),
    ]
    for protocol in protocols:
        for seed in (0, 1, 2):
            for train, test in make_splits(manifest, protocol, seed=seed):
                assert not {e.path for e in train.entries} & {e.path for e in test.entries}


# ---------------------------------------------------------------------------
# feature scaler


def test_scaler_centers_train_set(rng):
    x = rng.standard_normal((30, 4, 6)) * 3 + 5
    scaler = FeatureScaler.fit(x)
    z = scaler.apply(x)
    assert np.abs(z.mean(axis=0)).max() <= 1e-12
    assert scaler.scale > 0


def test_scaler_constant_features(rng):
    x = np.full((10, 4, 6), 2.0)
    scaler = FeatureScaler.fit(x)
    assert scaler.scale == 1.0
    assert np.all(scaler.apply(x) == 0.0)


def test_scaler_identity(rng):
    scaler = FeatureScaler.fit(rng.standard_normal((5, 4, 6)), standardize=False)
    x = np.arange(24, dtype=float).reshape(1, 4, 6)
    assert np.array_equal(scaler.apply(x), x)


# ---------------------------------------------------------------------------
# run_experiment on a fast tiny pipeline


def tiny_pipeline(epochs=12, standardize=True, augment=0):
    return PipelineConfig(
        clip_options=ClipOptions(size=32),
        extractor=ExtractorSpec(channels=4, seed=1, stage_widths=(2,)),
        train=TrainConfig(learning_rate=0.05, batch_size=8, epochs=epochs,
                          seed=0, hidden=16),
        augment_count=augment,
        augment_seed=3,
        standardize=standardize,
    )


@pytest.fixture
def tiny_dataset(fig16):
    cfg = SynthConfig(layout=fig16, n_classes=3, t_min=8, t_max=16,
                      sigma=0.05, samples_per_class=8, seed=4)
    manifest, seqs = generate_synthetic(cfg)
    return manifest, sequence_table_loader(manifest, seqs)


@pytest.fixture
def tiny_protocol():
    return SplitProtocol(
        kind="cross-subject",
        train_ids=frozenset(range(6)),
        test_ids=frozenset(range(6, 8)),
    )


def test_run_experiment_all_modes(tiny_dataset, tiny_protocol):
    manifest, loader = tiny_dataset
    report = run_experiment(
        manifest, loader, tiny_protocol, tiny_pipeline(),
        modes=("mtln", "frame", "concat", "maxpool"),
    )
    assert [m.mode for m in report.modes] == ["mtln", "frame", "concat", "maxpool"]
    for m in report.modes:
        assert 0.0 <= m.accuracy <= 1.0
        assert len(m.fold_accuracies) == 1
        expected_nets = 4 if m.mode == "frame" else 1
        assert len(m.confusions) == expected_nets
        assert len(m.loss_curves) == expected_nets
        for conf in m.confusions:
            # rows sum to the per-class test counts (2 test subjects x 3 classes)
            assert conf.sum() == 6
            assert np.array_equal(conf.sum(axis=1), np.full(3, 2))
        # accuracy equals mean over nets of confusion trace / test size
        accs = [np.trace(c) / c.sum() for c in m.confusions]
        assert m.accuracy == pytest.approx(float(np.mean(accs)))


def test_run_experiment_frees_a_modes_nets_before_the_next_mode_trains(
        tiny_dataset, tiny_protocol, monkeypatch):
    from skelclip.experiments import train_nets

    manifest, loader = tiny_dataset
    refs = {}

    def watching_train_nets(mode, x, y, cfg, n_classes, curves):
        if mode == "frame":
            refs["alive_when_frame_trains"] = refs["mtln_W1"]() is not None
        for net in train_nets(mode, x, y, cfg, n_classes, curves):
            refs.setdefault("mtln_W1", weakref.ref(net.W1))
            yield net

    monkeypatch.setattr(experiments, "train_nets", watching_train_nets)
    run_experiment(manifest, loader, tiny_protocol, tiny_pipeline(epochs=2),
                   modes=("mtln", "frame"))
    assert refs["alive_when_frame_trains"] is False


def test_run_experiment_holds_one_trained_net_at_a_time(tiny_dataset, tiny_protocol, monkeypatch):
    # every net, of any mode, is scored and freed before the next one trains
    from skelclip.experiments import train

    manifest, loader = tiny_dataset
    trained, alive = [], []

    def watching_train(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in trained))
        net, curve = train(*args, **kwargs)
        trained.append(weakref.ref(net))
        return net, curve

    monkeypatch.setattr(experiments, "train", watching_train)
    report = run_experiment(manifest, loader, tiny_protocol, tiny_pipeline(epochs=2),
                            modes=("mtln", "frame"))
    assert alive == [0] * 5
    assert [len(m.loss_curves) for m in report.modes] == [1, 4]


def test_run_experiment_trains_with_only_training_data_alive(tiny_dataset, tiny_protocol,
                                                           monkeypatch):
    # wide features make the test side 1.5 MiB; when a net starts training,
    # memory beyond the features holds the train side and nothing of the
    # test side, neither a standardized copy nor a stack
    from skelclip.experiments import train

    manifest, loader = tiny_dataset
    d = 8192
    rng = np.random.default_rng(0)
    after_features, at_train = [], []

    def wide_features(manifest, loader, config):
        out = {e.path: ([rng.standard_normal((4, d))], []) for e in manifest.entries}
        after_features.append(tracemalloc.get_traced_memory()[0])
        return out

    def watching_train(*args, **kwargs):
        at_train.append(tracemalloc.get_traced_memory()[0])
        return train(*args, **kwargs)

    monkeypatch.setattr(experiments, "compute_features", wide_features)
    monkeypatch.setattr(experiments, "train", watching_train)
    tracemalloc.start()
    try:
        run_experiment(manifest, loader, tiny_protocol, tiny_pipeline(epochs=1),
                       modes=("mtln", "frame"))
    finally:
        tracemalloc.stop()
    (train_side, test_side), = make_splits(manifest, tiny_protocol)
    sample = 4 * d * 8
    assert len(test_side.entries) * sample >= 1.5 * 2**20
    # the standardized (N, 4, d) train stack, the scaler's (4, d) mean, 128 KiB of slack
    budget = len(train_side.entries) * sample + sample + 128 * 2**10
    assert len(at_train) == 5
    assert max(at_train) - after_features[0] <= budget


def test_run_experiment_deterministic(tiny_dataset, tiny_protocol):
    manifest, loader = tiny_dataset
    a = run_experiment(manifest, loader, tiny_protocol, tiny_pipeline(), modes=("mtln",))
    b = run_experiment(manifest, loader, tiny_protocol, tiny_pipeline(), modes=("mtln",))
    assert render_results(a) == render_results(b)


def test_memorization_bound(tiny_dataset, tiny_protocol):
    # diagnostic check through the lower-level train/evaluate path (the
    # protocol types forbid overlapping splits): evaluating on the training
    # set scores at least as high as the held-out evaluation of the same run
    from skelclip.experiments import compute_features, evaluate_mode, make_splits, train_mode

    manifest, loader = tiny_dataset
    config = tiny_pipeline()
    features = compute_features(manifest, loader, config)
    [(train_manifest, test_manifest)] = make_splits(manifest, tiny_protocol)

    train_x = np.stack([features[e.path][0][0] for e in train_manifest.entries])
    train_y = np.array([e.label for e in train_manifest.entries])
    scaler = FeatureScaler.fit(train_x)
    train_x = scaler.apply(train_x)
    models, _ = train_mode("mtln", train_x, train_y, config.train, manifest.class_count)

    def groups(entries):
        return [
            (e.label, [scaler.apply(features[e.path][0][0])]) for e in entries
        ]

    train_acc, _ = evaluate_mode("mtln", models, groups(train_manifest.entries), 3)
    test_acc, _ = evaluate_mode("mtln", models, groups(test_manifest.entries), 3)
    assert train_acc >= test_acc


def test_run_experiment_skips_entries_no_split_uses(fig16, tiny_protocol):
    # an entry whose subject is in neither ID set is never loaded, and the
    # report matches the run on the manifest without it
    cfg = SynthConfig(layout=fig16, n_classes=3, t_min=8, t_max=16,
                      sigma=0.05, samples_per_class=8, seed=4)
    manifest, seqs = generate_synthetic(cfg)
    table = {e.path: [s] for e, s in zip(manifest.entries, seqs)}
    unused = ManifestEntry("unused.json", label=0, subject_id=99)
    entries = list(manifest.entries)
    entries.insert(3, unused)
    padded = DatasetManifest(entries=entries, class_count=3, layout=fig16)
    calls = []

    def loader(path):
        calls.append(path)
        return table[path]

    got = run_experiment(padded, loader, tiny_protocol, tiny_pipeline(epochs=4),
                         modes=("mtln", "frame"))
    assert unused.path not in calls
    assert sorted(calls) == sorted(table)
    expect = run_experiment(manifest, lambda p: table[p], tiny_protocol,
                            tiny_pipeline(epochs=4), modes=("mtln", "frame"))
    assert render_results(got) == render_results(expect)


def test_run_experiment_kfold(tiny_dataset):
    manifest, loader = tiny_dataset
    protocol = SplitProtocol(kind="k-fold", fold_count=3)
    report = run_experiment(manifest, loader, protocol, tiny_pipeline(epochs=4), modes=("mtln",))
    m = report.mode("mtln")
    assert len(m.fold_accuracies) == 3
    assert m.confusions[0].sum() == 24  # every sequence tested exactly once
    assert m.accuracy == pytest.approx(float(np.mean(m.fold_accuracies)))


def test_run_experiment_augmentation_trains_on_crops(fig16, tiny_protocol):
    # augmentation is defined on 224x224 clips, so this test runs the full
    # clip size with a very small extractor
    cfg = SynthConfig(layout=fig16, n_classes=2, t_min=8, t_max=12,
                      sigma=0.05, samples_per_class=8, seed=4)
    manifest, seqs = generate_synthetic(cfg)
    pipeline = PipelineConfig(
        clip_options=ClipOptions(size=224),
        extractor=ExtractorSpec(channels=2, seed=1, stage_widths=()),
        train=TrainConfig(learning_rate=0.05, batch_size=8, epochs=2, seed=0, hidden=8),
        augment_count=2,
        augment_seed=3,
    )
    report = run_experiment(
        manifest, sequence_table_loader(manifest, seqs), tiny_protocol, pipeline,
        modes=("mtln",),
    )
    assert report.mode("mtln").confusions[0].sum() == 4  # test side un-augmented


@pytest.mark.parametrize("average_crops", [False, True])
def test_run_experiment_crops_match_oracle(fig16, tiny_protocol, monkeypatch, average_crops):
    # training sees only the crops; each test recording is scored on its
    # plain sample, plus its crops with test_average_crops, exactly as
    # evaluate_mode scores groups built from compute_features
    from skelclip.experiments import evaluate_mode, train_nets

    cfg = SynthConfig(layout=fig16, n_classes=2, t_min=8, t_max=12,
                      sigma=0.05, samples_per_class=8, seed=4)
    manifest, seqs = generate_synthetic(cfg)
    loader = sequence_table_loader(manifest, seqs)
    pipeline = PipelineConfig(
        clip_options=ClipOptions(size=224),
        extractor=ExtractorSpec(channels=2, seed=1, stage_widths=()),
        train=TrainConfig(learning_rate=0.05, batch_size=8, epochs=2, seed=0, hidden=8),
        augment_count=2,
        augment_seed=3,
        test_average_crops=average_crops,
    )
    trained = []

    def recording_train_nets(mode, x, y, cfg, n_classes, curves):
        models = []
        trained.append((mode, x, y, models))
        for net in train_nets(mode, x, y, cfg, n_classes, curves):
            models.append(net)
            yield net

    monkeypatch.setattr(experiments, "train_nets", recording_train_nets)
    report = run_experiment(manifest, loader, tiny_protocol, pipeline, modes=("mtln", "frame"))

    features = compute_features(manifest, loader, pipeline)
    [(train_manifest, test_manifest)] = make_splits(manifest, tiny_protocol)
    crops = np.stack([f for e in train_manifest.entries for f in features[e.path][1]])
    scaler = FeatureScaler.fit(crops)
    groups = []
    for e in test_manifest.entries:
        plain, test_crops = features[e.path]
        samples = plain + test_crops if average_crops else plain
        groups.append((e.label, [scaler.apply(f) for f in samples]))
    assert all(len(samples) == (3 if average_crops else 1) for _, samples in groups)
    assert [t[0] for t in trained] == [m.mode for m in report.modes]
    for (mode, x, y, models), result in zip(trained, report.modes):
        assert np.array_equal(x, scaler.apply(crops))
        assert np.array_equal(y, np.repeat([e.label for e in train_manifest.entries], 2))
        _, confusions = evaluate_mode(mode, models, groups, manifest.class_count)
        for got, want in zip(result.confusions, confusions, strict=True):
            assert np.array_equal(got, want)


def test_entry_without_skeleton_fails_naming_it(tiny_dataset, tiny_protocol):
    manifest, loader = tiny_dataset
    empty = manifest.entries[2].path
    with pytest.raises(StageError) as info:
        run_experiment(manifest, lambda p: [] if p == empty else loader(p), tiny_protocol,
                       tiny_pipeline(epochs=2), modes=("mtln",))
    assert str(info.value) == f"[load] {empty}: no skeleton in the recording"


def test_augmentation_size_guard(tiny_dataset, tiny_protocol):
    # the rule is the config's own: it is refused before any entry is loaded
    with pytest.raises(ValueError, match="^augment: crop augmentation is defined for "
                                         "224x224 clips; got size 32$"):
        PipelineConfig(clip_options=ClipOptions(size=32), augment_count=2)
    manifest, loader = tiny_dataset
    with pytest.raises((ValueError, StageError), match="224"):
        run_experiment(
            manifest, loader, tiny_protocol, tiny_pipeline(epochs=2, augment=2),
            modes=("mtln",),
        )


def test_run_experiment_rejects_unknown_mode(tiny_dataset, tiny_protocol):
    manifest, loader = tiny_dataset
    with pytest.raises(ValueError, match="unknown mode"):
        run_experiment(manifest, loader, tiny_protocol, tiny_pipeline(), modes=("nope",))


def test_run_experiment_stage_tagged_failure(fig16, tiny_protocol):
    cfg = SynthConfig(layout=fig16, n_classes=3, t_min=8, t_max=16,
                      sigma=0.05, samples_per_class=8, seed=4)
    manifest, seqs = generate_synthetic(cfg)

    def broken_loader(path):
        raise OSError("disk on fire")

    with pytest.raises(StageError, match=r"\[load\]"):
        run_experiment(manifest, broken_loader, tiny_protocol, tiny_pipeline(), modes=("mtln",))


def test_load_failure_names_the_entry(tiny_dataset):
    manifest, _ = tiny_dataset

    def broken_loader(path):
        raise ParseError("bad coordinate", line=37)

    with pytest.raises(StageError) as info:
        compute_features(manifest, broken_loader, tiny_pipeline())
    assert info.value.stage == "load"
    assert str(info.value) == f"[load] {manifest.entries[0].path}: line 37: bad coordinate"


def test_clips_failure_names_the_entry_and_body(tiny_dataset, monkeypatch):
    manifest, loader = tiny_dataset
    calls = []
    real = experiments.generate_clips

    def fail_on_second_body(seq, options):
        calls.append(seq)
        if len(calls) == 2:
            raise ValueError("no frames")
        return real(seq, options)

    monkeypatch.setattr(experiments, "generate_clips", fail_on_second_body)
    two_bodies = lambda path: loader(path) * 2  # noqa: E731
    with pytest.raises(StageError) as info:
        compute_features(manifest, two_bodies, tiny_pipeline())
    assert info.value.stage == "clips"
    assert str(info.value) == f"[clips] {manifest.entries[0].path} body 1: no frames"


def test_multi_body_recordings_average_scores(fig16, tiny_protocol):
    # two bodies per recording: both contribute training samples, and test
    # predictions average the two bodies' scores
    cfg = SynthConfig(layout=fig16, n_classes=3, t_min=8, t_max=16,
                      sigma=0.05, samples_per_class=8, seed=4)
    manifest, seqs = generate_synthetic(cfg)
    table = {e.path: [s, s] for e, s in zip(manifest.entries, seqs)}
    report = run_experiment(
        manifest, lambda p: table[p], tiny_protocol, tiny_pipeline(epochs=2), modes=("mtln",)
    )
    assert report.mode("mtln").confusions[0].sum() == 6  # one prediction per recording


def test_crop_offsets_differ_between_entries(fig16, make_sequence, rng, monkeypatch):
    # two entries (one of them two-body) holding the same skeleton: each
    # entry and body draws its own crop offsets from the one augment_seed
    import skelclip.experiments as experiments

    seq = make_sequence(fig16, 8, rng)
    manifest = DatasetManifest(
        entries=[ManifestEntry("a.json", label=0), ManifestEntry("b.json", label=0)],
        class_count=2,
        layout=fig16,
    )
    table = {"a.json": [seq], "b.json": [seq, seq]}

    def pixels_as_features(cs, spec):
        return cs.as_array().astype(np.float64).reshape(3, 4, -1)  # (3, 4, S*S)

    monkeypatch.setattr(experiments, "build_time_step_features", pixels_as_features)
    config = PipelineConfig(augment_count=3, augment_seed=3)
    out = experiments.compute_features(manifest, lambda p: table[p], config)
    a, b0, b1 = out["a.json"][1], out["b.json"][1][:3], out["b.json"][1][3:]
    assert len(a) == len(b0) == len(b1) == 3
    for one, other in ((a, b0), (a, b1), (b0, b1)):
        assert not all(np.array_equal(x, y) for x, y in zip(one, other))
    again = experiments.compute_features(manifest, lambda p: table[p], config)
    assert all(np.array_equal(x, y) for x, y in zip(a, again["a.json"][1]))


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_evaluate_mode_matches_per_recording_loop(mode, rng):
    # oracle: one predict_multi_sample call per recording and net, on groups
    # of one and two samples (two bodies or test crops)
    from skelclip import MtlnParams, mode_inputs, predict_multi_sample
    from skelclip.experiments import evaluate_mode

    d, n_classes = 5, 4
    groups = [
        (int(rng.integers(n_classes)),
         [rng.standard_normal((4, d)) * 3.0 for _ in range(1 + i % 2)])
        for i in range(40)
    ]
    in_dim = 4 * d if mode == "concat" else d
    models = [
        MtlnParams(W1=rng.standard_normal((in_dim, 8)), b1=np.zeros(8),
                   W2=rng.standard_normal((8, n_classes)), b2=np.zeros(n_classes))
        for _ in range(4 if mode == "frame" else 1)
    ]
    acc, confusions = evaluate_mode(mode, models, groups, n_classes)

    expect = [np.zeros((n_classes, n_classes), dtype=np.int64) for _ in models]
    for label, samples in groups:
        per_net = mode_inputs(mode, np.stack(samples))
        for i, params in enumerate(models):
            pred, _ = predict_multi_sample(params, list(per_net[i]))
            expect[i][label, pred] += 1
    assert len(confusions) == len(expect)
    for got, want in zip(confusions, expect):
        assert np.array_equal(got, want)
    assert acc == np.mean([np.trace(c) / c.sum() for c in expect])
    assert any(np.count_nonzero(c.sum(axis=0)) > 1 for c in expect)  # not one class
    with pytest.raises(ValueError, match="at least one sample"):
        evaluate_mode(mode, models, groups + [(0, [])], n_classes)


@pytest.mark.parametrize("mode, scaled", [("mtln", False), ("frame", False),
                                           ("mtln", True), ("frame", True)])
def test_evaluate_mode_holds_no_test_stack_while_a_net_is_drawn(mode, scaled, rng):
    # a 2.6 MB test side; train_nets trains each net when it is drawn
    from skelclip import MtlnParams
    from skelclip.experiments import evaluate_mode

    d = 2048
    groups = [(i % 2, [rng.standard_normal((4, d))]) for i in range(40)]
    nets = [MtlnParams(W1=rng.standard_normal((d, 8)) * 0.01, b1=np.zeros(8),
                       W2=rng.standard_normal((8, 2)), b2=np.zeros(2))
            for _ in range(4 if mode == "frame" else 1)]
    scaler = FeatureScaler(mean=rng.standard_normal((4, d)), scale=2.0) if scaled else None
    args = (scaler,) if scaled else ()  # unscaled: groups scaled beforehand, as perfbench does
    held = []

    def drawn(start):
        for net in nets:
            held.append(tracemalloc.get_traced_memory()[0] - start)
            yield net

    tracemalloc.start()
    try:
        got = evaluate_mode(mode, drawn(tracemalloc.get_traced_memory()[0]), groups, 2, *args)
    finally:
        tracemalloc.stop()
    assert len(held) == len(nets)
    assert max(held) < 64 * 2**10
    # the same scores as on samples standardized one at a time
    if scaled:
        groups = [(label, [scaler.apply(f) for f in samples]) for label, samples in groups]
    acc, confusions = evaluate_mode(mode, nets, groups, 2)
    assert got[0] == acc
    assert all(np.array_equal(a, b) for a, b in zip(got[1], confusions))


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_evaluate_mode_standardizes_its_test_stack_in_place(mode, rng):
    # a 2.6 MB test side: the stack is the one full-size test-side array
    # (a scaled copy beside it peaked at 2.0x); maxpool adds its (N, 1, d) max
    from skelclip import MtlnParams
    from skelclip.experiments import evaluate_mode

    d = 2048
    groups = [(i % 2, [rng.standard_normal((4, d))]) for i in range(40)]
    side = sum(f.nbytes for _, samples in groups for f in samples)
    in_dim = 4 * d if mode == "concat" else d
    nets = [MtlnParams(W1=rng.standard_normal((in_dim, 8)) * 0.01, b1=np.zeros(8),
                       W2=rng.standard_normal((8, 2)), b2=np.zeros(2))
            for _ in range(4 if mode == "frame" else 1)]
    scaler = FeatureScaler(mean=rng.standard_normal((4, d)), scale=2.0)
    tracemalloc.start()
    try:
        evaluate_mode(mode, nets, groups, 2, scaler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (1.3 if mode == "maxpool" else 1.25) * side


@pytest.mark.parametrize("count", [3, 5, 0])
def test_evaluate_mode_names_a_wrong_net_count(count, rng):
    from skelclip import MtlnParams
    from skelclip.experiments import evaluate_mode

    nets = [MtlnParams(W1=rng.standard_normal((5, 8)), b1=np.zeros(8),
                       W2=rng.standard_normal((8, 2)), b2=np.zeros(2)) for _ in range(count)]
    groups = [(i % 2, [rng.standard_normal((4, 5))]) for i in range(4)]
    with pytest.raises(ValueError, match=rf"^mode frame needs 4 net\(s\), found {count}$"):
        evaluate_mode("frame", nets, groups, 2)
    with pytest.raises(ValueError, match=rf"^mode frame needs 4 net\(s\), found {count}$"):
        evaluate_mode("frame", iter(nets), groups, 2)


# ---------------------------------------------------------------------------
# report rendering


def sample_report():
    return EvalReport(
        class_count=3,
        modes=[
            ModeResult(
                mode="mtln",
                fold_accuracies=[0.25, 0.75],
                confusions=[np.array([[3, 1, 0], [0, 4, 0], [1, 0, 3]], dtype=np.int64)],
                loss_curves=[[4.39, 3.1, 2.0], [4.4, 3.0, 1.9]],
            ),
            ModeResult(
                mode="frame",
                fold_accuracies=[0.75],
                confusions=[np.eye(3, dtype=np.int64) * 2] * 4,
                loss_curves=[[1.1, 0.9]] * 4,
            ),
        ],
    )


def test_render_table_format():
    table = render_table(sample_report())
    assert "50.00%" in table  # mean of 0.25 and 0.75, two decimals
    assert "75.00%" in table
    assert table.splitlines()[0].endswith("accuracy")


def test_render_empty_report_rejected():
    with pytest.raises(ValueError):
        render_table(EvalReport(class_count=2, modes=[]))
    with pytest.raises(ValueError):
        render_results(EvalReport(class_count=2, modes=[]))
