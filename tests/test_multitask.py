import struct
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelclip import (
    MtlnParams,
    ParseError,
    SkelclipError,
    TrainConfig,
    TrainingDivergedError,
    backward,
    forward,
    FeatureScaler,
    ModeModel,
    load_checkpoint,
    mode_inputs,
    predict_multi_sample,
    predict_proba,
    save_checkpoint,
    task_loss,
    total_loss,
    train,
)
from skelclip.experiments import evaluate_mode, train_mode
from skelclip.multitask import W1_BLOCK_BYTES, init_params, softmax

from conftest import write_raw_checkpoint


def make_params(d, h, n, rng, scale=0.5):
    return MtlnParams(
        W1=rng.standard_normal((d, h)) * scale,
        b1=rng.standard_normal(h) * scale,
        W2=rng.standard_normal((h, n)) * scale,
        b2=rng.standard_normal(n) * scale,
    )


def one_hot(i, n):
    y = np.zeros(n)
    y[i] = 1.0
    return y


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_params_uniform(rng):
    params = MtlnParams(W1=np.zeros((6, 4)), b1=np.zeros(4), W2=np.zeros((4, 3)), b2=np.zeros(3))
    scores = forward(params, rng.standard_normal((4, 6)))
    assert np.all(scores.z == 0.0)
    assert np.allclose(scores.probabilities, 1.0 / 3.0)


def test_forward_weight_sharing(rng):
    params = make_params(6, 4, 3, rng)
    feat = rng.standard_normal(6)
    scores = forward(params, np.tile(feat, (4, 1)))
    assert np.array_equal(scores.z[0], scores.z[1])
    assert np.array_equal(scores.z[0], scores.z[3])


def test_forward_matches_dense_oracle(rng):
    d, h, n = 6, 4, 3
    params = make_params(d, h, n, rng)
    feats = rng.standard_normal((4, d))
    scores = forward(params, feats)
    for k in range(4):
        hidden = np.zeros(h)
        for j in range(h):
            acc = params.b1[j]
            for i in range(d):
                acc += feats[k, i] * params.W1[i, j]
            hidden[j] = max(acc, 0.0)
        z = np.zeros(n)
        for c in range(n):
            acc = params.b2[c]
            for j in range(h):
                acc += hidden[j] * params.W2[j, c]
            z[c] = acc
        assert np.abs(scores.z[k] - z).max() <= 1e-12


def test_forward_dim_mismatch(rng):
    params = make_params(6, 4, 3, rng)
    with pytest.raises(ValueError):
        forward(params, rng.standard_normal((4, 5)))


def test_softmax_rows_sum_to_one_extremes(rng):
    params = make_params(4, 3, 5, rng)
    feats = rng.standard_normal((4, 4)) * 1e4
    scores = forward(params, feats)
    assert np.abs(scores.probabilities.sum(axis=1) - 1.0).max() <= 1e-9
    assert scores.probabilities.min() >= 0.0
    assert scores.probabilities.max() <= 1.0


# ---------------------------------------------------------------------------
# losses


def test_task_loss_uniform_anchor():
    for n in (2, 5, 60):
        assert task_loss(np.zeros(n), one_hot(0, n)) == pytest.approx(np.log(n), abs=1e-12)


def test_task_loss_confident_limit():
    z = np.array([50.0, 0.0, 0.0])
    assert task_loss(z, one_hot(0, 3)) <= 1e-20


def test_task_loss_shift_invariant(rng):
    z = rng.standard_normal(7)
    y = one_hot(3, 7)
    assert task_loss(z, y) == pytest.approx(task_loss(z + 123.456, y), abs=1e-12)


def test_task_loss_rejects_non_one_hot():
    with pytest.raises(ValueError, match="one-hot"):
        task_loss(np.zeros(3), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError, match="one-hot"):
        task_loss(np.zeros(3), np.array([1.0, 1.0, 0.0]))


def test_total_loss_zero_logits_anchor(rng):
    params = MtlnParams(W1=np.zeros((5, 4)), b1=np.zeros(4), W2=np.zeros((4, 6)), b2=np.zeros(6))
    scores = forward(params, rng.standard_normal((4, 5)))
    assert total_loss(scores, one_hot(2, 6)) == pytest.approx(4 * np.log(6), abs=1e-12)


def test_total_loss_additivity(rng):
    params = make_params(5, 4, 3, rng)
    feats = rng.standard_normal((4, 5))
    scores = forward(params, feats)
    y = one_hot(1, 3)
    expect = sum(task_loss(scores.z[k], y) for k in range(4))
    assert total_loss(scores, y) == expect


def test_total_loss_nonnegative(rng):
    params = make_params(5, 4, 3, rng)
    for _ in range(20):
        scores = forward(params, rng.standard_normal((4, 5)) * 10)
        assert total_loss(scores, one_hot(0, 3)) >= 0.0


# ---------------------------------------------------------------------------
# backward


def _loss_at(params, feats, y):
    return total_loss(forward(params, feats), y)


def test_gradient_matches_finite_differences(rng):
    """Central differences, eps=1e-5, over 100 random instances."""
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 17))
        h = int(rng.integers(2, 9))
        n = int(rng.integers(2, 6))
        params = make_params(d, h, n, rng)
        feats = rng.standard_normal((4, d))
        y = one_hot(int(rng.integers(n)), n)
        grads = backward(params, feats, y)
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(params, name)
            got = getattr(grads, name)
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _v in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = _loss_at(params, feats, y)
                arr[idx] = orig - eps
                down = _loss_at(params, feats, y)
                arr[idx] = orig
                fd[idx] = (up - down) / (2 * eps)
            scale = max(float(np.abs(got).max()), float(np.abs(fd).max()), 1e-8)
            worst = max(worst, float(np.abs(got - fd).max()) / scale)
    assert worst <= 1e-6


def test_gradient_zero_at_confident_minimum():
    d, h, n = 4, 3, 3
    params = MtlnParams(
        W1=np.eye(d, h), b1=np.zeros(h), W2=np.eye(h, n) * 200.0, b2=np.zeros(n)
    )
    feats = np.tile(np.array([5.0, 0.0, 0.0, 0.0]), (4, 1))
    grads = backward(params, feats, one_hot(0, n))
    for name in ("W1", "b1", "W2", "b2"):
        assert np.abs(getattr(grads, name)).max() <= 1e-12


def test_gradient_identical_features_is_four_times_single(rng):
    d, h, n = 6, 4, 3
    params = make_params(d, h, n, rng)
    feat = rng.standard_normal(d)
    y = one_hot(1, n)
    g4 = backward(params, np.tile(feat, (4, 1)), y)

    # single-task gradient via a 1-row forward
    scores = forward(params, feat[None])
    pre = feat @ params.W1 + params.b1
    hidden = np.maximum(pre, 0.0)
    delta = scores.probabilities[0] - y
    gW2 = np.outer(hidden, delta)
    g_hidden = (params.W2 @ delta) * (pre > 0)
    gW1 = np.outer(feat, g_hidden)
    assert np.abs(g4.W2 - 4 * gW2).max() <= 1e-12
    assert np.abs(g4.W1 - 4 * gW1).max() <= 1e-12


# ---------------------------------------------------------------------------
# baselines


def test_mode_inputs_identical_features(rng):
    feat = rng.standard_normal(5)
    x = np.tile(feat, (2, 4, 1))  # (N=2, 4, d)
    [concat] = mode_inputs("concat", x)
    [maxpool] = mode_inputs("maxpool", x)
    assert np.array_equal(concat, np.tile(feat, (2, 1, 4)))
    assert np.array_equal(maxpool, np.tile(feat, (2, 1, 1)))
    for frame in mode_inputs("frame", x):
        assert np.array_equal(frame, np.tile(feat, (2, 1, 1)))


def test_mode_inputs_maxpool_dominating_vector(rng):
    x = rng.standard_normal((3, 4, 6))
    x[:, 2] = np.abs(x).max() + 1.0  # dominates elementwise
    [maxpool] = mode_inputs("maxpool", x)
    assert np.array_equal(maxpool[:, 0], x[:, 2])


def test_mode_inputs_shapes(rng):
    x = rng.standard_normal((3, 4, 5))
    assert [a.shape for a in mode_inputs("mtln", x)] == [(3, 4, 5)]
    assert [a.shape for a in mode_inputs("frame", x)] == [(3, 1, 5)] * 4
    assert [a.shape for a in mode_inputs("concat", x)] == [(3, 1, 20)]
    assert [a.shape for a in mode_inputs("maxpool", x)] == [(3, 1, 5)]
    # frame net k sees time-step k; concat keeps time-step order
    for k, frame in enumerate(mode_inputs("frame", x)):
        assert np.array_equal(frame[:, 0], x[:, k])
    assert np.array_equal(mode_inputs("concat", x)[0][1, 0], x[1].reshape(-1))
    with pytest.raises(ValueError, match="unknown mode"):
        mode_inputs("nope", x)
    with pytest.raises(ValueError):
        mode_inputs("mtln", x[0])  # one (4, d) sample, not a batch


def test_mode_inputs_concat_dim_mismatch(rng):
    p_frame = make_params(5, 4, 3, rng)
    [concat] = mode_inputs("concat", rng.standard_normal((1, 4, 5)))
    with pytest.raises(ValueError):
        predict_proba(p_frame, concat)


# ---------------------------------------------------------------------------
# training


def separable_dataset(rng, n_per_class=20, d=10, margin=2.0, noise=0.1):
    xs, ys = [], []
    for label, sign in ((0, -1.0), (1, 1.0)):
        center = np.full(d, sign * margin)
        for _ in range(n_per_class):
            feats = center + rng.standard_normal((4, d)) * noise
            xs.append(feats)
            ys.append(label)
    return np.stack(xs), np.array(ys)


def test_train_initial_loss_near_uniform(rng):
    # small-scale inputs keep init logits near zero, so the pre-update loss
    # sits at 4*ln(n) of the uniform softmax
    x = rng.standard_normal((50, 4, 20)) * 0.3
    y = rng.integers(0, 5, size=50)
    cfg = TrainConfig(epochs=1, seed=1)
    _, curve = train(x, cfg, 5, labels=y)
    assert curve[0] == pytest.approx(4 * np.log(5), rel=0.02)


def test_train_deterministic(rng):
    x, y = separable_dataset(rng)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=9, hidden=8)
    p1, c1 = train(x, cfg, 2, labels=y)
    p2, c2 = train(x, cfg, 2, labels=y)
    assert c1 == c2
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name))


def test_train_separable_toy_converges(rng):
    x, y = separable_dataset(rng)
    cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=30, seed=3, hidden=16)
    params, curve = train(x, cfg, 2, labels=y)
    # loss decreases monotonically over the first 5 epochs from init
    assert all(curve[i + 1] < curve[i] for i in range(5))
    preds = np.argmax(predict_proba(params, x), axis=1)
    assert np.mean(preds == y) == 1.0


def train_reference(x, cfg, n_classes, labels):
    """The SGD loop ``train`` ran before it updated W1 in row blocks:
    every step builds a fresh full (d, h) gradient, then p <- p - lr * g."""
    rng = np.random.default_rng(cfg.seed)
    params = init_params(x.shape[2], cfg.hidden, n_classes, rng)
    onehot = np.eye(n_classes)
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            xb, yb = x[idx], labels[idx]
            b, k = xb.shape[:2]
            flat = xb.reshape(b * k, -1)
            pre = flat @ params.W1 + params.b1
            hidden = np.maximum(pre, 0.0)
            z = hidden @ params.W2 + params.b2
            delta = (softmax(z) - np.repeat(onehot[yb], k, axis=0)) / b
            g_hidden = (delta @ params.W2.T) * (pre > 0)
            for param, grad in ((params.W2, hidden.T @ delta), (params.b2, delta.sum(axis=0)),
                                (params.W1, flat.T @ g_hidden), (params.b1, g_hidden.sum(axis=0))):
                grad *= cfg.learning_rate
                param -= grad
    return params


def assert_train_matches_reference(x, y, cfg):
    nets, _ = train_mode(cfg.mode, x, y, cfg, 3)
    for i, (net, inputs) in enumerate(zip(nets, mode_inputs(cfg.mode, x), strict=True)):
        want = train_reference(inputs, replace(cfg, seed=cfg.seed + i), 3, y)
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(net, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_train_is_byte_equal_to_fresh_gradient_sgd(rng, mode):
    x = rng.standard_normal((23, 4, 37))
    y = rng.integers(0, 3, size=23)
    cfg = TrainConfig(learning_rate=0.05, batch_size=6, epochs=3, seed=4, hidden=11, mode=mode)
    assert_train_matches_reference(x, y, cfg)


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_train_is_byte_equal_across_w1_row_blocks(rng, mode):
    # three full row blocks and a ragged fourth per net (concat: twelve and
    # a ragged one), so every block boundary of the streamed update is hit
    h = 64
    d = 3 * (W1_BLOCK_BYTES // (8 * h)) + 77
    x = rng.standard_normal((9, 4, d))
    y = rng.integers(0, 3, size=9)
    cfg = TrainConfig(learning_rate=0.05, batch_size=4, epochs=2, seed=6, hidden=h, mode=mode)
    assert_train_matches_reference(x, y, cfg)


def test_train_holds_no_full_size_w1_gradient(rng):
    # W1 is 8.7 MB; a (d, h) gradient beside it would double the peak
    d, h, batch = 17000, 64, 3
    x = rng.standard_normal((6, 1, d))
    y = np.arange(6) % 2
    cfg = TrainConfig(batch_size=batch, epochs=2, seed=0, hidden=h)
    tracemalloc.start()
    try:
        params, _ = train(x, cfg, 2, labels=y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params.W1.nbytes >= 8_000_000
    batch_arrays = 4 * batch * d * 8  # the mini-batch copy and its neighbours
    assert peak < params.W1.nbytes + W1_BLOCK_BYTES + batch_arrays


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train(np.zeros((0, 4, 3)), TrainConfig(), 2, labels=np.zeros(0, dtype=int))


def test_train_divergence_detected(rng):
    # inseparable data at a near-overflow learning rate drives the weights
    # to inf within a few updates, so the loss stops being finite
    x = rng.standard_normal((24, 4, 6)) * 1e3
    y = rng.integers(0, 2, size=24)
    cfg = TrainConfig(learning_rate=1e154, batch_size=8, epochs=5, seed=0, hidden=8)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train(x, cfg, 2, labels=y)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="nope")


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -1.0])
def test_train_config_requires_a_finite_positive_learning_rate(lr):
    with pytest.raises(ValueError, match="^learning_rate must be > 0 and finite$"):
        TrainConfig(learning_rate=lr)


# ---------------------------------------------------------------------------
# prediction


def test_predict_identical_tasks_matches_single_argmax(rng):
    params = make_params(6, 4, 3, rng)
    feat = rng.standard_normal(6)
    probs = predict_proba(params, np.tile(feat, (1, 4, 1)))[0]
    cls = int(np.argmax(probs))
    single = forward(params, feat[None]).probabilities[0]
    assert cls == int(np.argmax(single))
    assert np.abs(probs - single).max() <= 1e-12


def test_predict_average_favors_majority():
    # three tasks put 0.9 on class A; one task is certain of class B
    z = np.array([
        [np.log(0.9), np.log(0.1)],
        [np.log(0.9), np.log(0.1)],
        [np.log(0.9), np.log(0.1)],
        [-746.0, 0.0],
    ])
    params = MtlnParams(W1=np.eye(4, 4), b1=np.zeros(4), W2=np.eye(4, 2), b2=np.zeros(2))
    # drive the logits directly through an identity network
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    mean = probs.mean(axis=0)
    assert mean[0] == pytest.approx(0.675, abs=1e-12)
    assert mean[1] <= 0.325 + 1e-12
    assert int(np.argmax(mean)) == 0


def test_predict_shift_invariant_argmax(rng):
    # shifting every logit of every task (b2 + c) leaves the probabilities
    # bit-identical through the max-shifted softmax
    params = make_params(6, 4, 3, rng)
    feats = rng.standard_normal((4, 6))
    probs = predict_proba(params, feats[None])[0]
    shifted = MtlnParams(W1=params.W1, b1=params.b1, W2=params.W2, b2=params.b2 + 7.5)
    probs2 = predict_proba(shifted, feats[None])[0]
    assert np.argmax(probs) == np.argmax(probs2)
    assert np.abs(probs - probs2).max() <= 1e-12


def test_predict_uniform_tie_breaks_low_index():
    params = MtlnParams(W1=np.zeros((5, 4)), b1=np.zeros(4), W2=np.zeros((4, 3)), b2=np.zeros(3))
    cls, probs = predict_multi_sample(params, [np.ones((4, 5))])
    assert cls == 0
    assert np.allclose(probs, 1.0 / 3.0)


def test_predict_multi_sample_single_equals_predict(rng):
    params = make_params(6, 4, 3, rng)
    feats = rng.standard_normal((4, 6))
    cls_multi, probs_multi = predict_multi_sample(params, [feats])
    probs_single = predict_proba(params, feats[None])[0]
    assert cls_multi == int(np.argmax(probs_single))
    assert np.array_equal(probs_multi, probs_single)


def test_predict_multi_sample_identical_scores(rng):
    params = make_params(6, 4, 3, rng)
    feats = rng.standard_normal((4, 6))
    cls_one = int(np.argmax(predict_proba(params, feats[None])[0]))
    cls_two, _ = predict_multi_sample(params, [feats, feats])
    assert cls_one == cls_two


def test_predict_multi_sample_averaging_oracle(rng):
    params = make_params(6, 4, 3, rng)
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
    cls, probs = predict_multi_sample(params, [a, b])
    pa = forward(params, a).probabilities.mean(axis=0)
    pb = forward(params, b).probabilities.mean(axis=0)
    expect = (pa + pb) / 2
    assert np.abs(probs - expect).max() <= 1e-12
    assert cls == int(np.argmax(expect))


def test_predict_proba_matches_per_sample_predict(rng):
    params = make_params(6, 4, 3, rng)
    x = rng.standard_normal((5, 4, 6))
    probs = predict_proba(params, x)
    assert probs.shape == (5, 3)
    for feats, row in zip(x, probs):
        assert np.abs(row - forward(params, feats).probabilities.mean(axis=0)).max() <= 1e-12


def test_predict_multi_sample_empty_rejected(rng):
    params = make_params(6, 4, 3, rng)
    with pytest.raises(ValueError):
        predict_multi_sample(params, [])


# ---------------------------------------------------------------------------
# weight sharing and init


def test_perturbing_w1_changes_all_tasks(rng):
    params = make_params(6, 4, 3, rng)
    feats = rng.standard_normal((4, 6)) + 2.0  # keep ReLU active
    before = forward(params, feats).z
    params.W1[0, 0] += 0.5
    after = forward(params, feats).z
    assert np.all(np.any(before != after, axis=1))


def test_init_params_bounds(rng):
    params = init_params(100, 50, 10, rng)
    a1 = np.sqrt(6 / 150)
    a2 = np.sqrt(6 / 60)
    assert np.abs(params.W1).max() <= a1
    assert np.abs(params.W2).max() <= a2
    assert np.all(params.b1 == 0.0)
    assert np.all(params.b2 == 0.0)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, rng):
    params = make_params(6, 4, 3, rng)
    scaler = FeatureScaler(mean=rng.standard_normal((4, 6)), scale=2.5)
    path = tmp_path / "model.sktf"
    save_checkpoint(path, ModeModel("mtln", [params], scaler), seed=7)
    model, meta = load_checkpoint(path)
    assert meta["mode"] == model.mode == "mtln"
    assert meta["d"] == "6"
    assert meta["h"] == "4"
    assert meta["n_classes"] == "3"
    assert meta["seed"] == "7"
    [back] = model.nets
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(
            getattr(back, name), getattr(params, name).astype(np.float32).astype(np.float64)
        )
    assert model.scaler.mean.shape == (4, 6)
    assert np.array_equal(model.scaler.mean, scaler.mean.astype(np.float32))
    assert model.scaler.scale == 2.5


def test_checkpoint_multi_model(tmp_path, rng):
    models = [make_params(5, 3, 2, rng) for _ in range(4)]
    path = tmp_path / "model.sktf"
    scaler = FeatureScaler.fit(np.ones((2, 4, 5)), standardize=False)
    save_checkpoint(path, ModeModel("frame", models, scaler), seed=0)
    assert b"tensors frame0.W1 frame0.b1 frame0.W2 frame0.b2 frame1.W1" in path.read_bytes()
    assert b" frame3.b2 feat_mean feat_scale\nend\n" in path.read_bytes()
    model, meta = load_checkpoint(path)
    assert len(model.nets) == 4
    for got, want in zip(model.nets, models):  # header order is the nets' order
        assert np.array_equal(got.W1, want.W1.astype(np.float32))
    assert meta["mode"] == "frame"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.sktf"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(Exception, match="checkpoint"):
        load_checkpoint(path)


def write_checkpoint(path, mode="mtln", nets=1, seed=5):
    rng = np.random.default_rng(seed)
    nets = [make_params(5, 3, 2, rng) for _ in range(nets)]
    save_checkpoint(path, ModeModel(mode, nets, FeatureScaler(rng.standard_normal((4, 5)), 2.0)),
                    seed=0)
    return path.read_bytes()


NET_TENSORS = ("W1", "b1", "W2", "b2")


MTLN_TENSORS = "mode mtln stores tensors W1 b1 W2 b2 feat_mean feat_scale, got "


# explicit ids name the fault a row makes, where the message names the rule it breaks
@pytest.mark.parametrize("edit, message", [
    pytest.param((b"tensors W1 b1 W2 b2", b"tensors W1 b1 W2 xx"), MTLN_TENSORS + "W1 b1 W2 xx ",
                 id="edit0-missing tensor b2"),
    pytest.param((b"mode mtln", b"mode frame"), r"mode frame stores tensors frame0\.W1 .*, got W1 ",
                 id="edit1-mode frame needs 4 net"),
    ((b"mode mtln", b"mode bogus"), "unknown mode 'bogus'"),
    ((b"\nmode mtln", b""), "unknown mode None"),
    pytest.param((b"feat_mean feat_scale", b"feat_mean feat_scalf"),
                 MTLN_TENSORS + ".* feat_scalf$", id="edit4-unexpected tensor names"),
    pytest.param((b"W2 b2 feat_mean", b"W2 b2 W2"), MTLN_TENSORS + "W1 b1 W2 b2 W2 feat_scale$",
                 id="edit5-unexpected tensor names"),
    pytest.param((b"tensors W1 b1 W2 b2", b"tensors x0.W1 x0.b1 x0.W2 x0.b2"),
                 MTLN_TENSORS + "x0.W1 ", id="edit6-unexpected tensor names"),
    ((b"\nd 5\n", b"\nd 999\n"), "header line 'd 999' does not match the stored nets' 'd 5'"),
    ((b"\nh 3\n", b"\nh 4\n"), "header line 'h 4' does not match the stored nets' 'h 3'"),
    ((b"\nn_classes 2\n", b"\nn_classes 3\n"), "header line 'n_classes 3' does not match"),
    ((b"\nseed 0\n", b"\nseed zero\n"), "seed 'zero' is not an integer"),
    ((b"\nseed 0\n", b"\nseed 0\nseed 0\n"), "header line 'seed 0' does not match"),
    ((b"\nd 5\nh 3\n", b"\nh 3\nd 5\n"), "header line 'h 3' does not match the stored nets' 'd 5'"),
])
def test_checkpoint_header_faults_name_the_file(tmp_path, edit, message):
    path = tmp_path / "model.sktf"
    path.write_bytes(write_checkpoint(path).replace(*edit, 1))
    with pytest.raises(ParseError, match=message) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("scaler, message", [
    ({"feat_mean": np.zeros((4, 5)), "feat_scale": [0.0]}, "feat_scale finite and > 0"),
    ({"feat_mean": np.zeros((4, 5)), "feat_scale": [-2.0]}, "feat_scale finite and > 0"),
    ({"feat_mean": np.zeros((4, 5)), "feat_scale": [np.inf]}, "feat_scale finite and > 0"),
    ({"feat_mean": np.zeros((4, 5)), "feat_scale": [1.0, 1.0]}, "feat_scale finite and > 0"),
    pytest.param({"feat_mean": np.zeros((4, 5))}, MTLN_TENSORS + "W1 b1 W2 b2 feat_mean$",
                 id="scaler4-feat_scale finite and > 0"),
    ({"feat_mean": np.full((4, 5), np.nan), "feat_scale": [1.0]}, "feat_mean must be finite"),
    ({"feat_mean": np.zeros((4, 6)), "feat_scale": [1.0]}, "do not fit the nets' d = 5"),
    pytest.param({"feat_scale": [1.0]}, MTLN_TENSORS + "W1 b1 W2 b2 feat_scale$",
                 id="scaler7-do not fit the nets' d = 5"),
])
def test_checkpoint_scaler_faults_name_the_file(tmp_path, rng, scaler, message):
    path = tmp_path / "model.sktf"
    net = make_params(5, 3, 2, rng)
    write_raw_checkpoint(path, "mtln", {t: getattr(net, t) for t in NET_TENSORS} | scaler)
    with pytest.raises(ParseError, match=message) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_checkpoint_frame_net_lacking_a_tensor(tmp_path):
    path = tmp_path / "model.sktf"
    data = write_checkpoint(path, mode="frame", nets=4)
    path.write_bytes(data.replace(b"frame2.b1", b"frame2.c1", 1))
    with pytest.raises(ParseError, match=r", got frame0\.W1 .* frame2\.W1 frame2\.c1 "):
        load_checkpoint(path)


def test_checkpoint_inconsistent_weights_rejected(tmp_path, rng):
    path = tmp_path / "model.sktf"
    path.write_bytes(write_checkpoint(path))
    # swap the two bias tensors' names: b1 now has 2 entries for 3 hidden units
    path.write_bytes(path.read_bytes().replace(b"W1 b1 W2 b2", b"W1 b2 W2 b1", 1))
    with pytest.raises(ParseError, match=MTLN_TENSORS + "W1 b2 W2 b1 ") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")
    scaler = {"feat_mean": np.zeros((4, 5)), "feat_scale": [1.0]}
    nets = [make_params(5, 3, 2, rng) for _ in range(3)] + [make_params(5, 4, 2, rng)]
    write_raw_checkpoint(path, "frame", {f"frame{i}.{t}": getattr(net, t)
                                         for i, net in enumerate(nets) for t in NET_TENSORS}
                         | scaler)
    with pytest.raises(ParseError, match="differ in shape"):
        load_checkpoint(path)
    net = make_params(10, 3, 2, rng)
    write_raw_checkpoint(path, "concat", {t: getattr(net, t) for t in NET_TENSORS} | scaler)
    with pytest.raises(ParseError, match="input width 10 is not 4 \\* d"):
        load_checkpoint(path)


@pytest.mark.parametrize("edits, message", [
    ([(b"frame%d." % i, b"concat%d." % i) for i in range(4)],
     r"mode frame stores tensors frame0\.W1 .*, got concat0\.W1 "),
    ([(b"frame0.", b"frameX."), (b"frame1.", b"frame0."), (b"frameX.", b"frame1.")],
     r"mode frame stores tensors frame0\.W1 .*, got frame1\.W1 .* frame0\.W1 "),
])
def test_checkpoint_frame_nets_named_otherwise_rejected(tmp_path, edits, message):
    path = tmp_path / "model.sktf"
    data = write_checkpoint(path, mode="frame", nets=4)
    for old, new in edits:
        data = data.replace(old, new)
    path.write_bytes(data)
    with pytest.raises(ParseError, match=message) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_checkpoint_with_bytes_after_the_last_tensor_rejected(tmp_path):
    path = tmp_path / "model.sktf"
    path.write_bytes(write_checkpoint(path) + b"\0")
    with pytest.raises(ParseError, match="trailing bytes after the last tensor") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")


def test_checkpoint_signalling_nan_fails_without_a_warning(tmp_path):
    # widening a float32 signalling NaN to float64 raises numpy's "invalid
    # value encountered in cast"; the loader must name the tensor instead
    path = tmp_path / "model.sktf"
    data = bytearray(write_checkpoint(path))
    w1 = data.index(b"\nend\n") + 5 + 4 + 3 + 2 * 4  # magic, version/dtype/rank, two dims
    data[w1:w1 + 4] = struct.pack("<I", 0x7F800001)
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="W1 parameter contains non-finite values") as info:
            load_checkpoint(path)
    assert str(info.value) == f"{path}: W1 parameter contains non-finite values"


@pytest.mark.parametrize("mode, name", [
    ("frame", "frame2.W1"), ("mtln", "b2"), ("mtln", "feat_mean"), ("mtln", "feat_scale")])
def test_save_checkpoint_names_a_tensor_that_overflows_float32(tmp_path, rng, mode, name):
    nets = [make_params(5, 3, 2, rng) for _ in range(4 if mode == "frame" else 1)]
    mean, scale = np.zeros((4, 5)), 1.0
    if name == "feat_scale":
        scale = 1e300
    elif name == "feat_mean":
        mean[1, 2] = -1e300
    else:
        net, _, tensor = name.rpartition(".")
        getattr(nets[int(net[-1]) if net else 0], tensor)[-1] = 1e300
    path = tmp_path / "model.sktf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            save_checkpoint(path, ModeModel(mode, nets, FeatureScaler(mean, scale)), seed=0)
    assert str(info.value) == f"{name} tensor as float32 contains non-finite values"
    assert not path.exists()


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_checkpoint_header_is_what_save_checkpoint_writes(tmp_path, rng, mode):
    d = 20 if mode == "concat" else 5
    nets = [make_params(d, 3, 2, rng) for _ in range(4 if mode == "frame" else 1)]
    path = tmp_path / "model.sktf"
    save_checkpoint(path, ModeModel(mode, nets, FeatureScaler(np.zeros((4, 5)), 1.0)), seed=9)
    prefixes = [f"frame{i}." for i in range(4)] if mode == "frame" else [""]
    tensors = [p + t for p in prefixes for t in NET_TENSORS] + ["feat_mean", "feat_scale"]
    want = (f"skelclip-model 1\nmode {mode}\nd {d}\nh 3\nn_classes 2\nseed 9\n"
            f"tensors {' '.join(tensors)}\nend\n")
    assert path.read_bytes().startswith(want.encode())
    model, meta = load_checkpoint(path)
    assert meta == {"mode": mode, "d": str(d), "h": "3", "n_classes": "2", "seed": "9"}


@settings(max_examples=50, deadline=None)
@given(mode=st.sampled_from(["mtln", "frame"]), data=st.data())
def test_corrupt_checkpoint_loads_or_fails_cleanly(mode, data):
    # a valid checkpoint truncated at any offset, or with one byte
    # overwritten, either loads or raises a SkelclipError; one that loads
    # is exactly what save_checkpoint writes for the loaded model
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.sktf"
        blob = bytearray(write_checkpoint(path, mode, 4 if mode == "frame" else 1))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] = data.draw(
                st.integers(0, 255), label="byte")
        path.write_bytes(bytes(blob))
        try:
            model, meta = load_checkpoint(path)
        except SkelclipError:
            return
        save_checkpoint(path, model, int(meta["seed"]))
        assert path.read_bytes() == blob
    assert len(model.nets) == (4 if meta["mode"] == "frame" else 1)


@pytest.mark.parametrize("mode", ["mtln", "frame", "concat", "maxpool"])
def test_mode_model_proba_averages_its_nets_on_scaled_features(mode, rng):
    x = rng.standard_normal((6, 4, 5)) * 3 + 1
    scaler = FeatureScaler.fit(x)
    cfg = TrainConfig(epochs=2, batch_size=4, hidden=4)
    nets, _ = train_mode(mode, scaler.apply(x), np.arange(6) % 3, cfg, 3)
    want = np.mean([predict_proba(net, inputs)
                    for net, inputs in zip(nets, mode_inputs(mode, scaler.apply(x)))], axis=0)
    assert np.array_equal(ModeModel(mode, nets, scaler).proba(x), want)


@pytest.mark.parametrize("mode", ["mtln", "frame"])
def test_probabilities_a_net_overflows_raise_without_a_warning(mode, rng):
    # finite weights whose logits overflow float64: softmax would give NaN
    nets = [make_params(5, 3, 2, rng) for _ in range(4 if mode == "frame" else 1)]
    nets[-1].W2[:] = [[1e308, -1e308]] * 3
    model = ModeModel(mode, nets, FeatureScaler(np.zeros((4, 5)), 1.0))
    x = rng.standard_normal((6, 4, 5)) * 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError,
                           match=f"^{mode} class probabilities are not finite$"):
            model.proba(x)
        with pytest.raises(TrainingDivergedError):
            evaluate_mode(mode, nets, [(0, list(x[:3])), (1, list(x[3:]))], 2)
