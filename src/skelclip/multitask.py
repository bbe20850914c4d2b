"""Shared-weight multi-task classifier trained with plain SGD.

One two-layer network (FC -> ReLU -> FC -> softmax) processes the four
time-step features in parallel; the four tasks share every parameter and
the training loss is the sum of the per-task cross-entropy losses. At test
time the four tasks' softmax probabilities are averaged. The ablation
baselines reuse the same network on transformed inputs: a single time-step
feature ("frame"), the four features concatenated ("concat"), or their
elementwise maximum ("maxpool").
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError, TrainingDivergedError, check_array
from .tensorio import read_tensor, write_tensor

MODES = ("mtln", "frame", "concat", "maxpool")
TASK_COUNT = 4

DEFAULT_HIDDEN = 512

# ``train`` updates W1 one row block of at most this many bytes at a time,
# so no (d, h) gradient is built. Blocks of 1 MiB or less measured slower
# at h = 512: each block's gemm was too small to gain from a second thread.
W1_BLOCK_BYTES = 4 << 20


@dataclass
class MtlnParams:
    """Two-layer weights shared by all tasks. W1: (d, h), W2: (h, n_classes)."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        dims = {}
        for name, shape in (("W1", ("d", "h")), ("b1", ("h",)), ("W2", ("h", "n")), ("b2", ("n",))):
            want = tuple(dims.get(dim, dim) for dim in shape)
            arr = check_array(np.asarray(getattr(self, name), dtype=np.float64), want,
                              f"{name} parameter", finite=True)
            dims.update(zip(shape, arr.shape))
            setattr(self, name, arr)

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def class_count(self) -> int:
        return self.W2.shape[1]


@dataclass(frozen=True)
class TaskScores:
    """Per-task logits (K, n_classes) and their softmax probabilities."""

    z: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 100
    epochs: int = 35
    seed: int = 0
    mode: str = "mtln"
    hidden: int = DEFAULT_HIDDEN

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be > 0 and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


@dataclass(frozen=True)
class FeatureScaler:
    """Train-set standardization: per-slot mean, one global scale."""

    mean: np.ndarray  # (K, d)
    scale: float

    @classmethod
    def fit(cls, x: np.ndarray, standardize: bool = True) -> "FeatureScaler":
        """Fit to (N, K, d) training features; with ``standardize`` off, the
        zero-mean, unit-scale scaler, which leaves features unchanged."""
        if not standardize:
            return cls(mean=np.zeros(x.shape[1:]), scale=1.0)
        spread = float(x.std())
        return cls(mean=x.mean(axis=0), scale=spread if spread > 0 else 1.0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x - self.mean
        out /= self.scale
        return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(params: MtlnParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return check_array(x, ("N", "K", params.input_dim), "feature batch")


def _forward_batch(params: MtlnParams, x: np.ndarray):
    b, k, d = x.shape
    flat = x.reshape(b * k, d)
    pre = flat @ params.W1 + params.b1
    hidden = np.maximum(pre, 0.0)
    z = hidden @ params.W2 + params.b2
    return flat, pre, hidden, z.reshape(b, k, -1)


def forward(params: MtlnParams, features: np.ndarray) -> TaskScores:
    """Apply the shared network to each row of a (K, d) feature array."""
    z = _forward_batch(params, _as_batch(params, np.asarray(features)[None]))[3][0]
    return TaskScores(z=z, probabilities=softmax(z))


def _check_one_hot(y: np.ndarray, n: int) -> int:
    y = np.asarray(y)
    if y.shape != (n,) or not np.all((y == 0) | (y == 1)) or y.sum() != 1:
        raise ValueError(f"y must be one-hot of length {n}, got {y!r}")
    return int(np.argmax(y))


def _batch_mean_loss(z: np.ndarray, labels: np.ndarray) -> float:
    """Mean over samples of the summed task cross entropies of (B, K, n)
    logits: log-sum-exp(z) minus the true-class logit, max-shifted."""
    zmax = z.max(axis=-1, keepdims=True)
    lse = (zmax[..., 0] + np.log(np.exp(z - zmax).sum(axis=-1)))  # (B, K)
    picked = np.take_along_axis(z, labels[:, None, None], axis=-1)[..., 0]  # (B, K)
    return float((lse - picked).sum(axis=-1).mean())


def task_loss(z_k: np.ndarray, y: np.ndarray) -> float:
    """Cross entropy of one task's (n,) logits against a one-hot ``y``."""
    z_k = np.asarray(z_k, dtype=np.float64)
    true = _check_one_hot(y, z_k.shape[0])
    return _batch_mean_loss(z_k[None, None], np.array([true]))


def total_loss(scores: TaskScores, y: np.ndarray) -> float:
    """Sum of the per-task losses."""
    true = _check_one_hot(y, scores.z.shape[-1])
    return _batch_mean_loss(scores.z[None], np.array([true]))


@dataclass
class Gradients:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray


def _hidden_grad(params: MtlnParams, pre: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Backpropagate per-row logit deltas (softmax minus one-hot) to the
    hidden pre-activations; rows are the (sample, task) pairs of
    ``_forward_batch``. The ReLU subgradient at exactly 0 is taken as 0."""
    return (delta @ params.W2.T) * (pre > 0)


def backward(params: MtlnParams, features: np.ndarray, y: np.ndarray) -> Gradients:
    """Analytic gradient of the summed task losses w.r.t. the shared params.

    Softmax cross-entropy delta is softmax(z_k) - y per task; the per-task
    contributions accumulate into the shared parameters.
    """
    _check_one_hot(y, params.class_count)
    flat, pre, hidden, z = _forward_batch(params, _as_batch(params, np.asarray(features)[None]))
    delta = softmax(z[0]) - np.asarray(y, dtype=np.float64)[None, :]  # (K, n)
    g_hidden = _hidden_grad(params, pre, delta)
    return Gradients(W1=flat.T @ g_hidden, b1=g_hidden.sum(axis=0),
                     W2=hidden.T @ delta, b2=delta.sum(axis=0))


# ---------------------------------------------------------------------------
# Mode inputs


def mode_inputs(mode: str, x: np.ndarray) -> list[np.ndarray]:
    """Map (N, 4, d) time-step features to one (N, K', d') input array per net.

    mtln feeds all four tasks to one net; frame gives each of four nets one
    time-step; concat joins the four vectors in time-step order; maxpool
    takes their elementwise maximum.
    """
    x = check_array(np.asarray(x, dtype=np.float64), ("N", TASK_COUNT, "d"), "feature array")
    if mode == "mtln":
        return [x]
    if mode == "frame":
        return [x[:, k:k + 1, :] for k in range(TASK_COUNT)]
    if mode == "concat":
        return [x.reshape(len(x), 1, -1)]
    if mode == "maxpool":
        return [x.max(axis=1, keepdims=True)]
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Training


def init_params(d: int, hidden: int, n_classes: int, rng: np.random.Generator) -> MtlnParams:
    """Symmetric-uniform init with fan-based scale; biases zero."""
    a1 = np.sqrt(6.0 / (d + hidden))
    a2 = np.sqrt(6.0 / (hidden + n_classes))
    return MtlnParams(
        W1=rng.uniform(-a1, a1, size=(d, hidden)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-a2, a2, size=(hidden, n_classes)),
        b2=np.zeros(n_classes),
    )


def dataset_mean_loss(params: MtlnParams, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean over samples of the summed task losses (no parameter update)."""
    _, _, _, z = _forward_batch(params, x)
    return _batch_mean_loss(z, labels)


def train(
    samples: np.ndarray,
    cfg: TrainConfig,
    n_classes: int,
    labels: np.ndarray,
) -> tuple[MtlnParams, list[float]]:
    """Mini-batch SGD on the batch-mean of the summed task losses.

    ``samples`` is an (N, K, d) array and ``labels`` its N class indices.
    Data is reshuffled every epoch with the seeded generator; updates are
    plain p <- p - lr * g, all from gradients at the pre-step parameters.
    W1's gradient is never built whole: each block of W1 rows gets its
    slice of it in one reused buffer of at most ``W1_BLOCK_BYTES``, which
    is scaled and subtracted before the next block. Returns the final
    parameters and a loss curve whose first entry is the dataset mean loss
    at initialization followed by one mean training loss per epoch. Raises
    TrainingDivergedError if the loss stops being finite.
    """
    x = check_array(np.asarray(samples, dtype=np.float64), ("N", "K", "d"), "sample array")
    y = check_array(np.asarray(labels, dtype=np.intp), (len(x),), "label vector")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels out of range")

    n_samples, _, d = x.shape
    rng = np.random.default_rng(cfg.seed)
    params = init_params(d, cfg.hidden, n_classes, rng)
    onehot = np.eye(n_classes)

    rows = max(1, W1_BLOCK_BYTES // params.W1[0].nbytes)
    w1_block = np.empty((min(rows, d), cfg.hidden))

    curve = [dataset_mean_loss(params, x, y)]
    # an overflowing step is named by the next batch's loss check (after the
    # last step, by the checkpoint's or the scores' finiteness check)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                xb, yb = x[idx], y[idx]
                b, k = xb.shape[0], xb.shape[1]
                flat, pre, hidden, z = _forward_batch(params, xb)
                batch_loss = _batch_mean_loss(z, yb)
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch + 1}, sample offset {start}"
                    )
                epoch_loss += batch_loss * b

                probs = softmax(z.reshape(b * k, -1))
                delta = (probs - np.repeat(onehot[yb], k, axis=0)) / b
                g_hidden = _hidden_grad(params, pre, delta)  # before W2 moves
                for param, grad in ((params.W2, hidden.T @ delta), (params.b2, delta.sum(axis=0)),
                                    (params.b1, g_hidden.sum(axis=0))):
                    grad *= cfg.learning_rate
                    param -= grad
                for r in range(0, d, rows):
                    block = w1_block[:min(rows, d - r)]
                    np.matmul(flat[:, r:r + rows].T, g_hidden, out=block)
                    block *= cfg.learning_rate
                    params.W1[r:r + rows] -= block
            curve.append(epoch_loss / n_samples)
    return params, curve


# ---------------------------------------------------------------------------
# Prediction


def predict_proba(params: MtlnParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities (N, n_classes) of an (N, K, d) batch: each
    sample's K task softmaxes averaged."""
    _, _, _, z = _forward_batch(params, _as_batch(params, x))
    return softmax(z).mean(axis=1)


def predict_multi_sample(
    params: MtlnParams, sample_features: Sequence[np.ndarray]
) -> tuple[int, np.ndarray]:
    """Average probabilities over several samples of one recording (and over
    tasks), e.g. the two skeletons of an interaction or augmentation crops."""
    if len(sample_features) == 0:
        raise ValueError("need at least one sample")
    probs = predict_proba(params, np.stack(sample_features)).mean(axis=0)
    return int(np.argmax(probs)), probs


def mode_probas(mode: str, nets: Iterable[MtlnParams],
                build: Callable[[], np.ndarray]) -> list[np.ndarray]:
    """Each net's (N, n_classes) probabilities of the (N, 4, d) features
    ``build()`` returns, checked finite. ``nets`` may be any iterable, drawn one
    at a time; no scored net is referenced while the next is drawn. ``build`` is
    called once per net, after the net is drawn, and its result is dropped
    before the next draw; a caller already holding its features passes ``lambda: x``."""
    count = TASK_COUNT if mode == "frame" else 1
    nets = iter(nets)

    def score(i: int, net: MtlnParams) -> np.ndarray:
        return predict_proba(net, mode_inputs(mode, build())[i])

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is named below
        probas = list(map(score, range(count), nets))  # range first: no extra net is drawn
    found = len(probas) + sum(1 for _ in nets)
    if found != count:
        raise ValueError(f"mode {mode} needs {count} net(s), found {found}")
    if not np.isfinite(probas).all():
        raise TrainingDivergedError(f"{mode} class probabilities are not finite")
    return probas


@dataclass(frozen=True)
class ModeModel:
    """A trained mode: its nets in order (four for frame, one otherwise) and
    the scaler its training features were standardized with."""

    mode: str
    nets: list[MtlnParams]
    scaler: FeatureScaler

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        want = TASK_COUNT if self.mode == "frame" else 1
        if len(self.nets) != want:
            raise ValueError(f"mode {self.mode} needs {want} net(s), found {len(self.nets)}")
        if len({(net.W1.shape, net.W2.shape) for net in self.nets}) > 1:
            raise ValueError("nets differ in shape")
        width = self.nets[0].input_dim
        if self.mode == "concat":
            if width % TASK_COUNT:
                raise ValueError(f"a concat net's input width {width} is not 4 * d")
            width //= TASK_COUNT
        if np.shape(self.scaler.mean) != (TASK_COUNT, width):
            raise ValueError(f"feat_mean and feat_scale do not fit the nets' d = {width}")
        scale = self.scaler.scale
        if not (np.isfinite(self.scaler.mean).all() and np.isfinite(scale) and scale > 0):
            raise ValueError("feat_mean must be finite and feat_scale finite and > 0")

    def proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities (N, n_classes) of unscaled (N, 4, d) features:
        the nets' task-averaged probabilities, averaged over the nets."""
        x = self.scaler.apply(x)
        return np.mean(mode_probas(self.mode, self.nets, lambda: x), axis=0)


# ---------------------------------------------------------------------------
# Checkpoints: plain-text header, then named tensors as concatenated SKTF
# blobs in header order.


_CHECKPOINT_MAGIC = "skelclip-model 1"
_NET_TENSORS = ("W1", "b1", "W2", "b2")


def _tensor_names(mode: str) -> list[str]:
    """A ``mode`` checkpoint's tensors in file order: each net's W1 b1 W2 b2,
    as ``frame<i>.W1`` and so on for the four frame nets, then the scaler."""
    prefixes = [f"frame{i}." for i in range(TASK_COUNT)] if mode == "frame" else [""]
    return [p + t for p in prefixes for t in _NET_TENSORS] + ["feat_mean", "feat_scale"]


def _header(model: ModeModel, seed: int) -> str:
    first = model.nets[0]
    return (f"{_CHECKPOINT_MAGIC}\nmode {model.mode}\nd {first.input_dim}\nh {first.hidden_dim}\n"
            f"n_classes {first.class_count}\nseed {seed}\n"
            f"tensors {' '.join(_tensor_names(model.mode))}\nend\n")


def save_checkpoint(path: str | Path, model: ModeModel, seed: int) -> None:
    """Write ``_header(model, seed)``, then the tensors ``_tensor_names``
    lists: the nets' weights in net order, then the scaler as ``feat_mean``
    (4, d) and ``feat_scale`` (1,). A tensor that is not finite as float32
    raises a ValueError naming it, and no file is written."""
    tensors = [getattr(net, t) for net in model.nets for t in _NET_TENSORS]
    tensors += [np.asarray(model.scaler.mean), np.array([model.scaler.scale])]
    with np.errstate(over="ignore"):  # an overflow to infinity is named below
        tensors = [arr.astype(np.float32) for arr in tensors]
    for name, arr in zip(_tensor_names(model.mode), tensors, strict=True):
        check_array(arr, arr.shape, f"{name} tensor as float32", finite=True)
    with open(path, "wb") as fh:
        fh.write(_header(model, seed).encode("ascii"))
        for arr in tensors:
            write_tensor(fh, arr)


def load_checkpoint(path: str | Path) -> tuple[ModeModel, dict[str, str]]:
    """Returns (the stored ModeModel, meta dict). A file ``save_checkpoint``
    could not have written (an unknown mode, other tensor names or order,
    bytes after the last tensor, a model ``ModeModel`` rejects, a header not
    equal to ``_header`` of the stored model) raises a ParseError naming it."""
    try:
        with open(path, "rb") as fh:
            lines = [fh.readline().decode("ascii", errors="replace").rstrip("\n")]
            if lines[0] != _CHECKPOINT_MAGIC:
                raise ParseError(f"not a model checkpoint: {lines[0]!r}")
            while lines[-1] != "end":
                lines.append(fh.readline().decode("ascii", errors="replace").rstrip("\n"))
                if not lines[-1]:
                    raise ParseError("unterminated checkpoint header")
            meta = dict(line.partition(" ")[::2] for line in lines[1:-1])
            names = meta.pop("tensors", "").split()
            mode = meta.get("mode")
            if mode not in MODES:
                raise ParseError(f"unknown mode {mode!r}")
            if names != _tensor_names(mode):
                raise ParseError(f"mode {mode} stores tensors {' '.join(_tensor_names(mode))}, "
                                 f"got {' '.join(names) or 'none'}")
            with np.errstate(invalid="ignore"):  # a signalling NaN is MtlnParams' to name
                *weights, mean, scale = (read_tensor(fh).astype(np.float64) for _ in names)
            if fh.read(1):
                raise ParseError("trailing bytes after the last tensor")

        nets = [MtlnParams(*weights[i:i + 4]) for i in range(0, len(weights), 4)]
        # a misshapen feat_scale becomes a NaN one, which ModeModel names
        scaler = FeatureScaler(mean, float(scale[0]) if scale.shape == (1,) else np.nan)
        model = ModeModel(mode, nets, scaler)
        try:
            want = _header(model, int(meta.get("seed", ""))).split("\n")
        except ValueError:
            raise ParseError(f"seed {meta.get('seed')!r} is not an integer") from None
        if lines != want[:-1]:  # both end at their one "end" line, so zip finds the fault
            got, exp = next((g, w) for g, w in zip(lines, want) if g != w)
            raise ParseError(f"header line {got!r} does not match the stored nets' {exp!r}")
    except ValueError as exc:  # ParseError and TensorFormatError included
        raise ParseError(f"{path}: {exc}") from None
    return model, meta
