"""Frozen convolutional feature extraction and temporal mean pooling.

The builtin extractor stands in for a pretrained network used purely as a
feature extractor: a fixed stack of 3x3 conv / ReLU / 2x2 max-pool stages
whose weights are drawn once from a seeded splitmix64 generator and never
trained. 224 x 224 inputs pass through four stages (224 -> 112 -> 56 -> 28
-> 14), ending in 14 x 14 x C feature maps. Every input frame is one gray
(single-channel) clip frame: ``build_time_step_features`` widens, extracts and
pools the 12 frames of a clip set's (3, 4, H, W) array one at a time through
``_extract_batch``, which takes channel-last batches and runs each frame alone
and channel-first, dropping each stage's buffers before the next allocation.
Only one stage of one frame is alive at a time (about 9 MB at 224 x 224, at any
C), which keeps the heap from being returned to the kernel and faulted back in
on every frame. Temporal mean pooling averages the rectified activations of
each feature map over the row (time) axis and concatenates the per-map results
map-major into a W*C vector; with C = 512 this is the 7168-dimensional
representation of one clip frame.
A clip set pools to one (3, 4, W*C) array, and ``stack_time_step_features``
joins each time-step's three channel vectors into the (4, 3*W*C) sample the
classifier takes (21504-D per time-step at C = 512).

Externally computed feature maps (e.g. from a real pretrained model) can be
ingested as one float32 (3, 4, H, W, C) tensor file per sequence through
``load_feature_map_stack``, which pools to the same float64 (3, 4, W*C)
array: the stack is rectified in place as read, in float32, and only the
temporal mean is taken in float64, so no copy of the maps is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import ClassVar

import numpy as np

from .clips import ClipSet
from .errors import TensorFormatError, check_array
from .tensorio import read_tensor

DEFAULT_STAGE_WIDTHS = (8, 16, 32)  # leading stages; the final stage has `channels` maps


@dataclass(frozen=True)
class FeatureMaps:
    """H x W x C activations from the frozen extractor."""

    maps: np.ndarray

    def __post_init__(self):
        maps = check_array(np.asarray(self.maps, dtype=np.float64), ("H", "W", "C"),
                           "feature map array", finite=True)
        object.__setattr__(self, "maps", maps)


@dataclass(frozen=True)
class PooledFeature:
    """Temporal mean pooled feature: length W*C, map-major."""

    values: np.ndarray
    dims: tuple[int, int]  # (W, C)

    def __post_init__(self):
        w, c = self.dims
        values = check_array(np.asarray(self.values, dtype=np.float64), (w * c,), "pooled feature")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExtractorSpec:
    """Immutable description of the frozen extractor.

    ``stage_widths`` are the channel widths of the leading stages; one more
    stage of width ``channels`` is appended, so the default builds the
    (8, 16, 32, C) stack. The input is one gray frame, so the first stage
    has ``in_channels`` = 1. Identical spec and seed give bit-identical weights.
    """

    channels: int = 64
    seed: int = 0
    stage_widths: tuple[int, ...] = DEFAULT_STAGE_WIDTHS
    in_channels: ClassVar[int] = 1

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if any(w < 1 for w in self.stage_widths):
            raise ValueError("stage widths must be >= 1")

    @property
    def widths(self) -> tuple[int, ...]:
        return (*self.stage_widths, self.channels)

    def check_frame_size(self, h: int, w: int) -> None:
        """ValueError unless an H x W frame halves through every stage."""
        stages = len(self.widths)
        side = 2**stages
        if h % side or w % side or min(h, w) < side:
            raise ValueError(f"frame size {h}x{w} not halvable through {stages} stages: "
                             f"each side must be a multiple of {side}")


# ---------------------------------------------------------------------------
# Seeded deterministic weights


_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 stream for ``seed``."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) + idx * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def seeded_normals(seed: int, count: int) -> np.ndarray:
    """Standard normals from splitmix64 via Box-Muller, fixed draw order."""
    pairs = (count + 1) // 2
    bits = _splitmix64(seed, 2 * pairs)
    # u1 in (0, 1] so the log is finite; u2 in [0, 1)
    u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


@lru_cache(maxsize=8)
def extractor_weights(spec: ExtractorSpec) -> tuple[np.ndarray, ...]:
    """Per-stage conv kernels (C_out, C_in, 3, 3); biases are zero.

    One normal stream per spec, consumed stage by stage in row-major kernel
    order and scaled by sqrt(2 / fan_in). Built once and shared read-only.
    """
    total = 0
    cin = spec.in_channels
    shapes = []
    for cout in spec.widths:
        shapes.append((cout, cin, 3, 3))
        total += cout * cin * 9
        cin = cout
    stream = seeded_normals(spec.seed, total)
    weights = []
    offset = 0
    for shape in shapes:
        n = int(np.prod(shape))
        fan_in = shape[1] * 9
        w = stream[offset:offset + n].reshape(shape) * np.sqrt(2.0 / fan_in)
        w.setflags(write=False)
        weights.append(w)
        offset += n
    return tuple(weights)


# ---------------------------------------------------------------------------
# Forward pass


def _extract_batch(frames: np.ndarray, spec: ExtractorSpec) -> np.ndarray:
    """(B, H, W, C_in) pixel batch in [0, 1] -> (B, H', W', C) activations.

    H and W must be multiples of 2 ** stages, checked once before stage 1.
    Frames run one at a time and channel-first, (C, H, W). Each stage
    zero-pads the frame, fills a K-major (C_in, 3, 3, H, W) column matrix
    with nine shifted slice copies in the kernels' tap order, reduces it with
    one (C_out, C_in*9) product, max-pools 2x2 by two elementwise maxima,
    then rectifies the pooled quarter in place (ReLU and max commute, so this
    is exact). Only one stage of one frame is alive at a time: about 9 MB at
    224 x 224 and any C.
    """
    weights = extractor_weights(spec)
    b, h, wd, _ = frames.shape
    spec.check_frame_size(h, wd)
    out = np.empty((b, h >> len(weights), wd >> len(weights), spec.channels))
    for i, x in enumerate(frames.transpose(0, 3, 1, 2)):
        for w in weights:
            cin, h, wd = x.shape
            xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
            col = np.empty((cin, 3, 3, h, wd))
            for ky, kx in np.ndindex(3, 3):
                col[:, ky, kx] = xp[:, ky:ky + h, kx:kx + wd]
            # Each buffer is dropped before the next allocation, so the live
            # set stays under glibc's heap trim threshold: otherwise the
            # freed pages go back to the kernel and fault in again per frame.
            del xp
            y = w.reshape(-1, cin * 9) @ col.reshape(cin * 9, h * wd)
            del col
            y = y.reshape(-1, h // 2, 2, wd // 2, 2)
            x = np.maximum(y[:, :, 0], y[:, :, 1])  # row pairs
            del y
            x = np.maximum(x[..., 0], x[..., 1])  # column pairs
            np.maximum(x, 0.0, out=x)
        out[i] = x.transpose(1, 2, 0)
    return out


def _pool(maps: np.ndarray) -> np.ndarray:
    """Temporal mean pooling of (..., H, W, C) activations: the mean of the
    rectified values over the row (time) axis, concatenated map-major into
    (..., W*C): all W columns of map 1, then map 2, ... ``maps`` is rectified
    in place, in its own dtype, and only the mean is taken in float64;
    widening commutes with the maximum, so float32 maps pool to the same
    bytes with no copy of the maps."""
    pooled = np.maximum(maps, 0.0, out=maps).mean(axis=-3, dtype=np.float64)  # (..., W, C)
    return np.swapaxes(pooled, -1, -2).reshape(*pooled.shape[:-2], -1)


def temporal_mean_pool(fm: FeatureMaps) -> PooledFeature:
    """Pool one frame's H x W x C maps into a W*C vector (see ``_pool``)."""
    _, w, c = fm.maps.shape
    return PooledFeature(values=_pool(fm.maps.copy()), dims=(w, c))


def build_time_step_features(cs: ClipSet, spec: ExtractorSpec = ExtractorSpec()) -> np.ndarray:
    """Extract and pool all 12 frames of a clip set, pixels mapped to [0, 1].

    Returns the pooled (3 channels, 4 time-steps, W*C) array in clip order;
    ``stack_time_step_features`` joins it into the classifier's input. Each
    frame is widened, extracted and pooled before the next one starts, so
    only its pooled row outlives it; the bytes are those of the 12 frames
    widened, extracted and pooled as one batch.
    """
    h, wd = cs.size
    frames = cs.pixels.reshape(12, 1, h, wd, 1)
    pooled = [_pool(_extract_batch(f.astype(np.float64) / 255.0, spec)) for f in frames]
    return np.concatenate(pooled).reshape(3, 4, -1)


def stack_time_step_features(pooled: np.ndarray) -> np.ndarray:
    """(3, 4, n) pooled frames -> (4, 3n) classifier input: one row per
    time-step (reference joint), its three channel blocks in clip order."""
    check_array(pooled, (3, 4, "n"), "pooled feature array")
    return pooled.transpose(1, 0, 2).reshape(4, -1)


# ---------------------------------------------------------------------------
# Feature map files


def load_feature_map_stack(path: str | Path) -> np.ndarray:
    """Ingest a precomputed (3, 4, H, W, C) feature-map stack for one sequence
    and pool it into the (3, 4, W*C) array ``build_time_step_features`` returns."""
    return _pool(check_array(read_tensor(path), (3, 4, "H", "W", "C"), "feature-map stack",
                             dtype=np.float32, finite=True, error=TensorFormatError))
