"""Frozen convolutional feature extraction and temporal mean pooling.

The builtin extractor stands in for a pretrained network used purely as a
feature extractor: a fixed stack of 3x3 conv / ReLU / 2x2 max-pool stages
whose weights are drawn once from a seeded splitmix64 generator and never
trained. 224 x 224 inputs pass through four stages (224 -> 112 -> 56 -> 28
-> 14), ending in 14 x 14 x C feature maps. Every input frame is one gray
(single-channel) clip frame: ``build_time_step_features`` widens, extracts and
pools the 12 frames of a clip set's (3, 4, H, W) array one at a time, and
``_extract_frame`` runs one (H, W) frame channel-first, copying each 3x3 tap
of a stage's input straight into its column matrix (no padded copy) and
dropping each stage's buffers before the next allocation. Only one stage of
one frame is alive at a time (about 9 MB at 224 x 224, at any C), which keeps
the heap from being returned to the kernel and faulted back in on every
frame. Temporal mean pooling averages the rectified activations of each
feature map over the row (time) axis and concatenates the per-map results
map-major into a W*C vector; with C = 512 this is the 7168-dimensional
representation of one clip frame. A clip set pools to one (3, 4, W*C) array,
and ``stack_time_step_features`` joins each time-step's three channel vectors
into the (4, 3*W*C) sample the classifier takes (21504-D per time-step at
C = 512).

Externally computed feature maps (e.g. from a real pretrained model) can be
ingested as one float32 (3, 4, H, W, C) tensor file per sequence through
``load_feature_map_stack``, which pools to the same float64 (3, 4, W*C)
array. It reads the stack twice when no map is negative: one ``min``, which
also rejects NaN and -inf, and the float64 temporal mean; a stack with
negative values is rectified in place first, in float32, so no copy of the
maps is made.
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


# For a 3x3 tap at offset k - 1 along an axis: the span of the column
# matrix the tap's copy fills, the span of the input it is copied from, and
# the edge (one row or column, none for the centre tap) that zero padding
# supplies.
_TAP_SPANS = ((slice(1, None), slice(None, -1), slice(None, 1)),
              (slice(None), slice(None), slice(0)),
              (slice(None, -1), slice(1, None), slice(-1, None)))


def _extract_frame(frame: np.ndarray, spec: ExtractorSpec) -> np.ndarray:
    """(H, W) gray frame in [0, 1] -> its (H', W', C) activations.

    H and W must be multiples of 2 ** stages, checked once before stage 1.
    The frame runs channel-first, (C, H, W). Each stage fills a K-major
    (C_in, 3, 3, H, W) column matrix in the kernels' tap order: each of the
    nine taps copies its shifted interior straight from the unpadded maps
    and zeroes the edge row and column that zero padding 1 would supply. One
    (C_out, C_in*9) product reduces the matrix, two elementwise maxima
    max-pool 2x2, and the pooled quarter is rectified in place (ReLU and max
    commute, so this is exact). Only one stage is alive at a time: about
    9 MB at 224 x 224 and any C. The result is the channel-last view of the
    final (C, H', W') maps.
    """
    spec.check_frame_size(*frame.shape)
    x = frame[None]
    for w in extractor_weights(spec):
        cin, h, wd = x.shape
        col = np.empty((cin, 3, 3, h, wd))
        for ky, kx in np.ndindex(3, 3):
            (to_y, from_y, edge_y), (to_x, from_x, edge_x) = _TAP_SPANS[ky], _TAP_SPANS[kx]
            col[:, ky, kx, to_y, to_x] = x[:, from_y, from_x]
            col[:, ky, kx, edge_y] = 0.0
            col[:, ky, kx, :, edge_x] = 0.0
        y = w.reshape(-1, cin * 9) @ col.reshape(cin * 9, h * wd)
        # Each buffer is dropped before the next allocation, so the live
        # set stays under glibc's heap trim threshold: otherwise the
        # freed pages go back to the kernel and fault in again per frame.
        del col
        y = y.reshape(-1, h // 2, 2, wd // 2, 2)
        x = np.maximum(y[:, :, 0], y[:, :, 1])  # row pairs
        del y
        x = np.maximum(x[..., 0], x[..., 1])  # column pairs
        np.maximum(x, 0.0, out=x)
    return x.transpose(1, 2, 0)


def _pool(maps: np.ndarray) -> np.ndarray:
    """Temporal mean pooling of (..., H, W, C) rectified activations: the mean
    over the row (time) axis, taken in float64, concatenated map-major into
    (..., W*C): all W columns of map 1, then map 2, ... Callers rectify."""
    pooled = maps.mean(axis=-3, dtype=np.float64)  # (..., W, C)
    return np.swapaxes(pooled, -1, -2).reshape(*pooled.shape[:-2], -1)


def temporal_mean_pool(fm: FeatureMaps) -> PooledFeature:
    """Pool one frame's H x W x C maps into a W*C vector (see ``_pool``)."""
    _, w, c = fm.maps.shape
    return PooledFeature(values=_pool(np.maximum(fm.maps, 0.0)), dims=(w, c))


def build_time_step_features(cs: ClipSet, spec: ExtractorSpec = ExtractorSpec()) -> np.ndarray:
    """Extract and pool all 12 frames of a clip set, pixels mapped to [0, 1].

    Returns the pooled (3 channels, 4 time-steps, W*C) array in clip order;
    ``stack_time_step_features`` joins it into the classifier's input. Each
    frame is widened, extracted and pooled before the next one starts, so
    only its pooled row outlives it; the extractor's last stage has already
    rectified the maps.
    """
    h, w = cs.size
    return np.stack([_pool(_extract_frame(f / 255.0, spec))
                     for f in cs.pixels.reshape(12, h, w)]).reshape(3, 4, -1)


def stack_time_step_features(pooled: np.ndarray) -> np.ndarray:
    """(3, 4, n) pooled frames -> (4, 3n) classifier input: one row per
    time-step (reference joint), its three channel blocks in clip order."""
    check_array(pooled, (3, 4, "n"), "pooled feature array")
    return pooled.transpose(1, 0, 2).reshape(4, -1)


# ---------------------------------------------------------------------------
# Feature map files


def load_feature_map_stack(path: str | Path) -> np.ndarray:
    """Ingest a precomputed (3, 4, H, W, C) feature-map stack for one sequence
    and pool it into the (3, 4, W*C) array ``build_time_step_features`` returns.

    The stack's ``min`` rejects NaN and -inf before any arithmetic, and decides
    whether the maps need rectifying (in place, in float32; widening commutes
    with the maximum). The pooled rows' ``max`` then rejects +inf, and their
    maximum with 0 turns -0.0 into +0.0 as rectifying the maps does, so the
    bytes are those of rectifying the widened stack and then pooling it.
    """
    maps = check_array(read_tensor(path), (3, 4, "H", "W", "C"), "feature-map stack",
                       dtype=np.float32, error=TensorFormatError)
    low = maps.min()
    if not np.isfinite(low):
        raise TensorFormatError("feature-map stack contains non-finite values")
    if low < 0:
        np.maximum(maps, 0.0, out=maps)
    pooled = _pool(maps)
    if not np.isfinite(pooled.max()):
        raise TensorFormatError("feature-map stack contains non-finite values")
    return np.maximum(pooled, 0.0, out=pooled)
