"""Skeleton sequence -> three clips of four gray frames.

One array pass takes the remaining joints (in chain order) relative to each
of the four reference joints, giving four (m-1) x t arrays of 3D vectors, in
cylindrical coordinates (radius, azimuth, height) by default or Cartesian
for the ablation. Each coordinate channel of each array becomes a gray image
with rows = time and columns = joints, linearly scaled to 0..255 and resized
to S x S. The four images of one channel form a clip, so a clip set is one
(3 channels, 4 reference joints, S, S) uint8 array whatever the sequence
length; gray frames are plain (H, W) uint8 arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import check_array
from .skeleton_io import SkeletonSequence

CYLINDRICAL_CHANNELS = ("radius", "azimuth", "height")
CARTESIAN_CHANNELS = ("x", "y", "z")

# Augmentation constants: frames are blown up to 250x250 and 224x224
# patches are cropped, so offsets range over [0, 26].
AUGMENT_SIZE = 250
CROP_SIZE = 224
MAX_OFFSET = AUGMENT_SIZE - CROP_SIZE


@dataclass(frozen=True)
class ClipSet:
    """3 clips x 4 frames as one (3, 4, H, W) uint8 array; clip index =
    coordinate channel, frame index = reference joint position in the
    layout's reference list."""

    pixels: np.ndarray
    channels: tuple[str, str, str] = CYLINDRICAL_CHANNELS

    def __post_init__(self):
        px = check_array(self.pixels, (3, 4, "H", "W"), "clip set", dtype=np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def size(self) -> tuple[int, int]:
        return self.pixels.shape[2:]

    def as_array(self) -> np.ndarray:
        """The (3, 4, H, W) uint8 frames."""
        return self.pixels


@dataclass(frozen=True)
class ClipOptions:
    coords: str = "cylindrical"       # or "cartesian"
    scale_scope: str = "frame"        # or "clip": min/max over the four arrays of a channel
    size: int = 224

    def __post_init__(self):
        if self.coords not in ("cylindrical", "cartesian"):
            raise ValueError(f"coords must be cylindrical or cartesian, got {self.coords!r}")
        if self.scale_scope not in ("frame", "clip"):
            raise ValueError(f"scale_scope must be frame or clip, got {self.scale_scope!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")


def _relative_to(seq: SkeletonSequence, refs: tuple[int, ...]) -> np.ndarray:
    """``relative_positions`` for each joint of ``refs`` at once: (len(refs), m-1, t, 3)."""
    m = seq.layout.joint_count
    for ref in refs:
        if not 0 <= ref < m:
            raise ValueError(f"reference joint {ref} not in layout (m={m})")
    order = [[j for j in seq.layout.chain_order if j != ref] for ref in refs]
    rel = seq.frames[:, order, :] - seq.frames[:, refs, None, :]
    return rel.transpose(1, 2, 0, 3)


def relative_positions(seq: SkeletonSequence, ref: int) -> np.ndarray:
    """(m-1, t, 3) positions of the non-reference joints relative to ``ref``;
    rows follow the layout's chain order with the reference joint removed."""
    return _relative_to(seq, (ref,))[0]


def cartesian_to_cylindrical(v: np.ndarray) -> np.ndarray:
    """Map vectors (..., 3) to (radius, azimuth, height).

    radius = sqrt(x^2 + y^2); azimuth = atan2(y, x) in (-pi, pi], defined as
    0 when radius is 0; height = z.
    """
    v = np.asarray(v, dtype=np.float64)
    x, y = v[..., 0], v[..., 1]
    radius = np.hypot(x, y)
    azimuth = np.arctan2(y, x)
    azimuth = np.where(azimuth == -np.pi, np.pi, azimuth)
    azimuth = np.where(radius == 0.0, 0.0, azimuth)
    return np.stack([radius, azimuth, v[..., 2]], axis=-1)


def cylindrical_to_cartesian(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    r, az = c[..., 0], c[..., 1]
    return np.stack([r * np.cos(az), r * np.sin(az), c[..., 2]], axis=-1)


def scale_to_gray(
    values: np.ndarray, bounds: tuple[float, float] | None = None
) -> np.ndarray:
    """Linearly map an array to 0..255 uint8 pixels, rounding half up.

    ``bounds`` fixes the (min, max) of the linear map (default: the array's
    own); a value outside them, or a range whose ``255 * (max - min)`` is
    not a finite float64, raises a ValueError. A degenerate range yields an
    all-zero image. ``255 * (v - min) / (max - min)`` is in [0, 255] up to
    a few ulps, so after + 0.5 the uint8 cast's truncation is the floor.
    """
    values = check_array(np.asarray(values, dtype=np.float64), ("rows", "cols"), "value array",
                         finite=True)
    lo, hi = values.min(), values.max()
    vmin, vmax = bounds if bounds is not None else (lo, hi)
    if not vmin <= lo <= hi <= vmax:
        raise ValueError(f"value array range [{lo}, {hi}] is not within bounds [{vmin}, {vmax}]")
    if vmax == vmin:
        return np.zeros(values.shape, dtype=np.uint8)
    span = float(vmax) - float(vmin)  # Python floats overflow to inf without a warning
    if not np.isfinite(span * 255.0):
        raise ValueError(f"value range [{vmin}, {vmax}] is too wide to scale to gray")
    scaled = values - vmin
    scaled *= 255.0
    scaled /= span
    scaled += 0.5
    return scaled.astype(np.uint8)


@functools.lru_cache(maxsize=64)
def _taps(n_in: int, n_out: int) -> tuple[np.ndarray, ...]:
    """Read-only (i0, i1, 1 - w, w) sampling ``n_out`` points of ``n_in``."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    taps = (i0, np.minimum(i0 + 1, n_in - 1), 1.0 - (pos - i0), pos - i0)
    for a in taps:
        a.setflags(write=False)
    return taps


def resize_bilinear(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W) uint8 image with half-pixel-center sampling.

    Source coordinate = (dst + 0.5) * (src / dst) - 0.5, clamped to the
    valid range; results round half away from zero.

    Each output pixel is ``((p00*(1-wy))*(1-wx) + (p01*(1-wy))*wx) +
    (p10*wy)*(1-wx) + (p11*wy)*wx``, summed left to right. The row weights
    are applied first, on the (out_h, W) grids of the two source rows, and
    the columns are gathered from those: a multiply commutes with a gather,
    so every pixel sees the same float operations in the same order as a
    direct four-corner gather, and the result is bit-identical to it.
    For uint8 pixels that sum lies in [0, 255] up to a few ulps, so after
    + 0.5 the uint8 cast's truncation is the floor and no clip is needed.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output dims must be >= 1, got {out_h}x{out_w}")
    frame = check_array(frame, ("H", "W"), "gray frame", dtype=np.uint8)
    y0, y1, wy0, wy1 = _taps(frame.shape[0], out_h)
    x0, x1, wx0, wx1 = _taps(frame.shape[1], out_w)
    top = frame[y0] * wy0[:, None]
    bot = frame[y1] * wy1[:, None]
    out = top[:, x0]
    out *= wx0
    for rows, cols, weights in ((top, x1, wx1), (bot, x0, wx0), (bot, x1, wx1)):
        term = rows[:, cols]
        term *= weights
        out += term
        del term  # freed before the next gather, which then reuses its pages
    out += 0.5
    return out.astype(np.uint8)


def generate_clips(seq: SkeletonSequence, options: ClipOptions = ClipOptions()) -> ClipSet:
    """Encode a whole sequence as a ClipSet of 3 x 4 S x S gray frames; a value
    beyond float64's range raises a ValueError naming its channel and reference joint."""
    channels = CYLINDRICAL_CHANNELS if options.coords == "cylindrical" else CARTESIAN_CHANNELS
    refs = seq.layout.reference_joints
    with np.errstate(over="ignore"):
        rel = _relative_to(seq, refs)  # (4, m-1, t, 3)
        if options.coords == "cylindrical":
            rel = cartesian_to_cylindrical(rel)
    # values[c, r]: (t, m-1) image of channel c for reference slot r
    values = rel.transpose(3, 0, 2, 1)
    if not np.isfinite(values).all():
        c, r = np.argwhere(~np.isfinite(values))[0, :2]
        raise ValueError(f"{channels[c]} relative to reference joint {refs[r]} overflows float64")

    size = options.size
    pixels = np.empty((3, 4, size, size), dtype=np.uint8)
    for c in range(3):
        bounds = (values[c].min(), values[c].max()) if options.scale_scope == "clip" else None
        for r in range(4):
            pixels[c, r] = resize_bilinear(scale_to_gray(values[c, r], bounds=bounds), size, size)
    return ClipSet(pixels=pixels, channels=channels)


def augment_crops(cs: ClipSet, n: int, seed: int | np.random.SeedSequence) -> list[ClipSet]:
    """n cropped variants: frames resized to 250x250, one (dx, dy) offset in
    [0, 26]^2 drawn per variant and applied to all 12 frames."""
    if n < 1:
        raise ValueError("crop count must be >= 1")
    enlarged = np.empty((3, 4, AUGMENT_SIZE, AUGMENT_SIZE), dtype=np.uint8)
    for c, r in np.ndindex(3, 4):
        enlarged[c, r] = resize_bilinear(cs.pixels[c, r], AUGMENT_SIZE, AUGMENT_SIZE)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        dx, dy = rng.integers(0, MAX_OFFSET + 1, size=2)
        crop = enlarged[:, :, dy:dy + CROP_SIZE, dx:dx + CROP_SIZE]
        out.append(ClipSet(pixels=crop, channels=cs.channels))
    return out


def write_pgm(frame: np.ndarray, path: str | Path) -> None:
    """Binary PGM (P5, maxval 255) export of one (H, W) uint8 frame."""
    h, w = check_array(frame, ("H", "W"), "PGM frame", dtype=np.uint8).shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(frame.tobytes())
