import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelclip import (
    ClipOptions,
    ClipSet,
    SkeletonSequence,
    augment_crops,
    cartesian_to_cylindrical,
    cylindrical_to_cartesian,
    generate_clips,
    load_layout,
    relative_positions,
    resize_bilinear,
    scale_to_gray,
    write_pgm,
)
from skelclip.clips import AUGMENT_SIZE, CROP_SIZE, _relative_to

from conftest import random_sequence


# ---------------------------------------------------------------------------
# relative_positions


def test_relative_all_zero(tiny_layout):
    seq = SkeletonSequence(layout=tiny_layout, frames=np.zeros((3, 6, 3)))
    assert np.all(relative_positions(seq, 2) == 0.0)


def test_relative_translation_invariance(tiny_layout, rng):
    # differences cancel the shift up to float rounding of the shifted inputs
    seq = random_sequence(tiny_layout, 4, rng)
    shifted = SkeletonSequence(
        layout=tiny_layout, frames=seq.frames + np.array([1.5, -2.0, 0.25])
    )
    a, b = relative_positions(seq, 1), relative_positions(shifted, 1)
    assert np.abs(a - b).max() <= 1e-12


def test_relative_matches_bruteforce_oracle(tiny_layout, rng):
    seq = random_sequence(tiny_layout, 3, rng)
    ref = 2
    got = relative_positions(seq, ref)
    # direct per-entry subtraction over the chain with ref removed
    order = [j for j in tiny_layout.chain_order if j != ref]
    assert got.shape == (5, 3, 3)
    for i, joint in enumerate(order):
        for f in range(3):
            expect = seq.frames[f, joint] - seq.frames[f, ref]
            assert np.array_equal(got[i, f], expect)


def test_relative_bad_reference(tiny_layout, rng):
    seq = random_sequence(tiny_layout, 2, rng)
    with pytest.raises(ValueError, match="not in layout"):
        relative_positions(seq, 6)


# ---------------------------------------------------------------------------
# cylindrical coordinates


def test_cylindrical_origin():
    assert np.array_equal(cartesian_to_cylindrical(np.zeros(3)), np.zeros(3))


def test_cylindrical_axis_aligned():
    r, az, h = cartesian_to_cylindrical(np.array([0.0, 1.0, 2.0]))
    assert r == 1.0
    assert az == pytest.approx(np.pi / 2, abs=1e-15)
    assert h == 2.0


def test_cylindrical_round_trip(rng):
    v = rng.uniform(-1, 1, size=(1000, 3))
    back = cylindrical_to_cartesian(cartesian_to_cylindrical(v))
    assert np.abs(back - v).max() <= 1e-12


def test_cylindrical_azimuth_range(rng):
    v = rng.uniform(-1, 1, size=(5000, 3))
    az = cartesian_to_cylindrical(v)[..., 1]
    assert az.max() <= np.pi
    assert az.min() > -np.pi


def test_cylindrical_negative_zero_y():
    az = cartesian_to_cylindrical(np.array([-1.0, -0.0, 0.0]))[1]
    assert az == np.pi  # (-pi, pi] convention


# ---------------------------------------------------------------------------
# gray scaling


def test_scale_constant_array_is_zero():
    px = scale_to_gray(np.full((3, 4), 7.25))
    assert px.dtype == np.uint8
    assert np.all(px == 0)


def test_scale_known_values():
    px = scale_to_gray(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(px, np.array([[0, 85], [170, 255]], dtype=np.uint8))


def test_scale_extremes_hit_bounds(rng):
    for _ in range(20):
        values = rng.uniform(-5, 5, size=(6, 7))
        px = scale_to_gray(values)
        assert px[np.unravel_index(np.argmin(values), values.shape)] == 0
        assert px[np.unravel_index(np.argmax(values), values.shape)] == 255


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scale_monotone(seed):
    values = np.random.default_rng(seed).uniform(-10, 10, size=(4, 5))
    px = scale_to_gray(values)
    order = np.argsort(values.ravel())
    assert np.all(np.diff(px.ravel()[order].astype(int)) >= 0)


def test_scale_explicit_bounds():
    px = scale_to_gray(np.array([[1.0, 2.0]]), bounds=(0.0, 4.0))
    # 255 * 1/4 = 63.75 -> 64; 255 * 2/4 = 127.5 -> 128 (half away from zero)
    assert np.array_equal(px, np.array([[64, 128]], dtype=np.uint8))


def scale_reference(values, lo, hi):
    """floor(255 * (v - lo) / (hi - lo) + 0.5), the map scale_to_gray computes."""
    return np.floor(255.0 * (values - lo) / (hi - lo) + 0.5).astype(np.uint8)


@pytest.mark.parametrize("seed", range(5))
def test_scale_matches_floor_reference(seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3, 3, size=(int(rng.integers(1, 300)), int(rng.integers(1, 30))))
    lo, hi = values.min(), values.max()
    assert scale_to_gray(values).tobytes() == scale_reference(values, lo, hi).tobytes()
    wider = (lo - 0.5, hi + 0.25)
    assert scale_to_gray(values, bounds=wider).tobytes() == \
        scale_reference(values, *wider).tobytes()


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.5, 7.0), (-1e-9, 1e-9), (3.0, 3.0 + 2**-40)])
def test_scale_hits_bounds_exactly(lo, hi):
    # arrays holding the bounds themselves, plus the midpoint and the
    # values that scale to exactly k + 0.5, where rounding half up decides
    values = np.array([[lo, hi, (lo + hi) / 2], [lo, lo, hi]])
    halves = np.clip(lo + (np.arange(255) + 0.5) / 255 * (hi - lo), lo, hi)
    halves = np.concatenate([[lo, hi], halves])
    for arr in (values, np.vstack([halves, halves[::-1]])):
        for bounds in (None, (lo, hi)):
            got = scale_to_gray(arr, bounds=bounds)
            assert got.tobytes() == scale_reference(arr, lo, hi).tobytes()


@pytest.mark.parametrize("values, bounds", [
    ([[-1.0, 5.0, 2.0]], (0.0, 4.0)),
    ([[1.0, 4.5]], (0.0, 4.0)),
    ([[-0.5, 1.0]], (0.0, 4.0)),
    ([[2.0, 2.0]], (3.0, 1.0)),         # min > max
    ([[2.0, 2.0]], (2.0, 1.0)),
])
def test_scale_rejects_values_outside_bounds(values, bounds):
    with pytest.raises(ValueError, match=r"range \[.*\] is not within bounds \[.*\]"):
        scale_to_gray(np.array(values), bounds=bounds)


@pytest.mark.parametrize("values, bounds", [
    ([[-1e308, 1e308, 0.0, 5e307]], None),  # max - min overflows
    ([[0.0, 1e307]], None),                 # 255 * (max - min) overflows
    ([[0.0, 1.0]], (-1e308, 1e308)),
])
def test_scale_rejects_a_range_too_wide_to_scale(values, bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"value range \[.*\] is too wide to scale to gray"):
            scale_to_gray(np.array(values), bounds=bounds)


def test_scale_widest_range_that_fits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        px = scale_to_gray(np.array([[-3.5e305, 0.0, 3.5e305]]))
    assert px.tolist() == [[0, 128, 255]]


# ---------------------------------------------------------------------------
# bilinear resize


def _gray(arr):
    return np.asarray(arr, dtype=np.uint8)


def test_resize_identity():
    img = _gray(np.arange(12).reshape(3, 4))
    out = resize_bilinear(img, 3, 4)
    assert out.dtype == np.uint8
    assert np.array_equal(out, img)


def test_resize_constant_stays_constant():
    img = _gray(np.full((2, 3), 77))
    for oh, ow in [(1, 1), (5, 9), (224, 224)]:
        assert np.all(resize_bilinear(img, oh, ow) == 77)


def test_resize_known_upsample():
    # hand evaluation of half-pixel-center sampling: src x for dst 0..3 are
    # -0.25, 0.25, 0.75, 1.25 -> clamp/interp gives 0, 64, 191, 255
    img = _gray([[0, 255], [0, 255]])
    out = resize_bilinear(img, 2, 4)
    assert np.array_equal(out, np.array([[0, 64, 191, 255]] * 2, dtype=np.uint8))


def test_resize_matches_pointwise_oracle(rng):
    src = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    out = resize_bilinear(_gray(src), 11, 4)
    h, w = src.shape
    for oy in range(11):
        for ox in range(4):
            sy = min(max((oy + 0.5) * (h / 11) - 0.5, 0.0), h - 1.0)
            sx = min(max((ox + 0.5) * (w / 4) - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            wy, wx = sy - y0, sx - x0
            val = (
                src[y0, x0] * (1 - wy) * (1 - wx)
                + src[y0, x1] * (1 - wy) * wx
                + src[y1, x0] * wy * (1 - wx)
                + src[y1, x1] * wy * wx
            )
            assert out[oy, ox] == int(np.floor(val + 0.5))


def resize_reference(frame, out_h, out_w):
    """The four-corner ``np.ix_`` gather formula resize_bilinear replaced."""
    src = frame.astype(np.float64)
    h, w = src.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    out = (
        src[np.ix_(y0, x0)] * (1.0 - wy) * (1.0 - wx)
        + src[np.ix_(y0, x1)] * (1.0 - wy) * wx
        + src[np.ix_(y1, x0)] * wy * (1.0 - wx)
        + src[np.ix_(y1, x1)] * wy * wx
    )
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("src_shape, out_shape", [
    ((1, 1), (224, 224)),
    ((1, 24), (224, 224)),
    ((150, 1), (224, 224)),
    ((1, 9), (5, 3)),
    ((300, 24), (224, 224)),
    ((40, 15), (224, 224)),
    ((224, 224), (250, 250)),
    ((300, 30), (17, 11)),
    ((250, 250), (224, 224)),
    ((7, 300), (3, 250)),
    ((40, 15), (1, 1)),
    ((40, 15), (1, 224)),
    ((40, 15), (224, 1)),
    ((1, 1), (1, 1)),
])
def test_resize_matches_reference_bytes(src_shape, out_shape):
    rng = np.random.default_rng(sum(src_shape) * 1000 + sum(out_shape))
    src = rng.integers(0, 256, size=src_shape, dtype=np.uint8)
    got = resize_bilinear(src, *out_shape)
    assert got.dtype == np.uint8
    assert got.tobytes() == resize_reference(src, *out_shape).tobytes()
    # resize_bilinear has no floor or 0..255 clip; the reference keeps both.
    # All-0, all-255 and saturated frames (255 with isolated 0s) sit at the
    # ends of the range, where a rounding error would show first.
    saturated = np.full(src_shape, 255, dtype=np.uint8)
    saturated.flat[rng.choice(saturated.size, size=max(1, saturated.size // 7), replace=False)] = 0
    for extreme in (np.zeros(src_shape, np.uint8), np.full(src_shape, 255, np.uint8), saturated):
        assert resize_bilinear(extreme, *out_shape).tobytes() == \
            resize_reference(extreme, *out_shape).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 260), st.integers(1, 260),
       st.integers(0, 2**32 - 1))
def test_resize_matches_reference_on_random_shapes(h, w, out_h, out_w, seed):
    src = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
    assert resize_bilinear(src, out_h, out_w).tobytes() == \
        resize_reference(src, out_h, out_w).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.int16])
def test_resize_rejects_non_uint8_frames(dtype):
    # the truncating uint8 cast is exact only for sums of uint8 pixels
    with pytest.raises(ValueError, match="uint8 \\(H, W\\) gray frame"):
        resize_bilinear(np.full((4, 5), 300, dtype=dtype), 8, 8)


def test_resize_rejects_bad_dims():
    with pytest.raises(ValueError):
        resize_bilinear(_gray([[1]]), 0, 4)


# ---------------------------------------------------------------------------
# generate_clips


def test_clipset_shape_ntu(rng):
    layout = load_layout("ntu-25")
    seq = random_sequence(layout, 40, rng)
    cs = generate_clips(seq)
    assert cs.as_array().shape == (3, 4, 224, 224)
    assert cs.channels == ("radius", "azimuth", "height")


def test_clipset_shape_independent_of_length(fig16, rng):
    for t in (1, 2, 17):
        cs = generate_clips(random_sequence(fig16, t, rng), ClipOptions(size=32))
        assert cs.as_array().shape == (3, 4, 32, 32)


def test_static_pose_gives_constant_columns(fig16, rng):
    frame = rng.uniform(-1, 1, size=(16, 3))
    seq = SkeletonSequence(layout=fig16, frames=np.repeat(frame[None], 9, axis=0))
    cs = generate_clips(seq, ClipOptions(size=48))
    for clip in cs.pixels:
        for f in clip:
            assert np.all(f == f[0:1, :])  # rows identical


def test_translation_invariance_bit_exact(fig16, rng):
    seq = random_sequence(fig16, 12, rng)
    shifted = SkeletonSequence(layout=fig16, frames=seq.frames + np.array([3.0, -1.0, 2.5]))
    a = generate_clips(seq, ClipOptions(size=64)).as_array()
    b = generate_clips(shifted, ClipOptions(size=64)).as_array()
    assert np.array_equal(a, b)


def test_intermediate_array_orientation(fig16, rng):
    # rows = time after the transpose: with t=50 > m-1=15 the pre-resize
    # array must be 50x15; verify via a sequence whose motion is purely
    # temporal in one joint -> vertical structure in the image
    t = 50
    frames = np.zeros((t, 16, 3))
    frames[:, 0, 2] = np.linspace(0.0, 1.0, t)  # joint 0 height ramps over time
    seq = SkeletonSequence(layout=fig16, frames=frames)
    cs = generate_clips(seq, ClipOptions(size=64))
    img = cs.pixels[2, 0]  # height clip, reference slot 0
    # ramp over time -> pixel values vary down the rows in the ramping column,
    # and each row is constant across the resized former-joint-0 columns
    col = img[:, 0].astype(int)
    assert col.max() - col.min() == 255
    assert np.all(np.diff(col) >= 0)


def test_cartesian_option(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 8, rng),
                        ClipOptions(coords="cartesian", size=32))
    assert cs.channels == ("x", "y", "z")


def test_clip_scope_scaling(fig16, rng):
    # with t = m-1 = size the resize is the identity, so pixels equal the
    # scaled arrays: channel-wide extremes hit 0/255 across the four frames,
    # while individual frames need not span the full range
    seq = random_sequence(fig16, 15, rng)
    cs = generate_clips(seq, ClipOptions(scale_scope="clip", size=15))
    saw_partial_frame = False
    for clip in cs.pixels:
        assert clip.min() == 0
        assert clip.max() == 255
        for f in clip:
            if f.min() > 0 or f.max() < 255:
                saw_partial_frame = True
    assert saw_partial_frame


def test_clipset_holds_one_uint8_array(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 5, rng), ClipOptions(size=16))
    assert cs.pixels.shape == (3, 4, 16, 16)
    assert cs.pixels.dtype == np.uint8
    assert cs.size == (16, 16)
    assert cs.as_array() is cs.pixels


def _per_reference_rel(seq, ref):
    """One reference joint's (m-1, t, 3) relative positions, computed apart
    from the batched pass."""
    order = [j for j in seq.layout.chain_order if j != ref]
    return (seq.frames[:, order, :] - seq.frames[:, ref:ref + 1, :]).transpose(1, 0, 2)


def per_reference_clips(seq, options):
    """The per-reference-joint loop generate_clips replaced: relative positions,
    cylindrical coordinates and a (t, m-1) image per reference joint and channel."""
    arrays = []
    for ref in seq.layout.reference_joints:
        rel = _per_reference_rel(seq, ref)
        if options.coords == "cylindrical":
            rel = cartesian_to_cylindrical(rel)
        arrays.append([rel[:, :, c].T for c in range(3)])
    pixels = np.empty((3, 4, options.size, options.size), dtype=np.uint8)
    for c in range(3):
        bounds = None
        if options.scale_scope == "clip":
            bounds = (min(a[c].min() for a in arrays), max(a[c].max() for a in arrays))
        for r in range(4):
            gray = scale_to_gray(arrays[r][c], bounds=bounds)
            pixels[c, r] = resize_bilinear(gray, options.size, options.size)
    return pixels


def edge_case_sequence(layout, t, seed):
    """Random joints plus vectors of zero radius (a joint on a reference
    joint's vertical axis, or on the joint itself) and vectors (-1, -0.0, z),
    whose azimuth -pi maps to pi."""
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(t, layout.joint_count, 3)) * rng.uniform(0.01, 100)
    refs = layout.reference_joints
    others = [j for j in layout.chain_order if j not in refs]
    frames[:, others[0], :2] = frames[:, refs[0], :2]
    frames[: (t + 1) // 2, others[1]] = frames[: (t + 1) // 2, refs[1]]
    frames[:, others[2], 0] = frames[:, refs[2], 0] - 1.0
    frames[:, others[2], 1], frames[:, refs[2], 1] = -0.0, 0.0
    return SkeletonSequence(layout=layout, frames=frames)


@pytest.mark.parametrize("name", ["figure2-16", "ntu-25", "sbu-15", "cmu-31"])
@pytest.mark.parametrize("t", [1, 2, 17, 150])
def test_generate_clips_matches_per_reference_loop_bytes(name, t):
    layout = load_layout(name)
    seq = edge_case_sequence(layout, t, seed=t * 100 + layout.joint_count)
    for coords in ("cylindrical", "cartesian"):
        for scope in ("frame", "clip"):
            for size in (1, 15, 224):
                options = ClipOptions(coords=coords, scale_scope=scope, size=size)
                got = generate_clips(seq, options).as_array()
                assert got.tobytes() == per_reference_clips(seq, options).tobytes(), options


@pytest.mark.parametrize("name", ["figure2-16", "ntu-25", "sbu-15", "cmu-31"])
def test_relative_positions_is_a_slice_of_the_batched_pass(name):
    layout = load_layout(name)
    seq = edge_case_sequence(layout, 9, seed=layout.joint_count)
    batched = _relative_to(seq, layout.reference_joints)
    assert batched.shape == (4, layout.joint_count - 1, 9, 3)
    for r, ref in enumerate(layout.reference_joints):
        assert np.array_equal(relative_positions(seq, ref), batched[r])
        assert np.array_equal(relative_positions(seq, ref), _per_reference_rel(seq, ref))


@pytest.mark.parametrize("place, coords, message", [
    # the subtraction overflows: -1e308 - 1e308
    ({(4, 2): 1e308, (5, 2): -1e308}, "cylindrical", "height relative to reference joint 4"),
    ({(4, 2): 1e308, (5, 2): -1e308}, "cartesian", "z relative to reference joint 4"),
    # the vector is finite, its radius hypot(1.5e308, 1.5e308) is not
    ({(5, 0): 1.5e308, (5, 1): 1.5e308}, "cylindrical", "radius relative to reference joint 4"),
])
def test_overflow_names_channel_and_reference_joint(fig16, place, coords, message):
    frames = np.zeros((3, 16, 3))
    for (joint, axis), value in place.items():
        frames[:, joint, axis] = value
    seq = SkeletonSequence(layout=fig16, frames=frames)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            generate_clips(seq, ClipOptions(coords=coords, size=8))
    assert str(info.value) == f"{message} overflows float64"


@pytest.mark.parametrize("shape, dtype", [
    ((2, 4, 8, 8), np.uint8),
    ((4, 4, 8, 8), np.uint8),
    ((3, 3, 8, 8), np.uint8),
    ((3, 4, 8), np.uint8),
    ((3, 4, 8, 8, 1), np.uint8),
    ((3, 4, 0, 8), np.uint8),
    ((3, 4, 8, 8), np.float32),
])
def test_clipset_rejects_bad_arrays(shape, dtype):
    with pytest.raises(ValueError, match="ClipSet|uint8"):
        ClipSet(pixels=np.zeros(shape, dtype=dtype))


def test_t1_sequence_valid(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 1, rng))
    arr = cs.as_array()
    assert arr.shape == (3, 4, 224, 224)
    # single source row upsampled: every row identical
    assert np.all(arr == arr[:, :, 0:1, :])


# ---------------------------------------------------------------------------
# augmentation


def test_augment_count_and_shape(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 6, rng))
    crops = augment_crops(cs, n=20, seed=3)
    assert len(crops) == 20
    for crop in crops:
        assert crop.as_array().shape == (3, 4, 224, 224)


def test_augment_deterministic(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 6, rng))
    a = augment_crops(cs, n=5, seed=11)
    b = augment_crops(cs, n=5, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x.as_array(), y.as_array())


def test_augment_windows_match_enlarged(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 6, rng))
    enlarged = np.array([
        [resize_bilinear(f, AUGMENT_SIZE, AUGMENT_SIZE) for f in clip] for clip in cs.pixels
    ])
    crops = augment_crops(cs, n=8, seed=5)
    for crop in crops:
        arr = crop.as_array()
        # find the offset from the first frame, then check all 12 share it
        matched = None
        for dy in range(AUGMENT_SIZE - CROP_SIZE + 1):
            for dx in range(AUGMENT_SIZE - CROP_SIZE + 1):
                if np.array_equal(arr[0, 0], enlarged[0, 0, dy:dy + CROP_SIZE, dx:dx + CROP_SIZE]):
                    matched = (dy, dx)
                    break
            if matched:
                break
        assert matched is not None
        dy, dx = matched
        window = enlarged[:, :, dy:dy + CROP_SIZE, dx:dx + CROP_SIZE]
        assert np.array_equal(arr, window)


def test_augment_rejects_zero(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 4, rng))
    with pytest.raises(ValueError):
        augment_crops(cs, n=0, seed=0)


# ---------------------------------------------------------------------------
# PGM export


def test_pgm_export(tmp_path, rng):
    px = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    path = tmp_path / "f.pgm"
    write_pgm(px, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n7 5\n255\n")
    assert data[len(b"P5\n7 5\n255\n"):] == px.tobytes()


def test_pgm_rejects_non_uint8(tmp_path):
    with pytest.raises(ValueError, match="uint8"):
        write_pgm(np.zeros((2, 2)), tmp_path / "f.pgm")
