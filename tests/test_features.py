import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from skelclip import (
    ClipOptions,
    ClipSet,
    ExtractorSpec,
    FeatureMaps,
    SkeletonSequence,
    TensorFormatError,
    build_time_step_features,
    generate_clips,
    load_feature_map_stack,
    stack_time_step_features,
    temporal_mean_pool,
    write_tensor,
)
from skelclip.features import _extract_frame, _pool, extractor_weights, seeded_normals

from conftest import random_sequence


def extract_frame(pixels, spec=ExtractorSpec()):
    """One (H, W) uint8 gray frame through the extractor, pixels in [0, 1]."""
    return _extract_frame(pixels.astype(np.float64) / 255.0, spec)


# ---------------------------------------------------------------------------
# Oracles


def conv3x3_oracle(x, w):
    """Nested-loop 3x3 convolution, zero padding 1, stride 1.

    x: (H, W, C_in), w: (C_out, C_in, 3, 3) -> (H, W, C_out)
    """
    h, wd, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((h, wd, cout))
    for oy in range(h):
        for ox in range(wd):
            for co in range(cout):
                acc = 0.0
                for ci in range(cin):
                    for ky in range(3):
                        for kx in range(3):
                            sy, sx = oy + ky - 1, ox + kx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc += x[sy, sx, ci] * w[co, ci, ky, kx]
                out[oy, ox, co] = acc
    return out


def maxpool_oracle(x):
    h, w, c = x.shape
    out = np.zeros((h // 2, w // 2, c))
    for oy in range(h // 2):
        for ox in range(w // 2):
            for ci in range(c):
                out[oy, ox, ci] = x[2 * oy:2 * oy + 2, 2 * ox:2 * ox + 2, ci].max()
    return out


def nhwc_reference(x, spec):
    """Vectorised channel-last extractor: (B, H, W, C_in) -> (B, H', W', C).

    Per stage: a (B*H*W, C_in*9) im2col matrix from a sliding window view,
    one product with the transposed kernels, full-size ReLU, then 2x2 max-pool.
    """
    for w in extractor_weights(spec):
        b, h, wd, cin = x.shape
        xp = np.zeros((b, h + 2, wd + 2, cin))
        xp[:, 1:-1, 1:-1, :] = x
        win = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B, H, W, C_in, 3, 3)
        col = np.ascontiguousarray(win).reshape(b * h * wd, cin * 9)
        y = np.maximum(col @ w.reshape(w.shape[0], cin * 9).T, 0.0)
        x = y.reshape(b, h // 2, 2, wd // 2, 2, w.shape[0]).max(axis=(2, 4))
    return x


def padded_im2col_reference(frame, spec):
    """The extractor with each stage's input zero-padded by ``np.pad`` and its
    column matrix filled by nine slices of the padded copy."""
    x = frame[None]
    for w in extractor_weights(spec):
        cin, h, wd = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        col = np.empty((cin, 3, 3, h, wd))
        for ky, kx in np.ndindex(3, 3):
            col[:, ky, kx] = xp[:, ky:ky + h, kx:kx + wd]
        y = (w.reshape(-1, cin * 9) @ col.reshape(cin * 9, h * wd)).reshape(-1, h // 2, 2, wd // 2, 2)
        x = np.maximum(y[:, :, 0], y[:, :, 1])
        x = np.maximum(x[..., 0], x[..., 1])
        np.maximum(x, 0.0, out=x)
    return x.transpose(1, 2, 0)


def pool_oracle(maps):
    """Direct double-loop temporal mean pooling of rectified activations."""
    h, w, c = maps.shape
    out = np.zeros(w * c)
    for k in range(c):
        for j in range(w):
            acc = 0.0
            for i in range(h):
                acc += max(0.0, maps[i, j, k])
            out[k * w + j] = acc / h
    return out


# ---------------------------------------------------------------------------
# Seeded weights


def test_seeded_normals_deterministic():
    a = seeded_normals(42, 1000)
    b = seeded_normals(42, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, seeded_normals(43, 1000))


def test_seeded_normals_plausible_distribution():
    x = seeded_normals(0, 200_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


def test_weights_shapes_and_scale():
    spec = ExtractorSpec(channels=64)
    ws = extractor_weights(spec)
    assert [w.shape for w in ws] == [
        (8, 1, 3, 3), (16, 8, 3, 3), (32, 16, 3, 3), (64, 32, 3, 3)
    ]
    # He scaling: std about sqrt(2 / fan_in)
    w = ws[3]
    assert w.std() == pytest.approx(np.sqrt(2.0 / (32 * 9)), rel=0.05)


# ---------------------------------------------------------------------------
# Extraction


def test_spec_takes_one_gray_input_channel():
    spec = ExtractorSpec(channels=8)
    assert spec.in_channels == 1
    assert extractor_weights(spec)[0].shape[1] == 1
    with pytest.raises(TypeError):
        ExtractorSpec(in_channels=3)


def test_extract_zero_frame_is_zero():
    maps = extract_frame(np.zeros((224, 224), dtype=np.uint8))
    assert maps.shape == (14, 14, 64)
    assert np.all(maps == 0.0)


def test_extract_deterministic(rng):
    frame = rng.integers(0, 256, size=(224, 224), dtype=np.uint8)
    spec = ExtractorSpec(channels=16, seed=5)
    a = extract_frame(frame, spec)
    b = extract_frame(frame, spec)
    assert np.array_equal(a, b)


def test_extract_seed_changes_output(rng):
    frame = rng.integers(0, 256, size=(224, 224), dtype=np.uint8)
    a = extract_frame(frame, ExtractorSpec(channels=16, seed=1))
    b = extract_frame(frame, ExtractorSpec(channels=16, seed=2))
    assert not np.array_equal(a, b)


def test_extract_spatial_path():
    maps = extract_frame(np.full((224, 224), 130, dtype=np.uint8), ExtractorSpec(channels=8))
    assert maps.shape == (14, 14, 8)


def test_extract_rejects_unhalvable():
    with pytest.raises(ValueError, match="halvable"):
        extract_frame(np.zeros((225, 225), dtype=np.uint8), ExtractorSpec(channels=8))


def test_unhalvable_frame_is_named_by_its_input_size():
    # 48x40 runs three stages before 6x5 cannot halve; the error names 48x40
    with pytest.raises(ValueError, match=r"^frame size 48x40 not halvable through 4 stages: "
                                         r"each side must be a multiple of 16$"):
        extract_frame(np.zeros((48, 40), dtype=np.uint8), ExtractorSpec(channels=8))


def test_one_stage_toy_matches_conv_oracle(rng):
    # 8x8 single-stage extractor against the nested-loop oracle
    spec = ExtractorSpec(channels=4, seed=9, stage_widths=())
    x = rng.random((8, 8, 1))
    got = _extract_frame(x[..., 0], spec)
    w = extractor_weights(spec)[0]
    expect = maxpool_oracle(np.maximum(conv3x3_oracle(x, w), 0.0))
    assert got.shape == (4, 4, 4)
    assert np.abs(got - expect).max() <= 1e-10


def test_two_stage_toy_matches_conv_oracle(rng):
    spec = ExtractorSpec(channels=3, seed=2, stage_widths=(2,))
    x = rng.random((12, 12, 1))
    got = _extract_frame(x[..., 0], spec)
    w1, w2 = extractor_weights(spec)
    mid = maxpool_oracle(np.maximum(conv3x3_oracle(x, w1), 0.0))
    expect = maxpool_oracle(np.maximum(conv3x3_oracle(mid, w2), 0.0))
    assert np.abs(got - expect).max() <= 1e-10


def test_three_stage_nonsquare_batch_matches_conv_oracle(rng):
    # 3 frames of 8x16 through (2, 3) + 4 stages: 8x16 -> 4x8 -> 2x4 -> 1x2
    spec = ExtractorSpec(channels=4, seed=7, stage_widths=(2, 3))
    x = rng.random((3, 8, 16, 1))
    for frame in x:
        maps = _extract_frame(frame[..., 0], spec)
        assert maps.shape == (1, 2, 4)
        expect = frame
        for w in extractor_weights(spec):
            expect = maxpool_oracle(np.maximum(conv3x3_oracle(expect, w), 0.0))
        assert np.abs(maps - expect).max() <= 1e-10


def test_full_size_frame_matches_nhwc_reference(rng):
    # one 224x224 frame through the default four stages at C = 64
    spec = ExtractorSpec(channels=64, seed=11)
    x = rng.random((1, 224, 224, 1))
    got = _extract_frame(x[0, ..., 0], spec)
    assert got.shape == (14, 14, 64)
    assert np.abs(got - nhwc_reference(x, spec)[0]).max() <= 1e-10


@pytest.mark.parametrize("h, w", [(16, 16), (32, 48), (224, 224)])
@pytest.mark.parametrize("channels", [4, 64])
def test_extract_frame_is_byte_equal_to_padded_im2col(h, w, channels):
    rng = np.random.default_rng(h * w + channels)
    spec = ExtractorSpec(channels=channels, seed=channels)
    for frame in (rng.random((h, w)), np.ones((h, w))):  # all ones: every edge tap counts
        got = _extract_frame(frame, spec)
        assert got.tobytes() == padded_im2col_reference(frame, spec).tobytes()


# ---------------------------------------------------------------------------
# Temporal mean pooling


def test_pool_dims_at_c512(rng):
    fm = FeatureMaps(maps=rng.standard_normal((14, 14, 512)))
    pooled = temporal_mean_pool(fm)
    assert pooled.values.shape == (7168,)
    assert pooled.dims == (14, 512)


def test_pool_constant_maps():
    fm = FeatureMaps(maps=np.full((14, 14, 3), 2.5))
    assert np.allclose(temporal_mean_pool(fm).values, 2.5)
    fm_neg = FeatureMaps(maps=np.full((14, 14, 3), -1.0))
    assert np.all(temporal_mean_pool(fm_neg).values == 0.0)
    assert np.all(fm_neg.maps == -1.0)  # pooling leaves the caller's maps as they were


def test_pool_matches_double_loop_oracle(rng):
    fm = FeatureMaps(maps=rng.standard_normal((14, 14, 3)))
    got = temporal_mean_pool(fm).values
    assert np.abs(got - pool_oracle(fm.maps)).max() <= 1e-12


def test_pool_nonnegative(rng):
    for _ in range(10):
        fm = FeatureMaps(maps=rng.standard_normal((6, 5, 4)) * 100)
        assert temporal_mean_pool(fm).values.min() >= 0.0


def test_pool_row_permutation_invariant(rng):
    # permuting rows reorders the float summation, so compare to 1e-12
    maps = rng.standard_normal((10, 7, 3))
    perm = rng.permutation(10)
    a = temporal_mean_pool(FeatureMaps(maps=maps)).values
    b = temporal_mean_pool(FeatureMaps(maps=maps[perm])).values
    assert np.abs(a - b).max() <= 1e-12


def test_pool_positive_homogeneous(rng):
    maps = np.abs(rng.standard_normal((8, 6, 2)))
    a = temporal_mean_pool(FeatureMaps(maps=maps * 3.5)).values
    b = temporal_mean_pool(FeatureMaps(maps=maps)).values * 3.5
    assert np.abs(a - b).max() <= 1e-12


def test_pool_map_major_order():
    # map 0 constant 1, map 1 constant 2: first W entries must be 1
    maps = np.stack([np.ones((4, 3)), np.full((4, 3), 2.0)], axis=-1)
    values = temporal_mean_pool(FeatureMaps(maps=maps)).values
    assert np.array_equal(values, np.array([1, 1, 1, 2, 2, 2], dtype=float))


# ---------------------------------------------------------------------------
# Time-step features


def test_time_step_features_dims(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 7, rng))
    pooled = build_time_step_features(cs, ExtractorSpec(channels=8, seed=1))
    assert pooled.shape == (3, 4, 14 * 8)
    assert pooled.dtype == np.float64
    assert stack_time_step_features(pooled).shape == (4, 3 * 14 * 8)
    assert pooled.min() >= 0.0


def test_time_step_features_match_per_frame_path(fig16, rng):
    # the batched path must agree with extracting frames one at a time
    cs = generate_clips(random_sequence(fig16, 5, rng), ClipOptions(size=32))
    spec = ExtractorSpec(channels=4, seed=3, stage_widths=(2,))
    feats = stack_time_step_features(build_time_step_features(cs, spec))
    for r in range(4):
        parts = []
        for c in range(3):
            fm = FeatureMaps(maps=extract_frame(cs.pixels[c, r], spec))
            parts.append(temporal_mean_pool(fm).values)
        assert np.abs(feats[r] - np.concatenate(parts)).max() <= 1e-12


@pytest.mark.parametrize("size", [32, 224])
@pytest.mark.parametrize("channels", [4, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_time_step_features_are_byte_equal_to_the_batched_path(size, channels, seed):
    rng = np.random.default_rng(seed)
    cs = ClipSet(pixels=rng.integers(0, 256, (3, 4, size, size), dtype=np.uint8))
    spec = ExtractorSpec(channels=channels, seed=seed)
    # the reference: all 12 frames widened at once, extracted one by one,
    # and their stacked (12, H', W', C) maps pooled by one call
    frames = cs.pixels.reshape(12, size, size).astype(np.float64) / 255.0
    batched = _pool(np.stack([_extract_frame(f, spec) for f in frames])).reshape(3, 4, -1)
    assert build_time_step_features(cs, spec).tobytes() == batched.tobytes()


@pytest.mark.parametrize("channels", [64, 512])
def test_time_step_features_hold_one_frame_stage_at_a_time(rng, channels):
    # one stage of one frame (the 7.2 MB stage-2 column matrix and its
    # neighbours) is alive at a time; all 12 frames at once take 20-28 MiB
    cs = ClipSet(pixels=rng.integers(0, 256, (3, 4, 224, 224), dtype=np.uint8))
    spec = ExtractorSpec(channels=channels)
    extractor_weights(spec)  # cached weights are not part of the call's peak
    tracemalloc.start()
    try:
        build_time_step_features(cs, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_zero_clipset_gives_zero_features(fig16):
    seq_frames = np.zeros((4, 16, 3))


    cs = generate_clips(SkeletonSequence(layout=fig16, frames=seq_frames))
    feats = build_time_step_features(cs, ExtractorSpec(channels=8))
    assert np.all(feats == 0.0)


def test_stack_time_step_features(fig16, rng):
    cs = generate_clips(random_sequence(fig16, 5, rng), ClipOptions(size=32))
    pooled = build_time_step_features(cs, ExtractorSpec(channels=4, stage_widths=(2,)))
    stacked = stack_time_step_features(pooled)
    assert stacked.shape == (4, 3 * pooled.shape[2])
    for r in range(4):  # one row per time-step, channel blocks in clip order
        assert np.array_equal(stacked[r], np.concatenate(pooled[:, r]))
    for bad in (pooled[:2], pooled[:, :3], pooled[0]):
        with pytest.raises(ValueError, match=r"\(3, 4, n\)"):
            stack_time_step_features(bad)


# ---------------------------------------------------------------------------
# Feature-map stacks


def test_feature_maps_truncated(tmp_path, rng):
    path = tmp_path / "s.fmaps.sktf"
    write_tensor(path, rng.random((3, 4, 4, 4, 2)).astype(np.float32))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TensorFormatError):
        load_feature_map_stack(path)


def test_feature_maps_zero_channel_rejected(tmp_path):
    path = tmp_path / "s.fmaps.sktf"
    write_tensor(path, np.zeros((3, 4, 14, 14, 0), dtype=np.float32))
    with pytest.raises(TensorFormatError, match=r"\(3, 4, H, W, C\)"):
        load_feature_map_stack(path)


def test_feature_maps_nan_rejected(tmp_path):
    path = tmp_path / "s.fmaps.sktf"
    arr = np.zeros((3, 4, 2, 2, 1), dtype=np.float32)
    arr[2, 3, 0, 0, 0] = np.nan
    write_tensor(path, arr)
    with pytest.raises(TensorFormatError, match="non-finite"):
        load_feature_map_stack(path)


def test_feature_maps_non_float32_rejected(tmp_path):
    path = tmp_path / "s.fmaps.sktf"
    write_tensor(path, np.zeros((3, 4, 2, 2, 3), dtype=np.uint8))
    with pytest.raises(TensorFormatError, match=r"expected a float32 \(3, 4, H, W, C\) "
                                                r"feature-map stack, got uint8 \(3, 4, 2, 2, 3\)"):
        load_feature_map_stack(path)


def test_feature_map_stack_pooling(tmp_path, rng):
    stack = rng.standard_normal((3, 4, 6, 5, 2)).astype(np.float32)
    path = tmp_path / "s.fmaps.sktf"
    write_tensor(path, stack)
    feats = stack_time_step_features(load_feature_map_stack(path))
    assert feats.shape == (4, 3 * 5 * 2)
    for r, f in enumerate(feats):
        expect = np.concatenate(
            [pool_oracle(stack[c, r].astype(np.float64)) for c in range(3)]
        )
        assert np.abs(f - expect).max() <= 1e-12
        # pooling the whole stack at once matches pooling map by map exactly
        per_map = [temporal_mean_pool(FeatureMaps(maps=stack[c, r].astype(np.float64))).values
                   for c in range(3)]
        assert np.array_equal(f, np.concatenate(per_map))


def test_feature_map_stack_bad_shape(tmp_path, rng):
    path = tmp_path / "s.fmaps.sktf"
    write_tensor(path, rng.random((4, 3, 6, 5, 2)).astype(np.float32))
    with pytest.raises(TensorFormatError, match=r"\(3, 4"):
        load_feature_map_stack(path)
    write_tensor(path, np.zeros((3, 4, 0, 5, 2), dtype=np.float32))
    with pytest.raises(TensorFormatError, match=r"\(3, 4"):
        load_feature_map_stack(path)


def stack_pool_reference(stack):
    """The former ingest: the float32 stack widened to float64, rectified,
    then pooled (``_pool`` itself does not rectify)."""
    return _pool(np.maximum(stack.astype(np.float64), 0.0))


def _ingest(stack):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.fmaps.sktf"
        write_tensor(path, stack)
        return load_feature_map_stack(path)


# zeros of both signs, subnormals of both signs and the float32 extremes
_EDGE_VALUES = [0.0, -0.0, 1e-45, -1e-45, 1.1e-38, -1.1e-38, 3.4e38, -3.4e38]


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(
    np.float32,
    st.tuples(st.just(3), st.just(4), st.integers(1, 9), st.integers(1, 4), st.integers(1, 5)),
    elements=st.one_of(st.sampled_from(_EDGE_VALUES),
                       st.floats(width=32, allow_nan=False, allow_infinity=False)),
))
def test_stack_ingest_is_byte_equal_to_float64_pooling(stack):
    got, want = _ingest(stack), stack_pool_reference(stack)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_paper_size_stack_ingest_is_byte_equal_to_float64_pooling(rng):
    stack = rng.standard_normal((3, 4, 14, 14, 512)).astype(np.float32)
    stack[:, :, ::3] = 0.0
    stack[:, :, 1::5] *= -0.0
    stack[..., ::7] *= np.float32(1e-40)  # subnormal
    assert _ingest(stack).tobytes() == stack_pool_reference(stack).tobytes()


def _non_finite_stack(cells):
    stack = np.ones((3, 4, 5, 3, 2), dtype=np.float32)
    stack[0, 0, 0, 0, 0] = -1.0  # a negative map: the rectifying path runs
    for (t, j), value in cells.items():
        stack[1, 2, t, j, 1] = value  # (t, j): row and column of one pooled column's map
    return stack


@pytest.mark.parametrize("cells", [
    {(0, 0): np.inf, (3, 0): -np.inf},  # both infinities in one pooled column
    {(0, 1): np.nan, (1, 1): np.inf},
    {(2, 2): -np.inf},
    {(4, 1): np.inf},
], ids=["inf-and-minus-inf", "nan-beside-inf", "minus-inf", "inf"])
def test_stack_ingest_rejects_non_finite_values_without_a_warning(cells):
    stack = _non_finite_stack(cells)
    for s in (stack, np.abs(stack)):  # with and without a negative map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorFormatError,
                               match=r"^feature-map stack contains non-finite values$"):
                _ingest(s)


def test_stack_with_min_zero_and_negative_zero_columns_gives_the_reference_bytes(rng):
    # min is exactly 0 (as -0.0 also is), so the maps are not rectified;
    # all-(-0.0) pooled columns must still come out as +0.0
    stack = np.abs(rng.standard_normal((3, 4, 6, 5, 4))).astype(np.float32)
    stack[:, :, :, 1] = -0.0
    stack[0, 1, :, :, 2] = -0.0
    stack[2, 3, 0, 0, 0] = 0.0
    assert stack.min() == 0.0
    got = _ingest(stack)
    assert got.tobytes() == stack_pool_reference(stack).tobytes()
    assert not np.signbit(got).any()


def test_stack_ingest_holds_one_copy_of_the_stack(tmp_path, rng):
    # the stack read from disk is rectified in place, so the peak is that one
    # array and the float64 pooled rows (1/7 of it each at H = 14), not two stacks
    stack = rng.standard_normal((3, 4, 14, 14, 64)).astype(np.float32)
    path = tmp_path / "s.fmaps.sktf"
    write_tensor(path, stack)
    tracemalloc.start()
    try:
        load_feature_map_stack(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack.nbytes
