import tracemalloc

import numpy as np
import pytest

from skelclip import TensorFormatError
from skelclip.errors import check_array

NAN_ROW = np.array([[0.0, np.nan]])


@pytest.mark.parametrize("arr, shape, options, error, message", [
    # an int fixes a dimension, a str frees it
    (np.zeros((4, 6), np.float32), (4, "d"), {"dtype": np.float32}, None, None),
    (np.zeros((3, 6)), (4, "d"), {}, ValueError,
     r"^expected a \(4, d\) feature tensor, got float64 \(3, 6\)$"),
    (np.zeros((4, 6), np.float32), (4, 24), {"dtype": np.float32}, ValueError,
     r"^expected a float32 \(4, 24\) feature tensor, got float32 \(4, 6\)$"),
    # a wrong rank
    (np.zeros(4), (4, "d"), {}, ValueError,
     r"^expected a \(4, d\) feature tensor, got float64 \(4,\)$"),
    (np.zeros((4, 1)), ("n",), {}, ValueError,
     r"^expected a \(n,\) feature tensor, got float64 \(4, 1\)$"),
    # a free dimension must be >= 1
    (np.zeros((4, 0)), (4, "d"), {}, ValueError,
     r"^expected a \(4, d\) feature tensor, got float64 \(4, 0\)$"),
    # the dtype is required, not cast to
    (np.zeros((4, 6), np.uint8), (4, "d"), {"dtype": np.float32}, ValueError,
     r"^expected a float32 \(4, d\) feature tensor, got uint8 \(4, 6\)$"),
    # finiteness is checked only when asked for
    (NAN_ROW, (1, 2), {}, None, None),
    (NAN_ROW, (1, 2), {"finite": True}, ValueError,
     r"^feature tensor contains non-finite values$"),
    (NAN_ROW, (1, 2), {"finite": True, "error": TensorFormatError}, TensorFormatError,
     "non-finite"),
    (np.zeros(3), (1, 3), {"error": TensorFormatError}, TensorFormatError, r"\(1, 3\)"),
    # an empty array, and any integer array, is finite
    (np.zeros((0, 3)), (0, 3), {"finite": True}, None, None),
    (np.array([np.iinfo(np.int64).max, 0]), ("n",), {"finite": True}, None, None),
])
def test_check_array(arr, shape, options, error, message):
    if error is None:
        assert check_array(arr, shape, "feature tensor", **options) is arr
    else:
        with pytest.raises(error, match=message):
            check_array(arr, shape, "feature tensor", **options)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_array_finds_a_non_finite_value_anywhere(dtype, bad):
    for size in (1, 2, 7, 1000):
        for position in {0, size // 2, size - 1}:
            arr = np.zeros(size, dtype)
            arr[position] = bad
            with pytest.raises(ValueError, match=r"^feature tensor contains non-finite values$"):
                check_array(arr, ("n",), "feature tensor", finite=True)
    extremes = np.array([np.finfo(dtype).min, np.finfo(dtype).max], dtype)
    assert check_array(extremes, (2,), "feature tensor", finite=True) is extremes


def test_check_array_finiteness_allocates_no_array_sized_mask(rng):
    arr = rng.standard_normal(2**20)  # 8 MB of float64; a boolean mask would be 1 MB
    tracemalloc.start()
    try:
        check_array(arr, ("n",), "feature tensor", finite=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
