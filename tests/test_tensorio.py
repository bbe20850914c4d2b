import io
import os
import struct
import threading

import numpy as np
import pytest

from skelclip import TensorFormatError, read_tensor, write_tensor


def test_f32_round_trip(tmp_path, rng):
    arr = rng.standard_normal((14, 14, 512)).astype(np.float32)
    path = tmp_path / "t.sktf"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_u8_round_trip(tmp_path, rng):
    arr = rng.integers(0, 256, size=(3, 4, 8, 8), dtype=np.uint8)
    path = tmp_path / "t.sktf"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, arr)


def test_float64_stored_as_f32(tmp_path):
    arr = np.array([1.0, 2.5, -3.25])
    path = tmp_path / "t.sktf"
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr.astype(np.float32))


def test_stream_concatenation(rng):
    buf = io.BytesIO()
    a = rng.standard_normal((3, 5)).astype(np.float32)
    b = rng.integers(0, 256, size=(7,), dtype=np.uint8)
    write_tensor(buf, a)
    write_tensor(buf, b)
    buf.seek(0)
    assert np.array_equal(read_tensor(buf), a)
    assert np.array_equal(read_tensor(buf), b)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.sktf"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(path)


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "t.sktf"
    write_tensor(path, rng.standard_normal((4, 4)).astype(np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TensorFormatError, match="truncated"):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.sktf"
    write_tensor(path, np.zeros(3, dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(TensorFormatError, match="trailing"):
        read_tensor(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(TensorFormatError, match="dtype"):
        write_tensor(tmp_path / "t.sktf", np.zeros(3, dtype=np.int32))


def _sktf_bytes(arr) -> bytes:
    buf = io.BytesIO()
    write_tensor(buf, arr)
    return buf.getvalue()


@pytest.mark.parametrize("arr", [
    np.arange(60, dtype=np.float32).reshape(3, 4, 5) - 30.5,
    np.arange(60, dtype=np.uint8).reshape(3, 4, 5),
])
def test_read_returns_a_writable_native_c_array(tmp_path, arr):
    path = tmp_path / "t.sktf"
    write_tensor(path, arr)
    for back in (read_tensor(path), read_tensor(io.BytesIO(_sktf_bytes(arr)))):
        assert back.dtype == arr.dtype and back.dtype.isnative
        assert back.flags.c_contiguous and back.flags.writeable and back.flags.owndata
        assert np.array_equal(back, arr)


def _read_from_pipe(data: bytes, buffering: int):
    """read_tensor on the read end of an OS pipe that a thread fills with
    ``data``; an unbuffered end returns short reads of at most one pipe
    buffer, so a large payload takes many of them."""
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "wb") as out:
            out.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with os.fdopen(r, "rb", buffering=buffering) as fh:
            assert not fh.seekable()
            return read_tensor(fh)
    finally:
        writer.join()


@pytest.mark.parametrize("buffering", [-1, 0])
def test_pipe_stream_reads_and_detects_truncation(rng, buffering):
    arr = rng.standard_normal((3, 4, 14, 14, 8)).astype(np.float32)  # 75 KB, > one pipe buffer
    data = _sktf_bytes(arr)
    assert np.array_equal(_read_from_pipe(data, buffering), arr)
    with pytest.raises(TensorFormatError, match=f"wanted {arr.nbytes} bytes, got {arr.nbytes - 9}"):
        _read_from_pipe(data[:-9], buffering)
    with pytest.raises(TensorFormatError, match="truncated"):
        _read_from_pipe(data[:6], buffering)  # inside the header


def test_dims_beyond_the_file_fail_before_allocating(tmp_path):
    # 2**96 bytes cannot be allocated, so only the size check can raise here
    path = tmp_path / "t.sktf"
    path.write_bytes(b"SKTF" + struct.pack("<BBB3I", 1, 0, 3, *(2**32 - 1,) * 3) + bytes(64))
    with pytest.raises(TensorFormatError, match="truncated"):
        read_tensor(path)
    with pytest.raises(TensorFormatError, match="truncated"):
        read_tensor(io.BytesIO(path.read_bytes()))
