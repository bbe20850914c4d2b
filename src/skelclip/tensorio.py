"""Binary tensor container used for clips, features and model checkpoints.

Layout: magic ``SKTF``, version byte 1, one dtype code byte (0 = float32,
1 = uint8), one rank byte, ``rank`` little-endian uint32 dims, then the
row-major payload in little-endian order. Tensors can be concatenated in a
single stream; readers consume exactly one tensor per call.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import TensorFormatError

MAGIC = b"SKTF"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("u1")}


def write_tensor(dest: str | Path | BinaryIO, arr: np.ndarray) -> None:
    """Write one tensor. Accepts float32/float64 (stored as f32) or uint8."""
    arr = np.asarray(arr)
    if arr.dtype in (np.float32, np.float64):
        code, out = 0, arr.astype("<f4")
    elif arr.dtype == np.uint8:
        code, out = 1, arr
    else:
        raise TensorFormatError(f"unsupported dtype {arr.dtype}; use float32/float64 or uint8")
    if arr.ndim > 255:
        raise TensorFormatError("rank exceeds 255")
    header = MAGIC + struct.pack("<BBB", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(out).tobytes()
    if hasattr(dest, "write"):
        dest.write(header + payload)
    else:
        with open(dest, "wb") as fh:
            fh.write(header + payload)


def read_tensor(src: str | Path | BinaryIO) -> np.ndarray:
    """Read exactly one tensor from a file or an open binary stream."""
    if hasattr(src, "read"):
        return _read_stream(src)
    with open(src, "rb") as fh:
        arr = _read_stream(fh)
        if fh.read(1):
            raise TensorFormatError("trailing bytes after tensor payload")
        return arr


def _fill(fh: BinaryIO, buf) -> None:
    """Read exactly ``len(buf)`` bytes into the flat, writable byte buffer ``buf``."""
    view = memoryview(buf)
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    if got != len(view):
        raise TensorFormatError(f"truncated file: wanted {len(view)} bytes, got {got}")


def _read_exact(fh: BinaryIO, n: int) -> bytearray:
    buf = bytearray(n)
    _fill(fh, buf)
    return buf


def _read_stream(fh: BinaryIO) -> np.ndarray:
    if _read_exact(fh, 4) != MAGIC:
        raise TensorFormatError("bad magic; not a SKTF tensor")
    version, code, rank = struct.unpack("<BBB", _read_exact(fh, 3))
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise TensorFormatError(f"unknown dtype code {code}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    dtype = _DTYPE_CODES[code]
    nbytes = math.prod(dims) * dtype.itemsize
    if fh.seekable():  # measured first, so a corrupt size allocates nothing
        here = fh.tell()
        left = fh.seek(0, io.SEEK_END) - here
        fh.seek(here)
        if left < nbytes:
            raise TensorFormatError(f"truncated file: wanted {nbytes} bytes, got {left}")
    arr = np.empty(dims, dtype)
    _fill(fh, arr.reshape(-1).view(np.uint8))
    return arr.astype(np.float32, copy=False) if code == 0 else arr
