"""Exception types shared across the package, and the one array check."""

import numpy as np


class SkelclipError(Exception):
    """Base class for all library errors."""


class ParseError(SkelclipError, ValueError):
    """Malformed text input (skeleton files, manifests, configs).

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TensorFormatError(SkelclipError, ValueError):
    """Corrupt or unsupported binary tensor file."""


class TrainingDivergedError(SkelclipError, RuntimeError):
    """Non-finite loss encountered during SGD."""


class StageError(SkelclipError, RuntimeError):
    """Pipeline stage failure, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def check_array(arr, shape, what: str, *, dtype=None, finite: bool = False,
                error: type[Exception] = ValueError) -> np.ndarray:
    """Return ``arr`` as an array once its shape, dtype and values pass.

    An int in ``shape`` fixes a dimension; a str names a free dimension,
    which must be >= 1, and is printed as is. ``dtype`` is required, not
    cast to. With ``finite``, NaN and infinity are rejected. A failure
    raises ``error``, for a shape or dtype in one form:
    ``expected a float32 (4, 24) feature tensor, got float32 (4, 6)``.
    """
    arr = np.asarray(arr)
    if (arr.ndim != len(shape) or (dtype is not None and arr.dtype != dtype)
            or any(n < 1 if isinstance(want, str) else n != want
                   for n, want in zip(arr.shape, shape))):
        wanted = str(tuple(shape)).replace("'", "")  # (3, 4, 'H') prints as (3, 4, H)
        if dtype is not None:
            wanted = f"{np.dtype(dtype).name} {wanted}"
        raise error(f"expected a {wanted} {what}, got {arr.dtype} {arr.shape}")
    # min and max propagate NaN and expose infinities, and allocate no array-sized mask
    if finite and arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise error(f"{what} contains non-finite values")
    return arr
