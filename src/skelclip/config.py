"""Plain-text ``key = value`` config files.

One setting per line, ``#`` starts a comment, blank lines ignored. Values
stay strings; callers convert, through ``ConfigFile`` for files a user
writes. Used for joint layouts, experiment configs and rendered result files.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

from .errors import ParseError


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        out[key] = value.strip()
    return out


_REQUIRED = object()


class ConfigFile:
    """A config file whose keys are the ones its reader asks ``get`` for.

    Every failure is a ParseError naming the file: a malformed line, through
    ``get`` a missing or unconvertible value, which also names the key, and
    inside ``checking`` a rejected value, then any key that no ``get`` read.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._read: set[str] = set()
        try:
            self.values = parse_kv(Path(path).read_text(encoding="utf-8"))
        except (ParseError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None

    def get(self, key: str, convert: Callable[[str], Any] = str, default: Any = _REQUIRED):
        """``convert(value)``, or ``default`` when the key is absent; a key
        without a default is required."""
        self._read.add(key)
        if key not in self.values:
            if default is _REQUIRED:
                raise ParseError(f"{self.path}: missing key {key}")
            return default
        try:
            return convert(self.values[key])
        except ValueError as exc:
            raise ParseError(f"{self.path}: {key}: {exc}") from None

    @contextmanager
    def checking(self):
        """Re-raise a ValueError from checks on the converted values as a
        ParseError naming the file; on a normal exit, refuse the unread keys."""
        try:
            yield
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"{self.path}: {exc}") from None
        unknown = sorted(self.values.keys() - self._read)
        if unknown:
            raise ParseError(f"{self.path}: unknown key {', '.join(unknown)}")


def parse_bool(value: str) -> bool:
    """``true`` or ``false``, in any case."""
    if value.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return value.lower() == "true"


# Subject, camera and joint ids are few (NTU RGB+D: 40 subjects, 3 cameras;
# layouts: at most 31 joints), so a longer range is a typo, not a list.
MAX_RANGE_IDS = 1000


def parse_int_list(value: str) -> list[int]:
    """Comma-separated integers; ``a-b`` expands to the inclusive range.

    A reversed range or one spanning more than ``MAX_RANGE_IDS`` ids is a
    ValueError naming the chunk.
    """
    items: list[int] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        if sep and lo and hi:
            first, last = int(lo), int(hi)
            if last < first:
                raise ValueError(f"range {chunk!r} is reversed")
            if last - first + 1 > MAX_RANGE_IDS:
                raise ValueError(f"range {chunk!r} spans more than {MAX_RANGE_IDS} ids")
            items.extend(range(first, last + 1))
        else:
            items.append(int(chunk))
    return items
