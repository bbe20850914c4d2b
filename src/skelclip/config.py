"""Plain-text ``key = value`` config files.

One setting per line, ``#`` starts a comment, blank lines ignored. Values
stay strings; callers convert. Used for joint layouts, experiment configs
and rendered result files.
"""

from __future__ import annotations

from pathlib import Path

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


def read_kv(path: str | Path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8"))


def parse_int_list(value: str) -> list[int]:
    """Comma-separated integers; ``a-b`` expands to the inclusive range."""
    items: list[int] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        if sep and lo and hi:
            items.extend(range(int(lo), int(hi) + 1))
        else:
            items.append(int(chunk))
    return items
