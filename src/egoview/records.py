"""Record files: JSONL reading, strict field types, outputs that appear
together or not at all, and the view-count buckets.

Every reader of instruction, question, gold, prediction and triplet lines
checks its fields with these helpers, and every command writes through
`OutputFiles`.  The module needs no numpy, so `egoview eval` starts
without it.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

from .errors import DuplicateId, SchemaError

# Minimum view counts, bucketed as in the paper's tables.
BUCKETS = ("1", "2", "3", "4+", "unsolvable")


def view_bucket(n: int | None) -> str:
    """The bucket of a minimum view count: "unsolvable" for None, "4+" from
    4 on, and the count itself below that."""
    if n is None:
        return "unsolvable"
    if n >= 4:
        return "4+"
    return str(n)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    return obj[key]


def _integer(value, path: str) -> int:
    """`value` if it is a JSON integer; bools, fractions and other types raise
    SchemaError naming `path`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"must be an integer, got {value!r}")
    return value


def _text(value, path: str, optional: bool = False) -> str | None:
    """`value` if it is a JSON string without a lone surrogate (which no
    output could encode), or null when `optional`; anything else raises
    SchemaError naming `path`."""
    if isinstance(value, str):
        if not (value.isascii() or _encodable(value)):
            raise SchemaError(path, f"must not hold a lone surrogate, got {value!r}")
        return value
    if optional and value is None:
        return value
    raise SchemaError(path, f"must be a string{' or null' if optional else ''}, got {value!r}")


def _encodable(text: str) -> bool:
    """Whether UTF-8 can encode `text`, i.e. it holds no lone surrogate; a
    non-string raises TypeError."""
    try:
        str.encode(text, "utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _list(value, path: str) -> list:
    """`value` if it is a JSON array; other types raise SchemaError naming `path`."""
    if not isinstance(value, list):
        raise SchemaError(path, f"must be a list, got {value!r}")
    return value


def _integers(values, path: str) -> frozenset[int]:
    """The JSON array `values` of integers as a set; a non-list or a
    non-integer entry raises SchemaError naming its path."""
    return frozenset(
        _integer(value, f"{path}[{i}]") for i, value in enumerate(_list(values, path))
    )


def _claim_id(seen: dict[str, str], record_id: str, where: str) -> None:
    """Note where an id first appears; raise DuplicateId when it repeats."""
    if record_id in seen:
        raise DuplicateId(f"{where}: id {record_id!r} already used at {seen[record_id]}")
    seen[record_id] = where


def _iter_jsonl(path: str | Path):
    """Yield (lineno, record) for each data line; skips provenance headers."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}", f"invalid UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                data = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SchemaError(f"{path}:{lineno}", f"invalid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise SchemaError(f"{path}:{lineno}", "record must be a JSON object")
            if data.get("record") == "provenance":
                continue
            yield lineno, data


class OutputFiles:
    """Output files that appear together or not at all.

    Inside `with OutputFiles() as outputs:`, each `outputs.write(path, text)`
    goes to a temp file beside `path`.  On a clean exit every temp file is
    moved into place with `os.replace`; if anything raised, none is.  No temp
    file outlives the block.
    """

    def __init__(self):
        self._staged: list[tuple[Path, Path]] = []

    def __enter__(self) -> OutputFiles:
        return self

    def write(self, path: str | Path, text: str) -> None:
        path = Path(path)
        if path.is_dir():  # os.replace would fail only after earlier outputs moved
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        temp = path.with_name(f".{path.name}.{os.getpid()}.{len(self._staged)}.tmp")
        self._staged.append((temp, path))
        temp.write_text(text, encoding="utf-8", newline="\n")

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for temp, path in self._staged:
                    os.replace(temp, path)
        finally:
            for temp, _ in self._staged:
                temp.unlink(missing_ok=True)
