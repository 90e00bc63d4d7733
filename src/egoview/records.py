"""Record files and reports: the field declarations of record dataclasses,
the one reader and the writers that walk them, strict field types, outputs
that appear together or not at all, and the view-count buckets and tally.

Each record kind is declared once, on its dataclass: each `record_field`
gives a leaf kind, a rule and, as its default, its value when absent.
`read_records` checks each line against the steps `steps_of` derives from
the class and builds the record by field name, whose constructor applies
the rules (`check_rules`); `record_json` writes it back from the same steps.
A check names the field by its path within the record; `read_records`
puts the line's `path:line` before it, so every error names
`path:line.field`.  Each line is decoded by `loads`: one pass of the json
module's C scanner when the document fills the line, else `json.loads`.
Only `write_jsonl` and `write_report` place a run's provenance in an output.
The module needs no numpy, so `egoview eval` starts without it.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import MISSING, field, fields
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from ._util import finite_number
from .errors import DuplicateId, RuleError, SchemaError

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


def bucket_counts(buckets: Iterable[str], order: tuple[str, ...] = BUCKETS) -> dict[str, int]:
    """How many of `buckets` fall in each bucket of `order`, keyed in that
    order, zeros included; a bucket outside `order` raises KeyError."""
    counts = dict.fromkeys(order, 0)
    for bucket in buckets:
        counts[bucket] += 1
    return counts


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


def _texts(values, path: str) -> tuple[str, ...]:
    """The JSON array `values` of strings as a tuple; a non-list or a bad
    entry raises SchemaError naming its path."""
    return tuple(_text(value, f"{path}[{i}]") for i, value in enumerate(_list(values, path)))


def _integers(values, path: str) -> frozenset[int]:
    """The JSON array `values` of integers as a set; a non-list or a
    non-integer entry raises SchemaError naming its path."""
    if not {int}.issuperset(map(type, _list(values, path))):  # a bool's type is not int
        for i, value in enumerate(values):
            _integer(value, f"{path}[{i}]")
    return frozenset(values)


def _score(value, path: str) -> float | None:
    """`value` if it is null or a finite JSON number (not a bool, NaN or an
    integer too large for a float); else SchemaError naming `path`."""
    if value is None or finite_number(value):
        return value
    raise SchemaError(path, f"must be a finite number or null, got {value!r}")


_raw_decode = json.JSONDecoder().raw_decode


def loads(text: str):
    """`json.loads(text)`, value or error, in one scanner pass when the
    document fills `text`; anything else (a BOM, surrounding whitespace,
    trailing data, a decode error) is left to `json.loads` itself."""
    try:
        value, end = _raw_decode(text)
        if end == len(text):
            return value
    except (ValueError, RecursionError):
        pass
    return json.loads(text)


def _claim_id(seen: dict, record_id: str, where, error=DuplicateId, prefix: str = "") -> None:
    """Note where an id first appears; raise `error` naming both places when
    it repeats.  A place is `prefix` then `where`: a file's "path:" then a
    line number, or no prefix and a description; it is formatted only then."""
    if record_id in seen:
        raise error(f"{prefix}{where}: id {record_id!r} already used at {prefix}{seen[record_id]}")
    seen[record_id] = where


def _iter_jsonl(path: str | Path):
    """Yield (lineno, record) for each data line; skips provenance headers
    and blank lines.  Only JSON whitespace (space, tab, CR, LF) counts as
    blank: any other character around a record is invalid JSON."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip(" \t\r\n")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}", f"invalid UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                data = loads(line)
            except (ValueError, RecursionError) as exc:  # json.loads refuses ints past 4300 digits
                raise SchemaError(f"{path}:{lineno}", f"invalid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise SchemaError(f"{path}:{lineno}", "record must be a JSON object")
            if data.get("record") == "provenance":
                continue
            yield lineno, data


# Each leaf kind's check, (JSON value, path) in and the record's value out,
# and its write form, the record's value in and JSON out; None writes the
# value as is (`json.dumps` writes a tuple as a list).
_LEAVES = {
    "text": (_text, None),
    "text or null": (lambda value, path: _text(value, path, optional=True), None),
    "text list": (_texts, None),
    "integer or null": (lambda value, path: None if value is None else _integer(value, path), None),
    "integer list": (_integers, sorted),
    "finite number or null": (_score, None),
}


def record_field(kind, rule: Callable | None = None, default=MISSING, duplicate=DuplicateId):
    """A dataclass field that `read_records` reads and `record_json` writes
    as leaf kind `kind` (a key of `_LEAVES`, or a record class, a JSON
    object) and that `check_rules` holds to `rule`, a function of (value,
    record) giving a reason to reject.  `default` is its value when the key
    is absent; without one the key is required.  On a record's first
    field, its id, `duplicate` is the error a repeated id raises."""
    return field(default=default, metadata={"kind": kind, "rule": rule, "duplicate": duplicate})


class Step(NamedTuple):
    """How `read_records` reads and `record_json` writes one field of a record class."""

    key: str
    check: Callable  # (JSON value, path within the record) in, the field's value out
    write: Callable | None  # the field's value in, JSON out; None writes it as is
    default: object  # MISSING when every line must hold the key
    kind: str | type  # this and the rest are the field's `record_field` metadata
    rule: Callable | None
    duplicate: type  # on the first field, the id: the error a repeated id raises


@cache
def steps_of(cls) -> tuple[Step, ...]:
    """The steps of record class `cls`'s fields, in declaration order."""
    return tuple(
        Step(f.name, *_forms(f.metadata["kind"]), f.default, **f.metadata) for f in fields(cls)
    )


def _forms(kind: str | type) -> tuple[Callable, Callable | None]:
    """The check and write form of leaf kind `kind`; for a record class, a
    check that builds it from a JSON object, written by `record_json`."""
    if isinstance(kind, str):
        return _LEAVES[kind]

    def nested(value, path: str):
        if not isinstance(value, dict):
            raise SchemaError(path, f"must be an object, got {value!r}")
        return _build(kind, value, path)

    return nested, record_json


def _build(cls, node: dict, *at):
    """The `cls` of JSON object `node`; a bad field raises SchemaError
    naming `at.field`, `at`'s parts (a field path, or a file path and a
    line number) joined by ':' only then."""
    try:
        return cls(**_values(node, steps_of(cls)))
    except SchemaError as exc:  # a RuleError from the constructor too
        raise SchemaError(f"{':'.join(map(str, at))}.{exc.field}", exc.reason) from exc


def _values(node: dict, steps: tuple[Step, ...]) -> dict:
    """The checked value of each key of `node` by field name; a bad value
    or a missing required key raises SchemaError naming the key."""
    values = {}
    for key, check, _, default, _, _, _ in steps:
        if key in node:
            values[key] = check(node[key], key)
        elif default is MISSING:
            raise SchemaError(key, "missing")
    return values


@cache
def _writes(cls) -> tuple[tuple[str, Callable | None], ...]:
    """(key, write form) of each field of record class `cls`, in order."""
    return tuple((step.key, step.write) for step in steps_of(cls))


def record_json(record) -> dict:
    """The JSON object of `record`: each field's key in declaration order,
    with its value in its kind's write form, as `read_records` reads it."""
    data = {}
    for key, write in _writes(type(record)):
        value = getattr(record, key)
        data[key] = value if write is None else write(value)
    return data


def one_of(choices: tuple[str, ...]):
    reason = f"must be one of {choices}, got "
    return lambda value, record: None if value in choices else reason + repr(value)


def non_empty(value, record):
    return None if value else "must be non-empty"


def at_least_one(value, record):  # a view count below 1 falls in no bucket
    return None if value is None or value >= 1 else f"must be at least 1, got {value!r}"


def qa_answer(value, record):
    if record.task == "qa" and not value:
        return f"must be a non-empty string for a qa instruction, got {value!r}"


def dc_target(value, record):
    if record.task == "dc" and value is None:
        return "must be an integer for a dc instruction, got None"


@cache
def _rules(cls) -> tuple[tuple[str, Callable], ...]:
    """(key, rule) of each field of record class `cls` that declares a rule, in order."""
    return tuple((step.key, step.rule) for step in steps_of(cls) if step.rule is not None)


def check_rules(record) -> None:
    """Raise RuleError naming the first field of `record` that breaks its rule."""
    for key, rule in _rules(type(record)):
        reason = rule(getattr(record, key), record)
        if reason is not None:
            raise RuleError(key, reason)


def read_records(path: str | Path, cls) -> list:
    """A `cls` built from each data line of `path` by field name; a bad field
    raises SchemaError naming it, a repeated id the error its first field names."""
    first = steps_of(cls)[0]
    records = []
    seen: dict[str, int] = {}  # id -> its line number
    prefix = f"{path}:"
    for lineno, data in _iter_jsonl(path):
        record = _build(cls, data, path, lineno)
        _claim_id(seen, getattr(record, first.key), lineno, first.duplicate, prefix)
        records.append(record)
    return records


# One encoder for every record line: `json.dumps(data, ensure_ascii=False)`
# without constructing a `JSONEncoder` per line.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(path: str | Path, rows: Sequence, provenance: dict, outputs: OutputFiles) -> None:
    """Stage records as UTF-8 JSON lines (`record_json`) after a provenance
    header line, to be moved into place with the other files of `outputs`;
    a repeated id raises as `read_records` would, naming both lines."""
    lines = [_encode({"record": "provenance", **provenance})]
    seen: dict[str, int] = {}  # id -> its line number
    prefix = f"{path}:"
    for row in rows:
        data, first = record_json(row), steps_of(type(row))[0]
        _claim_id(seen, data[first.key], len(lines) + 1, first.duplicate, prefix)
        lines.append(_encode(data))
    outputs.write(path, "\n".join(lines) + "\n")


def write_report(path: str | Path, report: dict, provenance: dict, outputs: OutputFiles) -> None:
    """Stage `report` as indented UTF-8 JSON with `provenance` as its last key."""
    payload = {**report, "provenance": provenance}
    outputs.write(path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def check_output(path: str | Path) -> None:
    """Raise the OSError that writing `path` would meet if `path` is a
    directory or its directory does not exist, naming `path`."""
    path = Path(path)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


class OutputFiles:
    """Output files that appear together or not at all.

    Inside `with OutputFiles() as outputs:`, each `outputs.write(path, text)`
    goes to a temp file beside `path` named for the process, the object and
    the index, not `path`, so a long name stays short.  On a clean exit every
    temp file is moved into place with `os.replace`; if anything raised, none
    is.  No temp file outlives the block; a failed write raises naming `path`.
    """

    def __init__(self):
        self._staged: list[tuple[Path, Path]] = []

    def __enter__(self) -> OutputFiles:
        return self

    def write(self, path: str | Path, text: str) -> None:
        path = Path(path)
        check_output(path)  # os.replace would fail only after earlier outputs moved
        temp = path.with_name(f".egoview-{os.getpid()}-{id(self):x}-{len(self._staged)}.tmp")
        self._staged.append((temp, path))
        try:
            temp.write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for temp, path in self._staged:
                    os.replace(temp, path)
        finally:
            for temp, _ in self._staged:
                temp.unlink(missing_ok=True)
