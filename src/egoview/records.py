"""Record files: one field table per record kind and the one reader that
walks them, strict field types, outputs that appear together or not at
all, and the view-count buckets.

`read_records` checks each line's fields against its kind's table and
builds the record, whose constructor applies the table's extra rules
(`check_rules`), so a record built in code is held to the same rules.
Every error names `path:line.field`.  The module needs no numpy, so
`egoview eval` starts without it.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Callable, NamedTuple

from ._util import finite_number
from .errors import DuplicateId, DuplicatePrediction, RuleError, SchemaError

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


def _claim_id(seen: dict[str, str], record_id: str, where: str, error=DuplicateId) -> None:
    """Note where an id first appears; raise `error` naming both lines when it repeats."""
    if record_id in seen:
        raise error(f"{where}: id {record_id!r} already used at {seen[record_id]}")
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
                data = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SchemaError(f"{path}:{lineno}", f"invalid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise SchemaError(f"{path}:{lineno}", "record must be a JSON object")
            if data.get("record") == "provenance":
                continue
            yield lineno, data


# The leaf check of each field kind: (JSON value, path) in, the record's value out.
_LEAVES = {
    "text": _text,
    "text or null": lambda value, path: _text(value, path, optional=True),
    "integer or null": lambda value, path: None if value is None else _integer(value, path),
    "integer list": _integers,
    "finite number or null": _score,
}
REQUIRED = object()  # the `absent` of a field whose key every line must hold


class Field(NamedTuple):
    """A field of a line: its key (`parent.key` when nested), kind, value when
    absent and extra rule, a function of (value, record) giving a reason to reject."""

    key: str
    kind: str
    absent: object = REQUIRED
    rule: Callable | None = None


class RecordKind(NamedTuple):
    """Its id's key, its fields in constructor order, and the error a repeated id raises."""

    id_key: str
    fields: tuple[Field, ...]
    duplicate: type = DuplicateId


def _one_of(choices: tuple[str, ...]):
    reason = f"must be one of {choices}, got "
    return lambda value, record: None if value in choices else reason + repr(value)


def _non_empty(value, record):
    return None if value else "must be non-empty"


def _at_least_one(value, record):  # a view count below 1 falls in no bucket
    return None if value is None or value >= 1 else f"must be at least 1, got {value!r}"


def _qa_answer(value, record):
    if record.task == "qa" and not value:
        return f"must be a non-empty string for a qa instruction, got {value!r}"


def _dc_target(value, record):
    if record.task == "dc" and value is None:
        return "must be an integer for a dc instruction, got None"


INSTRUCTIONS = RecordKind("instruction_id", (
    Field("instruction_id", "text"),
    Field("scene_id", "text"),
    Field("task", "text", rule=_one_of(("qa", "dc", "caption"))),
    Field("text", "text", rule=_non_empty),
    Field("answer", "text or null", None, _qa_answer),
    Field("related_object_ids", "integer list", []),
    Field("target_object_id", "integer or null", None, _dc_target),
))
QUESTIONS = RecordKind("question_id", (
    Field("question_id", "text"),
    Field("scene_id", "text"),
    Field("text", "text"),
    Field("answer", "text", rule=_non_empty),
    Field("related_object_ids", "integer list", rule=_non_empty),
))
GOLD = RecordKind("question_id", (
    Field("question_id", "text"),
    Field("answer", "text"),
    Field("min_views", "integer or null", None, _at_least_one),
))
PREDICTIONS = RecordKind(
    "question_id", (Field("question_id", "text"), Field("prediction", "text")), DuplicatePrediction
)
TRIPLETS = RecordKind("triplet_id", (
    Field("triplet_id", "text"),
    Field("scene_id", "text"),
    Field("view_id", "text"),
    Field("object_ids", "integer list"),
    Field("text", "text", rule=_non_empty),
    Field("source", "text", rule=_one_of(("generated_caption", "extended_qa", "extended_dc"))),
    Field("provenance.config_hash", "text", ""),
    Field("provenance.retrieval_score", "finite number or null", None),
    Field("provenance.parent_instruction_id", "text or null", None),
))


def check_rules(kind: RecordKind, record) -> None:
    """Raise RuleError naming the first field of `record` that breaks its rule."""
    for field in kind.fields:
        if field.rule is not None:
            reason = field.rule(getattr(record, field.key), record)
            if reason is not None:
                raise RuleError(field.key, reason)


def read_records(path: str | Path, kind: RecordKind, build: Callable) -> list:
    """build(*values of the line's fields) for each data line of `path`; a
    bad field raises SchemaError naming it, a repeated id `kind.duplicate`."""
    # (parent key or "", key, leaf check, value when absent) of each field
    steps = [(*f.key.rpartition(".")[::2], _LEAVES[f.kind], f.absent) for f in kind.fields]
    records = []
    seen: dict[str, str] = {}
    for lineno, data in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        values = []
        for parent, key, leaf, absent in steps:
            node, at = data, where
            if parent:
                at = f"{where}.{parent}"
                node = data.get(parent, {})
                if not isinstance(node, dict):
                    raise SchemaError(at, f"must be an object, got {node!r}")
            value = node.get(key, absent)
            if value is REQUIRED:
                raise SchemaError(f"{at}.{key}", "missing")
            values.append(leaf(value, f"{at}.{key}"))
        try:
            record = build(*values)
        except RuleError as exc:
            raise SchemaError(f"{where}.{exc.field}", exc.reason) from exc
        _claim_id(seen, getattr(record, kind.id_key), where, kind.duplicate)
        records.append(record)
    return records


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
