"""Round trip of the record files egoview writes: triplets and composed
questions written by `records.write_jsonl` from their declarations read
back field for field through `records.read_records`, and writing what was
read gives the same bytes.  A composed file is gold for `eval`, so
`evaluate.read_gold` reads each line's view count as written.  Each line
is written as `json.dumps(..., ensure_ascii=False)` would write it,
`records.loads` decodes as `json.loads` does, value or error, and a bad
field's error names its full path within the record.  An output that
cannot be written raises naming the output, never its temp file."""

from __future__ import annotations

import errno
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview.corpus import TripletProvenance, TripletRecord
from egoview.errors import SchemaError
from egoview.evaluate import read_gold
from egoview.records import (
    OutputFiles,
    check_output,
    loads,
    read_records,
    record_json,
    write_jsonl,
)
from egoview.synthesis import ComposedQA

# Any text UTF-8 can encode: no lone surrogates, non-ASCII included.
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
id_sets = st.one_of(
    st.just(frozenset()),
    st.frozensets(st.integers(-(2**63), 2**64), max_size=3),
    st.frozensets(st.integers(0, 10**6), min_size=200, max_size=400),
)
scores = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))

triplets = st.builds(
    TripletRecord,
    triplet_id=texts,
    scene_id=texts,
    view_id=texts,
    object_ids=id_sets,
    text=texts.filter(bool),
    source=st.sampled_from(["generated_caption", "extended_qa", "extended_dc"]),
    provenance=st.builds(
        TripletProvenance,
        config_hash=texts,
        retrieval_score=scores,
        parent_instruction_id=st.none() | texts,
    ),
)
composed = st.builds(
    ComposedQA,
    question_id=texts,
    scene_id=texts,
    question=texts,
    answer=texts,
    parent_question_ids=st.tuples(texts, texts),
    anchor_object_ids=id_sets,
    related_object_ids=id_sets,
    min_views=st.none() | st.integers(1, 5),
    solver=st.sampled_from(["exact", "greedy"]),
)


def _write(path: Path, rows) -> bytes:
    with OutputFiles() as outputs:
        write_jsonl(path, rows, {"seed": 7}, outputs)
    return path.read_bytes()


def _round_trip(rows, cls, check=lambda path: None) -> None:
    """Write `rows`, read them back as `cls` and write them again."""
    with tempfile.TemporaryDirectory() as tmp:
        first = _write(Path(tmp) / "a.jsonl", rows)
        reread = read_records(Path(tmp) / "a.jsonl", cls)
        assert [vars(record) for record in reread] == [vars(record) for record in rows]
        assert _write(Path(tmp) / "b.jsonl", reread) == first
        check(Path(tmp) / "a.jsonl")


@given(st.lists(triplets, max_size=4, unique_by=lambda record: record.triplet_id))
@settings(max_examples=60, deadline=None)
def test_triplets_round_trip(rows):
    _round_trip(rows, TripletRecord)


@given(st.lists(composed, max_size=4, unique_by=lambda record: record.question_id))
@settings(max_examples=60, deadline=None)
def test_composed_questions_round_trip_and_are_gold(rows):
    def check(path):
        gold = read_gold(path)
        assert [(g.question_id, g.answer, g.min_views) for g in gold] == [
            (r.question_id, r.answer, r.min_views) for r in rows
        ]

    _round_trip(rows, ComposedQA, check)


provenances = st.fixed_dictionaries({"seed": st.integers(0, 2**32), "config_hash": texts})
row_lists = st.one_of(
    st.lists(triplets, max_size=4, unique_by=lambda record: record.triplet_id),
    st.lists(composed, max_size=4, unique_by=lambda record: record.question_id),
)


@given(row_lists, provenances)
@settings(max_examples=60, deadline=None)
def test_each_line_is_written_as_json_dumps_writes_it(rows, provenance):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.jsonl"
        with OutputFiles() as outputs:
            write_jsonl(path, rows, provenance, outputs)
        lines = path.read_text(encoding="utf-8").split("\n")
    assert lines == [
        json.dumps({"record": "provenance", **provenance}, ensure_ascii=False),
        *(json.dumps(record_json(row), ensure_ascii=False) for row in rows),
        "",
    ]


TRIPLET = record_json(TripletRecord(
    triplet_id="t1", scene_id="s", view_id="v", object_ids=frozenset({1, 2}), text="a chair",
    source="generated_caption", provenance=TripletProvenance(retrieval_score=0.5),
))
COMPOSED = record_json(ComposedQA(
    question_id="a+b", scene_id="s", question="Which?", answer="left",
    parent_question_ids=("a", "b"), anchor_object_ids=frozenset({1}),
    related_object_ids=frozenset({1, 2}), min_views=2, solver="exact",
))


def _replaced(record: dict, keys: tuple, value) -> dict:
    """`record` as a file holds it (a tuple as a list), with the entry at
    key path `keys` set to `value`."""
    record = json.loads(json.dumps(record))
    node = record
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return record


# (record class, the data line, whether a provenance header comes first, the error)
BAD_LINES = [
    (TripletRecord, _replaced(TRIPLET, ("provenance", "retrieval_score"), "x"), True,
     "f.jsonl:2.provenance.retrieval_score: must be a finite number or null, got 'x'"),
    (TripletRecord, _replaced(TRIPLET, ("provenance",), 3), True,
     "f.jsonl:2.provenance: must be an object, got 3"),
    (ComposedQA, _replaced(COMPOSED, ("related_object_ids", 1), "x"), True,
     "f.jsonl:2.related_object_ids[1]: must be an integer, got 'x'"),
    (ComposedQA, _replaced(COMPOSED, ("parent_question_ids", 1), 3), True,
     "f.jsonl:2.parent_question_ids[1]: must be a string, got 3"),
    (ComposedQA, {key: value for key, value in COMPOSED.items() if key != "scene_id"}, False,
     "f.jsonl:1.scene_id: missing"),
]


@pytest.mark.parametrize(
    "cls,record,header,message", BAD_LINES, ids=[case[-1].split(": ")[0] for case in BAD_LINES]
)
def test_errors_name_the_full_path_of_a_nested_or_list_field(
    tmp_path, monkeypatch, cls, record, header, message
):
    monkeypatch.chdir(tmp_path)
    lines = [json.dumps({"record": "provenance"})] if header else []
    Path("f.jsonl").write_text("\n".join([*lines, json.dumps(record)]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as raised:
        read_records("f.jsonl", cls)
    assert str(raised.value) == message


def test_an_integer_json_loads_will_not_convert_is_invalid_json_naming_the_line(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    line = '{"min_views": ' + "9" * 5000 + "}"
    Path("f.jsonl").write_text('{"record": "provenance"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as raised:
        read_records("f.jsonl", ComposedQA)
    assert raised.value.field == "f.jsonl:2"
    assert raised.value.reason.startswith("invalid JSON: Exceeds the limit (4300 digits)")


# JSON whitespace and, after it, whitespace only to `str.strip`.
SPACES = ["", " ", "\t", "\r", "\n", " \r\n", "\x0c", "\u00a0", "\u2028"]
DEEP = sys.getrecursionlimit() + 10
ODD_DOCUMENTS = [
    "\ufeff{}", "NaN", "Infinity", "-Infinity", "[NaN, -Infinity]", "1e400", '"\\ud800"',
    '{"a": 1, "a": 2}', "{} {}", "[1] x", "1 2", "", "[" * DEEP + "]" * DEEP,
    '{"a": ' * DEEP + "1" + "}" * DEEP, "[" * DEEP, "9" * 5000, "tru", '"\\x"', '{"a" 1}',
]
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-(2**80), 2**80) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)
documents = st.one_of(
    st.builds(json.dumps, json_values, ensure_ascii=st.booleans()),
    st.sampled_from(ODD_DOCUMENTS),
)


def _outcome(decode, text: str) -> tuple:
    """What `decode(text)` gives: its value's repr (NaN equal to NaN), or
    the type and message of what it raises."""
    try:
        return "value", repr(decode(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@given(documents, st.sampled_from(SPACES), st.sampled_from(SPACES))
@settings(max_examples=300, deadline=None)
def test_loads_is_json_loads(document, before, after):
    text = before + document + after
    assert _outcome(loads, text) == _outcome(json.loads, text)


@pytest.mark.parametrize("document", ODD_DOCUMENTS, ids=lambda text: repr(text[:12]))
def test_loads_is_json_loads_on_each_odd_document(document):
    assert _outcome(loads, document) == _outcome(json.loads, document)


@pytest.mark.parametrize(
    "name,code", [("dir", errno.EISDIR), ("missing/out", errno.ENOENT), ("file/out", errno.ENOTDIR)]
)
def test_unwritable_output_raises_naming_it(tmp_path, name, code):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = tmp_path / name
    with pytest.raises(OSError) as excinfo:
        check_output(path)
    assert (excinfo.value.errno, excinfo.value.filename) == (code, str(path))
    with pytest.raises(OSError) as excinfo, OutputFiles() as outputs:
        outputs.write(path, "x")
    assert (excinfo.value.errno, excinfo.value.filename) == (code, str(path))


def test_failed_write_names_the_output_and_leaves_nothing(tmp_path, monkeypatch):
    def full(self, *args, **kwargs):
        Path.touch(self)  # a partial temp file
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_text", full)
    path = tmp_path / "report.json"
    with pytest.raises(OSError) as excinfo, OutputFiles() as outputs:
        outputs.write(path, "x")
    assert str(excinfo.value) == f"[Errno 28] No space left on device: '{path}'"
    assert list(tmp_path.iterdir()) == []


def test_temp_names_are_short_and_unique_per_object(tmp_path):
    name = "r" * 250
    with OutputFiles() as first, OutputFiles() as second:
        first.write(tmp_path / name, "1")
        first.write(tmp_path / "b", "2")
        second.write(tmp_path / "c", "3")
        temps = sorted(p.name for p in tmp_path.iterdir())
    assert len(temps) == 3 and all(len(t) < 64 and name not in t for t in temps)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "c", name]
