"""Round trip of the record files egoview writes: triplets and composed
questions written by `corpus.write_jsonl` from their declarations read
back field for field through `records.read_records`, and writing what was
read gives the same bytes.  A composed file is gold for `eval`, so
`evaluate.read_gold` reads each line's view count as written."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from egoview.corpus import TripletProvenance, TripletRecord, write_jsonl
from egoview.evaluate import read_gold
from egoview.records import OutputFiles, read_records
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
