from __future__ import annotations

import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview import synthesis
from egoview.records import record_json
from egoview.errors import SchemaError, ServiceUnavailable, UnknownObjectId, UnknownScene
from egoview.services import StubModelService
from egoview.solvability import WitnessConfig, WitnessTable
from egoview.synthesis import (
    CandidatePair,
    QuestionRecord,
    compose_question,
    eligible_pairs,
    read_questions,
    synthesize_dataset,
    verify_composition,
)

from .oracles import brute_force_eligible_pairs
from .scenegen import random_posed_scene, random_relevant_ids


def question(qid, anchors, scene_id="s1", text=None, answer="yes"):
    return QuestionRecord(
        question_id=qid,
        scene_id=scene_id,
        text=text or f"question {qid}?",
        answer=answer,
        related_object_ids=frozenset(anchors),
    )


question_families = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2"]),
        st.sets(st.integers(0, 5), min_size=1, max_size=4),
    ),
    min_size=0,
    max_size=12,
).map(
    lambda rows: [
        question(f"q{i:02d}", anchors, scene_id=scene) for i, (scene, anchors) in enumerate(rows)
    ]
)


class TestEligiblePairs:
    def test_shared_anchor_pair(self):
        q1 = question("q1", {1, 3})  # desk, waste basket
        q2 = question("q2", {1, 2})  # desk, chair
        pairs = eligible_pairs([q1, q2])
        assert len(pairs) == 1
        assert pairs[0].shared_anchor_ids == {1}

    def test_subset_rejected(self):
        assert eligible_pairs([question("q1", {1}), question("q2", {1, 2})]) == []

    def test_disjoint_rejected(self):
        assert eligible_pairs([question("q1", {1, 2}), question("q2", {3, 4})]) == []

    def test_cross_scene_never_pairs(self):
        q1 = question("q1", {1, 2}, scene_id="s1")
        q2 = question("q2", {1, 3}, scene_id="s2")
        assert eligible_pairs([q1, q2]) == []

    def test_output_sorted_and_oriented(self):
        qs = [
            question("qc", {1, 2}, scene_id="s2"),
            question("qb", {2, 3}, scene_id="s2"),
            question("qa", {1, 2}, scene_id="s1"),
            question("qd", {2, 4}, scene_id="s1"),
        ]
        pairs = eligible_pairs(qs)
        keys = [(p.first.scene_id, p.first.question_id, p.second.question_id) for p in pairs]
        assert keys == sorted(keys)
        for p in pairs:
            assert p.first.question_id < p.second.question_id

    def test_fixture_has_three_pairs(self, data_dir):
        pairs = eligible_pairs(read_questions(data_dir / "questions.jsonl"))
        ids = [(p.first.question_id, p.second.question_id) for p in pairs]
        assert ids == [("q01", "q02"), ("q03", "q04"), ("q04", "q05")]

    @given(question_families)
    @settings(max_examples=150)
    def test_matches_brute_force(self, questions):
        pairs = eligible_pairs(questions)
        got = {(p.first.question_id, p.second.question_id) for p in pairs}
        assert got == brute_force_eligible_pairs(questions)

    @given(question_families)
    @settings(max_examples=60)
    def test_symmetry(self, questions):
        forward = {
            (p.first.question_id, p.second.question_id) for p in eligible_pairs(questions)
        }
        reversed_questions = list(reversed(questions))
        backward = {
            (p.first.question_id, p.second.question_id)
            for p in eligible_pairs(reversed_questions)
        }
        assert forward == backward


class _UnparseableGenerator:
    def __init__(self, reply="no json here {"):
        self.calls = 0
        self.reply = reply

    def generate_text(self, prompt, max_tokens=256, temperature=0.0):
        self.calls += 1
        return self.reply


# Replies `json.loads` raises on without a JSONDecodeError: an array nested
# past the recursion limit, and an integer past the digits it converts.
REFUSED_REPLIES = {"deep": "[" * 5000 + "]" * 5000, "long-integer": "9" * 5000}


class _FailingGenerator:
    def generate_text(self, prompt, max_tokens=256, temperature=0.0):
        raise ServiceUnavailable("down")


class TestComposeQuestion:
    def _pair(self):
        q1 = question("q1", {1, 3}, text="Where is the waste basket near the desk?", answer="right")
        q2 = question("q2", {1, 2}, text="What is the chair in front of?", answer="desk")
        return eligible_pairs([q1, q2])[0]

    def test_stub_template_is_stable(self):
        pair = self._pair()
        stub = StubModelService()
        first = compose_question(pair, stub, anchor_labels=["desk"])
        second = compose_question(pair, stub, anchor_labels=["desk"])
        assert first == (
            "Combining: Where is the waste basket near the desk | "
            "What is the chair in front of?",
            "right",
        )
        assert first == second
        assert pair.parent_ids == ("q1", "q2")

    def test_unparseable_reply_dropped_after_three_attempts(self):
        generator = _UnparseableGenerator()
        assert compose_question(self._pair(), generator, ["desk"]) is None
        assert generator.calls == 3

    @pytest.mark.parametrize("reply", REFUSED_REPLIES.values(), ids=REFUSED_REPLIES)
    def test_reply_json_refuses_dropped_after_three_attempts(self, reply):
        generator = _UnparseableGenerator(reply)
        assert compose_question(self._pair(), generator, ["desk"]) is None
        assert generator.calls == 3

    def test_reply_wrapped_in_whitespace_is_parsed(self):
        class Spacey:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                return '  {"question": "Which side?", "answer": "left"} \n'

        assert compose_question(self._pair(), Spacey(), ["desk"]) == ("Which side?", "left")

    def test_service_failure_propagates(self):
        with pytest.raises(ServiceUnavailable):
            compose_question(self._pair(), _FailingGenerator(), ["desk"])

    def test_json_embedded_in_prose_is_parsed(self):
        class Chatty:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                return 'Sure! {"question": "Which side?", "answer": "left"} Hope that helps.'

        assert compose_question(self._pair(), Chatty(), ["desk"]) == ("Which side?", "left")


def _verify(first_text=None, **reply):
    """`verify_composition` of a reply's question and answer (each with a
    default) against the parents q1 and q2, q1 with `first_text`."""
    reply = {"question": "What is combined here?", "answer": "a thing", **reply}
    pair = CandidatePair(
        first=question("q1", {1}, text=first_text),
        second=question("q2", {2}),
        shared_anchor_ids=frozenset(),
    )
    return verify_composition(reply["question"], reply["answer"], pair)


class TestVerifyComposition:
    def test_pass(self):
        assert _verify() is None

    def test_combined_fixture_record_passes(self):
        composed = "What is on the right of the small desk where the wooden chair is in front of?"
        assert _verify(question=composed, answer="waste basket") is None

    def test_empty_answer(self):
        assert _verify(answer="  ") == "empty_answer"

    def test_overlong_answer(self):
        assert _verify(answer=" ".join(["word"] * 11)) == "overlong_answer"

    def test_ten_token_answer_passes(self):
        assert _verify(answer=" ".join(["w"] * 10)) is None

    def test_missing_question_mark(self):
        assert _verify(question="no mark") == "missing_question_mark"

    @pytest.mark.parametrize("field", ["question", "answer"])
    def test_unencodable_text(self, field):
        assert _verify(**{field: "Which \ud800 one?"}) == "unencodable_text"

    def test_degenerate_copy(self):
        assert _verify(first_text="What is combined here?") == "degenerate_copy"


class TestSynthesizeDataset:
    def test_fixture_pipeline(self, data_dir, scenes):
        questions = read_questions(data_dir / "questions.jsonl")
        stub = StubModelService()
        records, report = synthesize_dataset(questions, stub, scenes)
        assert report.pairs_considered == 3
        assert report.composed == 3
        assert report.dropped == {}
        assert [r.question_id for r in records] == ["q01+q02", "q03+q04", "q04+q05"]
        # Each composed record spans clusters, so two views are needed.
        assert all(r.min_views == 2 for r in records)
        assert all(r.solver == "exact" for r in records)

    def test_union_and_intersection_invariants(self, data_dir, scenes):
        questions = read_questions(data_dir / "questions.jsonl")
        by_id = {q.question_id: q for q in questions}
        records, _ = synthesize_dataset(questions, StubModelService(), scenes)
        for record in records:
            first, second = (by_id[p] for p in record.parent_question_ids)
            assert record.related_object_ids == first.related_object_ids | second.related_object_ids
            assert record.anchor_object_ids == first.related_object_ids & second.related_object_ids

    def test_deterministic_output(self, data_dir, scenes):
        questions = read_questions(data_dir / "questions.jsonl")
        run1, _ = synthesize_dataset(questions, StubModelService(), scenes)
        run2, _ = synthesize_dataset(questions, StubModelService(), scenes)
        assert [record_json(r) for r in run1] == [record_json(r) for r in run2]

    def test_no_eligible_pairs(self, scenes):
        questions = [question("q1", {1}, scene_id="scene-a"), question("q2", {1, 2}, scene_id="scene-a")]
        records, report = synthesize_dataset(questions, StubModelService(), scenes)
        assert records == []
        assert report.pairs_considered == 0

    def test_unknown_scene(self):
        questions = [question("q1", {1, 2}, scene_id="ghost"), question("q2", {2, 3}, scene_id="ghost")]
        with pytest.raises(UnknownScene):
            synthesize_dataset(questions, StubModelService(), {})

    @pytest.mark.parametrize(
        "anchors,scene_id,error",
        [({2, 99}, "scene-a", UnknownObjectId), ({99}, "scene-a", UnknownObjectId),
         ({2}, "ghost", UnknownScene)],
    )
    def test_unknown_reference_raises_before_any_generation(self, scenes, anchors, scene_id, error):
        class Recorder:
            prompts = []

            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                self.prompts.append(prompt)
                return '{"question": "Both?", "answer": "yes"}'

        questions = [question("q1", {1, 2}, scene_id="scene-a"), question("q2", {2, 3}, scene_id="scene-a"),
                     question("q3", anchors, scene_id=scene_id)]
        generator = Recorder()
        with pytest.raises(error, match="question 'q3': "):
            synthesize_dataset(questions, generator, scenes)
        assert generator.prompts == []

    def test_tables_are_over_the_referenced_objects(self, monkeypatch):
        """Each scene's table has a column per object its questions reference
        and no other, and counts every record as an all-objects table does."""
        rng = np.random.default_rng(83)
        views, objects = random_posed_scene(rng, 16, 24)
        questions = [
            question(f"q{i:02d}", random_relevant_ids(rng, 16, 2), scene_id="s") for i in range(14)
        ]
        referenced = set().union(*(q.related_object_ids for q in questions))
        all_objects = WitnessTable.build(objects, views, WitnessConfig())
        built, real_build = [], WitnessTable.build

        def spy(*args):
            built.append(real_build(*args))
            return built[-1]

        monkeypatch.setattr(WitnessTable, "build", spy)
        scene = SimpleNamespace(views=views, objects=objects)
        records, report = synthesize_dataset(questions, StubModelService(), {"s": scene})
        assert len(built) == 1
        assert built[0].objects.ids == tuple(sorted(referenced))
        assert len(referenced) < len(objects)
        assert report.composed == len(records) > 0
        for record in records:
            req = all_objects.min_view_count(record.related_object_ids)
            assert (record.min_views, record.solver) == (req.n, req.solver)
        assert {record.min_views for record in records} >= {None, 1, 2}

    def test_unparseable_generator_reports_drops(self, data_dir, scenes):
        questions = read_questions(data_dir / "questions.jsonl")
        records, report = synthesize_dataset(questions, _UnparseableGenerator(), scenes)
        assert records == []
        assert report.dropped == {"parse_failure": 3}

    @pytest.mark.parametrize("reply", REFUSED_REPLIES.values(), ids=REFUSED_REPLIES)
    def test_generator_json_refuses_reports_drops(self, data_dir, scenes, reply):
        generator = _UnparseableGenerator(reply)
        questions = read_questions(data_dir / "questions.jsonl")
        records, report = synthesize_dataset(questions, generator, scenes)
        assert records == []
        assert report.dropped == {"parse_failure": 3}
        assert generator.calls == 3 * synthesis.MAX_GENERATION_ATTEMPTS

    def test_overlong_answers_never_survive(self, data_dir, scenes):
        class Rambler:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                return '{"question": "Valid?", "answer": "' + "word " * 20 + '"}'

        questions = read_questions(data_dir / "questions.jsonl")
        records, report = synthesize_dataset(questions, Rambler(), scenes)
        assert records == []
        assert report.dropped == {"overlong_answer": 3}

    def test_each_drop_is_logged_and_counted_once(self, scenes, caplog):
        class Mixed:  # q1's pair never parses; q2's pair answers at length
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                if "garbled" in prompt:
                    return "no json here {"
                return '{"question": "Valid?", "answer": "' + "word " * 20 + '"}'

        questions = [
            question("q1", {1, 3}, scene_id="scene-a", text="Which one is garbled?"),
            question("q2", {1, 2}, scene_id="scene-a"),
            question("q3", {2, 4}, scene_id="scene-a"),
        ]
        caplog.set_level(logging.INFO, logger="egoview.synthesis")
        records, report = synthesize_dataset(questions, Mixed(), scenes)
        assert records == []
        assert report.dropped == {"parse_failure": 1, "overlong_answer": 1}
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "dropped pair ('q1', 'q2'): parse_failure",
            "dropped pair ('q2', 'q3'): overlong_answer",
        ]

    def test_copy_of_the_pairs_own_parent_is_dropped(self, scenes):
        """A reply that copies the pair's first parent is a degenerate copy
        even when another question shares that parent's id."""

        class CopyFirst:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                text = prompt.split("Parent question 1: ")[1].split("\n")[0]
                return '{"question": "%s", "answer": "yes"}' % text

        questions = [
            question("a", {1, 3}, scene_id="scene-a", text="Where is the first one?"),
            question("a", {1, 2}, scene_id="scene-a", text="Where is the second one?"),
        ]
        records, report = synthesize_dataset(questions, CopyFirst(), scenes)
        assert records == []
        assert report.dropped == {"degenerate_copy": 1}

    def test_duplicate_question_counted(self, scenes):
        class ConstantGenerator:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                return '{"question": "Always the same?", "answer": "yes"}'

        questions = [
            question("q1", {1, 3}, scene_id="scene-a"),
            question("q2", {1, 2}, scene_id="scene-a"),
            question("q3", {2, 4}, scene_id="scene-a"),
        ]
        records, report = synthesize_dataset(questions, ConstantGenerator(), scenes)
        assert len(records) == 2
        assert report.exact_duplicate_questions == 1


class TestQuestionIO:
    def test_read_fixture(self, data_dir):
        questions = read_questions(data_dir / "questions.jsonl")
        assert len(questions) == 6
        assert questions[0].related_object_ids == {1, 3}

    def test_line_numbered_schema_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"question_id": "q1", "scene_id": "s", "text": "t?", "answer": "a", "related_object_ids": [1]}\n'
            '{"question_id": "q2"}\n',
            encoding="utf-8",
        )
        with pytest.raises(SchemaError) as excinfo:
            read_questions(path)
        assert ":2" in str(excinfo.value)

    def test_blank_question_text_rejected(self, tmp_path):
        path = tmp_path / "questions.jsonl"
        path.write_text(
            '{"question_id": "q1", "scene_id": "s", "text": "t?", "answer": "a", "related_object_ids": [1]}\n'
            '{"question_id": "q2", "scene_id": "s", "text": "", "answer": "a", "related_object_ids": [1]}\n',
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=r"^.*questions\.jsonl:2\.text: must be non-empty$"):
            read_questions(path)

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError):
            question("q1", set())
