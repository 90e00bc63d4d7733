from __future__ import annotations

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
    ComposedQA,
    Dropped,
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
    def __init__(self):
        self.calls = 0

    def generate_text(self, prompt, max_tokens=256, temperature=0.0):
        self.calls += 1
        return "no json here {"


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
        stub = StubModelService(seed=7)
        first = compose_question(pair, stub, anchor_labels=["desk"])
        second = compose_question(pair, stub, anchor_labels=["desk"])
        assert isinstance(first, ComposedQA)
        assert first.question == (
            "Combining: Where is the waste basket near the desk | "
            "What is the chair in front of?"
        )
        assert first.answer == "right"
        assert first.question == second.question
        assert first.related_object_ids == {1, 2, 3}
        assert first.anchor_object_ids == {1}
        assert first.parent_question_ids == ("q1", "q2")

    def test_unparseable_reply_dropped_after_three_attempts(self):
        generator = _UnparseableGenerator()
        result = compose_question(self._pair(), generator, ["desk"])
        assert result == Dropped(parent_question_ids=("q1", "q2"), reason="parse_failure")
        assert generator.calls == 3

    def test_service_failure_propagates(self):
        with pytest.raises(ServiceUnavailable):
            compose_question(self._pair(), _FailingGenerator(), ["desk"])

    def test_json_embedded_in_prose_is_parsed(self):
        class Chatty:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                return 'Sure! {"question": "Which side?", "answer": "left"} Hope that helps.'

        result = compose_question(self._pair(), Chatty(), ["desk"])
        assert isinstance(result, ComposedQA)
        assert result.question == "Which side?"


class TestVerifyComposition:
    PARENTS = {"q1": question("q1", {1}), "q2": question("q2", {2})}

    def _record(self, question="What is combined here?", answer="a thing"):
        return ComposedQA(
            question_id="q1+q2",
            scene_id="s1",
            question=question,
            answer=answer,
            parent_question_ids=("q1", "q2"),
            anchor_object_ids=frozenset({1}),
            related_object_ids=frozenset({1, 2}),
        )

    def test_pass(self):
        assert verify_composition(self._record(), self.PARENTS) is None

    def test_combined_fixture_record_passes(self):
        record = self._record(
            question="What is on the right of the small desk where the wooden chair is in front of?",
            answer="waste basket",
        )
        assert verify_composition(record, self.PARENTS) is None

    def test_empty_answer(self):
        assert verify_composition(self._record(answer="  "), self.PARENTS) == "empty_answer"

    def test_overlong_answer(self):
        answer = " ".join(["word"] * 11)
        assert verify_composition(self._record(answer=answer), self.PARENTS) == "overlong_answer"

    def test_ten_token_answer_passes(self):
        assert verify_composition(self._record(answer=" ".join(["w"] * 10)), self.PARENTS) is None

    def test_missing_question_mark(self):
        record = self._record(question="no mark")
        assert verify_composition(record, self.PARENTS) == "missing_question_mark"

    @pytest.mark.parametrize("field", ["question", "answer"])
    def test_unencodable_text(self, field):
        record = self._record(**{field: "Which \ud800 one?"})
        assert verify_composition(record, self.PARENTS) == "unencodable_text"

    def test_degenerate_copy(self):
        parents = {
            "q1": question("q1", {1}, text="What is combined here?"),
            "q2": question("q2", {2}),
        }
        assert verify_composition(self._record(), parents) == "degenerate_copy"


class TestSynthesizeDataset:
    def test_fixture_pipeline(self, data_dir, scenes):
        questions = read_questions(data_dir / "questions.jsonl")
        stub = StubModelService(seed=7)
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
        records, _ = synthesize_dataset(questions, StubModelService(seed=7), scenes)
        for record in records:
            first, second = (by_id[p] for p in record.parent_question_ids)
            assert record.related_object_ids == first.related_object_ids | second.related_object_ids
            assert record.anchor_object_ids == first.related_object_ids & second.related_object_ids

    def test_deterministic_output(self, data_dir, scenes):
        questions = read_questions(data_dir / "questions.jsonl")
        run1, _ = synthesize_dataset(questions, StubModelService(seed=7), scenes)
        run2, _ = synthesize_dataset(questions, StubModelService(seed=7), scenes)
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

        monkeypatch.setattr(synthesis.WitnessTable, "build", spy)
        scene = SimpleNamespace(views=views, objects=objects)
        records, report = synthesize_dataset(questions, StubModelService(seed=7), {"s": scene})
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

    def test_overlong_answers_never_survive(self, data_dir, scenes):
        class Rambler:
            def generate_text(self, prompt, max_tokens=256, temperature=0.0):
                return '{"question": "Valid?", "answer": "' + "word " * 20 + '"}'

        questions = read_questions(data_dir / "questions.jsonl")
        records, report = synthesize_dataset(questions, Rambler(), scenes)
        assert records == []
        assert report.dropped == {"overlong_answer": 3}

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

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError):
            question("q1", set())
