"""Compositional question synthesis: pair single-view questions that share an
object anchor, then have a text generator weave each pair into one new
question whose answer needs information from both parents."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .records import _encodable, at_least_one, check_rules, non_empty, read_records, record_field
from .scene import Scene
from .services import COMPOSE_MARKER
from .solvability import WitnessConfig, WitnessTable, referenced_objects

logger = logging.getLogger(__name__)

PROMPT_VERSION = "compose-qa-v1"
ANSWER_TOKEN_LIMIT = 10
MAX_GENERATION_ATTEMPTS = 3
MAX_TOKENS = 256
TEMPERATURE = 0.0

_JSON_BLOCK_RE = re.compile(r"\{.*\}", re.DOTALL)


@dataclass(eq=False)
class QuestionRecord:
    """A single-scene question with the set of object ids it depends on."""

    question_id: str = record_field("text")
    scene_id: str = record_field("text")
    text: str = record_field("text")
    answer: str = record_field("text", non_empty)
    related_object_ids: frozenset[int] = record_field("integer list", non_empty)

    def __post_init__(self):
        self.related_object_ids = frozenset(self.related_object_ids)
        check_rules(self)


@dataclass(eq=False)
class CandidatePair:
    """Two same-scene questions with intersecting, non-nested anchor sets."""

    first: QuestionRecord
    second: QuestionRecord
    shared_anchor_ids: frozenset[int]


@dataclass(eq=False)
class ComposedQA:
    """A synthesized question over both parents' object sets, and its view count."""

    question_id: str = record_field("text")
    scene_id: str = record_field("text")
    question: str = record_field("text")
    answer: str = record_field("text")
    parent_question_ids: tuple[str, ...] = record_field("text list")
    anchor_object_ids: frozenset[int] = record_field("integer list")
    related_object_ids: frozenset[int] = record_field("integer list")
    min_views: int | None = record_field("integer or null", at_least_one, default=None)
    solver: str | None = record_field("text or null", default=None)

    def __post_init__(self):
        check_rules(self)


@dataclass(frozen=True)
class Dropped:
    """A pair that produced no usable record, with the reason why."""

    parent_question_ids: tuple[str, str]
    reason: str


@dataclass
class SynthesisReport:
    """Pipeline accounting: what went in, what survived, what was dropped and why."""

    pairs_considered: int = 0
    composed: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    exact_duplicate_questions: int = 0
    config_hash: str = ""

    def note_drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "pairs_considered": self.pairs_considered,
            "composed": self.composed,
            "dropped": {k: self.dropped[k] for k in sorted(self.dropped)},
            "exact_duplicate_questions": self.exact_duplicate_questions,
            "prompt_version": PROMPT_VERSION,
            "config_hash": self.config_hash,
        }


def eligible_pairs(questions: Sequence[QuestionRecord]) -> list[CandidatePair]:
    """All unordered same-scene pairs whose anchor sets intersect without nesting.

    Pairs are ordered (first, second) by question_id and the output is sorted
    by (scene_id, first id, second id).
    """
    by_scene: dict[str, list[QuestionRecord]] = {}
    for q in questions:
        by_scene.setdefault(q.scene_id, []).append(q)
    pairs = []
    for scene_id in sorted(by_scene):
        group = sorted(by_scene[scene_id], key=lambda q: q.question_id)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = group[i], group[j]
                shared = a.related_object_ids & b.related_object_ids
                if not shared:
                    continue
                if a.related_object_ids <= b.related_object_ids:
                    continue
                if b.related_object_ids <= a.related_object_ids:
                    continue
                pairs.append(CandidatePair(first=a, second=b, shared_anchor_ids=shared))
    return pairs


def build_compose_prompt(pair: CandidatePair, anchor_labels: Sequence[str]) -> str:
    """Prompt embedding both parents and the two composition directives."""
    return (
        f"{COMPOSE_MARKER} version={PROMPT_VERSION}\n"
        f"Parent question 1: {pair.first.text}\n"
        f"Parent answer 1: {pair.first.answer}\n"
        f"Parent question 2: {pair.second.text}\n"
        f"Parent answer 2: {pair.second.answer}\n"
        f"Shared objects: {', '.join(anchor_labels)}\n"
        "Write one new question that integrates the informational requirements of "
        "both parent questions, so that answering it needs everything both parents "
        "ask about. The question must be clearly stated and must have a single, "
        "accurate, unambiguous, definitive short answer.\n"
        'Reply with exactly one JSON object: {"question": "...", "answer": "..."}\n'
    )


def _parse_generation(text: str) -> tuple[str, str] | None:
    """Extract (question, answer) from a generator reply, or None."""
    candidates = [text]
    match = _JSON_BLOCK_RE.search(text)
    if match and match.group(0) != text:
        candidates.append(match.group(0))
    for candidate in candidates:
        try:
            data = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        if (
            isinstance(data, dict)
            and isinstance(data.get("question"), str)
            and isinstance(data.get("answer"), str)
        ):
            return data["question"], data["answer"]
    return None


def compose_question(
    pair: CandidatePair, generator, anchor_labels: Sequence[str]
) -> ComposedQA | Dropped:
    """Generate one composed question from a pair, retrying on parse failure.

    Transport failures (ServiceUnavailable) propagate; persistent unparseable
    replies drop the pair with reason 'parse_failure'.
    """
    parent_ids = (pair.first.question_id, pair.second.question_id)
    prompt = build_compose_prompt(pair, anchor_labels)
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        reply = generator.generate_text(prompt, max_tokens=MAX_TOKENS, temperature=TEMPERATURE)
        parsed = _parse_generation(reply)
        if parsed is None:
            logger.debug("unparseable generation for %s (attempt %d)", parent_ids, attempt + 1)
            continue
        question, answer = parsed
        return ComposedQA(
            question_id=f"{parent_ids[0]}+{parent_ids[1]}",
            scene_id=pair.first.scene_id,
            question=question,
            answer=answer,
            parent_question_ids=parent_ids,
            anchor_object_ids=pair.shared_anchor_ids,
            related_object_ids=pair.first.related_object_ids | pair.second.related_object_ids,
        )
    return Dropped(parent_question_ids=parent_ids, reason="parse_failure")


def verify_composition(
    record: ComposedQA, parents_by_id: Mapping[str, QuestionRecord]
) -> str | None:
    """Structural verification; returns None on pass, else the failure reason.

    Checks the question ends with '?', the answer is non-empty and at most
    ANSWER_TOKEN_LIMIT tokens, neither holds a lone surrogate (which no
    output could encode), and the question is not a verbatim copy of
    either parent, looked up in `parents_by_id`.
    """
    if not record.question.endswith("?"):
        return "missing_question_mark"
    if not record.answer.strip():
        return "empty_answer"
    if len(record.answer.split()) > ANSWER_TOKEN_LIMIT:
        return "overlong_answer"
    if not (_encodable(record.question) and _encodable(record.answer)):
        return "unencodable_text"
    if any(record.question == parents_by_id[p].text for p in record.parent_question_ids):
        return "degenerate_copy"
    return None


def synthesize_dataset(
    questions: Sequence[QuestionRecord],
    generator,
    scenes_by_id: Mapping[str, Scene],
    config_hash: str = "",
) -> tuple[list[ComposedQA], SynthesisReport]:
    """Run pairing -> composition -> verification -> view-count annotation.

    Surviving records are annotated with the minimum number of views needed
    to witness the union of both parents' object sets, counted on one
    witness table per scene over the objects its questions reference.  A
    question whose scene is not loaded or whose ids are not in that scene
    raises UnknownScene or UnknownObjectId naming it, before any generation.
    Output order follows the sorted pair order, so identical inputs give
    identical bytes.
    """
    tables = {  # one per scene, for this call only
        scene_id: WitnessTable.build(objects, scenes_by_id[scene_id].views, WitnessConfig())
        for scene_id, objects in referenced_objects(questions, scenes_by_id, "question").items()
    }
    label_of = {
        scene_id: dict(zip(table.objects.ids, table.objects.labels))
        for scene_id, table in tables.items()
    }
    parents_by_id = {q.question_id: q for q in questions}
    report = SynthesisReport(config_hash=config_hash)
    pairs = eligible_pairs(questions)
    report.pairs_considered = len(pairs)

    records: list[ComposedQA] = []
    for pair in pairs:
        labels = label_of[pair.first.scene_id]
        anchor_labels = sorted({labels[oid] for oid in pair.shared_anchor_ids})
        result = compose_question(pair, generator, anchor_labels)
        if isinstance(result, Dropped):
            report.note_drop(result.reason)
            logger.info("dropped pair %s: %s", result.parent_question_ids, result.reason)
            continue
        reason = verify_composition(result, parents_by_id)
        if reason is not None:
            report.note_drop(reason)
            logger.info("dropped pair %s: %s", result.parent_question_ids, reason)
            continue
        req = tables[pair.first.scene_id].min_view_count(result.related_object_ids)
        result.min_views, result.solver = req.n, req.solver
        records.append(result)

    report.composed = len(records)
    seen_questions: set[str] = set()
    for record in records:
        if record.question in seen_questions:
            report.exact_duplicate_questions += 1
        seen_questions.add(record.question)
    return records, report


def read_questions(path) -> list[QuestionRecord]:
    """Read the question lines of a JSONL file (see `records.read_records`)."""
    return read_records(path, QuestionRecord)
