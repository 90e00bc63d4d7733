"""Compositional question synthesis: pair single-view questions that share an
object anchor, then have a text generator weave each pair into one new
question whose answer needs information from both parents.  Each pair takes
one pass: its view count, its generation, its verification, then either one
drop or one record."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .records import _claim_id, _encodable, at_least_one, check_rules, non_empty, read_records
from .records import loads, record_field
from .scene import Scene
from .solvability import WitnessConfig, witness_tables

logger = logging.getLogger(__name__)

COMPOSE_MARKER = "[task:compose-qa]"
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
    text: str = record_field("text", non_empty)
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

    @property
    def parent_ids(self) -> tuple[str, str]:
        return (self.first.question_id, self.second.question_id)


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


@dataclass
class SynthesisReport:
    """Pipeline accounting: what went in, what survived, what was dropped and why."""

    pairs_considered: int
    composed: int
    dropped: dict[str, int]
    exact_duplicate_questions: int

    def to_dict(self) -> dict:
        return {
            "pairs_considered": self.pairs_considered,
            "composed": self.composed,
            "dropped": {k: self.dropped[k] for k in sorted(self.dropped)},
            "exact_duplicate_questions": self.exact_duplicate_questions,
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
    """Extract (question, answer) from a generator reply, or None; a reply
    `json.loads` refuses (nested too deep included) is unparseable."""
    candidates = [text]
    match = _JSON_BLOCK_RE.search(text)
    if match and match.group(0) != text:
        candidates.append(match.group(0))
    for candidate in candidates:
        try:
            data = loads(candidate)
        except (ValueError, RecursionError):
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
) -> tuple[str, str] | None:
    """The (question, answer) a generator composes from a pair, retrying on
    parse failure; None after MAX_GENERATION_ATTEMPTS unparseable replies.
    Transport failures (ServiceUnavailable) propagate."""
    prompt = build_compose_prompt(pair, anchor_labels)
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        reply = generator.generate_text(prompt, max_tokens=MAX_TOKENS, temperature=TEMPERATURE)
        parsed = _parse_generation(reply)
        if parsed is not None:
            return parsed
        logger.debug("unparseable generation for %s (attempt %d)", pair.parent_ids, attempt + 1)
    return None


def verify_composition(question: str, answer: str, pair: CandidatePair) -> str | None:
    """Structural verification; returns None on pass, else the failure reason.

    Checks the question ends with '?', the answer is non-empty and at most
    ANSWER_TOKEN_LIMIT tokens, neither holds a lone surrogate (which no
    output could encode), and the question is not a verbatim copy of the
    text of either of the pair's parents.
    """
    if not question.endswith("?"):
        return "missing_question_mark"
    if not answer.strip():
        return "empty_answer"
    if len(answer.split()) > ANSWER_TOKEN_LIMIT:
        return "overlong_answer"
    if not (_encodable(question) and _encodable(answer)):
        return "unencodable_text"
    if question in (pair.first.text, pair.second.text):
        return "degenerate_copy"
    return None


def synthesize_dataset(
    questions: Sequence[QuestionRecord],
    generator,
    scenes_by_id: Mapping[str, Scene],
) -> tuple[list[ComposedQA], SynthesisReport]:
    """Run pairing, then one pass per pair: count, compose, verify, keep or drop.

    A pair's count is the minimum number of views witnessing the union of
    both parents' object sets, which the pair alone fixes, on one witness
    table per scene over the objects its questions reference.  A pair whose
    replies never parse ('parse_failure') or that fails verification is
    dropped with that reason; any other becomes one record carrying its
    count.  Before any generation, a question naming a scene that is not
    loaded or ids not in it raises UnknownScene or UnknownObjectId, and two
    pairs composing one id raise DuplicateId, naming them.  Output order
    follows the sorted pair order, so identical inputs give identical bytes.
    """
    tables = witness_tables(questions, scenes_by_id, "question", WitnessConfig())
    label_of = {
        scene_id: dict(zip(table.objects.ids, table.objects.labels))
        for scene_id, table in tables.items()
    }
    pairs = eligible_pairs(questions)
    ids = ["+".join(pair.parent_ids) for pair in pairs]
    if len(set(ids)) < len(ids):  # name the first repeat before any generator call
        seen: dict[str, str] = {}
        for pair, composed_id in zip(pairs, ids):
            _claim_id(seen, composed_id, f"pair {pair.parent_ids}")

    records: list[ComposedQA] = []
    dropped: dict[str, int] = {}
    for pair, composed_id in zip(pairs, ids):
        scene_id = pair.first.scene_id
        related = pair.first.related_object_ids | pair.second.related_object_ids
        req = tables[scene_id].min_view_count(related)
        anchor_labels = sorted({label_of[scene_id][oid] for oid in pair.shared_anchor_ids})
        parsed = compose_question(pair, generator, anchor_labels)
        reason = "parse_failure" if parsed is None else verify_composition(*parsed, pair)
        if reason is not None:
            dropped[reason] = dropped.get(reason, 0) + 1
            logger.info("dropped pair %s: %s", pair.parent_ids, reason)
            continue
        records.append(
            ComposedQA(
                question_id=composed_id,
                scene_id=scene_id,
                question=parsed[0],
                answer=parsed[1],
                parent_question_ids=pair.parent_ids,
                anchor_object_ids=pair.shared_anchor_ids,
                related_object_ids=related,
                min_views=req.n,
                solver=req.solver,
            )
        )

    return records, SynthesisReport(
        pairs_considered=len(pairs),
        composed=len(records),
        dropped=dropped,
        exact_duplicate_questions=len(records) - len({r.question for r in records}),
    )


def read_questions(path) -> list[QuestionRecord]:
    """Read the question lines of a JSONL file (see `records.read_records`)."""
    return read_records(path, QuestionRecord)
