"""Exact-match QA evaluation with answer normalization.

Normalization: Unicode NFKC, lowercase, trim, collapse internal whitespace,
then strip trailing '.', '?' and '!' characters (repeatedly, so the function
is idempotent).  Articles ("a", "an", "the") are preserved; every report
flags that choice so scores stay comparable.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Sequence

from ._util import percent
from .errors import DuplicateId, DuplicatePrediction, MissingGold
from .records import BUCKETS, at_least_one, bucket_counts, check_rules, read_records, record_field
from .records import view_bucket

NORMALIZATION_VERSION = "nfkc-lower-ws-trailpunct-v1"
ARTICLES_POLICY = "preserved"

_TRAILING_PUNCT = ".?!"


@dataclass(frozen=True)
class Prediction:
    question_id: str = record_field("text", duplicate=DuplicatePrediction)
    prediction: str = record_field("text")


@dataclass(frozen=True)
class GoldAnswer:
    """A gold answer with an optional minimum-view count for bucketing."""

    question_id: str = record_field("text")
    answer: str = record_field("text")
    min_views: int | None = record_field("integer or null", at_least_one, default=None)

    def __post_init__(self):
        check_rules(self)

    @property
    def bucket(self) -> str:
        if self.min_views is None:
            return "unbucketed"
        return view_bucket(self.min_views)


@dataclass
class EvalReport:
    """Overall and per-view-count exact-match percentages."""

    overall_em: float
    per_bucket_em: dict[str, float]
    bucket_counts: dict[str, int]
    total: int
    missing_predictions: int

    def to_dict(self) -> dict:
        return {
            "record": "eval_report",
            "overall_em": self.overall_em,
            "per_bucket_em": self.per_bucket_em,
            "bucket_counts": self.bucket_counts,
            "total": self.total,
            "missing_predictions": self.missing_predictions,
            "normalization": NORMALIZATION_VERSION,
            "articles": ARTICLES_POLICY,
        }


def normalize_answer(text: str) -> str:
    """Canonical answer form; idempotent by construction."""
    t = unicodedata.normalize("NFKC", text).lower().strip()
    t = " ".join(t.split())
    while t and t[-1] in _TRAILING_PUNCT:
        t = t[:-1].rstrip()
    return t


def em_score(
    predictions: Sequence[Prediction],
    gold: Sequence[GoldAnswer],
) -> EvalReport:
    """Exact match after normalization, aggregated overall and per bucket.

    Every prediction must reference a known gold question id and ids must be
    unique; gold items with no prediction score 0 and are counted in
    missing_predictions.  Percentages are rounded half-up to one decimal.
    """
    gold_by_id: dict[str, GoldAnswer] = {}
    for item in gold:
        if item.question_id in gold_by_id:
            raise DuplicateId(f"duplicate gold question id {item.question_id!r}")
        gold_by_id[item.question_id] = item

    pred_by_id: dict[str, str] = {}
    for pred in predictions:
        if pred.question_id not in gold_by_id:
            raise MissingGold(f"prediction for unknown question id {pred.question_id!r}")
        if pred.question_id in pred_by_id:
            raise DuplicatePrediction(f"duplicate prediction for {pred.question_id!r}")
        pred_by_id[pred.question_id] = pred.prediction

    hit = [
        item.question_id in pred_by_id
        and normalize_answer(pred_by_id[item.question_id]) == normalize_answer(item.answer)
        for item in gold
    ]
    order = (*BUCKETS[:4], "unbucketed")
    counts = bucket_counts((item.bucket for item in gold), order)
    hits = bucket_counts((item.bucket for item, ok in zip(gold, hit) if ok), order)
    present = [bucket for bucket in order if counts[bucket]]
    return EvalReport(
        overall_em=percent(sum(hit), len(gold)),
        per_bucket_em={b: percent(hits[b], counts[b]) for b in present},
        bucket_counts={b: counts[b] for b in present},
        total=len(gold),
        missing_predictions=len(gold) - len(pred_by_id),
    )


def read_predictions(path) -> list[Prediction]:
    """Read the prediction lines of a JSONL file (see `records.read_records`)."""
    return read_records(path, Prediction)


def read_gold(path) -> list[GoldAnswer]:
    """Read gold answers (see `records.read_records`); composed questions are gold."""
    return read_records(path, GoldAnswer)
