from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview._util import percent
from egoview.errors import DuplicateId, DuplicatePrediction, MissingGold, SchemaError
from egoview.evaluate import (
    GoldAnswer,
    Prediction,
    em_score,
    normalize_answer,
    read_gold,
    read_predictions,
)


_ANSWERS = st.sampled_from(["red", "Red.", " two ", "blue", "left side"])


@st.composite
def _gold_and_predictions(draw):
    """Gold answers with distinct ids and drawn view counts, and predictions
    for a drawn subset of them."""
    ids = draw(st.lists(st.integers(0, 50), unique=True, max_size=30))
    gold = [GoldAnswer(f"g{i}", draw(_ANSWERS), draw(st.none() | st.integers(1, 6))) for i in ids]
    predicted = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    return gold, [Prediction(f"g{i}", draw(_ANSWERS)) for i in predicted]


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (" On the Right Side. ", "on the right side"),
            ("waste basket", "waste basket"),
            ("Waste  Basket", "waste basket"),
            ("TWO", "two"),
            ("two\tchairs", "two chairs"),
            ("yes!", "yes"),
            ("really?", "really"),
            ("wait...", "wait"),
            ("what ?", "what"),
            ("St. Paul", "st. paul"),
            ("ﬁre alarm", "fire alarm"),  # NFKC folds the ligature
            ("ｄｅｓｋ", "desk"),  # full-width letters
            ("½ meter", "1⁄2 meter"),
            ("", ""),
            ("   ", ""),
            ("?", ""),
            ("a  b   c", "a b c"),
            ("The desk", "the desk"),  # articles preserved
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text(max_size=60))
    @settings(max_examples=400)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestEmScore:
    def _gold(self):
        return [
            GoldAnswer("g1", "red", 1),
            GoldAnswer("g2", "on right side", 2),
            GoldAnswer("g3", "two", 2),
            GoldAnswer("g4", "waste basket", 3),
        ]

    def _preds(self):
        return [
            Prediction("g1", "Red."),
            Prediction("g2", "left side"),
            Prediction("g3", " two "),
            Prediction("g4", "Waste  Basket"),
        ]

    def test_arithmetic(self):
        report = em_score(self._preds(), self._gold())
        assert report.overall_em == 75.0
        assert report.per_bucket_em == {"1": 100.0, "2": 50.0, "3": 100.0}
        assert report.bucket_counts == {"1": 1, "2": 2, "3": 1}
        assert report.total == 4
        assert report.missing_predictions == 0

    def test_exact_equality_pre_normalization(self):
        report = em_score([Prediction("g", "waste basket")], [GoldAnswer("g", "waste basket")])
        assert report.overall_em == 100.0

    def test_unknown_question_id(self):
        with pytest.raises(MissingGold):
            em_score([Prediction("ghost", "x")], self._gold())

    def test_duplicate_prediction(self):
        preds = [Prediction("g1", "a"), Prediction("g1", "b")]
        with pytest.raises(DuplicatePrediction):
            em_score(preds, self._gold())

    def test_duplicate_gold(self):
        with pytest.raises(DuplicateId):
            em_score([], [GoldAnswer("g", "a"), GoldAnswer("g", "b")])

    def test_permutation_invariance(self):
        forward = em_score(self._preds(), self._gold())
        backward = em_score(list(reversed(self._preds())), self._gold())
        assert forward.overall_em == backward.overall_em
        assert forward.per_bucket_em == backward.per_bucket_em

    def test_overall_is_weighted_bucket_mean(self):
        report = em_score(self._preds(), self._gold())
        weighted = sum(
            report.per_bucket_em[b] * report.bucket_counts[b] for b in report.per_bucket_em
        ) / report.total
        assert report.overall_em == pytest.approx(weighted, abs=0.05)

    def test_missing_prediction_scores_zero(self):
        report = em_score([Prediction("g1", "red")], self._gold())
        assert report.missing_predictions == 3
        assert report.overall_em == 25.0

    def test_unbucketed_gold(self):
        report = em_score([Prediction("g", "x")], [GoldAnswer("g", "x")])
        assert report.per_bucket_em == {"unbucketed": 100.0}

    def test_four_plus_bucket(self):
        report = em_score([Prediction("g", "x")], [GoldAnswer("g", "x", min_views=6)])
        assert report.per_bucket_em == {"4+": 100.0}

    @given(case=_gold_and_predictions())
    @settings(max_examples=200, deadline=None)
    def test_bucket_tally_matches_a_direct_recount(self, case):
        gold, preds = case
        report = em_score(preds, gold)
        assert sum(report.bucket_counts.values()) == report.total == len(gold)
        present = {item.bucket for item in gold}
        order = ("1", "2", "3", "4+", "unbucketed")
        assert list(report.bucket_counts) == [b for b in order if b in present]
        predicted = {pred.question_id: normalize_answer(pred.prediction) for pred in preds}
        for bucket, count in report.bucket_counts.items():
            items = [item for item in gold if item.bucket == bucket]
            hits = sum(predicted.get(g.question_id) == normalize_answer(g.answer) for g in items)
            assert count == len(items)
            assert report.per_bucket_em[bucket] == percent(hits, count)

    def test_report_flags_normalization_policy(self):
        payload = em_score(self._preds(), self._gold()).to_dict()
        assert payload["articles"] == "preserved"
        assert payload["normalization"]


class TestEvalIO:
    def test_fixture_round_trip(self, data_dir):
        gold = read_gold(data_dir / "eval_gold.jsonl")
        preds = read_predictions(data_dir / "eval_pred.jsonl")
        report = em_score(preds, gold)
        assert report.overall_em == 75.0

    def test_duplicate_prediction_on_read(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text(
            '{"question_id": "g1", "prediction": "a"}\n'
            '{"question_id": "g1", "prediction": "b"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DuplicatePrediction) as excinfo:
            read_predictions(path)
        assert str(excinfo.value) == f"{path}:2: id 'g1' already used at {path}:1"

    def test_composed_output_works_as_gold(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"record": "provenance", "seed": 7}\n'
            '{"question_id": "q01+q02", "scene_id": "s", "question": "Q?", "answer": "waste basket", "min_views": 2}\n',
            encoding="utf-8",
        )
        gold = read_gold(path)
        assert gold[0].bucket == "2"
        assert gold[0].answer == "waste basket"

    @pytest.mark.parametrize("min_views", [0, -2])
    def test_min_views_below_one_rejected(self, tmp_path, min_views):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"question_id": "g1", "answer": "a", "min_views": 1}\n'
            f'{{"question_id": "g2", "answer": "b", "min_views": {min_views}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(SchemaError) as excinfo:
            read_gold(path)
        assert excinfo.value.field == f"{path}:2.min_views"
        assert excinfo.value.reason == f"must be at least 1, got {min_views}"

    def test_null_min_views_is_unbucketed(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"question_id": "g1", "answer": "a", "min_views": null}\n'
            '{"question_id": "g2", "answer": "b"}\n',
            encoding="utf-8",
        )
        assert [g.bucket for g in read_gold(path)] == ["unbucketed", "unbucketed"]
