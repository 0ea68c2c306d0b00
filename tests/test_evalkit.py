"""Metrics: accuracy/precision, MRR, Spearman's rho, analysis buckets."""

import itertools
import json

import numpy as np
import pytest

from medrank.corpus import Dataset
from medrank.errors import SchemaError
from medrank.evalkit import (
    Prediction,
    _average_ranks,
    accuracy_precision,
    analyze,
    evaluate,
    load_predictions,
    reciprocal_rank,
    save_bucket_csvs,
    save_predictions,
    save_report,
    prediction_from_scores,
    spearman_per_question,
    spearman_rho,
)

from conftest import make_candidate, make_question


class TestAccuracyPrecision:
    def test_all_correct(self):
        assert accuracy_precision([1, 0, 1], [1, 0, 1]) == (1.0, 1.0)

    def test_all_negative_predictions_give_zero_precision(self):
        accuracy, precision = accuracy_precision([0, 0, 0], [1, 0, 1])
        assert precision == 0.0
        assert accuracy == pytest.approx(1 / 3)

    def test_hand_counted_fixture(self):
        # TP=3, FP=1, 6 of 8 match
        predicted = [1, 1, 1, 1, 0, 0, 0, 0]
        actual = [1, 1, 1, 0, 0, 0, 1, 0]
        accuracy, precision = accuracy_precision(predicted, actual)
        assert accuracy == pytest.approx(0.75)
        assert precision == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            accuracy_precision([1], [1, 0])


def _ranked_dataset(scores_by_question):
    """One question per entry, its candidates in the given order, reference
    ranks 1..n and the given reference scores (>= 3 is relevant)."""
    return Dataset(
        split="validation",
        questions=tuple(
            make_question(
                qid,
                candidates=[
                    make_candidate(f"{qid}-{i}", reference_rank=i, reference_score=score)
                    for i, score in enumerate(scores, start=1)
                ],
            )
            for qid, scores in scores_by_question.items()
        ),
    )


def _in_dataset_order(dataset):
    """Each question's candidates ranked in file order, none marked relevant."""
    return [
        Prediction(q.question_id, tuple(c.answer_id for c in q.candidates), ())
        for q in dataset.questions
    ]


class TestMrr:
    def test_relevant_first_everywhere(self):
        dataset = _ranked_dataset({"q1": (4, 1), "q2": (3, 4)})
        assert evaluate(_in_dataset_order(dataset), dataset).mrr == 1.0

    def test_first_relevant_at_position_two(self):
        assert reciprocal_rank(["a", "b"], {"a": 0, "b": 1}) == 0.5

    def test_three_question_fixture(self):
        # q1 relevant first, q2 relevant second, q3 nothing relevant (RR 0)
        dataset = _ranked_dataset({"q1": (4, 1), "q2": (2, 3), "q3": (1, 2)})
        report = evaluate(_in_dataset_order(dataset), dataset)
        assert [q.reciprocal_rank for q in report.per_question] == [1.0, 0.5, 0.0]
        assert report.mrr == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_unknown_id_rejected(self):
        with pytest.raises(SchemaError):
            reciprocal_rank(["zz"], {"a": 1})

    def test_question_order_invariance(self):
        dataset = _ranked_dataset({"q1": (4, 1), "q2": (2, 3), "q3": (1, 2)})
        predictions = _in_dataset_order(dataset)
        assert evaluate(predictions[::-1], dataset) == evaluate(predictions, dataset)


class TestSpearman:
    def test_perfect_order(self):
        assert spearman_rho([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_two_elements(self):
        assert spearman_rho([1, 2], [2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_form_on_all_permutations(self):
        for n in range(2, 6):
            for perm in itertools.permutations(range(1, n + 1)):
                positions = list(range(1, n + 1))
                rho = spearman_rho(positions, list(perm))
                d2 = sum((p - r) ** 2 for p, r in zip(positions, perm))
                closed = 1 - 6 * d2 / (n * (n**2 - 1))
                assert rho == pytest.approx(closed, abs=1e-12)
                # second oracle: Pearson correlation of the rank vectors
                pearson = np.corrcoef(positions, perm)[0, 1]
                assert rho == pytest.approx(pearson, abs=1e-12)

    def test_reversal_negates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            ranks = rng.permutation(n) + 1
            forward = spearman_rho(np.arange(1, n + 1), ranks)
            backward = spearman_rho(np.arange(1, n + 1)[::-1], ranks)
            assert forward == pytest.approx(-backward, abs=1e-12)

    def test_tie_handling_average_ranks(self):
        # y has a tie; average ranks make the result well defined
        rho = spearman_rho([1, 2, 3, 4], [1, 2, 2, 3])
        assert -1.0 <= rho <= 1.0
        assert rho == pytest.approx(0.9486832980505138, abs=1e-9)

    def test_average_ranks_match_loop_reference(self):
        def reference(values):
            # Walk each tied run i..j of the stable sort; it gets (i + j) / 2 + 1.
            order = np.argsort(values, kind="stable")
            ranks = np.empty(len(values))
            i = 0
            while i < len(values):
                j = i
                while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(0)
        for n in range(12):
            for values in (rng.integers(0, n // 2 + 1, n).astype(float), rng.normal(size=n)):
                assert np.array_equal(_average_ranks(values), reference(values))

    def test_degenerate_cases_score_zero(self):
        assert spearman_rho([1], [1]) == 0.0
        assert spearman_rho([1, 2], [5, 5]) == 0.0

    def test_per_question_conventions(self):
        # fewer than two predicted-relevant answers -> 0
        assert spearman_per_question([], {"a": 1}) == 0.0
        assert spearman_per_question(["a"], {"a": 1}) == 0.0
        # reversed pair -> -1
        assert spearman_per_question(["b", "a"], {"a": 1, "b": 2}) == pytest.approx(
            -1.0
        )
        assert spearman_per_question(["a", "b"], {"a": 1, "b": 2}) == pytest.approx(
            1.0
        )


def _two_question_dataset():
    q1 = make_question(
        "q1",
        "first question",
        (
            make_candidate("q1-a", "Alpha.", "web", 1, 1, 4),
            make_candidate("q1-b", "Beta.", "web", 2, 2, 3),
            make_candidate("q1-c", "Gamma.", "nih", 3, 3, 1),
        ),
    )
    q2 = make_question(
        "q2",
        "second question",
        (
            make_candidate("q2-a", "Delta.", "web", 1, 1, 4),
            make_candidate("q2-b", "Epsilon.", "nih", 2, 2, 2),
        ),
    )
    return Dataset(split="validation", questions=(q1, q2))


class TestEvaluate:
    def test_hand_fixture(self):
        dataset = _two_question_dataset()
        predictions = [
            # q1: marks a and b relevant (correct), ranks them reversed
            Prediction("q1", ("q1-b", "q1-a", "q1-c"), ("q1-b", "q1-a")),
            # q2: marks only b relevant (one FP, one FN), b first
            Prediction("q2", ("q2-b", "q2-a"), ("q2-b",)),
        ]
        report = evaluate(predictions, dataset)
        # filtering: q1 3/3 correct; q2 0/2 correct
        assert report.accuracy == pytest.approx(3 / 5)
        # precision: predicted positive = {q1-a, q1-b, q2-b}, TP = 2
        assert report.precision == pytest.approx(2 / 3)
        # mrr: q1 first relevant at position 1; q2 at position 2
        assert report.mrr == pytest.approx((1.0 + 0.5) / 2)
        # rho: q1 reversed pair -> -1; q2 single predicted-relevant -> 0
        assert report.mean_rho == pytest.approx(-0.5)
        per = {q.question_id: q for q in report.per_question}
        assert per["q1"].rho == pytest.approx(-1.0)
        assert per["q2"].rho == 0.0
        assert per["q1"].n_valid == 2
        assert per["q2"].n_valid == 1
        # full-list rho: q1 ordering (b, a, c) vs ranks (2, 1, 3) -> 0.5
        assert per["q1"].rho_full == pytest.approx(0.5)

    def test_missing_prediction_rejected(self):
        dataset = _two_question_dataset()
        with pytest.raises(SchemaError, match="q2"):
            evaluate([Prediction("q1", ("q1-a", "q1-b", "q1-c"), ())], dataset)

    def test_perfect_predictions(self):
        dataset = _two_question_dataset()
        predictions = [
            Prediction("q1", ("q1-a", "q1-b", "q1-c"), ("q1-a", "q1-b")),
            Prediction("q2", ("q2-a", "q2-b"), ("q2-a",)),
        ]
        report = evaluate(predictions, dataset)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.mrr == 1.0
        # q2 has a single valid answer: contributes rho 0
        assert report.mean_rho == pytest.approx(0.5)


# q1's prediction made malformed: ``(ranking, relevant, the error)``.
MALFORMED_Q1 = {
    "unknown-id-in-both": (
        ("q1-a", "q1-b", "q1-c", "zz"), ("q1-a", "zz"), "ranking must list each of its 3"
    ),
    "unknown-relevant-id": (
        ("q1-a", "q1-b", "q1-c"), ("q1-a", "zz"), r"relevant ids \['zz'\] are not its"
    ),
    "ranking-cut-short": (("q1-a",), ("q1-a",), "ranking must list each of its 3"),
    "ranking-repeats-an-id": (
        ("q1-a", "q1-a", "q1-b"), ("q1-a",), "ranking must list each of its 3"
    ),
}


@pytest.mark.parametrize("judge", [evaluate, analyze])
@pytest.mark.parametrize("case", sorted(MALFORMED_Q1))
def test_malformed_prediction_names_the_question(judge, case):
    ranking, relevant, error = MALFORMED_Q1[case]
    predictions = [
        Prediction("q1", ranking, relevant),
        Prediction("q2", ("q2-a", "q2-b"), ("q2-a",)),
    ]
    with pytest.raises(SchemaError, match=f"^question 'q1': {error}"):
        judge(predictions, _two_question_dataset())


class TestAnalyze:
    def test_hand_tally(self):
        dataset = _two_question_dataset()
        predictions = [
            Prediction("q1", ("q1-a", "q1-b", "q1-c"), ("q1-a", "q1-b")),
            Prediction("q2", ("q2-b", "q2-a"), ("q2-b",)),
        ]
        buckets = analyze(predictions, dataset)

        recall = {r["reference_rank"]: r for r in buckets["recall_by_reference_rank"]}
        # valid answers: q1-a (rank 1), q1-b (rank 2), q2-a (rank 1)
        assert recall[1]["count"] == 2
        assert recall[1]["recall"] == pytest.approx(0.5)  # q1-a hit, q2-a missed
        assert recall[2]["count"] == 1
        assert recall[2]["recall"] == 1.0

        lengths = buckets["accuracy_by_sentence_count"]
        assert [row["bucket"] for row in lengths] == ["1-10"]
        assert lengths[0]["count"] == 5
        assert lengths[0]["accuracy"] == pytest.approx(3 / 5)

        by_valid = {r["valid_answers"]: r for r in buckets["by_valid_answer_count"]}
        assert by_valid[2]["count"] == 1
        assert by_valid[2]["mean_rho"] == pytest.approx(1.0)
        assert by_valid[1]["count"] == 1
        assert by_valid[1]["mean_rho"] == 0.0  # single-valid bucket pins rho at 0
        assert by_valid[1]["accuracy"] == 0.0

    def test_all_correct_preserves_counts(self):
        dataset = _two_question_dataset()
        predictions = [
            Prediction("q1", ("q1-a", "q1-b", "q1-c"), ("q1-a", "q1-b")),
            Prediction("q2", ("q2-a", "q2-b"), ("q2-a",)),
        ]
        buckets = analyze(predictions, dataset)
        for row in buckets["recall_by_reference_rank"]:
            assert row["recall"] == 1.0
        total = sum(r["count"] for r in buckets["accuracy_by_sentence_count"])
        assert total == 5
        assert sum(r["count"] for r in buckets["by_valid_answer_count"]) == 2

    def test_valid_count_table_matches_evaluate(self):
        dataset = _ranked_dataset(
            {"q1": (4, 3, 1), "q2": (3, 4, 2), "q3": (2, 4), "q4": (1, 2), "q5": (4, 3, 4)}
        )
        predictions = [
            Prediction("q1", ("q1-2", "q1-1", "q1-3"), ("q1-2", "q1-1")),  # rho -1
            Prediction("q2", ("q2-1", "q2-2", "q2-3"), ("q2-1", "q2-2", "q2-3")),  # one FP
            Prediction("q3", ("q3-2", "q3-1"), ("q3-2",)),
            Prediction("q4", ("q4-1", "q4-2"), ("q4-1",)),  # no valid answer, one FP
            Prediction("q5", ("q5-1", "q5-3", "q5-2"), ("q5-1", "q5-3")),  # one FN
        ]
        report = evaluate(predictions, dataset)
        grouped = {}
        for q in report.per_question:
            grouped.setdefault(q.n_valid, []).append(q)
        assert sorted(grouped) == [0, 1, 2, 3]
        rows = {r["valid_answers"]: r for r in analyze(predictions, dataset)["by_valid_answer_count"]}
        assert sorted(rows) == sorted(grouped)
        for n, questions in grouped.items():
            assert rows[n]["count"] == len(questions)
            assert rows[n]["mean_rho"] == float(np.mean([q.rho for q in questions]))
            ids = {q.question_id for q in questions}
            subset = Dataset("validation", tuple(q for q in dataset.questions if q.question_id in ids))
            sub_report = evaluate([p for p in predictions if p.question_id in ids], subset)
            assert rows[n]["accuracy"] == sub_report.accuracy
        assert {n: rows[n]["accuracy"] for n in rows} == {0: 1 / 2, 1: 1.0, 2: 5 / 6, 3: 2 / 3}

    def test_csv_emission(self, tmp_path):
        dataset = _two_question_dataset()
        predictions = [
            Prediction("q1", ("q1-a", "q1-b", "q1-c"), ("q1-a",)),
            Prediction("q2", ("q2-a", "q2-b"), ("q2-a",)),
        ]
        buckets = analyze(predictions, dataset)
        written = save_bucket_csvs(buckets, tmp_path)
        assert sorted(p.name for p in written) == [
            "accuracy_by_sentence_count.csv",
            "by_valid_answer_count.csv",
            "recall_by_reference_rank.csv",
        ]
        header = written[0].read_text().splitlines()[0]
        assert "count" in header


class TestPredictionFromScores:
    def test_ranks_by_score_then_system_rank(self):
        question = make_question(
            candidates=[
                make_candidate("a", system_rank=2, reference_rank=1),
                make_candidate("b", system_rank=3, reference_rank=2),
                make_candidate("c", system_rank=1, reference_rank=3),
            ]
        )
        prediction = prediction_from_scores(
            question, np.array([0.5, 0.9, 0.5]), np.array([0.5, 0.49, 0.7])
        )
        assert prediction == Prediction(
            "q1", ("b", "c", "a"), ("c", "a"), {"a": 0.5, "b": 0.9, "c": 0.5}
        )
        assert all(type(v) is float for v in prediction.scores.values())


class TestPersistence:
    def test_predictions_roundtrip(self, tmp_path):
        predictions = [
            Prediction("q1", ("a", "b"), ("a",), {"a": 1.5, "b": 0.25}),
            Prediction("q2", ("c",), (), None),
        ]
        path = tmp_path / "preds.jsonl"
        save_predictions(predictions, path)
        assert load_predictions(path) == predictions

    def test_empty_scores_load_as_none(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"question_id": "q", "ranking": ["a"], "relevant": []}\n'
                        '{"question_id": "r", "ranking": ["b"], "relevant": [], "scores": {}}\n')
        assert [p.scores for p in load_predictions(path)] == [None, None]

    def test_duplicate_question_id_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"question_id": "q", "ranking": ["a", "b"], "relevant": ["a"]}\n'
                        '{"question_id": "r", "ranking": ["c"], "relevant": []}\n'
                        '{"question_id": "q", "ranking": ["b", "a"], "relevant": []}\n')
        with pytest.raises(SchemaError, match=r"preds\.jsonl:3: duplicate question_id 'q'"):
            load_predictions(path)

    @pytest.mark.parametrize(
        "scores", ['"abc"', "null", "[0.5]", '{"a": true}', '{"a": "0.5"}', '{"a": NaN}',
                   '{"a": Infinity}', '{"a": 1e999}', '{"a": {"b": 1}}']
    )
    def test_bad_scores_rejected(self, tmp_path, scores):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            f'{{"question_id": "q", "ranking": ["a"], "relevant": [], "scores": {scores}}}\n'
        )
        with pytest.raises(SchemaError, match=r"preds\.jsonl:1: scores must map"):
            load_predictions(path)

    def test_report_serialization(self, tmp_path):
        dataset = _two_question_dataset()
        predictions = [
            Prediction("q1", ("q1-a", "q1-b", "q1-c"), ("q1-a",)),
            Prediction("q2", ("q2-a", "q2-b"), ("q2-a",)),
        ]
        report = evaluate(predictions, dataset)
        path = tmp_path / "report.json"
        save_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["accuracy"] == report.accuracy
        assert len(payload["per_question"]) == 2
