"""Filtering and ranking metrics plus error-analysis breakdowns.

Filtering is scored with accuracy and precision; ranking with mean
reciprocal rank and per-question Spearman's rho. The primary rho is taken
over the answers the system marked relevant (predicted position vs reference
rank restricted to that set, average ranks for ties); a question with fewer
than two such answers contributes 0. A secondary "full-list" rho over every
candidate is reported alongside.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, QuestionRecord, derive_label
from .errors import SchemaError, read_jsonl
from .preprocess import split_sentences

SENTENCE_BUCKETS = [(1, 10), (11, 20), (21, 30), (31, 40), (41, 50), (51, 60), (61, 70), (71, 80)]


@dataclass(frozen=True)
class Prediction:
    """One question's system output: full ranking plus the relevant subset."""

    question_id: str
    ranking: tuple[str, ...]
    relevant: tuple[str, ...]
    scores: dict[str, float] | None = None


def rank_by_scores(
    answer_ids: list[str], scores: np.ndarray, system_ranks: list[int]
) -> list[str]:
    """Sort answer ids by score descending, ties by ascending system rank."""
    order = sorted(
        range(len(answer_ids)), key=lambda i: (-scores[i], system_ranks[i])
    )
    return [answer_ids[i] for i in order]


def prediction_from_scores(
    question: QuestionRecord, scores: np.ndarray, relevance: np.ndarray
) -> Prediction:
    """The prediction that ranks ``question``'s candidates by ``scores`` (see
    ``rank_by_scores``) and marks relevant those whose ``relevance`` is >= 0.5;
    both arrays follow the candidates' order."""
    ids = [c.answer_id for c in question.candidates]
    ranking = rank_by_scores(ids, scores, [c.system_rank for c in question.candidates])
    relevant = {a for a, r in zip(ids, relevance) if r >= 0.5}
    return Prediction(
        question_id=question.question_id,
        ranking=tuple(ranking),
        relevant=tuple(a for a in ranking if a in relevant),
        scores={a: float(s) for a, s in zip(ids, scores)},
    )


@dataclass(frozen=True)
class QuestionEval:
    question_id: str
    rho: float
    rho_full: float
    reciprocal_rank: float
    n_valid: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision: float
    mrr: float
    mean_rho: float
    mean_rho_full: float
    per_question: tuple[QuestionEval, ...]
    buckets: dict | None = None


def accuracy_precision(
    predicted: list[int], actual: list[int]
) -> tuple[float, float]:
    """Accuracy and class-1 precision; precision is 0 when nothing is predicted 1."""
    if len(predicted) != len(actual):
        raise SchemaError("label lists must be the same length")
    if not predicted:
        raise SchemaError("label lists must be non-empty")
    pred = np.asarray(predicted)
    act = np.asarray(actual)
    accuracy = float((pred == act).mean())
    positives = int((pred == 1).sum())
    if positives == 0:
        return accuracy, 0.0
    tp = int(((pred == 1) & (act == 1)).sum())
    return accuracy, tp / positives


def reciprocal_rank(ranking: list[str], labels: dict[str, int]) -> float:
    """1 / position of the first relevant answer; 0 if none relevant or ranked."""
    for aid in ranking:
        if aid not in labels:
            raise SchemaError(f"ranking contains unknown answer id {aid!r}")
    for position, aid in enumerate(ranking, start=1):
        if labels[aid] == 1:
            return 1.0 / position
    return 0.0


def mrr(
    rankings: dict[str, list[str]], labels: dict[str, dict[str, int]]
) -> float:
    """Mean reciprocal rank over every question in ``labels``."""
    if not labels:
        raise SchemaError("mrr needs at least one question")
    total = 0.0
    for qid, question_labels in labels.items():
        ranking = rankings.get(qid, [])
        total += reciprocal_rank(list(ranking), question_labels)
    return total / len(labels)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Rank transform with average ranks for ties (ranks start at 1)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman rank correlation with average-rank ties; 0 when degenerate."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise SchemaError("rank vectors must have equal length")
    if x.size < 2:
        return 0.0
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def spearman_per_question(
    predicted_order: list[str], reference_ranks: dict[str, int]
) -> float:
    """Rho between predicted positions and reference ranks over the given set.

    ``predicted_order`` is the system's ordering of the answers it marked
    relevant; fewer than two answers score 0.
    """
    if len(predicted_order) < 2:
        return 0.0
    positions = np.arange(1, len(predicted_order) + 1, dtype=np.float64)
    reference = np.array(
        [reference_ranks[aid] for aid in predicted_order], dtype=np.float64
    )
    return spearman_rho(positions, reference)


# ---------------------------------------------------------------------------
# Dataset-level evaluation
# ---------------------------------------------------------------------------


def _question_labels(question: QuestionRecord) -> dict[str, int]:
    labels = {}
    for candidate in question.candidates:
        if candidate.reference_score is None:
            raise SchemaError(
                f"question {question.question_id!r}: cannot evaluate without "
                "reference_score"
            )
        labels[candidate.answer_id] = derive_label(candidate.reference_score)
    return labels


def _question_reference_ranks(question: QuestionRecord) -> dict[str, int]:
    ranks = {}
    for candidate in question.candidates:
        if candidate.reference_rank is None:
            raise SchemaError(
                f"question {question.question_id!r}: cannot evaluate without "
                "reference_rank"
            )
        ranks[candidate.answer_id] = candidate.reference_rank
    return ranks


def evaluate(predictions: list[Prediction], dataset: Dataset) -> EvalReport:
    """Score predictions against a labeled dataset."""
    by_qid = {p.question_id: p for p in predictions}
    pred_labels: list[int] = []
    true_labels: list[int] = []
    per_question: list[QuestionEval] = []
    rank_map: dict[str, list[str]] = {}
    label_map: dict[str, dict[str, int]] = {}
    for question in dataset.questions:
        prediction = by_qid.get(question.question_id)
        if prediction is None:
            raise SchemaError(f"no prediction for question {question.question_id!r}")
        labels = _question_labels(question)
        ranks = _question_reference_ranks(question)
        label_map[question.question_id] = labels
        rank_map[question.question_id] = list(prediction.ranking)
        relevant_set = set(prediction.relevant)
        for candidate in question.candidates:
            pred_labels.append(1 if candidate.answer_id in relevant_set else 0)
            true_labels.append(labels[candidate.answer_id])
        predicted_relevant_order = [
            aid for aid in prediction.ranking if aid in relevant_set
        ]
        rho = spearman_per_question(predicted_relevant_order, ranks)
        rho_full = spearman_per_question(list(prediction.ranking), ranks)
        per_question.append(
            QuestionEval(
                question_id=question.question_id,
                rho=rho,
                rho_full=rho_full,
                reciprocal_rank=reciprocal_rank(list(prediction.ranking), labels),
                n_valid=sum(labels.values()),
            )
        )
    accuracy, precision = accuracy_precision(pred_labels, true_labels)
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        mrr=mrr(rank_map, label_map),
        mean_rho=float(np.mean([q.rho for q in per_question])),
        mean_rho_full=float(np.mean([q.rho_full for q in per_question])),
        per_question=tuple(per_question),
    )


# ---------------------------------------------------------------------------
# Error-analysis buckets
# ---------------------------------------------------------------------------


def _sentence_bucket(count: int) -> str:
    for low, high in SENTENCE_BUCKETS:
        if low <= count <= high:
            return f"{low}-{high}"
    return "80+"


def analyze(predictions: list[Prediction], dataset: Dataset) -> dict:
    """Bucketed breakdowns mirroring the error analysis.

    (a) filtering recall of valid answers by reference rank; (b) filtering
    accuracy by answer sentence count; (c) filtering accuracy and mean rho by
    the number of valid answers per question. Every row carries its example
    count.
    """
    by_qid = {p.question_id: p for p in predictions}
    recall_hits: dict[int, int] = {}
    recall_totals: dict[int, int] = {}
    length_correct: dict[str, int] = {}
    length_totals: dict[str, int] = {}
    valid_correct: dict[int, int] = {}
    valid_answer_totals: dict[int, int] = {}
    valid_rhos: dict[int, list[float]] = {}

    for question in dataset.questions:
        prediction = by_qid.get(question.question_id)
        if prediction is None:
            raise SchemaError(f"no prediction for question {question.question_id!r}")
        labels = _question_labels(question)
        ranks = _question_reference_ranks(question)
        relevant_set = set(prediction.relevant)
        n_valid = sum(labels.values())
        for candidate in question.candidates:
            predicted = 1 if candidate.answer_id in relevant_set else 0
            actual = labels[candidate.answer_id]
            correct = int(predicted == actual)
            if actual == 1:
                rank = ranks[candidate.answer_id]
                recall_totals[rank] = recall_totals.get(rank, 0) + 1
                recall_hits[rank] = recall_hits.get(rank, 0) + predicted
            bucket = _sentence_bucket(len(split_sentences(candidate.text)))
            length_totals[bucket] = length_totals.get(bucket, 0) + 1
            length_correct[bucket] = length_correct.get(bucket, 0) + correct
            valid_answer_totals[n_valid] = valid_answer_totals.get(n_valid, 0) + 1
            valid_correct[n_valid] = valid_correct.get(n_valid, 0) + correct
        predicted_relevant_order = [
            aid for aid in prediction.ranking if aid in relevant_set
        ]
        valid_rhos.setdefault(n_valid, []).append(
            spearman_per_question(predicted_relevant_order, ranks)
        )

    def bucket_order(name: str) -> int:
        return int(name.split("-")[0].rstrip("+"))

    return {
        "recall_by_reference_rank": [
            {
                "reference_rank": rank,
                "recall": recall_hits[rank] / recall_totals[rank],
                "count": recall_totals[rank],
            }
            for rank in sorted(recall_totals)
        ],
        "accuracy_by_sentence_count": [
            {
                "bucket": bucket,
                "accuracy": length_correct[bucket] / length_totals[bucket],
                "count": length_totals[bucket],
            }
            for bucket in sorted(length_totals, key=bucket_order)
        ],
        "by_valid_answer_count": [
            {
                "valid_answers": n,
                "accuracy": valid_correct[n] / valid_answer_totals[n],
                "mean_rho": float(np.mean(valid_rhos[n])),
                "count": len(valid_rhos[n]),
            }
            for n in sorted(valid_rhos)
        ],
    }


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_predictions(predictions: list[Prediction], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for p in predictions:
            record = {
                "question_id": p.question_id,
                "ranking": list(p.ranking),
                "relevant": list(p.relevant),
                "scores": p.scores or {},
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_predictions(path: str | Path) -> list[Prediction]:
    predictions = []
    for where, record in read_jsonl(path, ("question_id", "ranking", "relevant")):
        if not isinstance(record["question_id"], str):
            raise SchemaError(f"{where}: question_id must be a string")
        for key in ("ranking", "relevant"):
            ids = record[key]
            if not (isinstance(ids, list) and all(isinstance(a, str) for a in ids)):
                raise SchemaError(f"{where}: {key} must be a list of strings")
        predictions.append(
            Prediction(
                question_id=record["question_id"],
                ranking=tuple(record["ranking"]),
                relevant=tuple(record["relevant"]),
                scores=record.get("scores") or None,
            )
        )
    return predictions


def report_to_dict(report: EvalReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "precision": report.precision,
        "mrr": report.mrr,
        "mean_rho": report.mean_rho,
        "mean_rho_full": report.mean_rho_full,
        "per_question": [
            {
                "question_id": q.question_id,
                "rho": q.rho,
                "rho_full": q.rho_full,
                "reciprocal_rank": q.reciprocal_rank,
                "n_valid": q.n_valid,
            }
            for q in report.per_question
        ],
        "buckets": report.buckets,
    }


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), sort_keys=True, indent=2), encoding="utf-8"
    )


def save_bucket_csvs(buckets: dict, out_dir: str | Path) -> list[Path]:
    """One CSV per bucket table; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in buckets.items():
        if not rows:
            continue
        path = out_dir / f"{name}.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        written.append(path)
    return written
