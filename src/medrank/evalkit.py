"""Filtering and ranking metrics plus error-analysis breakdowns.

Filtering is scored with accuracy and precision; ranking with mean
reciprocal rank and per-question Spearman's rho. The primary rho is taken
over the answers the system marked relevant (predicted position vs reference
rank restricted to that set, average ranks for ties); a question with fewer
than two such answers contributes 0. A secondary "full-list" rho over every
candidate is reported alongside.

``evaluate`` and ``analyze`` read one judgement per question (``_judged``):
in dataset order, each question's labels (reference score >= 3) and reference
ranks by answer id, its predicted-relevant set and its primary rho. Every
question needs a prediction and every candidate a reference score and rank.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict, dataclass
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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Rank transform with average ranks for ties (ranks start at 1): a tied
    run at sorted positions i..j gets (i + j) / 2 + 1."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


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


def _judged(predictions: list[Prediction], dataset: Dataset):
    """``(question, prediction, labels, ranks, relevant, rho)`` for each question
    of ``dataset`` in order: its labels and reference ranks by answer id, the
    set of answers its prediction marked relevant and the primary rho."""
    by_qid = {p.question_id: p for p in predictions}
    for question in dataset.questions:
        qid = question.question_id
        prediction = by_qid.get(qid)
        if prediction is None:
            raise SchemaError(f"no prediction for question {qid!r}")
        for field in ("reference_score", "reference_rank"):
            if any(getattr(c, field) is None for c in question.candidates):
                raise SchemaError(f"question {qid!r}: cannot evaluate without {field}")
        labels = {c.answer_id: derive_label(c.reference_score) for c in question.candidates}
        ranks = {c.answer_id: c.reference_rank for c in question.candidates}
        relevant = set(prediction.relevant)
        rho = spearman_per_question([a for a in prediction.ranking if a in relevant], ranks)
        yield question, prediction, labels, ranks, relevant, rho


def evaluate(predictions: list[Prediction], dataset: Dataset) -> EvalReport:
    """Score predictions against a labeled dataset. MRR is the mean of the
    per-question reciprocal ranks, summed in dataset order."""
    pred_labels, true_labels, per_question = [], [], []
    rr_total = 0.0
    for question, prediction, labels, ranks, relevant, rho in _judged(predictions, dataset):
        pred_labels.extend(int(aid in relevant) for aid in labels)
        true_labels.extend(labels.values())
        rr = reciprocal_rank(list(prediction.ranking), labels)
        rr_total += rr
        per_question.append(
            QuestionEval(
                question_id=question.question_id,
                rho=rho,
                rho_full=spearman_per_question(list(prediction.ranking), ranks),
                reciprocal_rank=rr,
                n_valid=sum(labels.values()),
            )
        )
    accuracy, precision = accuracy_precision(pred_labels, true_labels)
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        mrr=rr_total / len(per_question),
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


def _tally(table: dict, key, hit: int) -> None:
    row = table.setdefault(key, [0, 0])
    row[0] += hit
    row[1] += 1


def analyze(predictions: list[Prediction], dataset: Dataset) -> dict:
    """Bucketed breakdowns mirroring the error analysis.

    (a) filtering recall of valid answers by reference rank; (b) filtering
    accuracy by answer sentence count; (c) filtering accuracy and mean rho by
    the number of valid answers per question. Every row carries its example
    count.
    """
    recall: dict[int, list[int]] = {}
    length: dict[str, list[int]] = {}
    valid: dict[int, list] = {}  # [hits, count, rhos]
    for question, _, labels, ranks, relevant, rho in _judged(predictions, dataset):
        n_valid = sum(labels.values())
        valid.setdefault(n_valid, [0, 0, []])[2].append(rho)
        for candidate in question.candidates:
            predicted = int(candidate.answer_id in relevant)
            actual = labels[candidate.answer_id]
            if actual == 1:
                _tally(recall, ranks[candidate.answer_id], predicted)
            correct = int(predicted == actual)
            _tally(length, _sentence_bucket(len(split_sentences(candidate.text))), correct)
            _tally(valid, n_valid, correct)

    def bucket_order(item) -> int:
        return int(item[0].split("-")[0].rstrip("+"))

    return {
        "recall_by_reference_rank": [
            {"reference_rank": rank, "recall": hits / count, "count": count}
            for rank, (hits, count) in sorted(recall.items())
        ],
        "accuracy_by_sentence_count": [
            {"bucket": bucket, "accuracy": hits / count, "count": count}
            for bucket, (hits, count) in sorted(length.items(), key=bucket_order)
        ],
        "by_valid_answer_count": [
            {
                "valid_answers": n,
                "accuracy": hits / count,
                "mean_rho": float(np.mean(rhos)),
                "count": len(rhos),
            }
            for n, (hits, count, rhos) in sorted(valid.items())
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
        scores = record.get("scores", {})
        # type() rather than isinstance: a JSON true is a bool, which is an int.
        if not isinstance(scores, dict) or not all(
            type(s) in (int, float) and abs(s) <= sys.float_info.max for s in scores.values()
        ):
            raise SchemaError(f"{where}: scores must map answer ids to finite numbers")
        predictions.append(
            Prediction(
                question_id=record["question_id"],
                ranking=tuple(record["ranking"]),
                relevant=tuple(record["relevant"]),
                scores=scores or None,
            )
        )
    return predictions


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(asdict(report), sort_keys=True, indent=2), encoding="utf-8"
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
