"""Data model and JSONL ingestion for ranked-answer datasets and the QA corpus.

A dataset file holds one question per line:

    {"question_id": ..., "text": ..., "candidates": [
        {"answer_id": ..., "text": ..., "source": ..., "system_rank": 1,
         "reference_rank": 2, "reference_score": 3}, ...]}

Reference fields are required on train/validation splits and optional on the
test split. The supporting QA corpus holds one pair per line:

    {"pair_id": ..., "question_text": ..., "answer_text": ..., "source": ...}

Loaded structures are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import SchemaError, read_jsonl

SPLITS = ("train", "validation", "test")
MAX_CANDIDATES = 10


@dataclass(frozen=True)
class CandidateAnswer:
    """One retrieved answer: the upstream system's rank plus reference data."""

    answer_id: str
    text: str
    source: str
    system_rank: int
    reference_rank: int | None = None
    reference_score: int | None = None

    def __post_init__(self):
        if not self.answer_id:
            raise SchemaError("answer_id must be non-empty")
        if not self.text.strip():
            raise SchemaError(f"answer {self.answer_id!r}: blank text")
        # type() rather than isinstance: a JSON true is a bool, which is an int.
        if type(self.system_rank) is not int or self.system_rank < 1:
            raise SchemaError(
                f"answer {self.answer_id!r}: system_rank must be a positive integer"
            )
        if self.reference_rank is not None and (
            type(self.reference_rank) is not int or self.reference_rank < 1
        ):
            raise SchemaError(
                f"answer {self.answer_id!r}: reference_rank must be a positive integer"
            )
        if self.reference_score is not None and (
            type(self.reference_score) is not int or self.reference_score not in (1, 2, 3, 4)
        ):
            raise SchemaError(
                f"answer {self.answer_id!r}: reference_score must be an integer in 1..4, "
                f"got {self.reference_score!r}"
            )


@dataclass(frozen=True)
class QuestionRecord:
    """A question with its candidate answers (1..10, unique answer ids)."""

    question_id: str
    text: str
    candidates: tuple[CandidateAnswer, ...]

    def __post_init__(self):
        qid = self.question_id
        if not qid:
            raise SchemaError("question_id must be non-empty")
        if not self.candidates:
            raise SchemaError(f"question {qid!r}: empty candidates list")
        if len(self.candidates) > MAX_CANDIDATES:
            raise SchemaError(
                f"question {qid!r}: more than {MAX_CANDIDATES} candidates"
            )
        ids = [c.answer_id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"question {qid!r}: duplicate answer_id")
        ranks = [c.reference_rank for c in self.candidates if c.reference_rank is not None]
        if len(set(ranks)) != len(ranks):
            raise SchemaError(f"question {qid!r}: duplicate reference_rank")

    def candidate(self, answer_id: str) -> CandidateAnswer:
        for c in self.candidates:
            if c.answer_id == answer_id:
                return c
        raise KeyError(answer_id)


@dataclass(frozen=True)
class QAPair:
    """A corpus question-answer pair used as the retrieval pool."""

    pair_id: str
    question_text: str
    answer_text: str
    source: str

    def __post_init__(self):
        if not self.pair_id:
            raise SchemaError("pair_id must be non-empty")
        if not self.question_text.strip():
            raise SchemaError(f"pair {self.pair_id!r}: blank question_text")
        if not self.answer_text.strip():
            raise SchemaError(f"pair {self.pair_id!r}: blank answer_text")


@dataclass(frozen=True)
class Dataset:
    """A split worth of questions with unique question ids."""

    split: str
    questions: tuple[QuestionRecord, ...]

    def __post_init__(self):
        if self.split not in SPLITS:
            raise SchemaError(f"unknown split {self.split!r}; expected one of {SPLITS}")
        ids = [q.question_id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate question_id in dataset")

    def __len__(self) -> int:
        return len(self.questions)


def fit_source_vocab(questions: Iterable[QuestionRecord]) -> tuple[str, ...]:
    """Sorted unique candidate sources seen in the training data."""
    return tuple(sorted({c.source for q in questions for c in q.candidates}))


def derive_label(reference_score: int) -> int:
    """Map a 1..4 reference score to a binary relevance label (1 iff >= 3)."""
    if reference_score not in (1, 2, 3, 4):
        raise SchemaError(f"reference_score must be in 1..4, got {reference_score!r}")
    return 1 if reference_score >= 3 else 0


_CANDIDATE_KEYS = {
    "answer_id",
    "text",
    "source",
    "system_rank",
    "reference_rank",
    "reference_score",
}
# Every question and pair field is required, checked in this order.
_QUESTION_KEYS = ("question_id", "text", "candidates")
_PAIR_KEYS = ("pair_id", "question_text", "answer_text", "source")


def _require(record: dict, keys: Iterable[str], where: str) -> None:
    for key in keys:
        if key not in record:
            raise SchemaError(f"{where}: missing field {key!r}")


def _string(record: dict, key: str, where: str) -> str:
    """``record[key]``, which must be a JSON string (not coerced with ``str``)."""
    if type(record[key]) is not str:
        raise SchemaError(f"{where}: {key} must be a string")
    return record[key]


def _reject_unknown(record: dict, allowed: Iterable[str], where: str) -> None:
    unknown = set(record).difference(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown field(s) {sorted(unknown)}")


def _parse_candidate(record: dict, where: str, require_reference: bool) -> CandidateAnswer:
    if not isinstance(record, dict):
        raise SchemaError(f"{where}: candidate must be an object")
    _require(record, ("answer_id", "text", "source", "system_rank"), where)
    _reject_unknown(record, _CANDIDATE_KEYS, where)
    if require_reference:
        for key in ("reference_rank", "reference_score"):
            if record.get(key) is None:
                raise SchemaError(f"{where}: missing {key!r} on a non-test split")
    return CandidateAnswer(
        answer_id=_string(record, "answer_id", where),
        text=_string(record, "text", where),
        source=_string(record, "source", where),
        system_rank=record["system_rank"],
        reference_rank=record.get("reference_rank"),
        reference_score=record.get("reference_score"),
    )


def load_dataset(path: str | Path, split: str) -> Dataset:
    """Load and validate a JSONL dataset file for the given split.

    Parse errors carry the line number; invariant violations carry the
    question_id. Reference rank/score are mandatory unless split == "test".
    """
    if split not in SPLITS:
        raise SchemaError(f"unknown split {split!r}; expected one of {SPLITS}")
    require_reference = split != "test"
    questions: list[QuestionRecord] = []
    for where, record in read_jsonl(path, _QUESTION_KEYS):
        _reject_unknown(record, _QUESTION_KEYS, where)
        qid = _string(record, "question_id", where)
        text = _string(record, "text", where)
        raw_candidates = record["candidates"]
        if not isinstance(raw_candidates, list):
            raise SchemaError(f"{where}: question {qid!r}: candidates must be a list")
        candidates = tuple(
            _parse_candidate(c, f"{where}: question {qid!r}", require_reference)
            for c in raw_candidates
        )
        questions.append(QuestionRecord(question_id=qid, text=text, candidates=candidates))
    return Dataset(split=split, questions=tuple(questions))


def load_qa_corpus(path: str | Path) -> list[QAPair]:
    """Load the supporting QA corpus, preserving file order.

    File order is the retrieval tie-break key. Duplicate pair ids and a file
    without pairs are rejected.
    """
    pairs: list[QAPair] = []
    seen: set[str] = set()
    for where, record in read_jsonl(path, _PAIR_KEYS):
        _reject_unknown(record, _PAIR_KEYS, where)
        pair = QAPair(**{key: _string(record, key, where) for key in _PAIR_KEYS})
        if pair.pair_id in seen:
            raise SchemaError(f"{where}: duplicate pair_id {pair.pair_id!r}")
        seen.add(pair.pair_id)
        pairs.append(pair)
    if not pairs:
        raise SchemaError(f"{path}: the corpus holds no QA pairs")
    return pairs


def _candidate_to_dict(candidate: CandidateAnswer) -> dict:
    record = {
        "answer_id": candidate.answer_id,
        "text": candidate.text,
        "source": candidate.source,
        "system_rank": candidate.system_rank,
    }
    if candidate.reference_rank is not None:
        record["reference_rank"] = candidate.reference_rank
    if candidate.reference_score is not None:
        record["reference_score"] = candidate.reference_score
    return record


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to JSONL; load(save(d)) == d."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for question in dataset.questions:
            record = {
                "question_id": question.question_id,
                "text": question.text,
                "candidates": [_candidate_to_dict(c) for c in question.candidates],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def save_qa_corpus(pairs: Iterable[QAPair], path: str | Path) -> None:
    """Write QA pairs to JSONL in iteration order."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for pair in pairs:
            record = {
                "pair_id": pair.pair_id,
                "question_text": pair.question_text,
                "answer_text": pair.answer_text,
                "source": pair.source,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
