"""Shared fixtures: tiny datasets, corpora, and stub providers."""

import hashlib
import json

import numpy as np
import pytest

from medrank.corpus import CandidateAnswer, QAPair, QuestionRecord
from medrank.providers import pair_key


def make_candidate(
    answer_id="a1",
    text="An answer.",
    source="web",
    system_rank=1,
    reference_rank=1,
    reference_score=4,
):
    return CandidateAnswer(
        answer_id=answer_id,
        text=text,
        source=source,
        system_rank=system_rank,
        reference_rank=reference_rank,
        reference_score=reference_score,
    )


def pending(module):
    """Number of cached forwards not yet consumed by backward."""
    return sum(len(m._ctx) for m in module.modules())


def make_question(question_id="q1", text="What is it?", candidates=None):
    if candidates is None:
        candidates = (make_candidate(),)
    return QuestionRecord(
        question_id=question_id, text=text, candidates=tuple(candidates)
    )


def ordered_sum_score(provider, text_a, text_b):
    """A vector provider's score of one pair, summed the slow way: the
    products over the first text's nonzero terms, added one after another in
    term order as Python floats, over the two texts' norms, clamped to
    [0, 1]. The provider's bincount sums must give exactly this float."""
    u, v = provider._transform(text_a), provider._transform(text_b)
    terms = np.flatnonzero(u)
    dot = 0.0
    for product in (u[terms] * v[terms]).tolist():
        dot += product
    return min(max(dot / (provider._norm(u) * provider._norm(v)), 0.0), 1.0)


def record_score(records, text_a, text_b, nli=False):
    """A precomputed pair's score read straight from its raw record: for NLI
    the entailment ``probs[0]`` when the record has probs, else the score
    clamped to [0, 1]; 0 for a pair without a record (``fallback_zero``)."""
    record = records.get(pair_key(text_a, text_b))
    if record is None:
        return 0.0
    if nli and "probs" in record:
        return float(record["probs"][0])
    return min(max(float(record["score"]), 0.0), 1.0)


class StubProvider:
    """Deterministic provider with a preset pair-score table.

    ``table`` maps (text_a, text_b) to a score; unseen pairs get ``default``.
    Embeddings are read-only and seeded from a SHA-256 of the pair, so they
    are the same in every process (``hash`` of a string is salted per
    process).
    """

    def __init__(self, table=None, default=0.0, D=4):
        self.table = dict(table or {})
        self.default = default
        self.D = D

    def _score(self, a, b):
        return float(self.table.get((a, b), self.default))

    def _embedding(self, a, b):
        digest = hashlib.sha256(json.dumps([a, b]).encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        embedding = np.random.default_rng(seed).standard_normal(self.D)
        embedding.setflags(write=False)
        return embedding

    def nli(self, a, b):
        return self._embedding(a, b)

    def rqe(self, a, b):
        return self._embedding(a, b)

    def nli_scores(self, sentence, premises):
        return np.array([self._score(sentence, p) for p in premises])

    def rqe_scores(self, query, texts, swap=False):
        pairs = [(t, query) if swap else (query, t) for t in texts]
        return np.array([self._score(a, b) for a, b in pairs])


@pytest.fixture
def qa_pairs():
    return [
        QAPair("p1", "what causes headaches", "Many things. See a doctor.", "faq"),
        QAPair("p2", "how to treat a cold", "Rest and fluids help.", "faq"),
        QAPair("p3", "what causes fevers", "Infections mostly.", "faq"),
    ]


@pytest.fixture
def labeled_question():
    return make_question(
        question_id="q1",
        text="what causes headaches",
        candidates=(
            make_candidate("q1-a", "Stress causes headaches.", "web", 2, 1, 4),
            make_candidate("q1-b", "Dehydration too.", "nih", 1, 2, 3),
            make_candidate("q1-c", "Unrelated text here.", "web", 3, 3, 1),
        ),
    )
