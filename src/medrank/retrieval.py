"""Entailment-based retrieval of supporting QA pairs.

For a query question, every corpus question is scored with the RQE provider;
pairs at or above the confidence threshold T are kept and the top N by score
are returned (ties broken by corpus order). When nothing clears the
threshold the single best-scoring pair is returned anyway, so retrieval
never comes back empty.

Ranking the corpus reads scores only, through one call of the provider's
``rqe_scores`` per query, which scores the query against every corpus
question at once (a vector provider computes them as one sparse product over
the whole corpus). Each kept pair takes its score from that array, and the
provider's ``rqe`` builds the embedding only for the at most N pairs that are
kept, so an embedding is never built for a discarded pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import QAPair
from .errors import SchemaError
from .providers import Provider, rqe_pair


@dataclass(frozen=True)
class RetrievalConfig:
    """Top-N cut and confidence threshold; defaults follow the best setting."""

    N: int = 3
    T: float = 0.7
    # Score (corpus FAQ, query CHQ) instead of (CHQ, FAQ).
    swap_direction: bool = False

    def __post_init__(self):
        if self.N < 1:
            raise SchemaError("retrieval N must be >= 1")
        if not 0.0 <= self.T <= 1.0:
            raise SchemaError("retrieval T must be in [0, 1]")


@dataclass(frozen=True)
class EntailedCandidate:
    """A retrieved corpus pair with its entailment score and embedding."""

    pair: QAPair
    score: float
    embedding: np.ndarray


class EntailmentIndex:
    """Corpus pairs (in file order) bound to an RQE provider."""

    def __init__(self, pairs: list[QAPair], provider: Provider):
        if not pairs:
            raise SchemaError("cannot build a retrieval index over an empty corpus")
        self.pairs = list(pairs)
        self.provider = provider
        self._questions = tuple(pair.question_text for pair in self.pairs)

    def _score(self, query: str, pair: QAPair, config: RetrievalConfig) -> np.ndarray:
        """The RQE embedding of one kept pair (its score comes from ``scores``).
        ``perfbench``'s ``TracedIndex`` counts kept hits by wrapping this
        name, so a rename would zero its ``retrieval.useful_ratio``."""
        return self.provider.rqe(*rqe_pair(query, pair.question_text, config.swap_direction))

    def scores(self, query: str, config: RetrievalConfig) -> np.ndarray:
        """Score-only RQE of the query against every pair, in corpus order."""
        scores = self.provider.rqe_scores(query, self._questions, config.swap_direction)
        return np.asarray(scores, dtype=np.float64)


def _select(scores: np.ndarray, config: RetrievalConfig, fallback: bool) -> list[int]:
    order = np.argsort(-scores, kind="stable")  # ties keep corpus order
    kept = order[scores[order] >= config.T][: config.N]
    if not kept.size and fallback:
        kept = order[:1]
    return kept.tolist()


def retrieve(
    index: EntailmentIndex,
    query: str,
    config: RetrievalConfig,
    fallback: bool = True,
) -> list[EntailedCandidate]:
    """Return up to N entailed pairs scoring >= T, best first.

    Ties are broken by corpus order. With ``fallback`` (the default), the
    single highest-scoring pair is returned when nothing clears T, so the
    result is never empty; without it the result may be empty and the caller
    zero-fills downstream features.
    """
    scores = index.scores(query, config)
    return [
        EntailedCandidate(
            pair=index.pairs[i],
            score=float(scores[i]),
            embedding=index._score(query, index.pairs[i], config),
        )
        for i in _select(scores, config, fallback)
    ]


def coverage(
    index: EntailmentIndex, queries: list[str], config: RetrievalConfig
) -> float:
    """Fraction of queries with at least one pair scoring >= T (no fallback)."""
    if not queries:
        return 0.0
    covered = sum(
        1 for query in queries if bool(np.any(index.scores(query, config) >= config.T))
    )
    return covered / len(queries)
