"""Entailment retrieval: thresholding, top-N, fallback, coverage, laziness."""

import numpy as np
import pytest

from medrank.corpus import QAPair
from medrank.errors import SchemaError
from medrank.providers import (
    PrecomputedProvider,
    ProviderConfig,
    TfidfCosineProvider,
    ToyHashProvider,
    fit_tfidf,
    pair_key,
)
from medrank.retrieval import EntailmentIndex, RetrievalConfig, coverage, retrieve

from conftest import StubProvider, ordered_sum_score, record_score


def _index(scores, query="q"):
    """Corpus of len(scores) pairs where pair i scores scores[i] for `query`."""
    pairs = [QAPair(f"p{i}", f"corpus question {i}", f"answer {i}", "faq") for i in range(len(scores))]
    table = {(query, p.question_text): s for p, s in zip(pairs, scores)}
    return EntailmentIndex(pairs, StubProvider(table))


class TestRetrieve:
    def test_fallback_returns_global_max(self):
        index = _index([0.2, 0.5, 0.3])
        hits = retrieve(index, "q", RetrievalConfig(N=3, T=0.9))
        assert [h.pair.pair_id for h in hits] == ["p1"]
        assert hits[0].score == 0.5

    def test_top_n_of_passing(self):
        index = _index([0.8, 0.95, 0.75, 0.9, 0.85])
        hits = retrieve(index, "q", RetrievalConfig(N=3, T=0.7))
        assert [h.pair.pair_id for h in hits] == ["p1", "p3", "p4"]

    def test_tie_broken_by_corpus_order(self):
        # Brute-force oracle over a 4-pair corpus with a planted tie at the cut.
        scores = [0.8, 0.9, 0.8, 0.7]
        index = _index(scores)
        config = RetrievalConfig(N=2, T=0.5)
        hits = retrieve(index, "q", config)
        passing = sorted(
            (i for i, s in enumerate(scores) if s >= config.T),
            key=lambda i: (-scores[i], i),
        )[: config.N]
        assert [h.pair.pair_id for h in hits] == [f"p{i}" for i in passing]
        assert [h.pair.pair_id for h in hits] == ["p1", "p0"]

    def test_never_empty_with_fallback(self):
        index = _index([0.0, 0.0])
        assert len(retrieve(index, "q", RetrievalConfig(N=1, T=0.99))) == 1

    def test_no_fallback_may_be_empty(self):
        index = _index([0.1, 0.2])
        assert retrieve(index, "q", RetrievalConfig(N=2, T=0.9), fallback=False) == []

    def test_result_invariants(self):
        index = _index([0.91, 0.2, 0.93, 0.71, 0.92])
        config = RetrievalConfig(N=3, T=0.7)
        hits = retrieve(index, "q", config)
        assert 1 <= len(hits) <= config.N
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= config.T for s in scores)

    def test_monotone_in_threshold_and_n(self):
        scores = [0.95, 0.9, 0.8, 0.7, 0.6, 0.5]
        index = _index(scores)
        for n in (1, 2, 4, 6):
            counts = [
                len(retrieve(index, "q", RetrievalConfig(N=n, T=t), fallback=False))
                for t in (0.0, 0.55, 0.75, 0.85, 0.99)
            ]
            assert counts == sorted(counts, reverse=True)
        for t in (0.0, 0.55, 0.99):
            counts = [
                len(retrieve(index, "q", RetrievalConfig(N=n, T=t), fallback=False))
                for n in (1, 2, 3, 6)
            ]
            assert counts == sorted(counts)

    def test_empty_corpus_rejected(self):
        with pytest.raises(SchemaError):
            EntailmentIndex([], StubProvider())

    def test_swap_direction(self):
        pair = QAPair("p0", "faq text", "answer", "faq")
        table = {("chq", "faq text"): 0.9, ("faq text", "chq"): 0.2}
        index = EntailmentIndex([pair], StubProvider(table))
        forward = retrieve(index, "chq", RetrievalConfig(N=1, T=0.0))
        swapped = retrieve(
            index, "chq", RetrievalConfig(N=1, T=0.0, swap_direction=True)
        )
        assert forward[0].score == 0.9
        assert swapped[0].score == 0.2


class TestCoverage:
    def _multi_index(self):
        pairs = [QAPair(f"p{i}", f"cq {i}", f"ans {i}", "faq") for i in range(2)]
        table = {
            ("q0", "cq 0"): 0.95,
            ("q0", "cq 1"): 0.1,
            ("q1", "cq 0"): 0.6,
            ("q1", "cq 1"): 0.2,
            ("q2", "cq 0"): 0.3,
            ("q2", "cq 1"): 0.4,
            ("q3", "cq 0"): 0.8,
            ("q3", "cq 1"): 0.85,
            ("q4", "cq 0"): 0.0,
            ("q4", "cq 1"): 0.0,
        }
        return EntailmentIndex(pairs, StubProvider(table))

    def test_zero_threshold_covers_all(self):
        index = self._multi_index()
        queries = [f"q{i}" for i in range(5)]
        assert coverage(index, queries, RetrievalConfig(N=1, T=0.0)) == 1.0

    def test_unreachable_threshold(self):
        index = self._multi_index()
        queries = [f"q{i}" for i in range(5)]
        assert coverage(index, queries, RetrievalConfig(N=1, T=1.0)) == 0.0

    def test_hand_counted_fixture(self):
        index = self._multi_index()
        queries = [f"q{i}" for i in range(5)]
        # at T=0.5: q0 (0.95), q1 (0.6), q3 (0.85) cleared -> 3/5
        assert coverage(index, queries, RetrievalConfig(N=1, T=0.5)) == pytest.approx(
            0.6
        )
        # at T=0.9: only q0 -> 1/5
        assert coverage(index, queries, RetrievalConfig(N=1, T=0.9)) == pytest.approx(
            0.2
        )

    def test_fallback_not_counted(self):
        index = self._multi_index()
        assert coverage(index, ["q4"], RetrievalConfig(N=1, T=0.5)) == 0.0
        assert len(retrieve(index, "q4", RetrievalConfig(N=1, T=0.5))) == 1


K_QUESTIONS = [
    f"what causes {a} {b}"
    for a in ("headache", "fever", "cough", "rash")
    for b in ("pain", "in children", "at night")
]
QUERIES = ["what causes headache pain", "zzz qqq unknown words"]


def _k_pairs():
    return [QAPair(f"p{i}", q, f"answer {i}", "faq") for i, q in enumerate(K_QUESTIONS)]


def _counting(cls):
    """A provider subclass that counts the pairs it scores with an embedding."""

    class Counting(cls):
        embedded = 0

        def _pair(self, text_a, text_b):
            self.embedded += 1
            return super()._pair(text_a, text_b)

    return Counting


def _real_records():
    rng = np.random.default_rng(5)
    records = {}
    for query in QUERIES:
        for question in K_QUESTIONS:
            for a, b in ((query, question), (question, query)):
                key = pair_key(a, b)
                records[key] = {
                    "key": key,
                    "score": float(rng.random()),
                    "embedding": rng.standard_normal(8).tolist(),
                }
    return records


def _real_provider(kind, cache):
    if kind == "tfidf_cosine":
        model = fit_tfidf(K_QUESTIONS, V=50)
        return _counting(TfidfCosineProvider)(
            ProviderConfig(kind=kind, D=8, seed=1, cache=cache), model
        )
    if kind == "toy_hash":
        return _counting(ToyHashProvider)(
            ProviderConfig(kind=kind, D=64, seed=1, cache=cache)
        )
    return _counting(PrecomputedProvider)(
        ProviderConfig(kind=kind, D=8, path="unused", cache=cache), _real_records()
    )


def _oracle_scores(provider, query, texts, swap, records):
    """The RQE scores of ``query`` against ``texts`` computed without
    ``rqe_scores``: the slow ordered sum for a vector provider, the raw
    ``records`` for ``precomputed``."""
    pairs = [(t, query) if swap else (query, t) for t in texts]
    if isinstance(provider, PrecomputedProvider):
        return np.array([record_score(records, a, b) for a, b in pairs])
    return np.array([ordered_sum_score(provider, a, b) for a, b in pairs])


class TestLazyEmbeddings:
    """Ranking reads scores only; embeddings are built for kept pairs alone."""

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("cache", [True, False])
    def test_only_kept_pairs_are_embedded(self, kind, swap, cache):
        pairs = _k_pairs()
        for query in QUERIES:
            provider = _real_provider(kind, cache)
            index = EntailmentIndex(pairs, provider)
            config = RetrievalConfig(N=2, T=0.2, swap_direction=swap)
            hits = retrieve(index, query, config)
            assert 1 <= len(hits) <= config.N
            assert provider.embedded == len(hits)
            assert len(provider._memo) == (len(hits) if cache else 0)
            for hit in hits:
                question = hit.pair.question_text
                oracle = _oracle_scores(provider, query, [question], swap, _real_records())
                assert type(hit.score) is float
                assert np.float64(hit.score).tobytes() == oracle.tobytes()
                pair = (question, query) if swap else (query, question)
                assert np.array_equal(hit.embedding, provider.rqe(*pair))

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_scores_match_full_results_bitwise(self, kind, swap):
        pairs = _k_pairs()
        provider = _real_provider(kind, cache=True)
        index = EntailmentIndex(pairs, provider)
        config = RetrievalConfig(N=3, T=0.5, swap_direction=swap)
        scores = [index.scores(query, config) for query in QUERIES]
        assert provider.embedded == 0
        for query, fast in zip(QUERIES, scores):
            oracle = _oracle_scores(provider, query, K_QUESTIONS, swap, _real_records())
            assert fast.tobytes() == oracle.tobytes()

    def test_all_oov_query_falls_back_to_first_pair(self):
        provider = _real_provider("tfidf_cosine", cache=True)
        index = EntailmentIndex(_k_pairs(), provider)
        hits = retrieve(index, QUERIES[1], RetrievalConfig(N=3, T=0.5))
        assert [h.pair.pair_id for h in hits] == ["p0"]
        assert hits[0].score == 0.0
        assert provider.embedded == 1


# Queries for the batched call: shared terms, a corpus question itself, an
# all-OOV query, an in-vocabulary query sharing no term with any corpus
# question, and the empty query.
BATCH_QUERIES = [
    "what causes headache pain",
    "what causes fever at night",
    "zzz qqq unknown words",
    "sunburn remedy",
    "",
]
FOREIGN = "sunburn remedy"


def _batch_records():
    rng = np.random.default_rng(11)
    records = {}
    for query in BATCH_QUERIES + K_QUESTIONS:
        for question in K_QUESTIONS:
            for a, b in ((query, question), (question, query)):
                key = pair_key(a, b)
                # Scores outside [0, 1] check that the provider clamps them.
                score = float(rng.uniform(-0.2, 1.2))
                records[key] = {"key": key, "score": score, "embedding": [0.0] * 8}
    return records


def _batch_provider(kind, cache):
    """A real provider able to score every BATCH_QUERIES/K_QUESTIONS pair."""
    if kind == "tfidf_cosine":
        model = fit_tfidf(K_QUESTIONS + [FOREIGN], V=60)
        assert "sunburn" in model.vocabulary
        return TfidfCosineProvider(
            ProviderConfig(kind=kind, D=8, seed=1, cache=cache), model
        )
    if kind == "toy_hash":
        return ToyHashProvider(ProviderConfig(kind=kind, D=64, seed=1, cache=cache))
    return PrecomputedProvider(
        ProviderConfig(kind=kind, D=8, path="unused", cache=cache), _batch_records()
    )


def _batch_oracle(provider, query, texts, swap):
    return _oracle_scores(provider, query, texts, swap, _batch_records())


class TestBatchedScores:
    """``rqe_scores`` returns exactly the floats of the one-pair oracles."""

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("cache", [True, False])
    def test_bit_identical_to_scalar_calls(self, kind, swap, cache):
        batch = _batch_provider(kind, cache)
        for query in BATCH_QUERIES:
            fast = batch.rqe_scores(query, K_QUESTIONS, swap)
            assert fast.dtype == np.float64 and fast.shape == (len(K_QUESTIONS),)
            assert fast.tobytes() == _batch_oracle(batch, query, K_QUESTIONS, swap).tobytes()
            # embedding every pair fills the vector memo; the scores stay put
            for text in K_QUESTIONS:
                batch.rqe(*((text, query) if swap else (query, text)))
            again = batch.rqe_scores(query, tuple(K_QUESTIONS), swap)
            assert again.tobytes() == fast.tobytes()

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash"])
    def test_unmatched_queries_score_zero(self, kind):
        provider = _batch_provider(kind, cache=True)
        for query in ("zzz qqq unknown words", FOREIGN, ""):
            scores = provider.rqe_scores(query, K_QUESTIONS)
            if kind == "tfidf_cosine" or not query:
                assert not scores.any()
            assert np.array_equal(scores, _batch_oracle(provider, query, K_QUESTIONS, False))

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_within_1e15_of_dense_dot_oracle(self, kind, swap):
        provider = _batch_provider(kind, cache=True)

        def cosine(a, b):  # the dense np.dot scores the sparse dot replaced
            u, v = provider._transform(a), provider._transform(b)
            if kind == "tfidf_cosine":
                return min(max(float(np.dot(u, v)), 0.0), 1.0)
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0.0 or nv == 0.0:
                return 0.0
            return min(max(float(np.dot(u, v) / (nu * nv)), 0.0), 1.0)

        for query in BATCH_QUERIES:
            fast = provider.rqe_scores(query, K_QUESTIONS, swap)
            oracle = [cosine(t, query) if swap else cosine(query, t) for t in K_QUESTIONS]
            np.testing.assert_allclose(fast, oracle, rtol=0, atol=1e-15)
        assert provider.rqe_scores(K_QUESTIONS[3], K_QUESTIONS)[3] == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    @pytest.mark.parametrize("query", BATCH_QUERIES[:2] + [K_QUESTIONS[4]])
    def test_identical_questions_tie_in_corpus_order(self, kind, query):
        dup = K_QUESTIONS[4]
        questions = [dup] + K_QUESTIONS[:4] + K_QUESTIONS[5:] + [dup]
        pairs = [QAPair(f"p{i}", q, f"answer {i}", "faq") for i, q in enumerate(questions)]
        index = EntailmentIndex(pairs, _batch_provider(kind, cache=True))
        config = RetrievalConfig(N=len(pairs), T=0.0)
        scores = index.scores(query, config)
        assert scores[0].tobytes() == scores[-1].tobytes()
        hits = retrieve(index, query, config)
        order = sorted(range(len(pairs)), key=lambda i: (-scores[i], i))
        assert [h.pair.pair_id for h in hits] == [f"p{i}" for i in order]
        ids = [h.pair.pair_id for h in hits]
        assert ids.index("p0") < ids.index(f"p{len(pairs) - 1}")
        top = retrieve(index, query, RetrievalConfig(N=1, T=0.0))
        assert [h.pair.pair_id for h in top] == ids[:1]
        if query == dup and kind != "precomputed":  # both copies score 1.0
            assert ids[:2] == ["p0", f"p{len(pairs) - 1}"]

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_shared_provider_keeps_corpora_apart(self, kind, cache):
        provider = _batch_provider(kind, cache)
        corpora = [K_QUESTIONS, K_QUESTIONS[::-1], K_QUESTIONS[2:9], [FOREIGN] + K_QUESTIONS[:3]]
        indexes = [
            EntailmentIndex([QAPair(f"p{i}", q, "a", "faq") for i, q in enumerate(c)], provider)
            for c in corpora
        ]
        reference = _batch_provider(kind, cache)
        for query in BATCH_QUERIES + BATCH_QUERIES[::-1]:
            for questions, index in zip(corpora, indexes):
                for swap in (False, True):
                    got = index.scores(query, RetrievalConfig(swap_direction=swap))
                    want = _batch_oracle(reference, query, questions, swap)
                    assert got.tobytes() == want.tobytes()
        assert len(provider._corpora) == (len(corpora) if cache else 0)

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash"])
    def test_corpus_texts_are_not_memoised_densely(self, kind):
        provider = _batch_provider(kind, cache=True)
        provider.rqe_scores(BATCH_QUERIES[0], K_QUESTIONS)
        provider.rqe_scores(BATCH_QUERIES[1], K_QUESTIONS, swap=True)
        assert set(provider._vectors) == set(BATCH_QUERIES[:2])

    def test_empty_and_all_oov_corpora(self):
        for kind in ("tfidf_cosine", "toy_hash", "precomputed"):
            scores = _batch_provider(kind, cache=True).rqe_scores("q", [])
            assert scores.dtype == np.float64 and scores.shape == (0,)
        provider = _batch_provider("tfidf_cosine", cache=True)
        scores = provider.rqe_scores(BATCH_QUERIES[0], ["zzz", "qqq unknown"])
        assert scores.dtype == np.float64 and scores.tolist() == [0.0, 0.0]
