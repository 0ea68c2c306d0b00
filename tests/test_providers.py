"""TF-IDF vectorizer and the three scoring providers."""

import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medrank import providers
from medrank.corpus import QAPair
from medrank.errors import DimensionError, MedrankError, SchemaError, read_record
from medrank.providers import (
    PrecomputedProvider,
    ProviderConfig,
    TfidfCosineProvider,
    TfidfModel,
    ToyHashProvider,
    build_provider,
    fit_provider,
    fit_tfidf,
    load_precomputed,
    load_tfidf,
    pair_key,
    provider_from_meta,
    provider_meta,
    save_tfidf,
    tfidf_transform,
    tokenize,
)

from conftest import StubProvider, ordered_sum_score, record_score
from test_baseline import MatrixNliProvider


class TestFitTfidf:
    def test_tie_broken_lexicographically(self):
        model = fit_tfidf(["a b", "a c"], V=2)
        assert model.vocabulary == ["a", "b"]

    def test_idf_of_ubiquitous_term(self):
        model = fit_tfidf(["a b", "a c"], V=3)
        # df("a") = 2 over N = 2 docs: ln(3/3) + 1 = 1
        assert model.idf[model.vocabulary.index("a")] == pytest.approx(1.0, abs=1e-12)
        expected = math.log(3 / 2) + 1.0
        assert model.idf[model.vocabulary.index("b")] == pytest.approx(
            expected, abs=1e-12
        )

    def test_vocabulary_capped_then_uncapped(self):
        docs = ["a b c d", "a b", "a"]
        assert len(fit_tfidf(docs, V=2).vocabulary) == 2
        assert sorted(fit_tfidf(docs, V=10).vocabulary) == ["a", "b", "c", "d"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(SchemaError):
            fit_tfidf([], V=5)

    def test_terms_lowercased(self):
        model = fit_tfidf(["Apple BANANA apple"], V=5)
        assert model.vocabulary == ["apple", "banana"]


class TestTfidfTransform:
    def test_out_of_vocabulary_is_zero(self):
        model = fit_tfidf(["a b", "a c"], V=3)
        assert np.all(tfidf_transform(model, "x y z") == 0.0)

    def test_single_token_is_unit(self):
        model = fit_tfidf(["a b", "a c"], V=3)
        vec = tfidf_transform(model, "b")
        assert np.count_nonzero(vec) == 1
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_values(self):
        model = fit_tfidf(["a b", "a c"], V=3)
        vec = tfidf_transform(model, "a a b")
        idf_a = math.log(3 / 3) + 1.0
        idf_b = math.log(3 / 2) + 1.0
        raw = np.zeros(3)
        raw[model.vocabulary.index("a")] = 2 * idf_a
        raw[model.vocabulary.index("b")] = 1 * idf_b
        expected = raw / np.linalg.norm(raw)
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_norm_is_zero_or_one(self):
        model = fit_tfidf(["alpha beta", "beta gamma", "gamma delta"], V=10)
        rng = np.random.default_rng(0)
        words = model.vocabulary + ["zzz"]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=rng.integers(0, 6)))
            norm = np.linalg.norm(tfidf_transform(model, text))
            assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(
                1.0, abs=1e-9
            )

    def test_missing_field_names_the_file(self, tmp_path):
        path = tmp_path / "tfidf.json"
        path.write_text(json.dumps({"vocabulary": ["a"], "V": 3}))
        with pytest.raises(SchemaError, match=r"tfidf\.json.*'idf'"):
            load_tfidf(path)

    def test_persistence_roundtrip(self, tmp_path):
        model = fit_tfidf(["a b", "a c"], V=3)
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        loaded = load_tfidf(path)
        assert loaded.vocabulary == model.vocabulary
        np.testing.assert_array_equal(loaded.idf, model.idf)
        assert loaded.V == model.V


@pytest.fixture
def cosine_provider():
    model = fit_tfidf(["alpha beta gamma", "delta epsilon", "alpha delta"], V=10)
    return TfidfCosineProvider(ProviderConfig(kind="tfidf_cosine", D=6, seed=3), model)


class TestTfidfCosineProvider:
    def test_identical_sentences_entail(self, cosine_provider):
        score = _nli_only(cosine_provider, "alpha beta", "alpha beta")
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_sentences(self, cosine_provider):
        assert _nli_only(cosine_provider, "alpha", "epsilon") == 0.0

    def test_scores_in_unit_interval(self, cosine_provider):
        rng = np.random.default_rng(1)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zzz"]
        for _ in range(40):
            a = " ".join(rng.choice(words, size=3))
            b = " ".join(rng.choice(words, size=3))
            scores = cosine_provider.nli_scores(a, [b])
            assert scores.dtype == np.float64 and 0.0 <= scores[0] <= 1.0

    def test_determinism_bitwise(self, cosine_provider):
        first = cosine_provider.nli("alpha beta", "beta gamma")
        second = cosine_provider.nli("alpha beta", "beta gamma")
        assert second is first  # the memo returns the finished embedding
        fresh = TfidfCosineProvider(cosine_provider.config, cosine_provider.model)
        third = fresh.nli("alpha beta", "beta gamma")
        assert np.array_equal(third, first)
        assert not first.flags.writeable
        assert _bits(_nli_only(fresh, "alpha beta", "beta gamma")) == _bits(
            _nli_only(cosine_provider, "alpha beta", "beta gamma")
        )

    def test_determinism_across_instances(self):
        model = fit_tfidf(["alpha beta", "beta gamma"], V=5)
        config = ProviderConfig(kind="tfidf_cosine", D=4, seed=9)
        p1 = TfidfCosineProvider(config, model)
        p2 = TfidfCosineProvider(config, model)
        assert _bits(_rqe_only(p1, "alpha", "beta gamma")) == _bits(
            _rqe_only(p2, "alpha", "beta gamma")
        )
        assert np.array_equal(p1.rqe("alpha", "beta gamma"), p2.rqe("alpha", "beta gamma"))

    def test_rqe_symmetry(self, cosine_provider):
        assert _bits(_rqe_only(cosine_provider, "alpha beta", "beta gamma")) == _bits(
            _rqe_only(cosine_provider, "beta gamma", "alpha beta")
        )

    def test_rqe_range(self, cosine_provider):
        assert _rqe_only(cosine_provider, "alpha", "alpha") == pytest.approx(1.0)
        assert _rqe_only(cosine_provider, "alpha", "epsilon") == 0.0

    def test_embedding_dimension(self, cosine_provider):
        embedding = cosine_provider.nli("a", "b")
        assert embedding.shape == (6,) and embedding.dtype == np.float64


class TestToyHashProvider:
    def test_identical_and_disjoint(self):
        provider = ToyHashProvider(ProviderConfig(kind="toy_hash", D=64, seed=0))
        assert _rqe_only(provider, "one two", "one two") == pytest.approx(1.0)
        assert _nli_only(provider, "one two", "one two") == pytest.approx(1.0)

    def test_determinism_across_instances(self):
        config = ProviderConfig(kind="toy_hash", D=32, seed=5)
        p1, p2 = ToyHashProvider(config), ToyHashProvider(config)
        assert _bits(_nli_only(p1, "a b c", "c d")) == _bits(_nli_only(p2, "a b c", "c d"))
        np.testing.assert_array_equal(p1.nli("a b c", "c d"), p2.nli("a b c", "c d"))

    def test_seed_changes_output(self):
        a = ToyHashProvider(ProviderConfig(kind="toy_hash", D=32, seed=1)).nli("a b", "c")
        b = ToyHashProvider(ProviderConfig(kind="toy_hash", D=32, seed=2)).nli("a b", "c")
        assert not np.array_equal(a, b)

    def test_order_sensitive_embedding(self):
        provider = ToyHashProvider(ProviderConfig(kind="toy_hash", D=32, seed=0))
        assert not np.array_equal(provider.nli("a", "b"), provider.nli("b", "a"))


class TestPrecomputedProvider:
    def _records(self, D=3):
        key = pair_key("premise", "hypothesis")
        return {
            key: {
                "key": key,
                "score": 0.8,
                "probs": [0.8, 0.15, 0.05],
                "embedding": [1.0, 2.0, 3.0],
            }
        }

    def test_lookup(self):
        provider = PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=3, path="unused"), self._records()
        )
        assert _nli_only(provider, "premise", "hypothesis") == 0.8  # probs[0]
        assert _rqe_only(provider, "premise", "hypothesis") == 0.8
        np.testing.assert_allclose(provider.nli("premise", "hypothesis"), [1.0, 2.0, 3.0])

    def test_missing_key_raises(self):
        provider = PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=3, path="unused"), self._records()
        )
        with pytest.raises(SchemaError, match="^precomputed: no record for the pair 'other'"):
            provider.nli("other", "pair")

    def test_fallback_zero_fill(self):
        provider = PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=3, path="unused", fallback_zero=True),
            self._records(),
        )
        assert _nli_only(provider, "other", "pair") == 0.0
        np.testing.assert_array_equal(provider.nli("other", "pair"), np.zeros(3))

    def test_file_loading(self, tmp_path):
        key = pair_key("a", "b")
        path = tmp_path / "pre.jsonl"
        path.write_text(
            json.dumps({"key": key, "score": 0.5, "embedding": [0.0, 1.0]}) + "\n"
        )
        provider = build_provider(
            ProviderConfig(kind="precomputed", D=2, path=str(path))
        )
        assert _rqe_only(provider, "a", "b") == 0.5

    def test_file_missing_field(self, tmp_path):
        path = tmp_path / "pre.jsonl"
        path.write_text(json.dumps({"key": "k", "score": 0.5}) + "\n")
        with pytest.raises(SchemaError, match="embedding"):
            load_precomputed(path)

    def test_duplicate_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "pre.jsonl"
        record = {"key": pair_key("a", "b"), "score": 0.5, "embedding": [0.0, 1.0]}
        other = dict(record, key=pair_key("b", "a"))
        path.write_text("".join(json.dumps(r) + "\n" for r in (record, other, record)))
        with pytest.raises(SchemaError, match=r"pre\.jsonl:3: duplicate key"):
            load_precomputed(path)

    @staticmethod
    def _one_record(**fields):
        key = pair_key("a", "b")
        record = {"key": key, "score": 0.5, "embedding": [0.0, 1.0], **fields}
        return {key: record}

    def _build(self, **fields):
        return PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=2, path="unused"),
            self._one_record(**fields),
        )

    def test_invalid_probs_rejected_at_construction(self):
        for probs in ([0.9, 0.9, 0.1], [-0.1, 0.6, 0.5], [float("nan"), 0.5, 0.5]):
            with pytest.raises(SchemaError, match="probs"):
                self._build(probs=probs)
        with pytest.raises(DimensionError, match="probs"):
            self._build(probs=[0.5, 0.5])

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected_at_construction(self, score):
        with pytest.raises(SchemaError, match="score must be finite"):
            self._build(score=score)

    @pytest.mark.parametrize("probs", [None, [0.8, 0.15, 0.05]])
    def test_embedding_length_checked_at_construction(self, probs):
        with pytest.raises(DimensionError, match="record.*expected \\(2,\\)"):
            self._build(embedding=[1.0, 2.0, 3.0], probs=probs)
        with pytest.raises(SchemaError, match="embedding must be finite"):
            self._build(embedding=[1.0, float("nan")], probs=probs)

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "pre.jsonl"
        record = next(iter(self._one_record(score=float("nan")).values()))
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match=r"pre\.jsonl: record"):
            build_provider(ProviderConfig(kind="precomputed", D=2, path=str(path)))

    def test_records_parsed_once(self):
        provider = self._build(probs=[0.8, 0.15, 0.05])
        first = provider.nli("a", "b")
        assert provider.nli("a", "b") is first
        assert provider.rqe("a", "b") is first


class TestTokenize:
    def test_splits_on_non_alphanumeric(self):
        assert tokenize("Hello, world-wide web!") == ["hello", "world", "wide", "web"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]


# Pairs cover overlap, disjoint text, repeated and mixed-case tokens, and
# all-out-of-vocabulary and empty text on either side.
SCORE_PAIRS = [
    ("alpha beta", "beta gamma"),
    ("beta gamma", "alpha beta"),
    ("alpha", "alpha"),
    ("alpha", "epsilon"),
    ("Alpha, BETA! beta", "gamma alpha delta"),
    ("zzz qqq", "alpha beta"),
    ("alpha beta", "zzz qqq"),
    ("zzz", "qqq"),
    ("", "alpha"),
]


def _bits(value: float) -> bytes:
    assert type(value) is float
    return struct.pack("<d", value)


def _precomputed_records(D=3):
    """Every SCORE_PAIRS pair but the last two, with and without probs."""
    rng = np.random.default_rng(7)
    # Scores outside [0, 1] check that both paths clamp alike.
    scores = [-0.25, 1.5, 0.3, 0.7, 0.55, 0.9, 0.1]
    records = {}
    for i, ((a, b), score) in enumerate(zip(SCORE_PAIRS, scores)):
        key = pair_key(a, b)
        record = {"key": key, "score": score, "embedding": rng.standard_normal(D).tolist()}
        if i % 2:
            p = float(rng.random())
            record["probs"] = [p, (1 - p) / 2, (1 - p) / 2]
        records[key] = record
    return records


def _providers(cache=True):
    config = dict(cache=cache)
    model = fit_tfidf(["alpha beta gamma", "delta epsilon", "alpha delta"], V=10)
    return {
        "tfidf_cosine": TfidfCosineProvider(
            ProviderConfig(kind="tfidf_cosine", D=6, seed=3, **config), model
        ),
        "toy_hash": ToyHashProvider(
            ProviderConfig(kind="toy_hash", D=32, seed=4, **config)
        ),
        "precomputed": PrecomputedProvider(
            ProviderConfig(
                kind="precomputed", D=3, path="unused", fallback_zero=True, **config
            ),
            _precomputed_records(),
        ),
    }


def _rqe_only(provider, a, b):
    return float(provider.rqe_scores(a, [b])[0])


def _nli_only(provider, a, b):
    return float(provider.nli_scores(a, [b])[0])


def _oracle(provider, a, b, nli=False):
    """The score of (a, b) computed without the provider's batched calls:
    the slow ordered sum for a vector provider, the raw record for
    ``precomputed``."""
    if isinstance(provider, PrecomputedProvider):
        return record_score(_precomputed_records(), a, b, nli)
    return ordered_sum_score(provider, a, b)


class TestScoreOnly:
    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_bit_identical_to_full_results(self, kind, cache):
        # Score first on one instance, embed first on another, so the scores
        # are checked against the oracle both cold and after the embedding
        # calls have filled the vector memo.
        score_first = _providers(cache)[kind]
        embed_first = _providers(cache)[kind]
        for a, b in SCORE_PAIRS:
            embed_first.rqe(a, b)
            embed_first.nli(a, b)
            rqe_oracle = _bits(_oracle(score_first, a, b))
            nli_oracle = _bits(_oracle(score_first, a, b, nli=True))
            for provider in (score_first, embed_first):
                swapped = float(provider.rqe_scores(b, [a], swap=True)[0])
                assert _bits(_rqe_only(provider, a, b)) == rqe_oracle == _bits(swapped)
                assert _bits(_nli_only(provider, a, b)) == nli_oracle
            score_first.rqe(a, b)
            assert _bits(_rqe_only(score_first, a, b)) == rqe_oracle

    def test_precomputed_probs_and_clamping(self):
        provider = _providers()["precomputed"]
        assert _rqe_only(provider, *SCORE_PAIRS[0]) == 0.0
        assert _rqe_only(provider, *SCORE_PAIRS[1]) == 1.0
        record = _precomputed_records()[pair_key(*SCORE_PAIRS[1])]
        assert _nli_only(provider, *SCORE_PAIRS[1]) == record["probs"][0]
        assert _rqe_only(provider, *SCORE_PAIRS[-1]) == 0.0

    def test_precomputed_missing_key_raises(self):
        provider = PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=3, path="unused"),
            _precomputed_records(),
        )
        with pytest.raises(SchemaError, match="^precomputed: no record for the pair 'other'"):
            provider.rqe_scores("other", ["pair"])
        with pytest.raises(SchemaError, match="^precomputed: no record for the pair 'other'"):
            provider.nli_scores("other", ["pair"])

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    def test_score_only_builds_no_embedding(self, kind):
        provider = _providers()[kind]
        for a, b in SCORE_PAIRS:
            provider.rqe_scores(a, [b])
            provider.rqe_scores(a, [b], swap=True)
            provider.nli_scores(a, [b])
        assert provider._memo == {}

    def test_tfidf_embedding_matches_fresh_transforms(self, cosine_provider):
        model = cosine_provider.model
        for a, b in SCORE_PAIRS:
            cosine_provider.rqe_scores(a, [b])  # fills the vector memo first
            expected = cosine_provider._projection @ np.concatenate(
                [tfidf_transform(model, a), tfidf_transform(model, b)]
            )
            assert np.array_equal(cosine_provider.rqe(a, b), expected)

    def test_vector_memo_is_frozen_and_follows_cache_flag(self):
        cached = _providers(cache=True)["tfidf_cosine"]
        uncached = _providers(cache=False)["tfidf_cosine"]
        for provider in (cached, uncached):
            provider.rqe("alpha beta", "beta gamma")
        assert set(cached._vectors) == {"alpha beta", "beta gamma"}
        assert not cached._vectors["alpha beta"].flags.writeable
        assert uncached._vectors == {}
        assert uncached._memo == {}

    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash"])
    def test_embedding_computes_no_score(self, kind, monkeypatch):
        def no_dots(*args):
            raise AssertionError("an embedding call computed a score")

        monkeypatch.setattr(providers, "_ordered_dots", no_dots)
        provider = _providers()[kind]
        for a, b in SCORE_PAIRS:
            assert provider.nli(a, b).shape == (provider.config.D,)
            assert provider.rqe(b, a).shape == (provider.config.D,)


# Every fake and provider kind answers the same four calls the same way.
# Long texts give many nonzero terms, so a change of summation order shows.
CONFORMANCE_TEXTS = sorted(
    {text for pair in SCORE_PAIRS for text in pair}
    | {
        "alpha beta gamma delta epsilon alpha beta gamma alpha beta alpha",
        "epsilon delta gamma beta alpha gamma gamma delta zzz epsilon beta",
        "delta alpha epsilon beta gamma qqq delta alpha epsilon delta",
    }
)


def _conformance_providers():
    """Each provider with its score oracle, oracle(a, b, nli)."""
    cases = {}
    for cache in (True, False):
        for kind, provider in _providers(cache).items():
            cases[f"{kind}-cache={cache}"] = (
                provider, lambda a, b, nli, provider=provider: _oracle(provider, a, b, nli)
            )
    texts = CONFORMANCE_TEXTS
    rng = np.random.default_rng(23)
    table = {(a, b): float(rng.random()) for a in texts for b in texts}
    cases["StubProvider"] = (StubProvider(table, D=3), lambda a, b, nli: table[a, b])
    matrix = rng.random((len(texts), len(texts)))
    cases["MatrixNliProvider"] = (
        MatrixNliProvider(matrix, texts, texts),
        lambda a, b, nli: float(matrix[texts.index(a), texts.index(b)]),
    )
    return cases


@pytest.mark.parametrize("name", sorted(_conformance_providers()))
def test_protocol_conformance(name):
    provider, oracle = _conformance_providers()[name]
    texts = CONFORMANCE_TEXTS
    batches = [
        (query, provider.nli_scores(query, texts), provider.rqe_scores(query, texts),
         provider.rqe_scores(query, texts, swap=True))
        for query in texts
    ]
    if hasattr(provider, "_memo"):  # the fakes keep no memo
        assert provider._memo == {}
    for query, nli_scores, forward, swapped in batches:
        for scores in (nli_scores, forward, swapped):
            assert scores.dtype == np.float64 and scores.shape == (len(texts),)
        for k, text in enumerate(texts):
            assert _bits(float(nli_scores[k])) == _bits(oracle(query, text, True))
            assert _bits(float(forward[k])) == _bits(oracle(query, text, False))
            assert _bits(float(swapped[k])) == _bits(oracle(text, query, False))
            embedding = provider.nli(query, text)
            assert embedding.dtype == np.float64 and embedding.ndim == 1
            assert not embedding.flags.writeable
            assert np.array_equal(provider.rqe(query, text), embedding)
    for scores in (provider.nli_scores(texts[0], []), provider.rqe_scores(texts[0], [])):
        assert scores.shape == (0,)


# ---------------------------------------------------------------------------
# The serialized provider spec
# ---------------------------------------------------------------------------

SPEC_CORPUS = [
    QAPair("p1", "alpha beta gamma", "delta epsilon", "faq"),
    QAPair("p2", "Alpha delta", "beta gamma zzz", "faq"),
]


def _spec_config(kind, tmp_path, fallback_zero=True):
    if kind == "tfidf_cosine":
        return ProviderConfig(kind=kind, D=6, seed=3, vocab_size=5)
    if kind == "toy_hash":
        return ProviderConfig(kind=kind, D=32, seed=4)
    path = tmp_path / "records.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in _precomputed_records().values())
    )
    return ProviderConfig(kind=kind, D=3, path=str(path), fallback_zero=fallback_zero)


class TestProviderMeta:
    """provider_from_meta(provider_meta(...)) rebuilds the provider exactly."""

    @pytest.mark.parametrize(
        "kind, fallback_zero",
        [
            ("toy_hash", False),
            ("tfidf_cosine", False),
            ("precomputed", True),
            ("precomputed", False),
        ],
    )
    def test_reload_scores_and_embeds_identically(self, tmp_path, kind, fallback_zero):
        config = _spec_config(kind, tmp_path, fallback_zero)
        original, tfidf = fit_provider(config, SPEC_CORPUS)
        assert (tfidf is not None) == (kind == "tfidf_cosine")
        meta = json.loads(json.dumps(provider_meta(config, tfidf)))
        reloaded = provider_from_meta(meta)
        assert type(reloaded) is type(original)
        # without fallback_zero the two pairs missing from the records raise
        strict = kind == "precomputed" and not fallback_zero
        pairs = SCORE_PAIRS[:-2] if strict else SCORE_PAIRS
        for a, b in pairs:
            for provider_a, provider_b in ((original, reloaded), (reloaded, original)):
                assert np.array_equal(provider_a.rqe(a, b), provider_b.rqe(a, b))
                assert np.array_equal(provider_a.nli(a, b), provider_b.nli(a, b))
            for provider in (original, reloaded):
                assert _bits(_rqe_only(provider, a, b)) == _bits(_oracle(original, a, b))
                nli_oracle = _oracle(original, a, b, nli=True)
                assert _bits(_nli_only(provider, a, b)) == _bits(nli_oracle)
        if strict:
            with pytest.raises(SchemaError, match=f"^{re.escape(config.path)}: no record"):
                reloaded.rqe(*SCORE_PAIRS[-1])

    def test_tfidf_is_stored_not_refit(self, tmp_path):
        config = _spec_config("tfidf_cosine", tmp_path)
        _, tfidf = fit_provider(config, SPEC_CORPUS)
        meta = json.loads(json.dumps(provider_meta(config, tfidf)))
        stored = read_record(TfidfModel, meta["provider_tfidf"], "model.json")
        assert stored.vocabulary == tfidf.vocabulary
        assert np.array_equal(stored.idf, tfidf.idf)
        assert stored.V == tfidf.V == 5
        # both sides of every corpus pair are fitted
        assert "epsilon" in tfidf.vocabulary and "alpha" in tfidf.vocabulary

    def test_missing_spec_names_the_file(self):
        with pytest.raises(MedrankError, match="layout.json: no stored provider spec"):
            provider_from_meta({"N": 3}, "layout.json")

    def test_tfidf_cosine_without_tfidf_names_the_file(self, tmp_path):
        meta = provider_meta(_spec_config("tfidf_cosine", tmp_path), None)
        assert meta["provider_tfidf"] is None
        with pytest.raises(MedrankError, match="model.json: no stored TF-IDF"):
            provider_from_meta(meta, "model.json")


class TestStubProvider:
    def test_embedding_independent_of_hash_seed(self):
        # The stub's embeddings must not follow Python's per-process string
        # hash salt, or the joint tests built on it see new inputs each run.
        tests = Path(__file__).resolve().parent
        code = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "from conftest import StubProvider\n"
            "print(hash('a'), StubProvider(D=3).nli('a', 'b').tolist())"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            run = subprocess.run(
                [sys.executable, "-c", code, str(tests), str(tests.parent / "src")],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            salted, embedding = run.stdout.strip().split(" ", 1)
            outputs.append((salted, embedding))
        assert outputs[0][0] != outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
