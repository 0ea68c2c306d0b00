"""TF-IDF vectorizer and the three scoring providers."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medrank.corpus import QAPair
from medrank.errors import DimensionError, MedrankError, SchemaError
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

from conftest import StubProvider, ordered_sum_score
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
        result = cosine_provider.nli("alpha beta", "alpha beta")
        assert result.score == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_sentences(self, cosine_provider):
        assert cosine_provider.nli("alpha", "epsilon").score == 0.0

    def test_scores_in_unit_interval(self, cosine_provider):
        rng = np.random.default_rng(1)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zzz"]
        for _ in range(40):
            a = " ".join(rng.choice(words, size=3))
            b = " ".join(rng.choice(words, size=3))
            score = cosine_provider.nli(a, b).score
            assert type(score) is float and 0.0 <= score <= 1.0

    def test_determinism_bitwise(self, cosine_provider):
        first = cosine_provider.nli("alpha beta", "beta gamma")
        second = cosine_provider.nli("alpha beta", "beta gamma")
        assert second is first  # the memo returns the finished result
        fresh = TfidfCosineProvider(cosine_provider.config, cosine_provider.model)
        third = fresh.nli("alpha beta", "beta gamma")
        assert _bits(third.score) == _bits(first.score)
        assert np.array_equal(third.embedding, first.embedding)
        assert not first.embedding.flags.writeable

    def test_determinism_across_instances(self):
        model = fit_tfidf(["alpha beta", "beta gamma"], V=5)
        config = ProviderConfig(kind="tfidf_cosine", D=4, seed=9)
        p1 = TfidfCosineProvider(config, model)
        p2 = TfidfCosineProvider(config, model)
        r1 = p1.rqe("alpha", "beta gamma")
        r2 = p2.rqe("alpha", "beta gamma")
        assert r1.score == r2.score
        assert np.array_equal(r1.embedding, r2.embedding)

    def test_rqe_symmetry(self, cosine_provider):
        assert cosine_provider.rqe("alpha beta", "beta gamma").score == (
            cosine_provider.rqe("beta gamma", "alpha beta").score
        )

    def test_rqe_range(self, cosine_provider):
        assert cosine_provider.rqe("alpha", "alpha").score == pytest.approx(1.0)
        assert cosine_provider.rqe("alpha", "epsilon").score == 0.0

    def test_embedding_dimension(self, cosine_provider):
        assert cosine_provider.nli("a", "b").embedding.shape == (6,)


class TestToyHashProvider:
    def test_identical_and_disjoint(self):
        provider = ToyHashProvider(ProviderConfig(kind="toy_hash", D=64, seed=0))
        assert provider.rqe("one two", "one two").score == pytest.approx(1.0)
        assert provider.nli("one two", "one two").score == pytest.approx(1.0)

    def test_determinism_across_instances(self):
        config = ProviderConfig(kind="toy_hash", D=32, seed=5)
        r1 = ToyHashProvider(config).nli("a b c", "c d")
        r2 = ToyHashProvider(config).nli("a b c", "c d")
        assert r1.score == r2.score
        np.testing.assert_array_equal(r1.embedding, r2.embedding)

    def test_seed_changes_output(self):
        a = ToyHashProvider(ProviderConfig(kind="toy_hash", D=32, seed=1)).nli("a b", "c")
        b = ToyHashProvider(ProviderConfig(kind="toy_hash", D=32, seed=2)).nli("a b", "c")
        assert not np.array_equal(a.embedding, b.embedding)

    def test_order_sensitive_embedding(self):
        provider = ToyHashProvider(ProviderConfig(kind="toy_hash", D=32, seed=0))
        ab = provider.nli("a", "b").embedding
        ba = provider.nli("b", "a").embedding
        assert not np.array_equal(ab, ba)


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
        result = provider.nli("premise", "hypothesis")
        assert result.score == 0.8  # probs[0]
        np.testing.assert_allclose(result.embedding, [1.0, 2.0, 3.0])
        assert provider.rqe("premise", "hypothesis").score == 0.8

    def test_missing_key_raises(self):
        provider = PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=3, path="unused"), self._records()
        )
        with pytest.raises(KeyError):
            provider.nli("other", "pair")

    def test_fallback_zero_fill(self):
        provider = PrecomputedProvider(
            ProviderConfig(kind="precomputed", D=3, path="unused", fallback_zero=True),
            self._records(),
        )
        result = provider.nli("other", "pair")
        assert result.score == 0.0
        np.testing.assert_array_equal(result.embedding, np.zeros(3))

    def test_file_loading(self, tmp_path):
        key = pair_key("a", "b")
        path = tmp_path / "pre.jsonl"
        path.write_text(
            json.dumps({"key": key, "score": 0.5, "embedding": [0.0, 1.0]}) + "\n"
        )
        provider = build_provider(
            ProviderConfig(kind="precomputed", D=2, path=str(path))
        )
        assert provider.rqe("a", "b").score == 0.5

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
        assert provider.rqe("a", "b").embedding is first.embedding


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


class TestScoreOnly:
    @pytest.mark.parametrize("kind", ["tfidf_cosine", "toy_hash", "precomputed"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_bit_identical_to_full_results(self, kind, cache):
        # Score first on one instance, full result first on another, so both
        # cold paths and both memo-hit paths are compared.
        score_first = _providers(cache)[kind]
        full_first = _providers(cache)[kind]
        for a, b in SCORE_PAIRS:
            rqe_only = _rqe_only(score_first, a, b)
            nli_only = _nli_only(score_first, a, b)
            swapped = float(score_first.rqe_scores(b, [a], swap=True)[0])
            full_rqe = full_first.rqe(a, b).score
            full_nli = full_first.nli(a, b).score
            assert _bits(rqe_only) == _bits(full_rqe) == _bits(swapped)
            assert _bits(nli_only) == _bits(full_nli)
            assert _bits(score_first.rqe(a, b).score) == _bits(rqe_only)
            assert _bits(_rqe_only(full_first, a, b)) == _bits(full_rqe)
            assert _bits(_nli_only(full_first, a, b)) == _bits(full_nli)

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
        with pytest.raises(KeyError):
            provider.rqe_scores("other", ["pair"])
        with pytest.raises(KeyError):
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
            assert np.array_equal(cosine_provider.rqe(a, b).embedding, expected)

    def test_vector_memo_is_frozen_and_follows_cache_flag(self):
        cached = _providers(cache=True)["tfidf_cosine"]
        uncached = _providers(cache=False)["tfidf_cosine"]
        for provider in (cached, uncached):
            provider.rqe("alpha beta", "beta gamma")
        assert set(cached._vectors) == {"alpha beta", "beta gamma"}
        assert not cached._vectors["alpha beta"].flags.writeable
        assert uncached._vectors == {}
        assert uncached._memo == {}


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
    providers = {}
    for cache in (True, False):
        for kind, provider in _providers(cache).items():
            providers[f"{kind}-cache={cache}"] = provider
    texts = CONFORMANCE_TEXTS
    rng = np.random.default_rng(23)
    providers["StubProvider"] = StubProvider(
        {(a, b): float(rng.random()) for a in texts for b in texts}, D=3
    )
    providers["MatrixNliProvider"] = MatrixNliProvider(
        rng.random((len(texts), len(texts))), texts, texts
    )
    return providers


@pytest.mark.parametrize("name", sorted(_conformance_providers()))
def test_protocol_conformance(name):
    provider = _conformance_providers()[name]
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
            assert _bits(float(nli_scores[k])) == _bits(provider.nli(query, text).score)
            assert _bits(float(forward[k])) == _bits(provider.rqe(query, text).score)
            assert _bits(float(swapped[k])) == _bits(provider.rqe(text, query).score)
            if hasattr(provider, "_transform"):  # the vector providers
                oracle = ordered_sum_score(provider, query, text)
                assert _bits(float(forward[k])) == _bits(oracle)
                oracle = ordered_sum_score(provider, text, query)
                assert _bits(float(swapped[k])) == _bits(oracle)
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
                rqe_a, rqe_b = provider_a.rqe(a, b), provider_b.rqe(a, b)
                assert _bits(rqe_a.score) == _bits(rqe_b.score)
                assert np.array_equal(rqe_a.embedding, rqe_b.embedding)
                nli_a, nli_b = provider_a.nli(a, b), provider_b.nli(a, b)
                assert _bits(nli_a.score) == _bits(nli_b.score)
                assert np.array_equal(nli_a.embedding, nli_b.embedding)
            assert _bits(_rqe_only(original, a, b)) == _bits(_rqe_only(reloaded, a, b))
            assert _bits(_nli_only(original, a, b)) == _bits(_nli_only(reloaded, a, b))
        if strict:
            with pytest.raises(KeyError):
                reloaded.rqe(*SCORE_PAIRS[-1])

    def test_tfidf_is_stored_not_refit(self, tmp_path):
        config = _spec_config("tfidf_cosine", tmp_path)
        _, tfidf = fit_provider(config, SPEC_CORPUS)
        meta = json.loads(json.dumps(provider_meta(config, tfidf)))
        stored = TfidfModel.from_dict(meta["provider_tfidf"])
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
            "print(hash('a'), StubProvider(D=3).nli('a', 'b').embedding.tolist())"
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
