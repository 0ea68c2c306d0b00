"""Pluggable NLI and RQE scorers plus the TF-IDF vectorizer behind them.

Three provider kinds are available, all deterministic under a fixed seed:

* ``toy_hash`` — seeded feature hashing of word unigrams and bigrams into D
  buckets; cosine of bucket vectors gives the scores, a seeded random
  projection of the bucket-vector difference gives the embeddings.
* ``tfidf_cosine`` — cosine similarity of TF-IDF vectors; a cosine s maps to
  NLI probabilities (s, (1-s)/2, (1-s)/2); embeddings are a seeded random
  projection of the concatenated pair of TF-IDF vectors.
* ``precomputed`` — score/embedding lookup from a JSONL file keyed by the
  SHA-256 of the sentence pair.

Every provider answers five calls: ``nli``/``rqe`` (score plus embedding),
the score-only ``nli_entailment``/``rqe_score``, which return the same float
without building an embedding, and ``rqe_scores``, which scores one query
against many texts and returns exactly the ``rqe_score`` floats. Retrieval
ranks the corpus through ``rqe_scores`` and ANLI scores sentences through
``nli_entailment``, so the D-wide projection runs only for the pairs whose
embedding is read.

``toy_hash`` and ``tfidf_cosine`` score a pair by one ordered sparse dot
(see ``_VectorProvider``), which ``rqe_scores`` computes for a whole corpus
in one gather-multiply-bincount over a CSR block of the corpus texts.

The hand-rolled vectorizer (rather than an off-the-shelf one) pins the exact
vocabulary-selection rule: top-V terms by document frequency with
lexicographic tie-breaks, and idf(t) = ln((1+N)/(1+df(t))) + 1.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, MedrankError, SchemaError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

NLI_LABELS = ("entailment", "neutral", "contradiction")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into alphanumeric word tokens."""
    return _TOKEN_RE.findall(text.lower())


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------


@dataclass
class TfidfModel:
    """Fitted vocabulary and idf weights; vocabulary order is fit order."""

    vocabulary: list[str]
    idf: np.ndarray
    V: int
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.idf = np.asarray(self.idf, dtype=np.float64)
        if len(self.vocabulary) != self.idf.shape[0]:
            raise DimensionError("vocabulary and idf lengths differ")
        if np.any(self.idf <= 0):
            raise SchemaError("idf values must be positive")
        self._index = {term: i for i, term in enumerate(self.vocabulary)}

    def to_dict(self) -> dict:
        return {"vocabulary": list(self.vocabulary), "idf": self.idf.tolist(), "V": self.V}

    @classmethod
    def from_dict(cls, payload: dict, where: str = "<tfidf>") -> "TfidfModel":
        for key in ("vocabulary", "idf", "V"):
            if key not in payload:
                raise SchemaError(f"{where}: TF-IDF model missing field {key!r}")
        return cls(
            vocabulary=list(payload["vocabulary"]),
            idf=np.asarray(payload["idf"], dtype=np.float64),
            V=int(payload["V"]),
        )


def fit_tfidf(corpus: list[str], V: int = 2000) -> TfidfModel:
    """Fit a TF-IDF model on raw documents.

    The vocabulary keeps the top-V terms by document frequency, breaking ties
    lexicographically; idf(t) = ln((1+N)/(1+df(t))) + 1.
    """
    if not corpus:
        raise SchemaError("cannot fit TF-IDF on an empty corpus")
    if V < 1:
        raise SchemaError("V must be >= 1")
    df: Counter[str] = Counter()
    for document in corpus:
        df.update(set(tokenize(document)))
    terms = sorted(df, key=lambda t: (-df[t], t))[:V]
    n_docs = len(corpus)
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms], dtype=np.float64
    )
    return TfidfModel(vocabulary=terms, idf=idf, V=V)


def tfidf_transform(model: TfidfModel, text: str) -> np.ndarray:
    """Raw term counts times idf, L2-normalized; all-OOV text stays zero."""
    vec = np.zeros(len(model.vocabulary), dtype=np.float64)
    for token in tokenize(text):
        i = model._index.get(token)
        if i is not None:
            vec[i] += 1.0
    vec *= model.idf
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), sort_keys=True), encoding="utf-8")


def load_tfidf(path: str | Path) -> TfidfModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return TfidfModel.from_dict(payload, where=str(path))


# ---------------------------------------------------------------------------
# Provider results and configuration
# ---------------------------------------------------------------------------


def _check_probs(probs: np.ndarray) -> np.ndarray:
    if probs.shape != (3,):
        raise DimensionError("NLI probs must be a 3-vector")
    if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
        raise SchemaError("NLI probs must be non-negative and sum to 1")
    return probs


@dataclass(frozen=True)
class NliResult:
    """(entailment, neutral, contradiction) probabilities plus an embedding."""

    probs: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        _check_probs(self.probs)

    @property
    def entailment(self) -> float:
        return float(self.probs[0])


@dataclass(frozen=True)
class RqeResult:
    """Question-entailment confidence in [0, 1] plus an embedding."""

    score: float
    embedding: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise SchemaError(f"RQE score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class ProviderConfig:
    """Provider selection and determinism knobs.

    ``D`` is the embedding dimension (768 matches the NLI tensor channel
    count); ``vocab_size`` only applies to ``tfidf_cosine``; ``path`` and
    ``fallback_zero`` only to ``precomputed``.
    """

    kind: str = "tfidf_cosine"
    D: int = 768
    seed: int = 0
    vocab_size: int = 4096
    path: str | None = None
    fallback_zero: bool = False
    cache: bool = True

    def __post_init__(self):
        if self.D < 1:
            raise SchemaError("embedding dimension D must be >= 1")
        if self.kind not in ("toy_hash", "tfidf_cosine", "precomputed"):
            raise SchemaError(f"unknown provider kind {self.kind!r}")


def _clamp(score: float) -> float:
    return min(max(score, 0.0), 1.0)


def _probs_from_score(score: float) -> np.ndarray:
    score = _clamp(score)
    return np.array([score, (1.0 - score) / 2.0, (1.0 - score) / 2.0])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Provider:
    """Shared caching and scalar plumbing; subclasses implement _score()
    (the raw score alone) and _pair() (the raw score and its embedding).

    A custom provider must answer all five public calls: ``nli``/``rqe``,
    the score-only ``nli_entailment``/``rqe_score``, which return exactly
    ``nli(...).entailment`` / ``rqe(...).score``, and ``rqe_scores``, which
    returns exactly the ``rqe_score`` floats of one query against many texts.
    """

    def __init__(self, config: ProviderConfig):
        self.config = config
        self._memo: dict[tuple[str, str], tuple[float, np.ndarray]] = {}

    def _score(self, text_a: str, text_b: str) -> float:
        raise NotImplementedError

    def _pair(self, text_a: str, text_b: str) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def _scored(self, text_a: str, text_b: str) -> tuple[float, np.ndarray]:
        key = (text_a, text_b)
        if self.config.cache:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        score, embedding = self._pair(text_a, text_b)
        result = (score, _frozen(embedding))
        if self.config.cache:
            self._memo[key] = result
        return result

    def nli(self, sentence_a: str, sentence_b: str) -> NliResult:
        score, embedding = self._scored(sentence_a, sentence_b)
        return NliResult(probs=_frozen(_probs_from_score(score)), embedding=embedding)

    def rqe(self, chq: str, faq: str) -> RqeResult:
        score, embedding = self._scored(chq, faq)
        return RqeResult(score=_clamp(score), embedding=embedding)

    def nli_entailment(self, sentence_a: str, sentence_b: str) -> float:
        """``nli(sentence_a, sentence_b).entailment`` without the embedding."""
        return _clamp(self._score(sentence_a, sentence_b))

    def rqe_score(self, chq: str, faq: str) -> float:
        """``rqe(chq, faq).score`` without the embedding."""
        return _clamp(self._score(chq, faq))

    def rqe_scores(self, query: str, texts, swap: bool = False) -> np.ndarray:
        """``[rqe_score(query, t) for t in texts]`` as an array, or
        ``[rqe_score(t, query) ...]`` with ``swap``."""
        if swap:
            return np.array([self.rqe_score(t, query) for t in texts], dtype=np.float64)
        return np.array([self.rqe_score(query, t) for t in texts], dtype=np.float64)


def _ordered_dots(
    terms: np.ndarray, values: np.ndarray, rows: np.ndarray, dense: np.ndarray, n: int
) -> np.ndarray:
    """Raw dots of n sparse rows with one dense vector.

    Entry k is ``values[k]`` at term ``terms[k]`` of row ``rows[k]``. A row's
    dot is the sum of its ``values * dense[terms]``, added one after another
    in entry order: ``np.bincount`` accumulates each bin sequentially from 0
    (and returns integer zeros when there are no entries at all).
    """
    return np.bincount(rows, values * dense[terms], n).astype(np.float64, copy=False)


def _ordered_dot(values: np.ndarray, gathered: np.ndarray) -> float:
    """The one-row ``_ordered_dots``: the same products, added in the same
    order from 0, in Python floats (IEEE doubles, like bincount's sums)."""
    dot = 0.0
    for product in (values * gathered).tolist():
        dot += product
    return dot


class _SparseRows(NamedTuple):
    """The nonzero terms of some texts, in text order and then term order,
    in the layout ``_ordered_dots`` reads, plus one norm per text."""

    terms: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    norms: np.ndarray


class _VectorProvider(_Provider):
    """Scores a pair from one vector per text by an ordered sparse dot.

    A pair's raw dot sums the products over the first text's nonzero terms,
    added one after another in term order. The products are non-negative, so
    the zero products that a sum over the second text's terms would add
    change nothing: the dot is the same float for either argument order, and
    ``rqe_scores`` gets it for a whole corpus by summing over the corpus
    texts' nonzero terms. The score is the dot over the two texts' ``_norm``s,
    clamped to [0, 1].

    With ``config.cache`` the scalar calls keep each text's vector (read-only)
    and, for a text scored as first argument, its nonzero terms, so a text is
    transformed once; ``rqe_scores`` keeps each corpus's CSR block (not its
    dense vectors), keyed by the texts.
    """

    def __init__(self, config: ProviderConfig):
        super().__init__(config)
        self._vectors: dict[str, np.ndarray] = {}
        self._nonzeros: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._corpora: dict[tuple[str, ...], _SparseRows] = {}

    def _transform(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def _embed(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _norm(self, vec: np.ndarray) -> float:
        """What a text's raw dots are divided by (with the other text's);
        1 for a zero vector, whose dots are all 0."""
        return float(np.linalg.norm(vec)) or 1.0

    def _vector(self, text: str) -> np.ndarray:
        vec = self._vectors.get(text)
        if vec is None:
            vec = _frozen(self._transform(text))
            if self.config.cache:
                self._vectors[text] = vec
        return vec

    def _nonzero(self, text: str, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero terms of ``vec`` (the vector of ``text``), in order,
        and their values."""
        hit = self._nonzeros.get(text)
        if hit is None:
            terms = np.flatnonzero(vec)
            hit = terms, vec[terms]
            if self.config.cache:
                self._nonzeros[text] = hit
        return hit

    def _similarity(self, text_a: str, u: np.ndarray, v: np.ndarray) -> float:
        terms, values = self._nonzero(text_a, u)
        dot = _ordered_dot(values, v[terms])
        return _clamp(dot / (self._norm(u) * self._norm(v)))

    def _score(self, text_a: str, text_b: str) -> float:
        return self._similarity(text_a, self._vector(text_a), self._vector(text_b))

    def _pair(self, text_a: str, text_b: str) -> tuple[float, np.ndarray]:
        u = self._vector(text_a)
        v = self._vector(text_b)
        return self._similarity(text_a, u, v), self._embed(u, v)

    def _sparse_rows(self, texts: tuple[str, ...]) -> _SparseRows:
        vectors = [self._transform(text) for text in texts]
        terms = [np.flatnonzero(vec) for vec in vectors]
        return _SparseRows(
            terms=np.concatenate(terms),
            values=np.concatenate([vec[t] for vec, t in zip(vectors, terms)]),
            rows=np.repeat(np.arange(len(texts)), [t.size for t in terms]),
            norms=np.array([self._norm(vec) for vec in vectors]),
        )

    def rqe_scores(self, query: str, texts, swap: bool = False) -> np.ndarray:
        """One gather-multiply-bincount over the texts' nonzero terms. The
        dot and the norm product do not depend on argument order, so
        ``swap`` gives the same floats."""
        texts = tuple(texts)
        if not texts:
            return np.zeros(0)
        corpus = self._corpora.get(texts)
        if corpus is None:
            corpus = self._sparse_rows(texts)
            if self.config.cache:
                self._corpora[texts] = corpus
        q = self._vector(query)
        dots = _ordered_dots(corpus.terms, corpus.values, corpus.rows, q, len(texts))
        scores = np.divide(dots, self._norm(q) * corpus.norms, out=dots)
        return np.minimum(np.maximum(scores, 0.0, out=scores), 1.0, out=scores)


class ToyHashProvider(_VectorProvider):
    """Seeded feature hashing of unigrams+bigrams; order-sensitive embeddings."""

    def __init__(self, config: ProviderConfig):
        super().__init__(config)
        self._hash_key = config.seed.to_bytes(8, "little", signed=True)
        rng = np.random.default_rng(config.seed)
        self._projection = rng.standard_normal((config.D, config.D)) / math.sqrt(config.D)

    def _bucket(self, feature: str) -> int:
        digest = hashlib.blake2b(
            feature.encode("utf-8"), key=self._hash_key, digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") % self.config.D

    def _transform(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        vec = np.zeros(self.config.D, dtype=np.float64)
        for token in tokens:
            vec[self._bucket(token)] += 1.0
        for first, second in zip(tokens, tokens[1:]):
            vec[self._bucket(first + " " + second)] += 1.0
        return vec

    def _embed(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._projection @ (u - v)


class TfidfCosineProvider(_VectorProvider):
    """Cosine of TF-IDF vectors; embeddings project the concatenated pair."""

    def __init__(self, config: ProviderConfig, model: TfidfModel):
        super().__init__(config)
        self.model = model
        width = 2 * len(model.vocabulary)
        rng = np.random.default_rng(config.seed)
        self._projection = rng.standard_normal((config.D, width)) / math.sqrt(width)

    def _transform(self, text: str) -> np.ndarray:
        return tfidf_transform(self.model, text)

    def _norm(self, vec: np.ndarray) -> float:
        """``tfidf_transform`` returns unit or zero vectors, so a raw dot is
        already the cosine."""
        return 1.0

    def _embed(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._projection @ np.concatenate([u, v])


def pair_key(text_a: str, text_b: str) -> str:
    """Lookup key for precomputed scores: SHA-256 hex of the joined pair."""
    return hashlib.sha256((text_a + "\x1f" + text_b).encode("utf-8")).hexdigest()


def load_precomputed(path: str | Path) -> dict[str, dict]:
    """Load precomputed records {key, score, probs?, embedding} from JSONL."""
    records: dict[str, dict] = {}
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            for key in ("key", "score", "embedding"):
                if key not in record:
                    raise SchemaError(f"{path}:{lineno}: missing field {key!r}")
            records[record["key"]] = record
    return records


class PrecomputedProvider(_Provider):
    """Serves scores and embeddings from a precomputed lookup table."""

    def __init__(self, config: ProviderConfig, records: dict[str, dict] | None = None):
        super().__init__(config)
        if records is None:
            if config.path is None:
                raise SchemaError("precomputed provider needs a path or records")
            records = load_precomputed(config.path)
        self.records = records

    def _lookup(self, text_a: str, text_b: str) -> dict | None:
        record = self.records.get(pair_key(text_a, text_b))
        if record is None and not self.config.fallback_zero:
            raise KeyError(
                f"no precomputed entry for pair key {pair_key(text_a, text_b)}"
            )
        return record

    def _score(self, text_a: str, text_b: str) -> float:
        record = self._lookup(text_a, text_b)
        return 0.0 if record is None else float(record["score"])

    def _pair(self, text_a: str, text_b: str) -> tuple[float, np.ndarray]:
        record = self._lookup(text_a, text_b)
        if record is None:
            return 0.0, np.zeros(self.config.D, dtype=np.float64)
        embedding = np.asarray(record["embedding"], dtype=np.float64)
        if embedding.shape != (self.config.D,):
            raise DimensionError(
                f"precomputed embedding has length {embedding.shape[0]}, "
                f"expected {self.config.D}"
            )
        return float(record["score"]), embedding

    def nli(self, sentence_a: str, sentence_b: str) -> NliResult:
        record = self._lookup(sentence_a, sentence_b)
        if record is not None and record.get("probs") is not None:
            probs = np.asarray(record["probs"], dtype=np.float64)
            embedding = np.asarray(record["embedding"], dtype=np.float64)
            return NliResult(probs=_frozen(probs), embedding=_frozen(embedding))
        return super().nli(sentence_a, sentence_b)

    def nli_entailment(self, sentence_a: str, sentence_b: str) -> float:
        record = self._lookup(sentence_a, sentence_b)
        if record is not None and record.get("probs") is not None:
            probs = np.asarray(record["probs"], dtype=np.float64)
            return float(_check_probs(probs)[0])
        return super().nli_entailment(sentence_a, sentence_b)


Provider = _Provider


def build_provider(config: ProviderConfig, tfidf: TfidfModel | None = None) -> _Provider:
    """Construct the provider selected by config.kind."""
    if config.kind == "toy_hash":
        return ToyHashProvider(config)
    if config.kind == "tfidf_cosine":
        if tfidf is None:
            raise SchemaError("tfidf_cosine provider needs a fitted TfidfModel")
        return TfidfCosineProvider(config, tfidf)
    return PrecomputedProvider(config)


# ---------------------------------------------------------------------------
# The serialized provider
# ---------------------------------------------------------------------------


def fit_provider(
    config: ProviderConfig, corpus_pairs
) -> tuple[Provider, TfidfModel | None]:
    """The run's provider and, for ``tfidf_cosine`` only, the TF-IDF it fits
    over both sides of every corpus pair (``None`` for the other kinds)."""
    tfidf = None
    if config.kind == "tfidf_cosine":
        texts = [t for p in corpus_pairs for t in (p.question_text, p.answer_text)]
        tfidf = fit_tfidf(texts, V=config.vocab_size)
    return build_provider(config, tfidf), tfidf


def provider_meta(config: ProviderConfig, tfidf: TfidfModel | None) -> dict:
    """The provider as checkpoint metadata; ``provider_from_meta`` rebuilds it
    exactly. ``cache`` is a runtime knob and is not stored."""
    return {
        "provider": {
            "kind": config.kind,
            "D": config.D,
            "seed": config.seed,
            "vocab_size": config.vocab_size,
            "path": config.path,
            "fallback_zero": config.fallback_zero,
        },
        "provider_tfidf": None if tfidf is None else tfidf.to_dict(),
    }


def provider_from_meta(meta: dict, where: str = "<checkpoint>") -> Provider:
    """Rebuild the provider stored by ``provider_meta``; ``where`` names the file."""
    spec = meta.get("provider")
    if spec is None:
        raise MedrankError(f"{where}: no stored provider spec")
    config = ProviderConfig(
        kind=spec["kind"],
        D=int(spec["D"]),
        seed=int(spec["seed"]),
        vocab_size=int(spec["vocab_size"]),
        path=spec.get("path"),
        fallback_zero=bool(spec.get("fallback_zero", False)),
    )
    stored = meta.get("provider_tfidf")
    if stored is None and config.kind == "tfidf_cosine":
        raise MedrankError(f"{where}: no stored TF-IDF for the tfidf_cosine provider")
    return build_provider(
        config, None if stored is None else TfidfModel.from_dict(stored, where)
    )
