"""Pluggable NLI and RQE scorers plus the TF-IDF vectorizer behind them.

Three provider kinds are available, all deterministic under a fixed seed:

* ``toy_hash`` — seeded feature hashing of word unigrams and bigrams into D
  buckets; cosine of bucket vectors gives the scores, a seeded random
  projection of the bucket-vector difference gives the embeddings.
* ``tfidf_cosine`` — cosine similarity of TF-IDF vectors gives both the NLI
  and the RQE score; embeddings are a seeded random projection of the
  concatenated pair of TF-IDF vectors.
* ``precomputed`` — score/embedding lookup from a JSONL file keyed by the
  SHA-256 of the sentence pair.

Every provider answers four calls. ``nli``/``rqe`` return a pair's
read-only D-wide embedding, the deep feature the joint model and the
baseline read. ``nli_scores``/``rqe_scores`` score one text against many and
are the only source of scores: retrieval ranks the corpus through
``rqe_scores`` and ANLI scores sentences through ``nli_scores``. So the
D-wide projection runs only for the pairs whose embedding is read, and a
score is never computed for them.

``toy_hash`` and ``tfidf_cosine`` score a batch by one ordered sparse dot
(see ``_VectorProvider``): one gather-multiply-bincount over a CSR block of
the batch texts.

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

from .errors import DimensionError, MedrankError, SchemaError, read_json_object

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


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
    return TfidfModel.from_dict(read_json_object(path), where=str(path))


# ---------------------------------------------------------------------------
# Provider configuration
# ---------------------------------------------------------------------------


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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Provider:
    """The memo of pair embeddings; subclasses implement _pair() (a pair's
    D-wide embedding) and the two batched score calls.

    A custom provider must answer all four public calls: ``nli(a, b)`` and
    ``rqe(a, b)``, which return the pair's read-only (D,) float64 embedding;
    ``nli_scores(sentence, premises)``, which returns the NLI score in
    [0, 1] of each (sentence, premise) as an array; and
    ``rqe_scores(query, texts, swap)``, which returns the RQE score in
    [0, 1] of each (query, text), or of each (text, query) with ``swap``.
    """

    def __init__(self, config: ProviderConfig):
        self.config = config
        self._memo: dict[tuple[str, str], np.ndarray] = {}

    def _pair(self, text_a: str, text_b: str) -> np.ndarray:
        raise NotImplementedError

    def nli(self, text_a: str, text_b: str) -> np.ndarray:
        """The pair's embedding, memoised under ``config.cache``; ``rqe`` is
        the same call."""
        key = (text_a, text_b)
        embedding = self._memo.get(key)
        if embedding is None:
            embedding = _frozen(self._pair(text_a, text_b))
            if self.config.cache:
                self._memo[key] = embedding
        return embedding

    rqe = nli


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


class _SparseRows(NamedTuple):
    """The nonzero terms of some texts, in text order and then term order,
    in the layout ``_ordered_dots`` reads, plus one norm per text."""

    terms: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    norms: np.ndarray


class _VectorProvider(_Provider):
    """Scores pairs from one vector per text by an ordered sparse dot.

    A pair's raw dot sums the products over one text's nonzero terms, added
    one after another in term order (``_ordered_dots``). The products are
    non-negative, so the zero products that a sum over the other text's terms
    would add change nothing: the dot is the same float whichever text's
    terms it runs over, and the score is the same in either direction.
    ``rqe_scores`` gets a whole corpus at once by summing over the corpus
    texts' terms. The score is the dot over the two texts' ``_norm``s,
    clamped to [0, 1]. ``nli_scores`` is ``rqe_scores`` without swap.

    With ``config.cache`` the provider keeps each embedded or queried text's
    vector (read-only), so a text is transformed once; the CSR block of each
    corpus (not its dense vectors), keyed by its texts; and each embedded
    pair's embedding.
    """

    def __init__(self, config: ProviderConfig):
        super().__init__(config)
        self._vectors: dict[str, np.ndarray] = {}
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

    def _block(self, texts: tuple[str, ...]) -> _SparseRows:
        block = self._corpora.get(texts)
        if block is None:
            vectors = [self._transform(text) for text in texts]
            terms = [np.flatnonzero(vec) for vec in vectors]
            block = _SparseRows(
                terms=np.concatenate(terms),
                values=np.concatenate([vec[t] for vec, t in zip(vectors, terms)]),
                rows=np.repeat(np.arange(len(texts)), [t.size for t in terms]),
                norms=np.array([self._norm(vec) for vec in vectors]),
            )
            if self.config.cache:
                self._corpora[texts] = block
        return block

    def _pair(self, text_a: str, text_b: str) -> np.ndarray:
        return self._embed(self._vector(text_a), self._vector(text_b))

    def rqe_scores(self, query: str, texts, swap: bool = False) -> np.ndarray:
        """One gather-multiply-bincount over the texts' nonzero terms. The
        dot and the norm product do not depend on argument order, so
        ``swap`` gives the same floats."""
        texts = tuple(texts)
        if not texts:
            return np.zeros(0)
        corpus = self._block(texts)
        q = self._vector(query)
        dots = _ordered_dots(corpus.terms, corpus.values, corpus.rows, q, len(texts))
        scores = np.divide(dots, self._norm(q) * corpus.norms, out=dots)
        return np.minimum(np.maximum(scores, 0.0, out=scores), 1.0, out=scores)

    def nli_scores(self, sentence: str, premises) -> np.ndarray:
        return self.rqe_scores(sentence, premises)


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
    """Load precomputed records {key, score, probs?, embedding} from JSONL;
    ``PrecomputedProvider`` validates their values."""
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
            if record["key"] in records:
                raise SchemaError(f"{path}:{lineno}: duplicate key {record['key']!r}")
            records[record["key"]] = record
    return records


class _Record(NamedTuple):
    """A parsed precomputed record."""

    score: float  # the RQE score, clamped to [0, 1]
    nli_score: float  # probs[0] when the record has probs, else ``score``
    embedding: np.ndarray  # read-only, length D


def _parse_record(record: dict, D: int, where: str) -> _Record:
    try:
        score = float(record["score"])
        embedding = np.asarray(record["embedding"], dtype=np.float64)
        probs = record.get("probs")
        probs = None if probs is None else np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: non-numeric field: {exc}") from exc
    if not math.isfinite(score):
        raise SchemaError(f"{where}: score must be finite, got {score}")
    if embedding.shape != (D,):
        raise DimensionError(
            f"{where}: embedding has shape {embedding.shape}, expected ({D},)"
        )
    if not np.all(np.isfinite(embedding)):
        raise SchemaError(f"{where}: embedding must be finite")
    score = min(max(score, 0.0), 1.0)
    nli_score = score
    if probs is not None:
        if probs.shape != (3,):
            raise DimensionError(f"{where}: NLI probs must be a 3-vector")
        if not (np.all(probs >= 0) and abs(float(probs.sum()) - 1.0) <= 1e-9):
            raise SchemaError(f"{where}: NLI probs must be non-negative and sum to 1")
        nli_score = float(probs[0])
    return _Record(score=score, nli_score=nli_score, embedding=_frozen(embedding))


class PrecomputedProvider(_Provider):
    """Serves scores and embeddings from a precomputed lookup table.

    Every record is validated and parsed here, once. ``rqe_scores`` reads a
    record's score; ``nli_scores`` reads ``probs[0]`` instead when the record
    has probs. ``nli`` and ``rqe`` read its embedding. A pair with no record
    raises ``KeyError``, or scores 0 with a zero embedding under
    ``fallback_zero``.
    """

    def __init__(self, config: ProviderConfig, records: dict[str, dict] | None = None):
        super().__init__(config)
        where = "precomputed"
        if records is None:
            if config.path is None:
                raise SchemaError("precomputed provider needs a path or records")
            records = load_precomputed(config.path)
            where = config.path
        self._records = {
            key: _parse_record(record, config.D, f"{where}: record {key!r}")
            for key, record in records.items()
        }
        self._missing = _Record(0.0, 0.0, _frozen(np.zeros(config.D)))

    def _record(self, text_a: str, text_b: str) -> _Record:
        key = pair_key(text_a, text_b)
        record = self._records.get(key)
        if record is None:
            if not self.config.fallback_zero:
                raise KeyError(f"no precomputed entry for pair key {key}")
            return self._missing
        return record

    def _pair(self, text_a: str, text_b: str) -> np.ndarray:
        return self._record(text_a, text_b).embedding

    def nli_scores(self, sentence: str, premises) -> np.ndarray:
        return np.array(
            [self._record(sentence, p).nli_score for p in premises], dtype=np.float64
        )

    def rqe_scores(self, query: str, texts, swap: bool = False) -> np.ndarray:
        """One lookup per pair: the keys have a direction."""
        pairs = [(t, query) if swap else (query, t) for t in texts]
        return np.array([self._record(*pair).score for pair in pairs], dtype=np.float64)


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
