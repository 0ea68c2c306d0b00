"""Feature-engineered filtering and ranking baseline.

Features per candidate (``feature_layout`` states their order): answer-source
one-hot, answer length in sentences, upstream system rank, TF-IDF of the
candidate answer, TF-IDF of the best entailed answer, then per retrieved QA
pair the RQE score, RQE embedding, and average-NLI score (N slots each,
zero-filled when fewer than N pairs cleared the threshold).

Filtering is a logistic regression trained by full-batch gradient descent;
ranking reuses the same features with a pairwise hinge objective
(sum of max(0, 1 - w . (x_better - x_worse)) plus L2) optimized by
subgradient descent. Both descents start at w = 0 and only ever add multiples
of training rows plus L2 shrinkage, so every iterate is w = X^T a for one
coefficient per training row. The fits iterate ``a`` and read the features
through one thin-QR factor R of X^T (X X^T = R^T R, R is min(n, F) x n), so a
step costs n * min(n, F) instead of n * F; w = X^T a is formed once at the end.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import (
    CandidateAnswer, Dataset, QAPair, QuestionRecord, derive_label, fit_source_vocab,
)
from .errors import (
    ConfigError,
    DimensionError,
    MedrankError,
    SchemaError,
    read_jsonl,
    read_record,
)
from .evalkit import Prediction, prediction_from_scores
from .evalkit import rank_by_scores  # noqa: F401  (still importable from here)
from .preprocess import split_sentences
from .providers import (
    Provider,
    ProviderConfig,
    TfidfModel,
    fit_provider,
    provider_from_meta,
    provider_meta,
    tfidf_transform,
)
from .retrieval import EntailedCandidate, EntailmentIndex, RetrievalConfig, retrieve
from .tensornet import sigmoid, stored_array, write_manifest


def anli(
    candidate_sentences: list[str],
    entailed_sentences: list[str],
    nli_provider: Provider,
) -> float:
    """Average over candidate sentences of the max entailment vs any entailed sentence.

    anli = sum_S max_P NLI(S, P) / |S| where S ranges over the candidate
    answer's sentences and P over the entailed answer's. An empty entailed
    list scores 0. Only the entailment scores are read, so each candidate
    sentence goes through one score-only ``nli_scores`` call against every
    entailed sentence and no embedding is built.
    """
    if not candidate_sentences:
        raise SchemaError("anli needs at least one candidate sentence")
    if not entailed_sentences:
        return 0.0
    total = 0.0
    for s in candidate_sentences:
        total += float(nli_provider.nli_scores(s, entailed_sentences).max())
    return total / len(candidate_sentences)


@dataclass(frozen=True)
class BaselineFeatureConfig:
    """Dimensions that fix the feature layout."""

    N: int
    V: int
    D: int
    source_vocab: tuple[str, ...]
    T: float

    def __post_init__(self):
        if self.N < 1 or self.V < 1 or self.D < 1:
            raise SchemaError("N, V, and D must all be >= 1")


def feature_layout(config: BaselineFeatureConfig) -> list[dict]:
    """Ordered slot descriptors: name, offset, length."""
    slots = [
        ("source_onehot", len(config.source_vocab)),
        ("answer_length_sentences", 1),
        ("system_rank", 1),
        ("tfidf_candidate", config.V),
        ("tfidf_best_entailed", config.V),
        ("rqe_scores", config.N),
        ("rqe_embeddings", config.N * config.D),
        ("avg_nli_scores", config.N),
    ]
    layout = []
    offset = 0
    for name, length in slots:
        layout.append({"name": name, "offset": offset, "length": length})
        offset += length
    return layout


def feature_dim(config: BaselineFeatureConfig) -> int:
    return sum(slot["length"] for slot in feature_layout(config))


def assemble_baseline_features(
    question: QuestionRecord,
    candidate: CandidateAnswer,
    entailed: list[EntailedCandidate],
    tfidf: TfidfModel,
    config: BaselineFeatureConfig,
    nli_provider: Provider,
) -> np.ndarray:
    """Build one candidate's feature vector; missing RQE slots stay zero.

    Entailed candidates are consumed in the given (score) order; an unknown
    answer source maps to an all-zero one-hot block.
    """
    if len(entailed) > config.N:
        raise DimensionError(
            f"{len(entailed)} entailed candidates exceed the configured N={config.N}"
        )
    if len(tfidf.vocabulary) != config.V:
        raise DimensionError(
            f"TF-IDF vocabulary size {len(tfidf.vocabulary)} != configured V={config.V}"
        )
    vec = np.zeros(feature_dim(config))
    # each slot is a view of vec, so writing it fills vec
    slot = {s["name"]: vec[s["offset"] : s["offset"] + s["length"]] for s in feature_layout(config)}
    if candidate.source in config.source_vocab:
        slot["source_onehot"][config.source_vocab.index(candidate.source)] = 1.0
    candidate_sentences = split_sentences(candidate.text)
    slot["answer_length_sentences"][0] = len(candidate_sentences)
    slot["system_rank"][0] = candidate.system_rank
    slot["tfidf_candidate"][:] = tfidf_transform(tfidf, candidate.text)
    if entailed:
        slot["tfidf_best_entailed"][:] = tfidf_transform(tfidf, entailed[0].pair.answer_text)
    embeddings = slot["rqe_embeddings"].reshape(config.N, config.D)
    for k, cand in enumerate(entailed):
        if cand.embedding.shape != (config.D,):
            raise DimensionError(
                f"RQE embedding length {cand.embedding.shape} != configured D={config.D}"
            )
        slot["rqe_scores"][k] = cand.score
        embeddings[k] = cand.embedding
        entailed_sentences = split_sentences(cand.pair.answer_text)
        slot["avg_nli_scores"][k] = anli(candidate_sentences, entailed_sentences, nli_provider)
    return vec


def question_features(
    question: QuestionRecord,
    index: EntailmentIndex,
    tfidf: TfidfModel,
    config: BaselineFeatureConfig,
    retrieval_config: RetrievalConfig,
    provider: Provider,
) -> np.ndarray:
    """One row per candidate; below-threshold questions keep zero-filled slots."""
    entailed = retrieve(index, question.text, retrieval_config, fallback=False)
    return np.asarray(
        [
            assemble_baseline_features(question, c, entailed, tfidf, config, provider)
            for c in question.candidates
        ]
    )


def extract_feature_rows(
    dataset: Dataset,
    index: EntailmentIndex,
    tfidf: TfidfModel,
    config: BaselineFeatureConfig,
    retrieval_config: RetrievalConfig,
    provider: Provider,
) -> list[dict]:
    """``save_features`` rows for every candidate of every question."""
    rows = []
    for question in dataset.questions:
        features = question_features(
            question, index, tfidf, config, retrieval_config, provider
        )
        for candidate, vector in zip(question.candidates, features):
            row = {
                "question_id": question.question_id,
                "answer_id": candidate.answer_id,
                "features": vector.tolist(),
            }
            if candidate.reference_score is not None:
                row["label"] = derive_label(candidate.reference_score)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Layout and feature persistence
# ---------------------------------------------------------------------------


def layout_meta(
    config: BaselineFeatureConfig,
    retrieval_config: RetrievalConfig,
    provider_config: ProviderConfig,
    provider_tfidf: TfidfModel | None,
    tfidf: TfidfModel,
) -> dict:
    """The layout JSON, which a baseline checkpoint keeps as ``feature_config``:
    feature dimensions, slots, retrieval direction, the provider and the
    metadata TF-IDF the features were extracted with."""
    return {
        **dataclasses.asdict(config),
        "swap_direction": retrieval_config.swap_direction,
        "slots": feature_layout(config),
        "tfidf": tfidf.to_dict(),
        **provider_meta(provider_config, provider_tfidf),
    }


def new_layout(
    provider_config: ProviderConfig, retrieval_config: RetrievalConfig,
    questions: Sequence[QuestionRecord], pairs: list[QAPair], tfidf: TfidfModel,
) -> tuple[BaselineFeatureConfig, Provider, dict]:
    """The feature config, the fitted provider and the ``layout_meta`` of a
    layout fit on the training ``questions``, the corpus and ``tfidf``."""
    provider, provider_tfidf = fit_provider(provider_config, pairs)
    N, T, V, D = retrieval_config.N, retrieval_config.T, len(tfidf.vocabulary), provider_config.D
    config = BaselineFeatureConfig(N, V, D, fit_source_vocab(questions), T)
    meta = layout_meta(config, retrieval_config, provider_config, provider_tfidf, tfidf)
    return config, provider, meta


def layout_settings(
    spec: dict, where: str = "<layout>"
) -> tuple[BaselineFeatureConfig, RetrievalConfig, Provider, TfidfModel]:
    """Feature config, retrieval config, provider and metadata TF-IDF a
    ``layout_meta`` records; ``where`` names the file in errors."""
    config = read_record(BaselineFeatureConfig, spec, where)
    retrieval_config = read_record(RetrievalConfig, spec, where, ("swap_direction",))
    provider = provider_from_meta(spec, where)
    if spec.get("tfidf") is None:
        raise MedrankError(f"{where}: no stored metadata TF-IDF")
    tfidf = read_record(TfidfModel, spec["tfidf"], where, key="tfidf")
    return config, retrieval_config, provider, tfidf


def save_features(rows: list[dict], path: str | Path) -> None:
    """Rows are {question_id, answer_id, label?, features}, one JSON per line."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def load_features(path: str | Path) -> list[dict]:
    """Rows written by ``save_features``: string ids, a label of 0 or 1 (or
    none), and finite feature lists of one width."""
    rows = []
    for where, row in read_jsonl(path, ("question_id", "answer_id", "features")):
        if not (isinstance(row["question_id"], str) and isinstance(row["answer_id"], str)):
            raise SchemaError(f"{where}: question_id and answer_id must be strings")
        label = row.get("label")
        if label is not None and (type(label) is not int or label not in (0, 1)):
            raise SchemaError(f"{where}: label must be 0 or 1, got {label!r}")
        try:
            features = np.asarray(row["features"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: features: {exc}") from exc
        if features.ndim != 1:
            raise SchemaError(f"{where}: features must be a list of numbers")
        if not np.isfinite(features).all():
            raise SchemaError(f"{where}: non-finite feature value")
        if not rows:
            width, first_line = features.size, where.rpartition(":")[2]
        elif features.size != width:
            raise SchemaError(
                f"{where}: {features.size} features, but line {first_line} has {width}"
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Logistic-regression filter
# ---------------------------------------------------------------------------


@dataclass
class LogregModel:
    weight: np.ndarray
    bias: float


def _row_factor(rows: np.ndarray) -> np.ndarray:
    """R of the thin QR of rows^T: rows @ rows^T == R^T @ R, R is min(n, F) x n."""
    if not np.isfinite(rows).all():
        raise SchemaError("training features contain non-finite values")
    return np.linalg.qr(rows.T, mode="r")


def train_logreg_filter(
    features: np.ndarray, labels: np.ndarray, *, lr: float, steps: int, weight_decay: float
) -> LogregModel:
    """Single linear layer + sigmoid trained with mean BCE, full batch.

    Weights start at zero (the objective is convex), so an untrained model
    predicts 0.5 everywhere. The iterate is w = X^T a: each step updates the
    n row coefficients a <- (1 - 2 lr wd) a - (lr / n) (p - y), with logits
    R^T (R a) + b for R the thin-QR factor of X^T. Non-finite features raise
    ``SchemaError``.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DimensionError("features must be (n, F) aligned with labels")
    classes = set(np.unique(labels).tolist())
    if not classes <= {0.0, 1.0} or len(classes) < 2:
        raise SchemaError("training needs at least one example of each class")
    factor = _row_factor(features)
    n = features.shape[0]
    shrink = 1.0 - 2.0 * lr * weight_decay
    coef = np.zeros(n)
    bias = 0.0
    for _ in range(steps):
        residual = sigmoid(factor.T @ (factor @ coef) + bias) - labels
        bias -= lr * (float(residual.sum()) / n)
        residual *= lr / n
        coef *= shrink
        coef -= residual
    return LogregModel(weight=features.T @ coef, bias=bias)


def predict_logreg(model: LogregModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    return sigmoid(features @ model.weight + model.bias)


# ---------------------------------------------------------------------------
# Pairwise hinge ranker
# ---------------------------------------------------------------------------


@dataclass
class HingeRankModel:
    weight: np.ndarray


def ranking_pairs(
    groups: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked rows plus (better, worse) row indices of every ranked pair.

    Each group is (features (c, F), reference_ranks (c,)); better means a
    smaller reference rank. A question with c candidates and distinct ranks
    contributes c*(c-1)/2 pairs; pairs with equal ranks are skipped. Pairs
    come group by group in i-major order over i < j, and their differences
    are rows[better] - rows[worse].
    """
    if not groups:
        raise SchemaError("no ranking groups in the training data")
    rows, ranks = [], []
    for features, group_ranks in groups:
        features = np.asarray(features, dtype=np.float64)
        group_ranks = np.asarray(group_ranks)
        if features.ndim != 2 or group_ranks.shape != (features.shape[0],):
            raise DimensionError("each group needs features (c, F) and ranks (c,)")
        rows.append(features)
        ranks.append(group_ranks)
    sizes = np.array([len(r) for r in ranks])
    starts = np.cumsum(sizes) - sizes
    first, second = [], []
    for c in np.unique(sizes):  # one triu_indices per group size
        i, j = np.triu_indices(c, k=1)
        offsets = starts[sizes == c, None]
        first.append((offsets + i).ravel())
        second.append((offsets + j).ravel())
    i, j = np.concatenate(first), np.concatenate(second)
    order = np.argsort(i, kind="stable")  # back to group order, i-major
    rank = np.concatenate(ranks)
    i, j = i[order], j[order]
    ranked = rank[i] != rank[j]
    i, j = i[ranked], j[ranked]
    if not len(i):
        raise SchemaError("no valid ranking pairs in the training data")
    swap = rank[j] < rank[i]
    return np.vstack(rows), np.where(swap, j, i), np.where(swap, i, j)


def train_pairwise_hinge(
    groups: list[tuple[np.ndarray, np.ndarray]], *, lr: float, steps: int, weight_decay: float
) -> HingeRankModel:
    """Subgradient descent on the hinge-on-differences ranking objective.

    The iterate is w = X^T a over the training rows X: scores are R^T (R a) for
    R the thin-QR factor of X^T, and each step shrinks a by (1 - 2 lr wd),
    then adds lr to the better row's and subtracts lr from the worse row's
    coefficient of every pair with margin < 1. Non-finite features raise
    ``SchemaError``.
    """
    rows, better, worse = ranking_pairs(groups)
    factor = _row_factor(rows)
    n = rows.shape[0]
    shrink = 1.0 - 2.0 * lr * weight_decay
    coef = np.zeros(n)
    for _ in range(steps):
        scores = factor.T @ (factor @ coef)
        violated = scores[better] - scores[worse] < 1.0
        coef *= shrink
        coef += lr * (
            np.bincount(better[violated], minlength=n)
            - np.bincount(worse[violated], minlength=n)
        )
    return HingeRankModel(weight=rows.T @ coef)


def hinge_score(model: HingeRankModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    return features @ model.weight


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


# What a baseline checkpoint ranks by: the filter probability or the hinge score.
RANKERS = ("logreg", "hinge")


@dataclass(frozen=True)
class BaselineConfig:
    """The ``baseline.*`` settings ``train-baseline`` fits with: ``lr`` and
    ``steps`` for the logistic filter, ``hinge_lr`` and ``hinge_steps`` for the
    hinge ranker, one ``weight_decay`` for both, and the ``ranker`` the
    checkpoint ranks by."""

    lr: float = 0.5
    steps: int = 500
    weight_decay: float = 1e-4
    hinge_lr: float = 0.01
    hinge_steps: int = 500
    ranker: str = "logreg"

    def __post_init__(self):
        for key, ok, want in (
            ("lr", 0 < self.lr < math.inf, "a finite number > 0"),
            ("steps", self.steps >= 1, "an integer >= 1"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, "a finite number >= 0"),
            ("hinge_lr", 0 < self.hinge_lr < math.inf, "a finite number > 0"),
            ("hinge_steps", self.hinge_steps >= 1, "an integer >= 1"),
            ("ranker", self.ranker in RANKERS, f"one of {RANKERS}"),
            # a fit step scales its coefficients by 1 - 2 * rate * weight_decay
            ("weight_decay", self.lr * self.weight_decay < 0.5,
             "baseline.lr * baseline.weight_decay < 0.5"),
            ("weight_decay", self.hinge_lr * self.weight_decay < 0.5,
             "baseline.hinge_lr * baseline.weight_decay < 0.5"),
        ):
            if not ok:
                raise ConfigError(f"baseline.{key}: expected {want}, got {getattr(self, key)!r}")


def train_checkpoint(
    rows: list[dict],
    dataset: Dataset,
    layout: dict,
    path: str | Path,
    settings: BaselineConfig,
    *,
    where: str = "<layout>",
    features_where: str = "<features>",
) -> None:
    """``train-baseline``: fit the logistic filter on every feature row and the
    hinge ranker on every question with two or more rows, with ``settings``,
    then write both with ``layout`` as the checkpoint's ``feature_config``.
    ``where`` and ``features_where`` name the layout and the features file in
    errors. Every row must name a candidate of a question in ``dataset``."""
    config = layout_settings(layout, where)[0]  # what predict will read back must load
    unlabeled = [row for row in rows if row.get("label") is None]
    if unlabeled:
        first = unlabeled[0]
        raise SchemaError(
            f"{len(unlabeled)} of {len(rows)} feature rows have no label (first: "
            f"question_id {first['question_id']!r}, answer_id {first['answer_id']!r}); "
            "training needs a label on every row"
        )
    answers = {q.question_id: {c.answer_id for c in q.candidates} for q in dataset.questions}
    for row in rows:
        if row["answer_id"] not in answers.get(row["question_id"], ()):
            raise SchemaError(
                f"{features_where}: feature row (question_id {row['question_id']!r}, "
                f"answer_id {row['answer_id']!r}) is not a candidate in the dataset"
            )
    features = np.asarray([row["features"] for row in rows], dtype=np.float64)
    width = feature_dim(config)
    if rows and features.shape[1] != width:
        raise SchemaError(
            f"{where}: the layout's feature rows are {width} wide, but the training "
            f"feature rows are {features.shape[1]} wide"
        )
    labels = np.asarray([row["label"] for row in rows], dtype=np.float64)
    logreg = train_logreg_filter(
        features, labels, lr=settings.lr, steps=settings.steps, weight_decay=settings.weight_decay
    )
    by_question: dict[str, list[dict]] = {}
    for row in rows:
        by_question.setdefault(row["question_id"], []).append(row)
    groups = []
    for question in dataset.questions:
        qrows = by_question.get(question.question_id, [])
        if len(qrows) < 2:
            continue
        ranks = [question.candidate(row["answer_id"]).reference_rank for row in qrows]
        groups.append(
            (
                np.asarray([row["features"] for row in qrows], dtype=np.float64),
                np.asarray(ranks),
            )
        )
    hinge = train_pairwise_hinge(
        groups, lr=settings.hinge_lr, steps=settings.hinge_steps, weight_decay=settings.weight_decay
    )
    meta = {"kind": "baseline", "ranker": settings.ranker, "feature_config": layout}
    arrays = {
        "logreg.weight": logreg.weight,
        "logreg.bias": np.array([logreg.bias]),
        "hinge.weight": hinge.weight,
    }
    write_manifest(path, meta, arrays)


def predict_checkpoint(
    meta: dict,
    arrays: dict[str, np.ndarray],
    dataset: Dataset,
    corpus_pairs: list[QAPair],
    ranker: str | None = None,
    where: str = "<checkpoint>",
    check: Callable[[str, RetrievalConfig, ProviderConfig, TfidfModel], None] | None = None,
) -> list[Prediction]:
    """``predict`` for a baseline checkpoint, with the retrieval settings,
    provider and metadata TF-IDF its ``feature_config`` stores; nothing is
    refit on the corpus. Relevant means a filter probability >= 0.5; ``ranker``
    (else the stored one) picks the ranking score. ``check`` gets ``where``
    and the stored retrieval and provider settings and metadata TF-IDF first."""
    if ranker not in (None, *RANKERS):
        raise ConfigError(f"baseline.ranker: expected one of {RANKERS}, got {ranker!r}")
    spec = meta.get("feature_config")
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: baseline checkpoint has no 'feature_config' object")
    config, retrieval_config, provider, tfidf = layout_settings(spec, where)
    if check is not None:
        check(where, retrieval_config, provider.config, tfidf)
    index = EntailmentIndex(corpus_pairs, provider)
    width = (feature_dim(config),)
    logreg = LogregModel(
        weight=stored_array(arrays, "logreg.weight", width, where),
        bias=stored_array(arrays, "logreg.bias", (1,), where).item(),
    )
    hinge = HingeRankModel(weight=stored_array(arrays, "hinge.weight", width, where))
    ranker = ranker or meta.get("ranker", "logreg")
    if ranker not in RANKERS:
        raise MedrankError(f"{where}: unknown ranker {ranker!r}; expected one of {RANKERS}")
    predictions = []
    for question in dataset.questions:
        features = question_features(
            question, index, tfidf, config, retrieval_config, provider
        )
        probs = predict_logreg(logreg, features)
        scores = probs if ranker == "logreg" else hinge_score(hinge, features)
        predictions.append(prediction_from_scores(question, scores, probs))
    return predictions
