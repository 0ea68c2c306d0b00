"""Feature-engineered filtering and ranking baseline.

Features per candidate, in layout order: answer-source one-hot, answer
length in sentences, upstream system rank, TF-IDF of the candidate answer,
TF-IDF of the best entailed answer, then per retrieved QA pair the RQE
score, RQE embedding, and average-NLI score (N slots each, zero-filled when
fewer than N pairs cleared the threshold).

Filtering is a logistic regression trained by full-batch gradient descent;
ranking reuses the same features with a pairwise hinge objective
(sum of max(0, 1 - w . (x_better - x_worse)) plus L2) optimized by
subgradient descent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CandidateAnswer, QuestionRecord
from .errors import DimensionError, SchemaError
from .preprocess import split_sentences
from .providers import Provider, TfidfModel, tfidf_transform
from .retrieval import EntailedCandidate
from .tensornet import sigmoid


def anli(
    candidate_sentences: list[str],
    entailed_sentences: list[str],
    nli_provider: Provider,
) -> float:
    """Average over candidate sentences of the max entailment vs any entailed sentence.

    anli = sum_S max_P NLI(S, P) / |S| where S ranges over the candidate
    answer's sentences and P over the entailed answer's. An empty entailed
    list scores 0. Only the entailment probability is read, so the provider's
    score-only ``nli_entailment`` is used and no embedding is built.
    """
    if not candidate_sentences:
        raise SchemaError("anli needs at least one candidate sentence")
    if not entailed_sentences:
        return 0.0
    total = 0.0
    for s in candidate_sentences:
        total += max(nli_provider.nli_entailment(s, p) for p in entailed_sentences)
    return total / len(candidate_sentences)


@dataclass(frozen=True)
class BaselineFeatureConfig:
    """Dimensions that fix the feature layout."""

    N: int
    V: int
    D: int
    source_vocab: tuple[str, ...]
    T: float = 0.7

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
    offset = 0

    onehot = np.zeros(len(config.source_vocab))
    if candidate.source in config.source_vocab:
        onehot[config.source_vocab.index(candidate.source)] = 1.0
    vec[offset : offset + len(onehot)] = onehot
    offset += len(onehot)

    candidate_sentences = split_sentences(candidate.text)
    vec[offset] = len(candidate_sentences)
    offset += 1
    vec[offset] = candidate.system_rank
    offset += 1

    vec[offset : offset + config.V] = tfidf_transform(tfidf, candidate.text)
    offset += config.V
    if entailed:
        vec[offset : offset + config.V] = tfidf_transform(
            tfidf, entailed[0].pair.answer_text
        )
    offset += config.V

    for k, cand in enumerate(entailed):
        vec[offset + k] = cand.score
    offset += config.N

    for k, cand in enumerate(entailed):
        if cand.embedding.shape != (config.D,):
            raise DimensionError(
                f"RQE embedding length {cand.embedding.shape} != configured D={config.D}"
            )
        vec[offset + k * config.D : offset + (k + 1) * config.D] = cand.embedding
    offset += config.N * config.D

    for k, cand in enumerate(entailed):
        entailed_sentences = split_sentences(cand.pair.answer_text)
        vec[offset + k] = anli(candidate_sentences, entailed_sentences, nli_provider)
    offset += config.N

    return vec


def fit_source_vocab(questions: list[QuestionRecord]) -> tuple[str, ...]:
    """Sorted unique candidate sources seen in the training data."""
    return tuple(sorted({c.source for q in questions for c in q.candidates}))


# ---------------------------------------------------------------------------
# Feature persistence
# ---------------------------------------------------------------------------


def save_features(
    rows: list[dict], layout: list[dict], path: str | Path, layout_path: str | Path
) -> None:
    """Rows are {question_id, answer_id, label?, features}; layout is JSON."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    Path(layout_path).write_text(json.dumps(layout, sort_keys=True), encoding="utf-8")


def load_features(path: str | Path) -> list[dict]:
    rows = []
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            for key in ("question_id", "answer_id", "features"):
                if key not in row:
                    raise SchemaError(f"{path}:{lineno}: missing field {key!r}")
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Logistic-regression filter
# ---------------------------------------------------------------------------


@dataclass
class LogregModel:
    weight: np.ndarray
    bias: float


def train_logreg_filter(
    features: np.ndarray,
    labels: np.ndarray,
    lr: float = 0.5,
    steps: int = 500,
    weight_decay: float = 1e-4,
) -> LogregModel:
    """Single linear layer + sigmoid trained with mean BCE, full batch.

    Weights start at zero (the objective is convex), so an untrained model
    predicts 0.5 everywhere.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DimensionError("features must be (n, F) aligned with labels")
    classes = set(np.unique(labels).tolist())
    if not classes <= {0.0, 1.0} or len(classes) < 2:
        raise SchemaError("training needs at least one example of each class")
    n, dim = features.shape
    weight = np.zeros(dim)
    bias = 0.0
    for _ in range(steps):
        probs = sigmoid(features @ weight + bias)
        residual = probs - labels
        grad_w = features.T @ residual / n + 2.0 * weight_decay * weight
        grad_b = float(residual.mean())
        weight -= lr * grad_w
        bias -= lr * grad_b
    return LogregModel(weight=weight, bias=bias)


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
) -> np.ndarray:
    """Stack x_better - x_worse rows over every within-question pair.

    Each group is (features (c, F), reference_ranks (c,)); better means a
    smaller reference rank. A question with c candidates contributes
    c*(c-1)/2 rows.
    """
    diffs = []
    for features, ranks in groups:
        features = np.asarray(features, dtype=np.float64)
        ranks = np.asarray(ranks)
        c = features.shape[0]
        for i in range(c):
            for j in range(i + 1, c):
                if ranks[i] < ranks[j]:
                    diffs.append(features[i] - features[j])
                elif ranks[j] < ranks[i]:
                    diffs.append(features[j] - features[i])
    if not diffs:
        raise SchemaError("no valid ranking pairs in the training data")
    return np.stack(diffs)


def pairwise_hinge_loss(
    weight: np.ndarray, diffs: np.ndarray, weight_decay: float
) -> float:
    margins = diffs @ weight
    return float(np.maximum(0.0, 1.0 - margins).sum() + weight_decay * weight @ weight)


def train_pairwise_hinge(
    groups: list[tuple[np.ndarray, np.ndarray]],
    lr: float = 0.01,
    steps: int = 500,
    weight_decay: float = 1e-4,
) -> HingeRankModel:
    """Subgradient descent on the hinge-on-differences ranking objective."""
    diffs = ranking_pairs(groups)
    weight = np.zeros(diffs.shape[1])
    for _ in range(steps):
        margins = diffs @ weight
        violated = margins < 1.0
        grad = -diffs[violated].sum(axis=0) + 2.0 * weight_decay * weight
        weight -= lr * grad
    return HingeRankModel(weight=weight)


def hinge_score(model: HingeRankModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    return features @ model.weight


def rank_by_scores(
    answer_ids: list[str], scores: np.ndarray, system_ranks: list[int]
) -> list[str]:
    """Sort answer ids by score descending, ties by ascending system rank."""
    order = sorted(
        range(len(answer_ids)), key=lambda i: (-scores[i], system_ranks[i])
    )
    return [answer_ids[i] for i in order]
