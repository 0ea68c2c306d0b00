"""Shared fixtures: tiny datasets, corpora, stub providers, and the
acceptance end-to-end run, trained once per session."""

import hashlib
import json
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from medrank import baseline as bl
from medrank import tensornet
from medrank.corpus import CandidateAnswer, QAPair, QuestionRecord, derive_label
from medrank.evalkit import evaluate, prediction_from_scores
from medrank.joint import SCALED_SIZES, TrainConfig, new_model, predict_dataset, train_joint
from medrank.providers import ProviderConfig, fit_provider, pair_key
from medrank.retrieval import EntailmentIndex, RetrievalConfig, retrieve
from medrank.synth import SynthConfig, generate


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


def count_posts(monkeypatch) -> list:
    """The helper count of every post to the tensornet worker pool from now on."""
    posts = []
    post = tensornet._Pool.post

    def counted(self, call, count):
        posts.append(count)
        post(self, call, count)

    monkeypatch.setattr(tensornet._Pool, "post", counted)
    return posts


def track_updates(optimizer) -> list:
    """``[running, started]``: how many of ``optimizer``'s block updates are
    in progress right now, on any thread, and how many have started."""
    counts = [0, 0]
    lock = threading.Lock()
    next_update = optimizer._next_update

    def tracked_next():
        update = next_update()

        def tracked(*args):
            with lock:
                counts[0] += 1
                counts[1] += 1
            try:
                update(*args)
            finally:
                with lock:
                    counts[0] -= 1

        return tracked

    optimizer._next_update = tracked_next
    return counts


def assert_no_update_left(counts) -> None:
    """No update of a ``track_updates`` optimizer runs now, or starts soon."""
    started = counts[1]
    assert counts[0] == 0
    time.sleep(0.05)
    assert counts == [0, started]


def he_uniform(rng, shape, fan_in):
    """He-style uniform init with bound sqrt(6 / fan_in), one ``rng.uniform``
    call per tensor: the oracle for the parameter store's in-place draws."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


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


def small_world(questions=24, val_questions=8, seed=3, provider_seed=0):
    """Synth data plus the scaled-down provider, index and ``new_model``."""
    train, val, corpus = generate(
        SynthConfig(questions=questions, val_questions=val_questions, seed=seed)
    )
    provider_config = ProviderConfig(kind="tfidf_cosine", D=SCALED_SIZES.D, seed=provider_seed)
    provider = fit_provider(provider_config, corpus)[0]
    index = EntailmentIndex(corpus, provider)
    model = new_model(SCALED_SIZES, seed, train.questions, corpus)
    return train, val, corpus, provider, index, model


def train_end_to_end() -> SimpleNamespace:
    """Train the scaled-down joint model, the logistic baseline and the hinge
    ranker on synth data, and predict the validation split with each:
    ``history`` (the per-question training losses of each epoch),
    ``joint_predictions``, ``baseline_predictions`` (with each candidate's
    probability as its score), the two ``evaluate`` reports, and
    ``hinge_predictions`` (ranked by hinge score, relevant by probability)."""
    train, val, corpus, provider, index, model = small_world(
        questions=200, val_questions=50, seed=11, provider_seed=0
    )
    train_config = TrainConfig(
        alpha=2.0,
        epochs=12,
        lr=3e-3,
        optimizer="adam",
        seed=0,
        augmentation=True,
        retrieval=RetrievalConfig(N=3, T=0.7),
    )
    history = train_joint(model, train, index, provider, train_config)
    joint_predictions = predict_dataset(model, val, index, provider, train_config.retrieval)

    # the baseline's engineered features
    feature_config = bl.BaselineFeatureConfig(
        N=3,
        V=len(model.tfidf.vocabulary),
        D=8,
        source_vocab=bl.fit_source_vocab(list(train.questions)),
        T=0.7,
    )

    def feature_rows(dataset):
        grouped = []
        for question in dataset.questions:
            entailed = retrieve(
                index, question.text, train_config.retrieval, fallback=False
            )
            rows = np.stack(
                [
                    bl.assemble_baseline_features(
                        question, c, entailed, model.tfidf, feature_config, provider
                    )
                    for c in question.candidates
                ]
            )
            grouped.append((question, rows))
        return grouped

    train_rows = feature_rows(train)
    features = np.vstack([rows for _, rows in train_rows])
    labels = np.concatenate(
        [
            [derive_label(c.reference_score) for c in question.candidates]
            for question, _ in train_rows
        ]
    )
    settings = bl.BaselineConfig()
    logreg = bl.train_logreg_filter(
        features, labels,
        lr=settings.lr, steps=settings.steps, weight_decay=settings.weight_decay,
    )
    # the hinge ranker on every question with two or more rows, as train-baseline fits it
    hinge = bl.train_pairwise_hinge(
        [
            (rows, np.asarray([c.reference_rank for c in question.candidates]))
            for question, rows in train_rows
            if len(rows) >= 2
        ],
        lr=settings.hinge_lr, steps=settings.hinge_steps, weight_decay=settings.weight_decay,
    )
    baseline_predictions, hinge_predictions = [], []
    for question, rows in feature_rows(val):
        probs = bl.predict_logreg(logreg, rows)
        baseline_predictions.append(prediction_from_scores(question, probs, probs))
        hinge_predictions.append(
            prediction_from_scores(question, bl.hinge_score(hinge, rows), probs)
        )
    return SimpleNamespace(
        history=history,
        joint_predictions=joint_predictions,
        joint_report=evaluate(joint_predictions, val),
        baseline_predictions=baseline_predictions,
        baseline_report=evaluate(baseline_predictions, val),
        hinge_predictions=hinge_predictions,
    )


@pytest.fixture(scope="session")
def end_to_end():
    """``train_end_to_end()``, shared by every test that reads it."""
    return train_end_to_end()
