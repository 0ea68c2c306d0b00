"""Jointly trained answer filtering and pairwise re-ranking.

For every retrieved entailed answer, each candidate answer gets a joint
embedding: a convolutional encoding of the sentence-pair NLI tensor, the RQE
embedding of the retrieval hit, and a metadata block (sources, lengths,
system rank, TF-IDF). A filtering head classifies single candidates as
relevant; a pairwise head predicts, for an ordered candidate pair, whether
the first should rank higher. Both heads train together on a per-question
batch with loss

    L_total = sum_instances( sum_c L_filter(c) + alpha * sum_pairs L_pair )

Both heads emit logits, and the loss is binary cross-entropy taken on the
logits. At inference the sigmoid turns them into probabilities and the
per-instance scores are ensembled: filtering by the mean probability at
threshold 0.5, ranking by summed pairwise win probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CandidateAnswer, Dataset, QAPair, QuestionRecord, derive_label
from .errors import DimensionError, MedrankError, SchemaError
from .evalkit import Prediction
from .preprocess import split_sentences
from .providers import (
    Provider,
    ProviderConfig,
    TfidfModel,
    provider_from_meta,
    provider_meta,
    tfidf_transform,
)
from .retrieval import (
    EntailedCandidate,
    EntailmentIndex,
    RetrievalConfig,
    retrieve,
)
from .tensornet import (
    Adam,
    BatchNorm2d,
    Conv2d,
    Linear,
    BatchNorm1d,
    Maps,
    Module,
    QuadrantPool,
    ReLU,
    SGD,
    Sequential,
    logit_bce,
    read_manifest,
    sigmoid,
    write_manifest,
)

DEFAULT_METADATA_WIDTH = 2032


# ---------------------------------------------------------------------------
# Convolutional encoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvLayerSpec:
    channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[int, int]
    batchnorm: bool


@dataclass(frozen=True)
class ConvEncoderConfig:
    """Layer stack for the NLI pair-tensor encoder.

    ReLU follows every layer except the last; quadrant pooling turns the
    final feature map into a vector of length 4 x last channels. A layer
    without batchnorm gets a bias, except the last: both heads start with a
    bias-free linear layer and a batchnorm, which cancel any constant shift
    of the encoded rows.
    """

    in_channels: int
    layers: tuple[ConvLayerSpec, ...]

    @property
    def out_dim(self) -> int:
        return 4 * self.layers[-1].channels

    @classmethod
    def default(cls) -> "ConvEncoderConfig":
        return cls(
            in_channels=768,
            layers=(
                ConvLayerSpec(768, (1, 1), (1, 1), (1, 1), True),
                ConvLayerSpec(512, (3, 3), (1, 1), (2, 2), True),
                ConvLayerSpec(512, (3, 3), (2, 2), (1, 1), False),
                ConvLayerSpec(256, (2, 2), (1, 1), (1, 1), True),
                ConvLayerSpec(256, (3, 3), (1, 1), (2, 2), False),
            ),
        )

    @classmethod
    def scaled_down(cls) -> "ConvEncoderConfig":
        """Same structure at toy channel counts; pooled output is 16 wide."""
        return cls(
            in_channels=8,
            layers=(
                ConvLayerSpec(8, (1, 1), (1, 1), (1, 1), True),
                ConvLayerSpec(6, (3, 3), (1, 1), (2, 2), True),
                ConvLayerSpec(6, (3, 3), (2, 2), (1, 1), False),
                ConvLayerSpec(4, (2, 2), (1, 1), (1, 1), True),
                ConvLayerSpec(4, (3, 3), (1, 1), (2, 2), False),
            ),
        )


class ConvEncoder(Module):
    """Conv stack plus quadrant pooling over a list of (C, a, c) maps.

    ``forward`` packs all the maps, whatever their shapes, into one ``Maps``
    value and runs it through the stack once, so each layer runs once per
    call; it returns the (n, 4C') rows in map order. ``backward`` takes the
    rows' gradients and returns the maps' gradients in map order.
    """

    def __init__(self, config: ConvEncoderConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        blocks: list[Module] = []
        names: list[str] = []
        in_channels = config.in_channels
        last = len(config.layers) - 1
        for i, spec in enumerate(config.layers):
            blocks.append(
                Conv2d(
                    in_channels,
                    spec.channels,
                    spec.kernel,
                    spec.stride,
                    spec.padding,
                    rng,
                    bias=not spec.batchnorm and i != last,
                )
            )
            names.append(f"conv{i + 1}")
            if spec.batchnorm:
                blocks.append(BatchNorm2d(spec.channels))
                names.append(f"bn{i + 1}")
            if i != last:
                blocks.append(ReLU())
                names.append(f"relu{i + 1}")
            in_channels = spec.channels
        blocks.append(QuadrantPool())
        names.append("pool")
        self.stack = Sequential(blocks, names)

    def children(self):
        return [("stack", self.stack)]

    @property
    def out_dim(self) -> int:
        return self.config.out_dim

    def forward(self, maps: list[np.ndarray]) -> np.ndarray:
        channels = self.config.in_channels
        for tensor in maps:
            if tensor.ndim != 3 or tensor.shape[0] != channels:
                raise DimensionError(
                    f"encoder expects ({channels}, a, c) maps, got {tensor.shape}"
                )
        if not maps:
            return np.empty((0, self.out_dim))
        return self.stack.forward(Maps.pack(maps))

    def backward(self, d_rows: np.ndarray) -> list[np.ndarray]:
        """Gradients of the input maps, in map order."""
        if not len(d_rows):
            return []
        return self.stack.backward(d_rows).unpack()


def build_pair_tensor(
    entailed_sentences: list[str] | tuple[str, ...],
    candidate_sentences: list[str] | tuple[str, ...],
    nli_provider: Provider,
    channels: int = 768,
) -> np.ndarray:
    """NLI-embedding tensor of shape (channels, a, c).

    Cell (:, i, j) is the embedding of (entailed sentence i, candidate
    sentence j).
    """
    a, c = len(entailed_sentences), len(candidate_sentences)
    if a < 1 or c < 1:
        raise SchemaError("pair tensor needs at least one sentence on each side")
    tensor = np.empty((channels, a, c))
    for i, premise in enumerate(entailed_sentences):
        for j, hypothesis in enumerate(candidate_sentences):
            embedding = nli_provider.nli(premise, hypothesis)
            if embedding.shape[0] != channels:
                raise DimensionError(
                    f"provider embedding has {embedding.shape[0]} dims, "
                    f"encoder expects {channels}"
                )
            tensor[:, i, j] = embedding
    return tensor


# ---------------------------------------------------------------------------
# Metadata embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetadataLayout:
    """Slot order: candidate-source one-hot, entailed-source one-hot,
    candidate length, entailed length, candidate system rank, TF-IDF, zero pad."""

    candidate_sources: tuple[str, ...]
    entailed_sources: tuple[str, ...]
    V: int
    M: int

    def __post_init__(self):
        if self.used_width > self.M:
            raise DimensionError(
                f"metadata needs {self.used_width} slots but M={self.M}"
            )

    @property
    def used_width(self) -> int:
        return len(self.candidate_sources) + len(self.entailed_sources) + 3 + self.V

    def to_dict(self) -> dict:
        return {
            "candidate_sources": list(self.candidate_sources),
            "entailed_sources": list(self.entailed_sources),
            "V": self.V,
            "M": self.M,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetadataLayout":
        return cls(
            candidate_sources=tuple(payload["candidate_sources"]),
            entailed_sources=tuple(payload["entailed_sources"]),
            V=int(payload["V"]),
            M=int(payload["M"]),
        )


def fit_metadata_layout(
    questions: list[QuestionRecord],
    corpus_pairs: list[QAPair],
    V: int,
    M: int | None = DEFAULT_METADATA_WIDTH,
) -> MetadataLayout:
    """Freeze source vocabularies from training data.

    Candidate sources may appear on the entailed side through training-time
    augmentation, so the entailed vocabulary covers both corpus and
    candidate sources. With M=None the layout is packed without padding.
    """
    candidate_sources = tuple(
        sorted({c.source for q in questions for c in q.candidates})
    )
    entailed_sources = tuple(
        sorted({p.source for p in corpus_pairs} | set(candidate_sources))
    )
    if M is None:
        M = len(candidate_sources) + len(entailed_sources) + 3 + V
    return MetadataLayout(
        candidate_sources=candidate_sources,
        entailed_sources=entailed_sources,
        V=V,
        M=M,
    )


def build_metadata(
    candidate: CandidateAnswer,
    candidate_sentence_count: int,
    entailed_source: str,
    entailed_sentence_count: int,
    tfidf: TfidfModel,
    layout: MetadataLayout,
) -> np.ndarray:
    """Metadata vector of length layout.M; unknown sources zero their one-hot."""
    if len(tfidf.vocabulary) != layout.V:
        raise DimensionError(
            f"TF-IDF vocabulary size {len(tfidf.vocabulary)} != layout V={layout.V}"
        )
    vec = np.zeros(layout.M)
    offset = 0
    if candidate.source in layout.candidate_sources:
        vec[offset + layout.candidate_sources.index(candidate.source)] = 1.0
    offset += len(layout.candidate_sources)
    if entailed_source in layout.entailed_sources:
        vec[offset + layout.entailed_sources.index(entailed_source)] = 1.0
    offset += len(layout.entailed_sources)
    vec[offset] = candidate_sentence_count
    vec[offset + 1] = entailed_sentence_count
    vec[offset + 2] = candidate.system_rank
    offset += 3
    vec[offset : offset + layout.V] = tfidf_transform(tfidf, candidate.text)
    return vec


# ---------------------------------------------------------------------------
# Classifier heads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeadConfig:
    """Linear widths; every hidden layer gets batchnorm + ReLU, and the last
    linear layer emits one logit per row."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[-1] != 1:
            raise DimensionError("head widths must end in an output width of 1")

    @classmethod
    def default_filter(cls, input_dim: int = 3824) -> "HeadConfig":
        return cls((input_dim, 2048, 1024, 512, 512, 256, 64, 1))

    @classmethod
    def default_pair(cls, input_dim: int = 7648) -> "HeadConfig":
        return cls((input_dim, 3824, 2048, 1024, 512, 512, 256, 64, 1))

    @classmethod
    def scaled_filter(cls, input_dim: int = 48) -> "HeadConfig":
        return cls((input_dim, 24, 12, 1))

    @classmethod
    def scaled_pair(cls, input_dim: int = 96) -> "HeadConfig":
        return cls((input_dim, 48, 24, 12, 1))


def build_head(config: HeadConfig, rng: np.random.Generator) -> Sequential:
    blocks: list[Module] = []
    names: list[str] = []
    widths = config.widths
    for i in range(len(widths) - 2):
        blocks.append(Linear(widths[i], widths[i + 1], rng, bias=False))
        names.append(f"linear{i + 1}")
        blocks.append(BatchNorm1d(widths[i + 1]))
        names.append(f"bn{i + 1}")
        blocks.append(ReLU())
        names.append(f"relu{i + 1}")
    blocks.append(Linear(widths[-2], widths[-1], rng))
    names.append(f"linear{len(widths) - 1}")
    return Sequential(blocks, names)


# ---------------------------------------------------------------------------
# The joint model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 2.0
    epochs: int = 30
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    augmentation: bool = True
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)

    def __post_init__(self):
        if self.alpha < 0:
            raise SchemaError("alpha must be >= 0")
        if self.epochs < 1:
            raise SchemaError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise SchemaError(f"lr must be > 0, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise SchemaError(f"unknown optimizer {self.optimizer!r}")


class JointModel(Module):
    """Conv encoder plus filtering and pairwise heads over joint embeddings."""

    def __init__(
        self,
        encoder: ConvEncoder,
        filter_head: Sequential,
        pair_head: Sequential,
        layout: MetadataLayout,
        tfidf: TfidfModel,
        rqe_dim: int,
        filter_config: HeadConfig,
        pair_config: HeadConfig,
    ):
        super().__init__()
        self.encoder = encoder
        self.filter_head = filter_head
        self.pair_head = pair_head
        self.layout = layout
        self.tfidf = tfidf
        self.rqe_dim = rqe_dim
        self.filter_config = filter_config
        self.pair_config = pair_config
        self.audit_dimensions()

    def children(self):
        return [
            ("encoder", self.encoder),
            ("filter_head", self.filter_head),
            ("pair_head", self.pair_head),
        ]

    @property
    def joint_dim(self) -> int:
        return self.encoder.out_dim + self.rqe_dim + self.layout.M

    def audit_dimensions(self) -> None:
        if self.filter_config.widths[0] != self.joint_dim:
            raise DimensionError(
                f"joint embedding width {self.joint_dim} != filtering head "
                f"input {self.filter_config.widths[0]}"
            )
        if self.pair_config.widths[0] != 2 * self.joint_dim:
            raise DimensionError(
                f"pairwise head input {self.pair_config.widths[0]} != "
                f"2 x joint width {2 * self.joint_dim}"
            )


def build_joint_model(
    layout: MetadataLayout,
    tfidf: TfidfModel,
    encoder_config: ConvEncoderConfig,
    rqe_dim: int,
    seed: int = 0,
    filter_config: HeadConfig | None = None,
    pair_config: HeadConfig | None = None,
) -> JointModel:
    joint_dim = encoder_config.out_dim + rqe_dim + layout.M
    if filter_config is None:
        filter_config = HeadConfig.default_filter(joint_dim)
    if pair_config is None:
        pair_config = HeadConfig.default_pair(2 * joint_dim)
    rng = np.random.default_rng(seed)
    encoder = ConvEncoder(encoder_config, rng)
    filter_head = build_head(filter_config, rng)
    pair_head = build_head(pair_config, rng)
    return JointModel(
        encoder,
        filter_head,
        pair_head,
        layout,
        tfidf,
        rqe_dim,
        filter_config,
        pair_config,
    )


# ---------------------------------------------------------------------------
# Training instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntailedInstance:
    """One entailed answer attached to a question, retrieved or synthetic."""

    sentences: tuple[str, ...]
    source: str
    score: float
    rqe_embedding: np.ndarray


def instance_from_retrieved(candidate: EntailedCandidate) -> EntailedInstance:
    return EntailedInstance(
        sentences=tuple(split_sentences(candidate.pair.answer_text)),
        source=candidate.pair.source,
        score=candidate.score,
        rqe_embedding=candidate.embedding,
    )


def augment_training(
    question: QuestionRecord, rqe_provider: Provider
) -> list[tuple[EntailedInstance, tuple[int, ...]]]:
    """Synthetic instances: each ranked candidate entails all lower-ranked ones.

    For a candidate at reference rank r the candidate set is every candidate
    with reference rank > r; candidates producing an empty set are skipped.
    Synthetic instances carry RQE score 1.0 and the provider's embedding of
    (question, question).
    """
    ranked = [
        (i, c) for i, c in enumerate(question.candidates) if c.reference_rank is not None
    ]
    if len(ranked) < 2:
        return []
    self_embedding = rqe_provider.rqe(question.text, question.text)
    out = []
    for _, anchor in ranked:
        lower = tuple(
            i for i, c in ranked if c.reference_rank > anchor.reference_rank
        )
        if not lower:
            continue
        out.append(
            (
                EntailedInstance(
                    sentences=tuple(split_sentences(anchor.text)),
                    source=anchor.source,
                    score=1.0,
                    rqe_embedding=self_embedding,
                ),
                lower,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class _PreparedInstance:
    tensors: list[np.ndarray]
    metas: list[np.ndarray]
    rqe_embedding: np.ndarray
    cand_idx: tuple[int, ...]


@dataclass
class _PreparedQuestion:
    question_id: str
    labels: np.ndarray
    ranks: list[int]
    instances: list[_PreparedInstance]


def _prepare_instance(
    model: JointModel,
    instance: EntailedInstance,
    cand_idx: tuple[int, ...],
    candidates: list[CandidateAnswer],
    cand_sentences: list[tuple[str, ...]],
    nli_provider: Provider,
) -> _PreparedInstance:
    tensors = []
    metas = []
    for i in cand_idx:
        tensors.append(
            build_pair_tensor(
                instance.sentences,
                cand_sentences[i],
                nli_provider,
                model.encoder.config.in_channels,
            )
        )
        metas.append(
            build_metadata(
                candidates[i],
                len(cand_sentences[i]),
                instance.source,
                len(instance.sentences),
                model.tfidf,
                model.layout,
            )
        )
    return _PreparedInstance(
        tensors=tensors,
        metas=metas,
        rqe_embedding=np.asarray(instance.rqe_embedding, dtype=np.float64),
        cand_idx=cand_idx,
    )


def _candidate_sentences(question: QuestionRecord) -> list[tuple[str, ...]]:
    return [tuple(split_sentences(candidate.text)) for candidate in question.candidates]


def _prepare_retrieved(
    model: JointModel,
    question: QuestionRecord,
    index: EntailmentIndex,
    nli_provider: Provider,
    retrieval_config: RetrievalConfig,
    augment: bool = False,
) -> list[_PreparedInstance]:
    """One prepared instance per retrieved hit, over all of the question's
    candidates; with ``augment``, then one per ``augment_training`` instance.
    Every retrieval and RQE call precedes the first NLI call."""
    cand_sentences = _candidate_sentences(question)
    candidates = list(question.candidates)
    all_idx = tuple(range(len(candidates)))
    pieces = [
        (instance_from_retrieved(hit), all_idx)
        for hit in retrieve(index, question.text, retrieval_config)
    ]
    if augment:
        pieces.extend(augment_training(question, index.provider))
    return [
        _prepare_instance(
            model, instance, cand_idx, candidates, cand_sentences, nli_provider
        )
        for instance, cand_idx in pieces
    ]


def _joint_rows(model: JointModel, instances: list[_PreparedInstance]) -> np.ndarray:
    """(n, joint_dim) rows [encoded NLI map; RQE embedding; metadata], one per
    candidate of each instance in order; every map goes through one encoder
    call."""
    nli = model.encoder.forward([tensor for inst in instances for tensor in inst.tensors])
    side = np.stack(
        [
            np.concatenate([inst.rqe_embedding, meta])
            for inst in instances
            for meta in inst.metas
        ]
    )
    return np.concatenate([nli, side], axis=1)


def _ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) row indices of every ordered pair i != j, i-major."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _head_forward(head: Sequential, matrix: np.ndarray) -> np.ndarray:
    """Head logit per row; in train mode a batch of one falls back to running
    stats, and the head is left in the mode it was found in."""
    if not head.training or matrix.shape[0] >= 2:
        return head.forward(matrix)[:, 0]
    head.train(False)
    try:
        return head.forward(matrix)[:, 0]
    finally:
        head.train(True)


def question_loss(
    model: JointModel,
    prepared: _PreparedQuestion,
    alpha: float,
    compute_grads: bool = True,
) -> float:
    """Forward (and optionally backward) for one question batch.

    Returns L_total = sum over instances of the summed filter BCE plus alpha
    times the summed pairwise BCE over all ordered candidate pairs, each
    taken on the head's logits.
    """
    joint_matrix = _joint_rows(model, prepared.instances)
    cand = np.concatenate([inst.cand_idx for inst in prepared.instances])
    total, d_filter = logit_bce(
        _head_forward(model.filter_head, joint_matrix), prepared.labels[cand]
    )

    # Pairs never cross instances: each instance's pairs, shifted to its rows.
    sizes = [len(inst.cand_idx) for inst in prepared.instances]
    starts = np.cumsum([0] + sizes[:-1])
    first, second = np.concatenate(
        [np.add(_ordered_pairs(size), start) for size, start in zip(sizes, starts)],
        axis=1,
    )
    if len(first):
        row_ranks = np.asarray(prepared.ranks)[cand]
        pair_targets = (row_ranks[first] < row_ranks[second]).astype(np.float64)
        pair_loss, d_pair = logit_bce(
            _head_forward(
                model.pair_head,
                np.concatenate([joint_matrix[first], joint_matrix[second]], axis=1),
            ),
            pair_targets,
        )
        total += alpha * pair_loss

    if not compute_grads:
        model.clear_cache()
        return total

    d_joint = np.zeros_like(joint_matrix)
    if len(first):
        d_pair_matrix = model.pair_head.backward(alpha * d_pair[:, None])
        width = joint_matrix.shape[1]
        # Row r of d_pair_matrix is [d first | d second]; the interleaved index
        # adds the halves in pair order, as a loop over the pairs would.
        np.add.at(
            d_joint,
            np.stack([first, second], axis=1).ravel(),
            d_pair_matrix.reshape(-1, width),
        )
    d_joint += model.filter_head.backward(d_filter[:, None])

    model.encoder.backward(d_joint[:, : model.encoder.out_dim])
    return total


class JointTrainer:
    """Prepares frozen per-question batches and runs seeded training epochs."""

    def __init__(
        self,
        model: JointModel,
        nli_provider: Provider,
        index: EntailmentIndex,
        config: TrainConfig,
    ):
        self.model = model
        self.nli_provider = nli_provider
        self.index = index
        self.config = config
        self.prepared: list[_PreparedQuestion] = []
        self.epochs_run = 0
        params = model.params()
        if config.optimizer == "adam":
            self.optimizer = Adam(params, lr=config.lr)
        else:
            self.optimizer = SGD(params, lr=config.lr)

    def prepare(self, dataset: Dataset) -> None:
        """Retrieve, augment, and embed every question once; order-stable."""
        self.prepared = []
        for question in dataset.questions:
            labels = []
            ranks = []
            for candidate in question.candidates:
                if candidate.reference_score is None or candidate.reference_rank is None:
                    raise SchemaError(
                        f"question {question.question_id!r}: training needs "
                        "reference_rank and reference_score on every candidate"
                    )
                labels.append(derive_label(candidate.reference_score))
                ranks.append(candidate.reference_rank)
            self.prepared.append(
                _PreparedQuestion(
                    question_id=question.question_id,
                    labels=np.asarray(labels, dtype=np.float64),
                    ranks=ranks,
                    instances=_prepare_retrieved(
                        self.model,
                        question,
                        self.index,
                        self.nli_provider,
                        self.config.retrieval,
                        augment=self.config.augmentation,
                    ),
                )
            )

    def run_epoch(self) -> list[float]:
        """One optimizer step per question; returns per-question losses.

        A non-finite loss raises ``MedrankError`` before its step, so the
        in-place optimizer state never takes a NaN.
        """
        if not self.prepared:
            raise SchemaError("trainer not prepared; call prepare(dataset) first")
        self.model.train()
        epoch = self.epochs_run + 1
        losses = []
        for prepared in self.prepared:
            self.optimizer.zero_grad()
            loss = question_loss(self.model, prepared, self.config.alpha)
            if not math.isfinite(loss):
                raise MedrankError(
                    f"non-finite loss {loss} on question {prepared.question_id!r} "
                    f"in epoch {epoch}; training stopped before the optimizer step"
                )
            self.optimizer.step()
            losses.append(loss)
        self.epochs_run = epoch
        return losses


def train_joint(
    model: JointModel,
    dataset: Dataset,
    index: EntailmentIndex,
    nli_provider: Provider,
    config: TrainConfig,
) -> list[list[float]]:
    """Full training loop; leaves the model in eval mode."""
    trainer = JointTrainer(model, nli_provider, index, config)
    trainer.prepare(dataset)
    history = [trainer.run_epoch() for _ in range(config.epochs)]
    model.eval()
    return history


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def infer(
    model: JointModel,
    question: QuestionRecord,
    index: EntailmentIndex,
    nli_provider: Provider,
    retrieval_config: RetrievalConfig,
) -> Prediction:
    """Ensemble filtering and ranking over the retrieved entailed answers.

    The sigmoid of each head logit is its probability: relevance(i) =
    [mean_k filter_k(i) >= 0.5]; ranking score s(i) = sum_k sum_{j != i}
    pair_k(i, j), sorted descending with ties broken by ascending system
    rank. Runs in eval mode without gradients, then leaves every module's
    training and gradient flags as it found them.
    """
    modules = list(model.modules())
    flags = [(m.training, m.grad_enabled) for m in modules]
    for module in modules:
        module.training = module.grad_enabled = False
        module._ctx.clear()
    try:
        candidates = list(question.candidates)
        n = len(candidates)
        preps = _prepare_retrieved(model, question, index, nli_provider, retrieval_config)
        rows = _joint_rows(model, preps)
        first, second = _ordered_pairs(n)
        filter_sum = np.zeros(n)
        pair_sum = np.zeros((n, n))
        for start in range(0, len(rows), n):
            joints = rows[start : start + n]
            filter_sum += sigmoid(_head_forward(model.filter_head, joints))
            if n > 1:
                pair_sum[first, second] += sigmoid(
                    _head_forward(
                        model.pair_head,
                        np.concatenate([joints[first], joints[second]], axis=1),
                    )
                )
        mean_filter = filter_sum / len(preps)
        scores = pair_sum.sum(axis=1)
        order = sorted(
            range(n), key=lambda i: (-scores[i], candidates[i].system_rank)
        )
        ranking = tuple(candidates[i].answer_id for i in order)
        relevant = tuple(
            candidates[i].answer_id for i in order if mean_filter[i] >= 0.5
        )
        return Prediction(
            question_id=question.question_id,
            ranking=ranking,
            relevant=relevant,
            scores={candidates[i].answer_id: float(scores[i]) for i in range(n)},
        )
    finally:
        for module, (training, grad_enabled) in zip(modules, flags):
            module.training = training
            module.grad_enabled = grad_enabled


def predict_dataset(
    model: JointModel,
    dataset: Dataset,
    index: EntailmentIndex,
    nli_provider: Provider,
    retrieval_config: RetrievalConfig,
) -> list[Prediction]:
    return [
        infer(model, question, index, nli_provider, retrieval_config)
        for question in dataset.questions
    ]


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_joint_model(
    model: JointModel,
    path: str | Path,
    train_config: TrainConfig,
    provider_config: ProviderConfig,
    provider_tfidf: TfidfModel | None = None,
) -> None:
    """Self-contained checkpoint: config, layouts, TF-IDF models, weights."""
    encoder_cfg = model.encoder.config
    meta = {
        "kind": "joint",
        "encoder": {
            "in_channels": encoder_cfg.in_channels,
            "layers": [
                {
                    "channels": s.channels,
                    "kernel": list(s.kernel),
                    "stride": list(s.stride),
                    "padding": list(s.padding),
                    "batchnorm": s.batchnorm,
                }
                for s in encoder_cfg.layers
            ],
        },
        "filter_widths": list(model.filter_config.widths),
        "pair_widths": list(model.pair_config.widths),
        "layout": model.layout.to_dict(),
        "tfidf": model.tfidf.to_dict(),
        "rqe_dim": model.rqe_dim,
        "train": {
            "alpha": train_config.alpha,
            "epochs": train_config.epochs,
            "lr": train_config.lr,
            "optimizer": train_config.optimizer,
            "seed": train_config.seed,
            "augmentation": train_config.augmentation,
            "retrieval_N": train_config.retrieval.N,
            "retrieval_T": train_config.retrieval.T,
            "retrieval_swap_direction": train_config.retrieval.swap_direction,
        },
        **provider_meta(provider_config, provider_tfidf),
    }
    arrays = {f"param.{name}": t.data for name, t in model.named_params()}
    arrays.update({f"buffer.{name}": b for name, b in model.named_buffers()})
    write_manifest(path, meta, arrays)


def load_joint_model(path: str | Path) -> tuple[JointModel, dict]:
    meta, arrays = read_manifest(path)
    return joint_model_from_manifest(meta, arrays, str(path)), meta


def joint_model_from_manifest(
    meta: dict, arrays: dict[str, np.ndarray], where: str = "<checkpoint>"
) -> JointModel:
    """The model a ``save_joint_model`` manifest describes, in eval mode."""
    if meta.get("kind") != "joint":
        raise SchemaError(f"{where}: not a joint-model checkpoint")
    encoder_cfg = ConvEncoderConfig(
        in_channels=meta["encoder"]["in_channels"],
        layers=tuple(
            ConvLayerSpec(
                channels=s["channels"],
                kernel=tuple(s["kernel"]),
                stride=tuple(s["stride"]),
                padding=tuple(s["padding"]),
                batchnorm=s["batchnorm"],
            )
            for s in meta["encoder"]["layers"]
        ),
    )
    model = build_joint_model(
        MetadataLayout.from_dict(meta["layout"]),
        TfidfModel.from_dict(meta["tfidf"], where),
        encoder_cfg,
        rqe_dim=int(meta["rqe_dim"]),
        seed=int(meta["train"]["seed"]),
        filter_config=HeadConfig(tuple(meta["filter_widths"])),
        pair_config=HeadConfig(tuple(meta["pair_widths"])),
    )
    for name, tensor in model.named_params():
        stored = arrays.get(f"param.{name}")
        if stored is None or stored.shape != tensor.data.shape:
            raise SchemaError(f"{where}: checkpoint missing or misshaped {name!r}")
        tensor.data[...] = stored
    for name, buffer in model.named_buffers():
        stored = arrays.get(f"buffer.{name}")
        if stored is None or stored.shape != buffer.shape:
            raise SchemaError(f"{where}: checkpoint missing or misshaped buffer {name!r}")
        buffer[...] = stored
    model.eval()
    return model


def predict_checkpoint(
    meta: dict,
    arrays: dict[str, np.ndarray],
    dataset: Dataset,
    corpus_pairs: list[QAPair],
    where: str = "<checkpoint>",
) -> list[Prediction]:
    """``predict`` for a joint checkpoint: its model, provider and retrieval."""
    try:
        model = joint_model_from_manifest(meta, arrays, where)
        provider = provider_from_meta(meta, where)
        train = meta["train"]
        retrieval_config = RetrievalConfig(
            N=int(train["retrieval_N"]),
            T=float(train["retrieval_T"]),
            swap_direction=bool(train.get("retrieval_swap_direction", False)),
        )
    except KeyError as exc:
        raise SchemaError(f"{where}: joint checkpoint lacks field {exc}") from exc
    index = EntailmentIndex(corpus_pairs, provider)
    return predict_dataset(model, dataset, index, provider, retrieval_config)
