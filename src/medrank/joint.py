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

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import (
    CandidateAnswer, Dataset, QAPair, QuestionRecord, derive_label, fit_source_vocab,
)
from .errors import DimensionError, MedrankError, SchemaError, read_record
from .evalkit import Prediction, prediction_from_scores
from .preprocess import split_sentences
from .providers import (
    Provider,
    ProviderConfig,
    TfidfModel,
    fit_metadata_tfidf,
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
    stored_array,
    write_manifest,
    _Optimizer,
)


# ---------------------------------------------------------------------------
# Convolutional encoder and model sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvLayerSpec:
    channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: tuple[int, int]
    batchnorm: bool

    def __post_init__(self):
        if min(self.channels, *self.kernel, *self.stride) < 1 or min(self.padding) < 0:
            raise DimensionError("conv channels, kernel and stride must be >= 1, padding >= 0")


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

    def __post_init__(self):
        if self.in_channels < 1 or not self.layers:
            raise DimensionError("the encoder needs in_channels >= 1 and a layer")

    @property
    def out_dim(self) -> int:
        return 4 * self.layers[-1].channels

    @classmethod
    def default(cls) -> "ConvEncoderConfig":
        """The paper's stack over the default provider's D channels."""
        return cls(ProviderConfig().D, PAPER_SIZES.encoder)

    @classmethod
    def scaled_down(cls) -> "ConvEncoderConfig":
        """Same structure at toy channel counts; pooled output is 16 wide."""
        return cls(SCALED_SIZES.D, SCALED_SIZES.encoder)


@dataclass(frozen=True)
class ModelSizes:
    """The joint model's sizes: ``PAPER_SIZES``, or ``SCALED_SIZES`` under
    ``--scaled-down``. ``M=None`` packs the metadata layout. ``D`` (provider
    embedding width = encoder input channels = RQE width) and ``V`` (metadata
    TF-IDF terms) are ``None`` where ``RunConfig.model_sizes`` fills them in."""

    M: int | None
    encoder: tuple[ConvLayerSpec, ...]
    filter_hidden: tuple[int, ...]
    pair_hidden: tuple[int, ...]
    D: int | None = None
    V: int | None = None

    def filter_head(self, input_dim: int) -> "HeadConfig":
        return HeadConfig((input_dim, *self.filter_hidden, 1))

    def pair_head(self, input_dim: int) -> "HeadConfig":
        return HeadConfig((input_dim, *self.pair_hidden, 1))


def _convs(*channels: int) -> tuple[ConvLayerSpec, ...]:
    """The five conv layers at ``channels``: both presets share the square
    kernels, strides and padding, and which layers take batchnorm."""
    kernels, strides, paddings = (1, 3, 3, 2, 3), (1, 1, 2, 1, 1), (1, 2, 1, 1, 2)
    batchnorm = (True, True, False, True, False)
    layers = zip(channels, kernels, strides, paddings, batchnorm)
    return tuple(ConvLayerSpec(c, (k, k), (s, s), (p, p), b) for c, k, s, p, b in layers)


PAPER_SIZES = ModelSizes(2032, _convs(768, 512, 512, 256, 256), (2048, 1024, 512, 512, 256, 64),
                         (3824, 2048, 1024, 512, 512, 256, 64))
SCALED_SIZES = ModelSizes(None, _convs(8, 6, 6, 4, 4), (24, 12), (48, 24, 12), D=8, V=16)


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
    channels: int,
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


def _metadata_offsets(
    candidate_sources: tuple[str, ...], entailed_sources: tuple[str, ...], V: int
) -> dict[str, int]:
    """Each metadata slot's offset, in vector order; the zero padding up to M
    starts at ``"pad"``, the packed width."""
    widths = {
        "candidate_source": len(candidate_sources),
        "entailed_source": len(entailed_sources),
        "candidate_sentences": 1,
        "entailed_sentences": 1,
        "system_rank": 1,
        "tfidf": V,
    }
    return dict(zip([*widths, "pad"], itertools.accumulate(widths.values(), initial=0)))


@dataclass(frozen=True)
class MetadataLayout:
    """The metadata vector's source vocabularies and widths; ``offsets``
    gives its slots."""

    candidate_sources: tuple[str, ...]
    entailed_sources: tuple[str, ...]
    V: int
    M: int

    def __post_init__(self):
        if self.offsets["pad"] > self.M:
            raise DimensionError(f"metadata needs {self.offsets['pad']} slots but M={self.M}")

    @functools.cached_property
    def offsets(self) -> dict[str, int]:
        return _metadata_offsets(self.candidate_sources, self.entailed_sources, self.V)


def fit_metadata_layout(
    questions: list[QuestionRecord], corpus_pairs: list[QAPair], V: int, M: int | None
) -> MetadataLayout:
    """Freeze source vocabularies from training data.

    Candidate sources may appear on the entailed side through training-time
    augmentation, so the entailed vocabulary covers both corpus and
    candidate sources. With M=None the layout is packed without padding.
    """
    candidate_sources = fit_source_vocab(questions)
    entailed_sources = tuple(
        sorted({p.source for p in corpus_pairs} | set(candidate_sources))
    )
    if M is None:
        M = _metadata_offsets(candidate_sources, entailed_sources, V)["pad"]
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
    vec, at = np.zeros(layout.M), layout.offsets
    if candidate.source in layout.candidate_sources:
        vec[at["candidate_source"] + layout.candidate_sources.index(candidate.source)] = 1.0
    if entailed_source in layout.entailed_sources:
        vec[at["entailed_source"] + layout.entailed_sources.index(entailed_source)] = 1.0
    vec[at["candidate_sentences"]] = candidate_sentence_count
    vec[at["entailed_sentences"]] = entailed_sentence_count
    vec[at["system_rank"]] = candidate.system_rank
    vec[at["tfidf"] : at["tfidf"] + layout.V] = tfidf_transform(tfidf, candidate.text)
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
        return PAPER_SIZES.filter_head(input_dim)

    @classmethod
    def default_pair(cls, input_dim: int = 7648) -> "HeadConfig":
        return PAPER_SIZES.pair_head(input_dim)

    @classmethod
    def scaled_filter(cls, input_dim: int) -> "HeadConfig":
        return SCALED_SIZES.filter_head(input_dim)

    @classmethod
    def scaled_pair(cls, input_dim: int) -> "HeadConfig":
        return SCALED_SIZES.pair_head(input_dim)


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
        for key in ("alpha", "lr"):
            if not math.isfinite(getattr(self, key)):
                raise SchemaError(f"{key} must be finite, got {getattr(self, key)}")
        if self.alpha < 0:
            raise SchemaError("alpha must be >= 0")
        if self.epochs < 1:
            raise SchemaError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise SchemaError(f"lr must be > 0, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise SchemaError(f"unknown optimizer {self.optimizer!r}")


def head_inputs(
    encoder: ConvEncoderConfig, rqe_dim: int, layout: MetadataLayout
) -> tuple[int, int]:
    """The filter head's input width, one joint row [encoded NLI map; RQE
    embedding; metadata], and the pair head's, two joint rows side by side."""
    width = encoder.out_dim + rqe_dim + layout.M
    return width, 2 * width


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

    def audit_dimensions(self) -> None:
        if len(self.tfidf.vocabulary) != self.layout.V:
            raise DimensionError(
                f"metadata TF-IDF vocabulary size {len(self.tfidf.vocabulary)} != "
                f"layout V={self.layout.V}"
            )
        inputs = head_inputs(self.encoder.config, self.rqe_dim, self.layout)
        if (self.filter_config.widths[0], self.pair_config.widths[0]) != inputs:
            raise DimensionError(
                f"filtering and pairwise head inputs {self.filter_config.widths[0]} and "
                f"{self.pair_config.widths[0]} != one and two joint rows' width {inputs}"
            )


def build_joint_model(
    layout: MetadataLayout,
    tfidf: TfidfModel,
    encoder_config: ConvEncoderConfig,
    rqe_dim: int,
    seed: int,
    *,
    filter_config: HeadConfig,
    pair_config: HeadConfig,
    init: bool = True,
) -> JointModel:
    """The joint model, every parameter born in its one store (``model.store``)
    and He weights drawn from ``default_rng(seed)``; ``init=False`` draws none."""
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
    ).materialize(init)


def new_model(
    sizes: ModelSizes, seed: int, questions: Sequence[QuestionRecord], pairs: list[QAPair]
) -> JointModel:
    """The model ``train-joint`` trains at ``sizes`` (D and V set): a V-term
    metadata TF-IDF over the corpus answers, the training ``questions``' layout
    at width M, an encoder over D channels, D-wide RQE rows, and the heads."""
    tfidf = fit_metadata_tfidf(pairs, sizes.V)
    layout = fit_metadata_layout(list(questions), pairs, V=len(tfidf.vocabulary), M=sizes.M)
    encoder = ConvEncoderConfig(sizes.D, sizes.encoder)
    filter_input, pair_input = head_inputs(encoder, sizes.D, layout)
    return build_joint_model(
        layout, tfidf, encoder, sizes.D, seed,
        filter_config=sizes.filter_head(filter_input), pair_config=sizes.pair_head(pair_input),
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


def _question_forward(
    model: JointModel, instances: list[_PreparedInstance]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One question's forward, shared by ``question_loss`` and ``infer``.

    Returns ``(rows, cand, first, second, filter_logits, pair_logits)``: the
    (n, width) joint rows [encoded NLI map; RQE embedding; metadata], one per
    candidate of each instance, from one encoder call; each row's candidate
    index; the rows of every ordered pair; one filter logit per row; and one
    pair logit per pair (the pair head is not called when there are none).
    """
    nli = model.encoder.forward([tensor for inst in instances for tensor in inst.tensors])
    side = np.stack(
        [
            np.concatenate([inst.rqe_embedding, meta])
            for inst in instances
            for meta in inst.metas
        ]
    )
    rows = np.concatenate([nli, side], axis=1)
    cand = np.concatenate([inst.cand_idx for inst in instances])
    filter_logits = _head_forward(model.filter_head, rows)
    # Pairs never cross instances: each instance's pairs i != j, i-major,
    # shifted to its rows.
    sizes = [len(inst.cand_idx) for inst in instances]
    starts = np.cumsum([0] + sizes[:-1])
    first, second = np.concatenate(
        [
            np.add(np.nonzero(~np.eye(size, dtype=bool)), start)
            for size, start in zip(sizes, starts)
        ],
        axis=1,
    )
    pair_logits = (
        _head_forward(model.pair_head, np.concatenate([rows[first], rows[second]], axis=1))
        if len(first)
        else np.zeros(0)
    )
    return rows, cand, first, second, filter_logits, pair_logits


class NonFiniteLoss(MedrankError):
    """A question's loss is NaN or infinite; raised before its backward."""


def question_loss(
    model: JointModel,
    prepared: _PreparedQuestion,
    alpha: float,
    compute_grads: bool = True,
    optimizer: _Optimizer | None = None,
) -> float:
    """Forward (and optionally backward) for one question batch.

    Returns L_total = sum over instances of the summed filter BCE plus alpha
    times the summed pairwise BCE over all ordered candidate pairs, each
    taken on the head's logits. With ``compute_grads``, a non-finite loss
    raises ``NonFiniteLoss`` before backward, so no gradient takes a NaN.

    Each head and the encoder run backward once, so a head's gradients are
    final when its backward returns. With an ``optimizer``, the filter
    head's parameters are handed off to it then, and the pair head's after
    theirs, so their updates overlap the rest of backward (see
    ``_Optimizer.hand_off``); the caller's ``optimizer.step()`` does the
    rest. No later layer reads a handed-off parameter. A backward that
    fails after a hand-off joins the optimizer's workers before it raises.
    """
    joint_matrix, cand, first, second, filter_logits, pair_logits = _question_forward(
        model, prepared.instances
    )
    total, d_filter = logit_bce(filter_logits, prepared.labels[cand])
    if len(first):
        row_ranks = np.asarray(prepared.ranks)[cand]
        pair_targets = (row_ranks[first] < row_ranks[second]).astype(np.float64)
        pair_loss, d_pair = logit_bce(pair_logits, pair_targets)
        total += alpha * pair_loss

    if not compute_grads:
        model.clear_cache()
        return total
    if not math.isfinite(total):
        model.clear_cache()
        raise NonFiniteLoss(f"non-finite loss {total} on question {prepared.question_id!r}")

    try:
        # The filter head's backward runs first, so its update overlaps the
        # pair head's backward too; its rows join d_joint after the pairs',
        # in the order the sums always took.
        d_filter_rows = model.filter_head.backward(d_filter[:, None])
        if optimizer is not None:
            optimizer.hand_off(model.filter_head)
        d_joint = np.zeros_like(joint_matrix)
        if len(first):
            d_pair_matrix = model.pair_head.backward(alpha * d_pair[:, None])
            width = joint_matrix.shape[1]
            # Row r of d_pair_matrix is [d first | d second]; the interleaved
            # index adds the halves in pair order, as a loop over the pairs would.
            np.add.at(
                d_joint,
                np.stack([first, second], axis=1).ravel(),
                d_pair_matrix.reshape(-1, width),
            )
        if optimizer is not None:
            optimizer.hand_off(model.pair_head)
        d_joint += d_filter_rows
        model.encoder.backward(d_joint[:, : model.encoder.out_dim])
    except BaseException:
        if optimizer is not None:
            optimizer.join()
        raise
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
        if config.optimizer == "adam":
            self.optimizer = Adam(model.store, lr=config.lr)
        else:
            self.optimizer = SGD(model.store, lr=config.lr)

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

        The heads' updates start during backward (see ``question_loss``). A
        non-finite loss raises ``MedrankError`` before its backward, so no
        update starts and the in-place optimizer state never takes a NaN.
        """
        if not self.prepared:
            raise SchemaError("trainer not prepared; call prepare(dataset) first")
        self.model.train()
        epoch = self.epochs_run + 1
        losses = []
        for prepared in self.prepared:
            self.optimizer.zero_grad()
            try:
                loss = question_loss(
                    self.model, prepared, self.config.alpha, optimizer=self.optimizer
                )
            except NonFiniteLoss as exc:
                raise MedrankError(
                    f"{exc} in epoch {epoch}; training stopped before its backward"
                ) from None
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
        n = len(question.candidates)
        preps = _prepare_retrieved(model, question, index, nli_provider, retrieval_config)
        _, cand, first, second, filter_logits, pair_logits = _question_forward(model, preps)
        # Both sums add hit by hit in retrieval order.
        filter_sum = np.bincount(cand, weights=sigmoid(filter_logits), minlength=n)
        pair_sum = np.zeros((n, n))
        np.add.at(pair_sum, (cand[first], cand[second]), sigmoid(pair_logits))
        mean_filter = filter_sum / len(preps)
        scores = pair_sum.sum(axis=1)
        return prediction_from_scores(question, scores, mean_filter)
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
    provider_tfidf: TfidfModel | None,
) -> None:
    """Self-contained checkpoint: config, layouts, TF-IDF models, weights.
    A non-finite parameter or buffer raises ``MedrankError``, and nothing is
    written."""
    meta = {
        "kind": "joint",
        "encoder": dataclasses.asdict(model.encoder.config),
        "filter_widths": list(model.filter_config.widths),
        "pair_widths": list(model.pair_config.widths),
        "layout": dataclasses.asdict(model.layout),
        "tfidf": model.tfidf.to_dict(),
        "rqe_dim": model.rqe_dim,
        "train": {
            **{k: v for k, v in dataclasses.asdict(train_config).items() if k != "retrieval"},
            **{f"retrieval_{k}": v for k, v in dataclasses.asdict(train_config.retrieval).items()},
        },
        **provider_meta(provider_config, provider_tfidf),
    }
    arrays = {f"param.{name}": t.data for name, t in model.named_params()}
    arrays.update({f"buffer.{name}": b for name, b in model.named_buffers()})
    write_manifest(path, meta, arrays)


def load_joint_model(path: str | Path) -> tuple[JointModel, dict]:
    meta, arrays = read_manifest(path)
    return joint_model_from_manifest(meta, arrays, str(path)), meta


@dataclass(frozen=True)
class _StoredSeed:
    seed: int


@dataclass(frozen=True)
class _StoredModel:
    """The fields of a joint checkpoint's ``meta`` that rebuild its model."""

    encoder: ConvEncoderConfig
    filter_widths: tuple[int, ...]
    pair_widths: tuple[int, ...]
    layout: MetadataLayout
    tfidf: TfidfModel
    rqe_dim: int
    train: _StoredSeed


def joint_model_from_manifest(
    meta: dict, arrays: dict[str, np.ndarray], where: str = "<checkpoint>"
) -> JointModel:
    """The model a ``save_joint_model`` manifest describes, in eval mode."""
    if meta.get("kind") != "joint":
        raise SchemaError(f"{where}: not a joint-model checkpoint")
    stored = read_record(_StoredModel, meta, where)
    try:
        model = build_joint_model(
            stored.layout,
            stored.tfidf,
            stored.encoder,
            stored.rqe_dim,
            stored.train.seed,
            filter_config=HeadConfig(stored.filter_widths),
            pair_config=HeadConfig(stored.pair_widths),
            init=False,
        )
    except DimensionError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    for name, tensor in model.named_params():
        tensor.data[...] = stored_array(arrays, f"param.{name}", tensor.data.shape, where)
    for name, buffer in model.named_buffers():
        buffer[...] = stored_array(arrays, f"buffer.{name}", buffer.shape, where)
    model.eval()
    return model


def predict_checkpoint(
    meta: dict,
    arrays: dict[str, np.ndarray],
    dataset: Dataset,
    corpus_pairs: list[QAPair],
    where: str = "<checkpoint>",
    check: Callable[[str, RetrievalConfig, ProviderConfig, TfidfModel], None] | None = None,
) -> list[Prediction]:
    """``predict`` for a joint checkpoint: its model, provider and retrieval.
    ``check`` gets ``where``, the stored retrieval and provider settings and
    the metadata TF-IDF first."""
    model = joint_model_from_manifest(meta, arrays, where)
    provider = provider_from_meta(meta, where)
    D, encoder = provider.config.D, model.encoder.config
    if D != encoder.in_channels or D != model.rqe_dim:
        raise SchemaError(
            f"{where}: provider D={D} must equal the encoder's in_channels "
            f"({encoder.in_channels}) and rqe_dim ({model.rqe_dim})"
        )
    retrieval_config = read_record(
        RetrievalConfig, meta.get("train"), where, ("swap_direction",),
        key="train", prefix="retrieval_",
    )
    if check is not None:
        check(where, retrieval_config, provider.config, model.tfidf)
    index = EntailmentIndex(corpus_pairs, provider)
    return predict_dataset(model, dataset, index, provider, retrieval_config)
