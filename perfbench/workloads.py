"""The three medrank workloads and the pipeline rounds that run them.

Each workload calls the package's public API in the order the CLI commands
do, on inputs generated from the workload seed, written to a temporary
directory and read back through the ``corpus`` JSONL loaders. One round is
the whole pipeline from a fresh state: set-up, training, prediction and
evaluation. Rounds repeat until the run's time is up (at least
``MIN_ROUNDS``); every round of one seed must reproduce the first round's
output fingerprint.

Program settings stay at their CLI defaults unless a workload names an
override; the seed changes only the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from medrank import baseline as bl
from medrank import evalkit
from medrank.config import RunConfig
from medrank.corpus import derive_label, load_dataset, load_qa_corpus
from medrank.joint import (
    ConvEncoderConfig,
    HeadConfig,
    JointTrainer,
    TrainConfig,
    build_joint_model,
    fit_metadata_layout,
    infer,
    load_joint_model,
    save_joint_model,
)
from medrank.providers import TfidfCosineProvider, TfidfModel, fit_tfidf
from medrank.retrieval import EntailmentIndex, RetrievalConfig, retrieve
from medrank.synth import SynthConfig, write_synth

from hostspeed import REFERENCE_S, HostSpeed
from spans import TracedIndex, TracedOptimizer, TracedProvider, Tracer, instrument_model

MIN_ROUNDS = 3
# No round starts once this much of the run is gone, so a run ends well
# inside the 180 s a run may take.
ROUND_DEADLINE_S = 120.0
# Spans must account for a stage's wall time to 1%, or to 1 ms on tiny stages.
RECONCILE_TOLERANCE = 0.01
RECONCILE_FLOOR_S = 1e-3
SEGMENT_S = 1.0
P90_MIN_SAMPLES = 100
STAGES = ("setup", "train", "predict", "evaluate")


@dataclass(frozen=True)
class Workload:
    """Sizes and settings of one workload, with the reason it exists.

    ``flat`` names the modules a change elsewhere should leave unmoved on
    this workload.
    """

    name: str
    why: str
    flat: str
    kind: str  # "joint" or "baseline"
    scaled_down: bool
    topics: int
    train_questions: int
    val_questions: int
    epochs: int = 1
    checkpoint: bool = False
    settings: tuple[tuple[str, str], ...] = ()
    # Stages whose cost is interpreter and small-call overhead, which the
    # host-speed kernel tracks; BLAS-bound stages are left in wall seconds.
    calibrated: tuple[str, ...] = ("setup",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scaled_joint",
            why=(
                "Desk-scale joint pipeline: thousands of tiny conv calls per "
                "epoch make per-call overhead the cost; the encoder takes ~92% "
                "of an epoch, the optimizer ~2% and the heads ~3%."
            ),
            flat=(
                "Adam and pair-head changes and retrieval changes: the model "
                "is 8 channels wide and the corpus has 3 pairs."
            ),
            kind="joint",
            scaled_down=True,
            topics=3,
            train_questions=50,
            val_questions=100,
            epochs=4,
            checkpoint=True,
            settings=(("train.lr", "0.003"),),
            calibrated=("setup", "train", "predict"),
        ),
        Workload(
            name="paper_joint",
            why=(
                "Paper-size joint model (58.6M parameters): the dense-BLAS and "
                "memory-traffic regime where Adam, zero_grad, conv backward and "
                "the 7648-wide pair head dominate a training step."
            ),
            flat=(
                "Retrieval: the corpus has 3 pairs. No checkpoint: a JSON "
                "round trip at this size takes over a minute."
            ),
            kind="joint",
            scaled_down=False,
            topics=3,
            train_questions=1,
            val_questions=12,
            epochs=3,
        ),
        Workload(
            name="retrieval_baseline",
            why=(
                "Feature baseline over a 300-pair corpus with a 1,206-term "
                "provider vocabulary: every cold query projects every corpus "
                "pair through a 768x2V matrix though at most 3 are kept."
            ),
            flat=(
                "tensornet: no joint model is built. Queries are mostly "
                "distinct, so the provider memo repeats little."
            ),
            kind="baseline",
            scaled_down=False,
            topics=300,
            train_questions=16,
            val_questions=20,
        ),
    )
}


# ---------------------------------------------------------------------------
# Operation accounting
# ---------------------------------------------------------------------------


@dataclass
class Ops:
    """Attempted and failed operations; one per training pass or prediction."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.fail(problem)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(problem)


def check_prediction(question, prediction) -> str | None:
    """Why a prediction is invalid for its question, or None when it is valid."""
    ids = [c.answer_id for c in question.candidates]
    if sorted(prediction.ranking) != sorted(ids):
        return f"{question.question_id}: ranking is not a permutation of the candidates"
    if not set(prediction.relevant) <= set(prediction.ranking):
        return f"{question.question_id}: relevant set is not a subset of the ranking"
    if not all(math.isfinite(v) for v in (prediction.scores or {}).values()):
        return f"{question.question_id}: non-finite score"
    return None


def fingerprint(training: list, predictions: list) -> str:
    """SHA-256 of the training outputs and predictions, floats in hex."""
    digest = hashlib.sha256()
    for values in training:
        digest.update(" ".join(float(v).hex() for v in values).encode())
        digest.update(b"\n")
    for p in predictions:
        scores = sorted((k, float(v).hex()) for k, v in (p.scores or {}).items())
        record = [p.question_id, list(p.ranking), list(p.relevant), scores]
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """Wall seconds per stage, and the same in reference seconds (``*_ref``)."""

    setup_s: float = 0.0
    train_s: float = 0.0
    train_ops: int = 0
    predict_s: float = 0.0
    predict_ops: int = 0
    setup_ref: float = 0.0
    train_ref: float = 0.0
    predict_ref: float = 0.0
    fingerprint: str = ""
    report: object = None
    checkpoint_bytes: int = 0


@dataclass
class Hooks:
    """Fault injection for the self-test; the benchmark runs with none."""

    wrap_model: object = None  # called on each joint model before use
    wrap_prediction: object = None  # called on each prediction


class StageClock:
    """Stage timer that pauses at safe points to sample the host's speed.

    In a calibrated stage, the time is cut into segments of at least
    ``SEGMENT_S``. Between segments the host-speed kernel runs, outside the
    stage's time, and each segment converts to reference seconds with the
    mean of the samples on its two sides, so drift within a long stage is
    tracked too. An uncalibrated stage reports wall seconds as reference
    seconds and never runs the kernel.
    """

    def __init__(self, speed: HostSpeed):
        self._speed = speed
        self._calibrated = False
        self._last = 0.0
        self._last_at = -math.inf
        self.wall = self.ref = 0.0
        self._started = time.perf_counter()

    def _sample(self, span) -> float:
        with span("hostspeed.sample"):
            self._last = self._speed.sample()
        self._last_at = time.perf_counter()
        return self._last

    def start(self, calibrated: bool, span=nullcontext) -> None:
        self._calibrated = calibrated
        if calibrated and time.perf_counter() - self._last_at > SEGMENT_S:
            self._sample(span)
        self.wall = self.ref = 0.0
        self._started = time.perf_counter()

    def split(self, span=nullcontext, force: bool = False) -> None:
        segment = time.perf_counter() - self._started
        if segment < SEGMENT_S and not force:
            return
        self.wall += segment
        if self._calibrated:
            before = self._last
            self.ref += segment * REFERENCE_S / ((before + self._sample(span)) / 2)
        else:
            self.ref += segment
        self._started = time.perf_counter()


class _Run:
    """State shared by the stages of one round."""

    def __init__(self, workload: Workload, seed: int, tracer: Tracer | None,
                 ops: Ops, hooks: Hooks, tmp: Path, clock: StageClock):
        self.w = workload
        self.clock = clock
        self.seed = seed
        self.tracer = tracer
        self.ops = ops
        self.hooks = hooks
        self.tmp = tmp
        self.config = RunConfig(scaled_down=workload.scaled_down)
        for key, value in workload.settings:
            self.config.set_value(key, value)
        self.provider_config = self.config.provider_config()
        self.retrieval_config = self.config.retrieval_config()

    def span(self, name: str, question_id: str | None = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, question_id)

    def split(self, force: bool = False) -> None:
        """A safe point between units of work: sample host speed if due."""
        self.clock.split(self.span, force)

    def provider(self, model: TfidfModel):
        provider = TfidfCosineProvider(self.provider_config, model)
        return provider if self.tracer is None else TracedProvider(provider, self.tracer)

    def index(self, pairs, provider):
        index = EntailmentIndex(pairs, provider)
        return index if self.tracer is None else TracedIndex(index, self.tracer)

    def prepare_model(self, model):
        if self.tracer is not None:
            instrument_model(model, self.tracer)
        if self.hooks.wrap_model is not None:
            self.hooks.wrap_model(model)
        return model


def _corpus_texts(pairs) -> list[str]:
    return [text for p in pairs for text in (p.question_text, p.answer_text)]


def _setup(run: _Run) -> dict:
    """Generate inputs, load them as the CLI does, fit TF-IDFs, build models."""
    w = run.w
    with run.span("synth.generate"):
        paths = write_synth(
            SynthConfig(
                questions=w.train_questions,
                val_questions=w.val_questions,
                topics=w.topics,
                seed=run.seed,
            ),
            run.tmp,
        )
    with run.span("corpus.load"):
        train = load_dataset(paths["train"], "train")
        val = load_dataset(paths["validation"], "validation")
        pairs = load_qa_corpus(paths["corpus"])
    with run.span("providers.fit_tfidf"):
        provider_tfidf = fit_tfidf(_corpus_texts(pairs), V=run.provider_config.vocab_size)
        tfidf = fit_tfidf(
            [p.answer_text for p in pairs], V=run.config.metadata_vocab_size()
        )
    provider = run.provider(provider_tfidf)
    world = {
        "train": train,
        "val": val,
        "pairs": pairs,
        "provider_tfidf": provider_tfidf,
        "tfidf": tfidf,
        "provider": provider,
        "index": run.index(pairs, provider),
    }
    if w.kind == "joint":
        with run.span("joint.build"):
            world["model"] = _build_joint(run, train, pairs, tfidf)
    return world


def _build_joint(run: _Run, train, pairs, tfidf):
    """The model ``train-joint`` builds, with or without --scaled-down."""
    scaled = run.w.scaled_down
    layout = fit_metadata_layout(
        list(train.questions), pairs, V=len(tfidf.vocabulary), M=None if scaled else 2032
    )
    encoder = ConvEncoderConfig.scaled_down() if scaled else ConvEncoderConfig.default()
    joint_dim = encoder.out_dim + run.provider_config.D + layout.M
    if scaled:
        heads = HeadConfig.scaled_filter(joint_dim), HeadConfig.scaled_pair(2 * joint_dim)
    else:
        heads = HeadConfig.default_filter(joint_dim), HeadConfig.default_pair(2 * joint_dim)
    model = build_joint_model(
        layout,
        tfidf,
        encoder,
        rqe_dim=run.provider_config.D,
        seed=run.config.train.seed,
        filter_config=heads[0],
        pair_config=heads[1],
    )
    return run.prepare_model(model)


def _train_joint(run: _Run, world: dict, result: Round) -> list:
    """JointTrainer.prepare, the epochs, then save_joint_model."""
    config = run.config
    train_config = TrainConfig(
        alpha=config.train.alpha,
        epochs=run.w.epochs,
        lr=config.train.lr,
        optimizer=config.train.optimizer,
        seed=config.train.seed,
        augmentation=config.train.augmentation,
        retrieval=run.retrieval_config,
    )
    model = world["model"]
    questions = world["train"].questions
    trainer = JointTrainer(model, world["provider"], world["index"], train_config)
    with run.span("joint.prepare"):
        trainer.prepare(world["train"])
    run.split()
    if run.tracer is not None:
        trainer.optimizer = TracedOptimizer(
            trainer.optimizer, run.tracer, [p.question_id for p in trainer.prepared]
        )
    history = []
    for epoch in range(train_config.epochs):
        try:
            with run.span("joint.epoch"):
                losses = trainer.run_epoch()
        except Exception as exc:  # counted as failed operations, run continues
            run.ops.attempted += len(questions)
            run.ops.fail(f"epoch {epoch}: {type(exc).__name__}: {exc}", len(questions))
            history.append([math.nan])
            continue
        run.split()
        for question, loss in zip(questions, losses):
            run.ops.record(
                None if math.isfinite(loss)
                else f"{question.question_id} epoch {epoch}: non-finite loss"
            )
        history.append(losses)
    result.train_ops = len(questions) * train_config.epochs
    model.eval()
    if run.w.checkpoint:
        path = run.tmp / "joint.json"
        with run.span("joint.checkpoint_save"):
            save_joint_model(
                model, path, train_config, run.provider_config, world["provider_tfidf"]
            )
        result.checkpoint_bytes = path.stat().st_size
    return history


def _predict_joint(run: _Run, world: dict) -> list:
    """``predict`` on a joint model: load the checkpoint, infer, write."""
    if run.w.checkpoint:
        with run.span("joint.checkpoint_load"):
            model, meta = load_joint_model(run.tmp / "joint.json")
        run.prepare_model(model)
        stored = meta["provider_tfidf"]
        provider = run.provider(
            TfidfModel(
                vocabulary=list(stored["vocabulary"]),
                idf=np.asarray(stored["idf"], dtype=np.float64),
                V=int(stored["V"]),
            )
        )
        index = run.index(world["pairs"], provider)
        retrieval_config = RetrievalConfig(
            N=int(meta["train"]["retrieval_N"]), T=float(meta["train"]["retrieval_T"])
        )
    else:
        model, provider, index = world["model"], world["provider"], world["index"]
        retrieval_config = run.retrieval_config
    predictions = []
    for question in world["val"].questions:
        started = time.perf_counter()
        try:
            with run.span("joint.infer", question.question_id):
                prediction = infer(model, question, index, provider, retrieval_config)
        except Exception as exc:  # counted as a failed operation
            run.ops.record(f"{question.question_id}: {type(exc).__name__}: {exc}")
            continue
        if run.tracer is not None:
            run.tracer.samples["joint.infer_ms"].append(1e3 * (time.perf_counter() - started))
        predictions.append(_checked(run, question, prediction))
        run.split()
    return predictions


def _checked(run: _Run, question, prediction):
    if run.hooks.wrap_prediction is not None:
        prediction = run.hooks.wrap_prediction(prediction)
    run.ops.record(check_prediction(question, prediction))
    return prediction


def _baseline_rows(run: _Run, question, index, tfidf, feature_config, provider):
    with run.span("baseline.features", question.question_id):
        entailed = retrieve(index, question.text, run.retrieval_config, fallback=False)
        return np.stack(
            [
                bl.assemble_baseline_features(
                    question, c, entailed, tfidf, feature_config, provider
                )
                for c in question.candidates
            ]
        )


def _train_baseline(run: _Run, world: dict, result: Round) -> list:
    """``extract-features`` on the training split, then ``train-baseline``."""
    train = world["train"]
    world["feature_config"] = feature_config = bl.BaselineFeatureConfig(
        N=run.retrieval_config.N,
        V=len(world["tfidf"].vocabulary),
        D=run.provider_config.D,
        source_vocab=bl.fit_source_vocab(list(train.questions)),
        T=run.retrieval_config.T,
    )
    rows, labels, groups = [], [], []
    for question in train.questions:
        try:
            features = _baseline_rows(
                run, question, world["index"], world["tfidf"], feature_config,
                world["provider"],
            )
        except Exception as exc:  # counted as a failed operation
            run.ops.record(f"{question.question_id}: {type(exc).__name__}: {exc}")
            continue
        run.ops.record(
            None if np.isfinite(features).all()
            else f"{question.question_id}: non-finite features"
        )
        run.split()
        rows.append(features)
        labels.extend(derive_label(c.reference_score) for c in question.candidates)
        groups.append((features, np.asarray([c.reference_rank for c in question.candidates])))
    result.train_ops = len(train.questions)
    baseline = run.config.baseline
    with run.span("baseline.logreg_fit"):
        logreg = bl.train_logreg_filter(
            np.vstack(rows),
            np.asarray(labels, dtype=np.float64),
            lr=baseline.lr,
            steps=baseline.steps,
            weight_decay=baseline.weight_decay,
        )
    with run.span("baseline.hinge_fit"):
        hinge = bl.train_pairwise_hinge(
            groups, lr=baseline.hinge_lr, steps=baseline.hinge_steps,
            weight_decay=baseline.weight_decay,
        )
    fitted = np.concatenate([logreg.weight, [logreg.bias], hinge.weight])
    if not np.isfinite(fitted).all():
        run.ops.fail("baseline fit produced non-finite weights", len(rows))
    world["logreg"], world["hinge"] = logreg, hinge
    return [fitted]


def _predict_baseline(run: _Run, world: dict) -> list:
    """``predict`` on a baseline model; like the CLI it refits the provider."""
    with run.span("providers.fit_tfidf"):
        provider_tfidf = fit_tfidf(
            _corpus_texts(world["pairs"]), V=run.provider_config.vocab_size
        )
    provider = run.provider(provider_tfidf)
    index = run.index(world["pairs"], provider)
    ranker = run.config.baseline.ranker
    predictions = []
    for question in world["val"].questions:
        try:
            features = _baseline_rows(
                run, question, index, world["tfidf"], world["feature_config"], provider
            )
            with run.span("baseline.score", question.question_id):
                probs = bl.predict_logreg(world["logreg"], features)
                scores = probs if ranker == "logreg" else bl.hinge_score(world["hinge"], features)
                ids = [c.answer_id for c in question.candidates]
                ranking = bl.rank_by_scores(
                    ids, scores, [c.system_rank for c in question.candidates]
                )
                prediction = evalkit.Prediction(
                    question_id=question.question_id,
                    ranking=tuple(ranking),
                    relevant=tuple(a for a in ranking if probs[ids.index(a)] >= 0.5),
                    scores={a: float(scores[ids.index(a)]) for a in ids},
                )
        except Exception as exc:  # counted as a failed operation
            run.ops.record(f"{question.question_id}: {type(exc).__name__}: {exc}")
            continue
        predictions.append(_checked(run, question, prediction))
        run.split()
    return predictions


_STAGE_FUNCTIONS = {
    "joint": (_train_joint, _predict_joint),
    "baseline": (_train_baseline, _predict_baseline),
}


def run_round(run: _Run, walls: dict[str, list[float]]) -> Round:
    """One full pipeline from a fresh state.

    ``walls`` gets each stage's wall time including host-speed samples, for
    reconciling the trace; the round keeps each stage's time without them,
    in wall and in reference seconds.
    """
    result = Round()
    train_stage, predict_stage = _STAGE_FUNCTIONS[run.w.kind]

    def stage(name, fn, *args):
        started = time.perf_counter()
        with run.span(name):
            run.clock.start(name in run.w.calibrated, run.span)
            value = fn(*args)
            run.split(force=True)
        walls[name].append(time.perf_counter() - started)
        return value, run.clock.wall, run.clock.ref

    world, result.setup_s, result.setup_ref = stage("setup", _setup, run)
    training, result.train_s, result.train_ref = stage(
        "train", train_stage, run, world, result
    )
    predictions, result.predict_s, result.predict_ref = stage(
        "predict", _predict_and_save, run, world, predict_stage
    )
    result.predict_ops = len(world["val"].questions)
    started = time.perf_counter()
    with run.span("evaluate"):
        result.report = _evaluate(run, predictions, world["val"])
    walls["evaluate"].append(time.perf_counter() - started)
    result.fingerprint = fingerprint(training, predictions)
    return result


def _predict_and_save(run, world, predict_stage):
    predictions = predict_stage(run, world)
    evalkit.save_predictions(predictions, run.tmp / "predictions.jsonl")
    return predictions


def _evaluate(run: _Run, predictions, val):
    """The report, or None when failed predictions leave nothing to score."""
    if len(predictions) != len(val.questions):
        return None
    try:
        with run.span("evalkit.evaluate"):
            return evalkit.evaluate(predictions, val)
    except Exception as exc:  # the failed predictions are already counted
        run.ops.errors.append(f"evaluate: {type(exc).__name__}: {exc}")
        return None


# ---------------------------------------------------------------------------
# A whole run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    rounds: list[Round]
    ops: Ops
    walls: dict[str, list[float]]
    peak_rss_mb: float
    tracer: Tracer | None

    @property
    def fingerprint(self) -> str:
        return self.rounds[0].fingerprint


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    hooks: Hooks | None = None,
    min_rounds: int = MIN_ROUNDS,
) -> RunResult:
    """Run rounds until ``seconds`` have passed and at least ``min_rounds`` ran."""
    tracer = Tracer() if trace else None
    ops = Ops()
    walls: dict[str, list[float]] = {stage: [] for stage in STAGES}
    rounds: list[Round] = []
    clock = StageClock(HostSpeed())
    started = time.perf_counter()
    while True:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            run = _Run(workload, seed, tracer, ops, hooks or Hooks(), Path(tmp), clock)
            result = run_round(run, walls)
        gc.collect()  # drop the round's model before the next one is built
        if rounds and result.fingerprint != rounds[0].fingerprint:
            ops.fail(
                f"round {len(rounds)}: fingerprint differs from round 0",
                result.train_ops + result.predict_ops,
            )
        rounds.append(result)
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and (
            elapsed >= seconds or elapsed + elapsed / len(rounds) > ROUND_DEADLINE_S
        ):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(rounds, ops, walls, peak, tracer)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(result: RunResult, reference: bool = True) -> dict[str, tuple[float, str]]:
    """Medians over rounds, in reference seconds unless ``reference`` is off."""
    rounds = result.rounds

    def seconds(r: Round, stage: str) -> float:
        return getattr(r, f"{stage}_ref" if reference else f"{stage}_s")

    return {
        "setup_s": (statistics.median(seconds(r, "setup") for r in rounds), "s"),
        "train_q_per_s": (
            statistics.median(r.train_ops / seconds(r, "train") for r in rounds), "1/s"
        ),
        "predict_q_per_s": (
            statistics.median(r.predict_ops / seconds(r, "predict") for r in rounds), "1/s"
        ),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }


def _percentiles(samples: list[float]) -> tuple[float, float]:
    """Median and p90; p90 is 0 (not measured) below 100 samples."""
    if not samples:
        return 0.0, 0.0
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= P90_MIN_SAMPLES else 0.0
    return p50, p90


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(result: RunResult) -> dict[str, tuple[float, str]]:
    """Per-module self times and counts, per round, from the traced run."""
    tracer = result.tracer
    n = len(result.rounds)
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_round(names) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / n

    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in (
        ("synth.generate_s", "synth.generate"),
        ("corpus.load_s", "corpus.load"),
        ("providers.fit_tfidf_s", "providers.fit_tfidf"),
        ("joint.build_s", "joint.build"),
        ("providers.rqe_s", "providers.rqe"),
        ("providers.nli_s", "providers.nli"),
        ("retrieval.scores_s", "retrieval.scores"),
        ("joint.prepare_s", "joint.prepare"),
        ("tensornet.optimizer.step_s", "tensornet.optimizer.step"),
        ("tensornet.optimizer.zero_grad_s", "tensornet.optimizer.zero_grad"),
        ("joint.checkpoint_save_s", "joint.checkpoint_save"),
        ("joint.checkpoint_load_s", "joint.checkpoint_load"),
        ("baseline.features_s", "baseline.features"),
        ("baseline.logreg_fit_s", "baseline.logreg_fit"),
        ("baseline.hinge_fit_s", "baseline.hinge_fit"),
        ("baseline.score_s", "baseline.score"),
        ("evalkit.evaluate_s", "evalkit.evaluate"),
    ):
        metrics[metric] = (per_round([span]), "s")

    encoder = "tensornet.encoder"
    conv_names = [f"conv{i}" for i in range(1, 6)]
    encoder_children = {
        name.split(".")[2]
        for name in self_s
        if name.startswith(encoder + ".")
    }
    for direction in ("fwd", "bwd"):
        for conv in conv_names:
            metrics[f"{encoder}.{conv}.{direction}_s"] = (
                per_round([f"{encoder}.{conv}.{direction}"]), "s"
            )
        others = [f"{encoder}.{c}.{direction}" for c in encoder_children - set(conv_names)]
        metrics[f"{encoder}.other.{direction}_s"] = (per_round(others), "s")
    metrics[f"{encoder}.maps"] = (counts[f"{encoder}.conv1.fwd"] / n, "count")

    for head in ("filter_head", "pair_head"):
        prefix = f"tensornet.{head}"
        children = {name.split(".")[2] for name in self_s if name.startswith(prefix + ".")}
        for direction in ("fwd", "bwd"):
            metrics[f"{prefix}.linear1.{direction}_s"] = (
                per_round([f"{prefix}.linear1.{direction}"]), "s"
            )
            rest = [f"{prefix}.{c}.{direction}" for c in children - {"linear1"}]
            metrics[f"{prefix}.rest.{direction}_s"] = (per_round(rest), "s")
    metrics["tensornet.pair_head.rows"] = (
        counts["tensornet.pair_head.linear1.rows"] / n, "count"
    )

    rqe_calls = counts["providers.rqe_calls"]
    nli_calls = counts["providers.nli_calls"]
    metrics["providers.rqe_calls"] = (rqe_calls / n, "count")
    metrics["providers.nli_calls"] = (nli_calls / n, "count")
    metrics["providers.repeat_ratio"] = (
        1.0 - _ratio(counts["providers.distinct_pairs"], rqe_calls + nli_calls)
        if rqe_calls + nli_calls else 0.0,
        "ratio",
    )
    metrics["retrieval.pairs_scored"] = (counts["retrieval.pairs_scored"] / n, "count")
    metrics["retrieval.coverage"] = (
        _ratio(counts["retrieval.covered"], counts["retrieval.queries"]), "ratio"
    )
    metrics["retrieval.useful_ratio"] = (
        _ratio(counts["retrieval.kept"], counts["retrieval.pairs_scored"] + counts["retrieval.kept"]),
        "ratio",
    )

    for name in ("step", "infer"):
        samples = tracer.samples[f"joint.{name}_ms"]
        p50, p90 = _percentiles(samples)
        metrics[f"joint.{name}_ms_p50"] = (p50, "ms")
        metrics[f"joint.{name}_ms_p90"] = (p90, "ms")
        metrics[f"joint.{name}_n"] = (float(len(samples)), "count")
    metrics["joint.checkpoint_mb"] = (
        statistics.median(r.checkpoint_bytes for r in result.rounds) / 1e6, "MB"
    )

    report = result.rounds[0].report
    for metric, attr in (
        ("val_accuracy", "accuracy"),
        ("val_precision", "precision"),
        ("val_mrr", "mrr"),
        ("val_rho", "mean_rho"),
    ):
        metrics[metric] = (getattr(report, attr) if report is not None else 0.0, "ratio")
    return metrics


def reconciliation(result: RunResult) -> dict:
    return result.tracer.reconcile(result.walls, RECONCILE_TOLERANCE, RECONCILE_FLOOR_S)
