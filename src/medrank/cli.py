"""Command-line pipeline: ingest, features, training, prediction, evaluation.

Every command is seed-deterministic: identical inputs and seed produce
byte-identical outputs. Errors print a single machine-parseable JSON line to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import baseline as bl
from . import evalkit
from .config import RunConfig
from .corpus import Dataset, load_dataset, load_qa_corpus, save_dataset
from .errors import ConfigError, MedrankError, SchemaError, read_json_object
from .gradcheck import gradient_check_battery
from .joint import (
    new_model,
    predict_checkpoint as predict_joint_checkpoint,
    save_joint_model,
    train_joint,
)
from .preprocess import (
    AbbreviationDict,
    DEFAULT_GUARDS,
    expand_abbreviations,
    load_guard_list,
    normalize_answer,
)
from .providers import fit_metadata_tfidf, fit_provider, load_tfidf, save_tfidf
from .retrieval import EntailmentIndex
from .synth import write_synth
from .tensornet import read_manifest

GRADCHECK_TOLERANCE = 1e-4


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    path = args.config or os.environ.get("MEDRANK_CONFIG")
    config = RunConfig.from_file(path) if path else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        config.set_value(dotted.strip(), raw.strip())
    if args.seed is not None:
        config.train.seed = args.seed
        config.synth.seed = args.seed
    config.scaled_down |= args.scaled_down
    return config


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(config: RunConfig, args) -> int:
    dataset = load_dataset(args.dataset, args.split)
    abbreviations = None
    abbrev_path = args.abbrev or config.paths.abbreviations
    if abbrev_path:
        abbreviations = AbbreviationDict.from_tsv(abbrev_path)
    guards = DEFAULT_GUARDS
    guard_path = args.guard or config.paths.guard_list
    if guard_path:
        guards = DEFAULT_GUARDS | load_guard_list(guard_path)
    questions = []
    for question in dataset.questions:
        text = question.text
        if abbreviations is not None and not args.no_expand_questions:
            text = expand_abbreviations(text, abbreviations)
        candidates = []
        for candidate in question.candidates:
            answer_abbrev = abbreviations if not args.no_expand_answers else None
            cleaned = normalize_answer(candidate.text, answer_abbrev, guards)
            candidates.append(
                dataclasses.replace(candidate, text=cleaned if cleaned else candidate.text)
            )
        questions.append(
            dataclasses.replace(question, text=text, candidates=tuple(candidates))
        )
    save_dataset(Dataset(split=dataset.split, questions=tuple(questions)), args.out)
    print(f"ingested {len(questions)} questions -> {args.out}")
    return 0


def cmd_fit_tfidf(config: RunConfig, args) -> int:
    pairs = load_qa_corpus(args.corpus)
    model = fit_metadata_tfidf(pairs, config.metadata_vocab_size())
    save_tfidf(model, args.out)
    print(f"fitted tf-idf on {len(pairs)} documents, |vocab|={len(model.vocabulary)}")
    return 0


def cmd_extract_features(config: RunConfig, args) -> int:
    dataset = load_dataset(args.dataset, args.split)
    pairs = load_qa_corpus(args.corpus)
    layout_path = Path(args.layout)
    new_layout = None  # written only once every feature row is extracted
    if layout_path.exists():
        # Retrieve and score as the layout was fit: retrieval.*, provider.*
        # and tfidf.V may only repeat it, and a --tfidf must be the stored one.
        feature_config, retrieval_config, provider, tfidf = bl.layout_settings(
            read_json_object(layout_path), str(layout_path)
        )
        config.check_stored(str(layout_path), retrieval_config, provider.config, tfidf)
        if args.tfidf is not None and load_tfidf(args.tfidf).to_dict() != tfidf.to_dict():
            raise MedrankError(
                f"{args.tfidf}: differs from the metadata TF-IDF stored in {layout_path}"
            )
    else:
        if args.tfidf is None:
            raise MedrankError(f"{layout_path}: fitting a new layout needs --tfidf")
        tfidf = load_tfidf(args.tfidf)
        config.check_stored(args.tfidf, tfidf=tfidf)
        retrieval_config = config.retrieval_config()
        feature_config, provider, new_layout = bl.new_layout(
            config.provider_config(), retrieval_config, dataset.questions, pairs, tfidf
        )
    index = EntailmentIndex(pairs, provider)
    rows = bl.extract_feature_rows(
        dataset, index, tfidf, feature_config, retrieval_config, provider
    )
    if new_layout is not None:
        layout_path.write_text(json.dumps(new_layout, sort_keys=True), encoding="utf-8")
    bl.save_features(rows, args.out)
    print(f"extracted {len(rows)} feature rows -> {args.out}")
    return 0


def cmd_train_baseline(config: RunConfig, args) -> int:
    settings = config.baseline_config()
    rows = bl.load_features(args.features)
    bl.train_checkpoint(
        rows,
        load_dataset(args.dataset, args.split),
        read_json_object(args.layout),
        args.out,
        settings,
        where=args.layout,
        features_where=args.features,
    )
    print(f"trained baseline on {len(rows)} rows -> {args.out}")
    return 0


def cmd_train_joint(config: RunConfig, args) -> int:
    if args.epochs is not None:
        config.train.epochs = args.epochs
    train_config = config.train_config()
    provider_config, sizes = config.provider_config(), config.model_sizes()
    dataset = load_dataset(args.dataset, "train")
    if not dataset.questions:
        raise SchemaError(f"{args.dataset}: no questions to train on")
    pairs = load_qa_corpus(args.corpus)
    provider, provider_tfidf = fit_provider(provider_config, pairs)
    model = new_model(sizes, train_config.seed, dataset.questions, pairs)
    history = train_joint(model, dataset, EntailmentIndex(pairs, provider), provider, train_config)
    save_joint_model(model, args.out, train_config, provider_config, provider_tfidf)
    first = float(np.mean(history[0]))
    last = float(np.mean(history[-1]))
    print(
        f"trained joint model for {train_config.epochs} epochs "
        f"(mean loss {first:.4f} -> {last:.4f}) -> {args.out}"
    )
    return 0


def cmd_predict(config: RunConfig, args) -> int:
    meta, arrays = read_manifest(args.model)
    dataset = load_dataset(args.dataset, args.split)
    pairs = load_qa_corpus(args.corpus)
    if meta.get("kind") == "joint":
        predictions = predict_joint_checkpoint(
            meta, arrays, dataset, pairs, args.model, config.check_stored
        )
    elif meta.get("kind") == "baseline":
        ranker = config.baseline.ranker if "baseline.ranker" in config.explicit else None
        predictions = bl.predict_checkpoint(
            meta, arrays, dataset, pairs, ranker, args.model, config.check_stored
        )
    else:
        raise MedrankError(f"{args.model}: unknown model kind {meta.get('kind')!r}")
    evalkit.save_predictions(predictions, args.out)
    print(f"wrote predictions for {len(predictions)} questions -> {args.out}")
    return 0


def cmd_evaluate(config: RunConfig, args) -> int:
    predictions = evalkit.load_predictions(args.predictions)
    dataset = load_dataset(args.dataset, args.split)
    report = evalkit.evaluate(predictions, dataset)
    print(
        f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
        f"mrr={report.mrr:.4f} mean_rho={report.mean_rho:.4f} "
        f"mean_rho_full={report.mean_rho_full:.4f}"
    )
    if args.out:
        evalkit.save_report(report, args.out)
    return 0


def cmd_analyze(config: RunConfig, args) -> int:
    predictions = evalkit.load_predictions(args.predictions)
    dataset = load_dataset(args.dataset, args.split)
    buckets = evalkit.analyze(predictions, dataset)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "buckets.json").write_text(
        json.dumps(buckets, sort_keys=True, indent=2), encoding="utf-8"
    )
    written = evalkit.save_bucket_csvs(buckets, out_dir)
    print(f"wrote {len(written) + 1} analysis files -> {out_dir}")
    return 0


def cmd_gradcheck(config: RunConfig, args) -> int:
    results = gradient_check_battery(seed=config.train.seed)
    worst = max(results.values())
    for name in sorted(results):
        print(f"gradcheck {name}: max_rel_err={results[name]:.3e}")
    ok = worst <= GRADCHECK_TOLERANCE
    print(f"gradcheck overall: max_rel_err={worst:.3e} "
          f"{'OK' if ok else 'FAIL'} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if ok else 1


def cmd_synth(config: RunConfig, args) -> int:
    paths = write_synth(config.synth_config(), args.out_dir)
    for name in sorted(paths):
        print(f"synth {name}: {paths[name]}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medrank",
        description="Filtering and re-ranking of candidate answers to medical questions.",
    )
    parser.add_argument("--config", help="config file (fallback: $MEDRANK_CONFIG)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a dotted config key",
    )
    parser.add_argument("--seed", type=int, help="override train/synth seeds")
    parser.add_argument(
        "--scaled-down", action="store_true", help="use the scaled-down test configuration"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)
    p.add_argument("--abbrev")
    p.add_argument("--guard")
    p.add_argument("--no-expand-questions", action="store_true")
    p.add_argument("--no-expand-answers", action="store_true")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("fit-tfidf", help="fit the TF-IDF model on corpus answers")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fit_tfidf)

    p = sub.add_parser("extract-features", help="baseline feature vectors")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tfidf", help="metadata TF-IDF; needed only to fit a new layout")
    p.add_argument("--layout", required=True, help="layout JSON (fit when missing)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_extract_features)

    p = sub.add_parser("train-baseline", help="logistic filter + hinge ranker")
    p.add_argument("--features", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--layout", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train_baseline)

    p = sub.add_parser("train-joint", help="train the multi-task joint model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(handler=cmd_train_joint)

    p = sub.add_parser("predict", help="run a trained model over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="validation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="validation")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("analyze", help="error-analysis bucket tables")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="validation")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset + corpus")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        # An overflowing or invalid float surfaces through the non-finite
        # checks on losses and parameters, as the one error line below;
        # numpy's own warning would add lines to stderr.
        with np.errstate(all="ignore"):
            return args.handler(config, args)
    except (
        MedrankError, OSError, KeyError, ValueError, FloatingPointError, MemoryError
    ) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
