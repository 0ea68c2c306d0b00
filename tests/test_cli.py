"""Command-line pipeline wiring: exit codes, outputs, determinism, errors."""

import json
from pathlib import Path

import numpy as np
import pytest

from medrank import baseline as bl
from medrank import cli
from medrank.cli import main
from medrank.corpus import load_dataset
from medrank.evalkit import load_predictions
from medrank.providers import load_tfidf, tokenize
from medrank.retrieval import EntailmentIndex
from medrank.tensornet import Linear, read_manifest


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    code = main(
        [
            "--seed",
            "3",
            "--set",
            "synth.questions=16",
            "--set",
            "synth.val_questions=6",
            "synth",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, synth_dir):
    """Run the full baseline + joint pipeline once; commands under test."""
    out = tmp_path_factory.mktemp("pipeline")
    train = str(synth_dir / "questions_train.jsonl")
    val = str(synth_dir / "questions_validation.jsonl")
    corpus = str(synth_dir / "corpus.jsonl")
    base = ["--scaled-down", "--seed", "3"]

    assert main(base + ["fit-tfidf", "--corpus", corpus, "--out", f"{out}/tfidf.json"]) == 0
    for split, dataset, features in (
        ("train", train, "features_train.jsonl"),
        ("validation", val, "features_val.jsonl"),
    ):
        assert (
            main(
                base
                + [
                    "extract-features",
                    "--dataset",
                    dataset,
                    "--split",
                    split,
                    "--corpus",
                    corpus,
                    "--tfidf",
                    f"{out}/tfidf.json",
                    "--layout",
                    f"{out}/layout.json",
                    "--out",
                    f"{out}/{features}",
                ]
            )
            == 0
        )
    assert (
        main(
            base
            + [
                "train-baseline",
                "--features",
                f"{out}/features_train.jsonl",
                "--dataset",
                train,
                "--split",
                "train",
                "--layout",
                f"{out}/layout.json",
                "--out",
                f"{out}/baseline.json",
            ]
        )
        == 0
    )
    assert (
        main(
            base
            + [
                "train-joint",
                "--dataset",
                train,
                "--corpus",
                corpus,
                "--epochs",
                "2",
                "--out",
                f"{out}/joint.json",
            ]
        )
        == 0
    )
    return {
        "dir": out,
        "train": train,
        "val": val,
        "corpus": corpus,
        "base": base,
    }


def _predict_baseline(pipeline_dir, model, out, *extra):
    """``predict`` of ``model`` on the validation split; the exit code."""
    return main(
        pipeline_dir["base"]
        + [
            "predict",
            "--model",
            str(model),
            "--dataset",
            pipeline_dir["val"],
            "--corpus",
            pipeline_dir["corpus"],
            *extra,
            "--out",
            str(out),
        ]
    )


def _train_baseline(pipeline_dir, out, *settings):
    """``train-baseline`` on the pipeline's training features; the exit code."""
    sets = [arg for setting in settings for arg in ("--set", setting)]
    return main(
        pipeline_dir["base"]
        + sets
        + [
            "train-baseline",
            "--features",
            f"{pipeline_dir['dir']}/features_train.jsonl",
            "--dataset",
            pipeline_dir["train"],
            "--split",
            "train",
            "--layout",
            f"{pipeline_dir['dir']}/layout.json",
            "--out",
            str(out),
        ]
    )


def _hinge_scores(arrays, features):
    return bl.hinge_score(bl.HingeRankModel(weight=arrays["hinge.weight"]), features)


def _logreg_probs(arrays, features):
    model = bl.LogregModel(weight=arrays["logreg.weight"], bias=float(arrays["logreg.bias"][0]))
    return bl.predict_logreg(model, features)


def _expected_scores(pipeline_dir, model, score):
    """Per validation question, answer id -> ``score(arrays, features)`` of the
    ``model`` checkpoint's arrays over the question's extracted feature rows."""
    _, arrays = read_manifest(model)
    by_question = {}
    for row in bl.load_features(pipeline_dir["dir"] / "features_val.jsonl"):
        by_question.setdefault(row["question_id"], []).append(row)
    expected = {}
    for qid, rows in by_question.items():
        scores = score(arrays, np.asarray([row["features"] for row in rows]))
        expected[qid] = {row["answer_id"]: float(s) for row, s in zip(rows, scores)}
    return expected


def _assert_scores(preds_path, expected):
    predictions = load_predictions(preds_path)
    assert len(predictions) == len(expected) == 6
    for prediction in predictions:
        assert prediction.scores == expected[prediction.question_id]


def _error_payload(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestSynthCommand:
    def test_outputs_exist_and_load(self, synth_dir):
        dataset = load_dataset(synth_dir / "questions_train.jsonl", "train")
        assert len(dataset) == 16

    def test_byte_identical_rerun(self, synth_dir, tmp_path):
        code = main(
            [
                "--seed",
                "3",
                "--set",
                "synth.questions=16",
                "--set",
                "synth.val_questions=6",
                "synth",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        for name in (
            "questions_train.jsonl",
            "questions_validation.jsonl",
            "corpus.jsonl",
        ):
            assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()


class TestPipelineCommands:
    def test_tfidf_model_has_scaled_width(self, pipeline_dir):
        model = load_tfidf(pipeline_dir["dir"] / "tfidf.json")
        assert len(model.vocabulary) == 16

    def test_layout_descriptor_written(self, pipeline_dir):
        layout = json.loads((pipeline_dir["dir"] / "layout.json").read_text())
        assert layout["N"] == 3
        assert layout["V"] == 16
        assert {slot["name"] for slot in layout["slots"]} >= {
            "source_onehot",
            "rqe_scores",
            "avg_nli_scores",
        }
        tfidf = load_tfidf(pipeline_dir["dir"] / "tfidf.json")
        assert layout["tfidf"] == tfidf.to_dict()

    def test_feature_rows_align_with_dataset(self, pipeline_dir):
        rows = [
            json.loads(line)
            for line in (pipeline_dir["dir"] / "features_train.jsonl")
            .read_text()
            .splitlines()
        ]
        assert len(rows) == 16 * 5
        assert all("label" in row for row in rows)

    def test_predict_evaluate_baseline(self, pipeline_dir, tmp_path):
        out = pipeline_dir["dir"]
        code = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                f"{out}/baseline.json",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds.jsonl"),
            ]
        )
        assert code == 0
        predictions = load_predictions(tmp_path / "preds.jsonl")
        assert len(predictions) == 6
        code = main(
            pipeline_dir["base"]
            + [
                "evaluate",
                "--predictions",
                str(tmp_path / "preds.jsonl"),
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--out",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["mrr"] <= 1.0

    def test_predict_evaluate_analyze_joint(self, pipeline_dir, tmp_path):
        out = pipeline_dir["dir"]
        code = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                f"{out}/joint.json",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds.jsonl"),
            ]
        )
        assert code == 0
        code = main(
            pipeline_dir["base"]
            + [
                "analyze",
                "--predictions",
                str(tmp_path / "preds.jsonl"),
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--out-dir",
                str(tmp_path / "analysis"),
            ]
        )
        assert code == 0
        assert (tmp_path / "analysis" / "buckets.json").exists()
        assert (tmp_path / "analysis" / "recall_by_reference_rank.csv").exists()

    def test_baseline_predict_reuses_extraction_provider(self, pipeline_dir, tmp_path):
        # no --scaled-down here: the provider recorded in the layout wins,
        # so the features still match the training-time extraction
        out = pipeline_dir["dir"]
        code = main(
            [
                "predict",
                "--model",
                f"{out}/baseline.json",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds.jsonl"),
            ]
        )
        assert code == 0
        scaled = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                f"{out}/baseline.json",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds_scaled.jsonl"),
            ]
        )
        assert scaled == 0
        assert (tmp_path / "preds.jsonl").read_bytes() == (
            tmp_path / "preds_scaled.jsonl"
        ).read_bytes()

    def test_hinge_ranker_flag(self, pipeline_dir, tmp_path):
        model = pipeline_dir["dir"] / "baseline.json"
        preds = tmp_path / "preds_hinge.jsonl"
        assert _predict_baseline(pipeline_dir, model, preds, "--ranker", "hinge") == 0
        _assert_scores(preds, _expected_scores(pipeline_dir, model, _hinge_scores))

    def test_train_joint_byte_identical(self, pipeline_dir, tmp_path):
        args = pipeline_dir["base"] + [
            "train-joint",
            "--dataset",
            pipeline_dir["train"],
            "--corpus",
            pipeline_dir["corpus"],
            "--epochs",
            "2",
        ]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (
            pipeline_dir["dir"] / "joint.json"
        ).read_bytes()

    def test_extract_features_idempotent(self, pipeline_dir, tmp_path):
        out = pipeline_dir["dir"]
        code = main(
            pipeline_dir["base"]
            + [
                "extract-features",
                "--dataset",
                pipeline_dir["train"],
                "--split",
                "train",
                "--corpus",
                pipeline_dir["corpus"],
                "--tfidf",
                f"{out}/tfidf.json",
                "--layout",
                f"{out}/layout.json",
                "--out",
                str(tmp_path / "again.jsonl"),
            ]
        )
        assert code == 0
        assert (tmp_path / "again.jsonl").read_bytes() == (
            out / "features_train.jsonl"
        ).read_bytes()


class TestExtractFeaturesFollowsLayout:
    """An existing layout fixes N, T, direction and provider; retrieval.* and
    provider.* cannot move them."""

    @pytest.mark.parametrize(
        "overrides",
        [
            ["retrieval.N=5", "retrieval.T=0.0"],
            ["retrieval.swap_direction=true"],
            ["provider.kind=toy_hash"],
        ],
    )
    def test_run_retrieval_settings_ignored(self, pipeline_dir, tmp_path, overrides):
        out = pipeline_dir["dir"]
        sets = [arg for item in overrides for arg in ("--set", item)]
        code = main(
            pipeline_dir["base"]
            + sets
            + [
                "extract-features",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--tfidf",
                f"{out}/tfidf.json",
                "--layout",
                f"{out}/layout.json",
                "--out",
                str(tmp_path / "val.jsonl"),
            ]
        )
        assert code == 0
        assert (tmp_path / "val.jsonl").read_bytes() == (
            out / "features_val.jsonl"
        ).read_bytes()


class TestExtractFeaturesTfidfOptional:
    """Against an existing layout the stored metadata TF-IDF is used and
    --tfidf is optional; fitting a new layout still needs it."""

    def _extract(self, pipeline_dir, layout, out, tfidf=None):
        args = [
            "extract-features",
            "--dataset",
            pipeline_dir["val"],
            "--split",
            "validation",
            "--corpus",
            pipeline_dir["corpus"],
            "--layout",
            str(layout),
            "--out",
            str(out),
        ]
        if tfidf is not None:
            args += ["--tfidf", str(tfidf)]
        return main(pipeline_dir["base"] + args)

    def test_stored_tfidf_used_without_flag(self, pipeline_dir, tmp_path):
        out = pipeline_dir["dir"]
        assert self._extract(pipeline_dir, out / "layout.json", tmp_path / "val.jsonl") == 0
        assert (tmp_path / "val.jsonl").read_bytes() == (
            out / "features_val.jsonl"
        ).read_bytes()

    def test_differing_tfidf_still_rejected(self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir["dir"]
        tfidf = json.loads((out / "tfidf.json").read_text())
        tfidf["idf"][0] += 0.5
        other = tmp_path / "other_tfidf.json"
        other.write_text(json.dumps(tfidf))
        capsys.readouterr()
        code = self._extract(
            pipeline_dir, out / "layout.json", tmp_path / "val.jsonl", tfidf=other
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MedrankError"
        assert str(other) in payload["message"]
        assert not (tmp_path / "val.jsonl").exists()

    def test_new_layout_needs_tfidf(self, pipeline_dir, tmp_path, capsys):
        layout = tmp_path / "new_layout.json"
        capsys.readouterr()
        code = self._extract(pipeline_dir, layout, tmp_path / "val.jsonl")
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MedrankError"
        assert str(layout) in payload["message"]
        assert "--tfidf" in payload["message"]
        assert not layout.exists()
        assert not (tmp_path / "val.jsonl").exists()


class TestStoredProviderNotRefit:
    """predict, and extract-features against an existing layout, score with
    the provider TF-IDF the model was fit with, whatever --corpus holds."""

    @pytest.fixture
    def wider_corpus(self, pipeline_dir, tmp_path):
        """The training corpus plus one pair whose every token is OOV."""
        lines = Path(pipeline_dir["corpus"]).read_text().splitlines()
        extra = {
            "pair_id": "extra-oov",
            "question_text": "qwzx vbnk",
            "answer_text": "plmq zxcv",
            "source": json.loads(lines[0])["source"],
        }
        assert set(tokenize("\n".join(lines))).isdisjoint({"qwzx", "vbnk", "plmq", "zxcv"})
        path = tmp_path / "corpus_wider.jsonl"
        path.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
        return str(path)

    def _predict(self, pipeline_dir, model, corpus, out):
        code = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                f"{pipeline_dir['dir']}/{model}",
                "--dataset",
                pipeline_dir["val"],
                "--corpus",
                corpus,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out.read_bytes()

    @pytest.mark.parametrize("model", ["baseline.json", "joint.json"])
    def test_predict_ignores_extra_corpus_pair(
        self, pipeline_dir, tmp_path, wider_corpus, model
    ):
        original = self._predict(
            pipeline_dir, model, pipeline_dir["corpus"], tmp_path / "a.jsonl"
        )
        wider = self._predict(pipeline_dir, model, wider_corpus, tmp_path / "b.jsonl")
        assert wider == original

    def test_extract_features_ignores_extra_corpus_pair(
        self, pipeline_dir, tmp_path, wider_corpus
    ):
        out = pipeline_dir["dir"]
        code = main(
            pipeline_dir["base"]
            + [
                "extract-features",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                wider_corpus,
                "--tfidf",
                f"{out}/tfidf.json",
                "--layout",
                f"{out}/layout.json",
                "--out",
                str(tmp_path / "val.jsonl"),
            ]
        )
        assert code == 0
        assert (tmp_path / "val.jsonl").read_bytes() == (
            out / "features_val.jsonl"
        ).read_bytes()

    def test_extract_features_rejects_a_refit_tfidf(
        self, pipeline_dir, tmp_path, capsys, wider_corpus
    ):
        # One more corpus pair still gives 16 terms, but other idf weights;
        # the layout keeps the TF-IDF its features were extracted with.
        out = pipeline_dir["dir"]
        refit = tmp_path / "tfidf_wider.json"
        code = main(
            pipeline_dir["base"]
            + ["fit-tfidf", "--corpus", wider_corpus, "--out", str(refit)]
        )
        assert code == 0
        stored = load_tfidf(out / "tfidf.json")
        assert len(load_tfidf(refit).vocabulary) == len(stored.vocabulary) == 16
        assert load_tfidf(refit).to_dict() != stored.to_dict()
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + [
                "extract-features",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--tfidf",
                str(refit),
                "--layout",
                f"{out}/layout.json",
                "--out",
                str(tmp_path / "val.jsonl"),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MedrankError"
        assert str(refit) in payload["message"]
        assert f"{out}/layout.json" in payload["message"]
        assert not (tmp_path / "val.jsonl").exists()

    @pytest.mark.parametrize(
        "dropped, message", [("provider", "no stored provider spec"),
                             ("provider_tfidf", "no stored TF-IDF"),
                             ("tfidf", "no stored metadata TF-IDF")]
    )
    def test_layout_without_stored_provider_fails(
        self, pipeline_dir, tmp_path, capsys, dropped, message
    ):
        out = pipeline_dir["dir"]
        layout = json.loads((out / "layout.json").read_text())
        del layout[dropped]
        layout_path = tmp_path / "old_layout.json"
        layout_path.write_text(json.dumps(layout))
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + [
                "extract-features",
                "--dataset",
                pipeline_dir["val"],
                "--split",
                "validation",
                "--corpus",
                pipeline_dir["corpus"],
                "--tfidf",
                f"{out}/tfidf.json",
                "--layout",
                str(layout_path),
                "--out",
                str(tmp_path / "val.jsonl"),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MedrankError"
        assert str(layout_path) in payload["message"]
        assert message in payload["message"]

    @pytest.mark.parametrize(
        "dropped, message", [("provider", "no stored provider spec"),
                             ("provider_tfidf", "no stored TF-IDF"),
                             ("tfidf", "no stored metadata TF-IDF")]
    )
    def test_baseline_without_stored_provider_fails(
        self, pipeline_dir, tmp_path, capsys, dropped, message
    ):
        out = pipeline_dir["dir"]
        checkpoint = json.loads((out / "baseline.json").read_text())
        del checkpoint["meta"]["feature_config"][dropped]
        model = tmp_path / "old_baseline.json"
        model.write_text(json.dumps(checkpoint))
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                str(model),
                "--dataset",
                pipeline_dir["val"],
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds.jsonl"),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MedrankError"
        assert str(model) in payload["message"]
        assert message in payload["message"]
        assert not (tmp_path / "preds.jsonl").exists()


class TestRankerChoice:
    """``baseline.ranker`` and ``predict --ranker`` pick what a baseline
    checkpoint ranks by, and an unknown or inapplicable choice fails."""

    def test_default_checkpoint_ranks_by_filter_probability(self, pipeline_dir, tmp_path):
        model = pipeline_dir["dir"] / "baseline.json"
        preds = tmp_path / "preds.jsonl"
        assert _predict_baseline(pipeline_dir, model, preds) == 0
        _assert_scores(preds, _expected_scores(pipeline_dir, model, _logreg_probs))

    def test_stored_hinge_ranker_is_used_without_flag(self, pipeline_dir, tmp_path):
        model = tmp_path / "hinge.json"
        assert _train_baseline(pipeline_dir, model, "baseline.ranker=hinge") == 0
        assert read_manifest(model)[0]["ranker"] == "hinge"
        preds = tmp_path / "preds.jsonl"
        assert _predict_baseline(pipeline_dir, model, preds) == 0
        _assert_scores(preds, _expected_scores(pipeline_dir, model, _hinge_scores))
        flagged = tmp_path / "preds_logreg.jsonl"
        assert _predict_baseline(pipeline_dir, model, flagged, "--ranker", "logreg") == 0
        _assert_scores(flagged, _expected_scores(pipeline_dir, model, _logreg_probs))

    def test_unknown_ranker_setting_rejected_before_fitting(
        self, pipeline_dir, tmp_path, capsys
    ):
        model = tmp_path / "logistic.json"
        capsys.readouterr()
        assert _train_baseline(pipeline_dir, model, "baseline.ranker=logistic") == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert "baseline.ranker" in payload["message"]
        assert "'logistic'" in payload["message"]
        assert not model.exists()

    def test_unknown_stored_ranker_rejected(self, pipeline_dir, tmp_path, capsys):
        checkpoint = json.loads((pipeline_dir["dir"] / "baseline.json").read_text())
        checkpoint["meta"]["ranker"] = "logistic"
        model = tmp_path / "logistic.json"
        model.write_text(json.dumps(checkpoint))
        preds = tmp_path / "preds.jsonl"
        capsys.readouterr()
        assert _predict_baseline(pipeline_dir, model, preds) == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "MedrankError"
        assert str(model) in payload["message"]
        assert "'logistic'" in payload["message"]
        assert not preds.exists()

    def test_ranker_flag_on_joint_checkpoint_fails(self, pipeline_dir, tmp_path, capsys):
        model = pipeline_dir["dir"] / "joint.json"
        preds = tmp_path / "preds.jsonl"
        capsys.readouterr()
        assert _predict_baseline(pipeline_dir, model, preds, "--ranker", "hinge") == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "MedrankError"
        assert str(model) in payload["message"]
        assert "--ranker" in payload["message"]
        assert not preds.exists()


class TestPrecomputedJointModel:
    def test_train_then_predict(self, pipeline_dir, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"key": "none", "score": 0.5, "embedding": [0.0] * 8}) + "\n"
        )
        precomputed = pipeline_dir["base"] + [
            "--set",
            "provider.kind=precomputed",
            "--set",
            f"provider.path={records}",
            "--set",
            "provider.fallback_zero=true",
        ]
        model = str(tmp_path / "joint.json")
        code = main(
            precomputed
            + [
                "train-joint",
                "--dataset",
                pipeline_dir["train"],
                "--corpus",
                pipeline_dir["corpus"],
                "--epochs",
                "1",
                "--out",
                model,
            ]
        )
        assert code == 0
        # predict runs without the overrides: the checkpoint carries them
        code = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                model,
                "--dataset",
                pipeline_dir["val"],
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds.jsonl"),
            ]
        )
        assert code == 0
        predictions = load_predictions(tmp_path / "preds.jsonl")
        assert len(predictions) == len(load_dataset(pipeline_dir["val"], "validation").questions)


class TestSwapDirectionPersisted:
    """predict retrieves in the direction the model was trained with."""

    @pytest.fixture
    def directions(self, monkeypatch):
        """Swap-direction flag of every corpus scoring, per predict run."""
        seen = []
        original = EntailmentIndex.scores

        def scores(self, query, config):
            seen.append(config.swap_direction)
            return original(self, query, config)

        monkeypatch.setattr(EntailmentIndex, "scores", scores)
        return seen

    def _directions(self, pipeline_dir, model, tmp_path, directions):
        """Directions retrieved in while predicting with ``model``."""
        directions.clear()
        code = main(
            pipeline_dir["base"]
            + [
                "predict",
                "--model",
                model,
                "--dataset",
                pipeline_dir["val"],
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(tmp_path / "preds.jsonl"),
            ]
        )
        assert code == 0
        return set(directions)

    def test_joint(self, pipeline_dir, tmp_path, directions):
        swapped = pipeline_dir["base"] + ["--set", "retrieval.swap_direction=true"]
        model = str(tmp_path / "joint.json")
        code = main(
            swapped
            + [
                "train-joint",
                "--dataset",
                pipeline_dir["train"],
                "--corpus",
                pipeline_dir["corpus"],
                "--epochs",
                "1",
                "--out",
                model,
            ]
        )
        assert code == 0
        # predict runs without the override: the checkpoint carries it
        assert self._directions(pipeline_dir, model, tmp_path, directions) == {True}
        unswapped = f"{pipeline_dir['dir']}/joint.json"
        assert self._directions(pipeline_dir, unswapped, tmp_path, directions) == {False}

    def test_baseline(self, pipeline_dir, tmp_path, directions):
        swapped = pipeline_dir["base"] + ["--set", "retrieval.swap_direction=true"]
        layout = str(tmp_path / "layout.json")
        features = str(tmp_path / "features.jsonl")
        model = str(tmp_path / "baseline.json")
        code = main(
            swapped
            + [
                "extract-features",
                "--dataset",
                pipeline_dir["train"],
                "--corpus",
                pipeline_dir["corpus"],
                "--tfidf",
                f"{pipeline_dir['dir']}/tfidf.json",
                "--layout",
                layout,
                "--out",
                features,
            ]
        )
        assert code == 0
        code = main(
            swapped
            + [
                "train-baseline",
                "--features",
                features,
                "--dataset",
                pipeline_dir["train"],
                "--layout",
                layout,
                "--out",
                model,
            ]
        )
        assert code == 0
        assert self._directions(pipeline_dir, model, tmp_path, directions) == {True}
        unswapped = f"{pipeline_dir['dir']}/baseline.json"
        assert self._directions(pipeline_dir, unswapped, tmp_path, directions) == {False}


class TestEvaluateCommand:
    def test_metrics_match_hand_fixture(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        rows = [
            {
                "question_id": "q1",
                "text": "t",
                "candidates": [
                    {"answer_id": "a", "text": "x", "source": "s", "system_rank": 1,
                     "reference_rank": 1, "reference_score": 4},
                    {"answer_id": "b", "text": "y", "source": "s", "system_rank": 2,
                     "reference_rank": 2, "reference_score": 3},
                ],
            }
        ]
        dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        predictions = tmp_path / "p.jsonl"
        predictions.write_text(
            json.dumps(
                {"question_id": "q1", "ranking": ["b", "a"], "relevant": ["b", "a"]}
            )
            + "\n"
        )
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--predictions",
                str(predictions),
                "--dataset",
                str(dataset),
                "--split",
                "validation",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        # both answers relevant and marked: accuracy/precision/mrr 1; order
        # reversed over the two relevant answers: rho -1
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 1.0
        assert report["precision"] == 1.0
        assert report["mrr"] == 1.0
        assert report["mean_rho"] == -1.0
        printed = capsys.readouterr().out
        assert "mean_rho=-1.0000" in printed


class TestGradcheckCommand:
    def test_exits_zero(self, capsys):
        assert main(["--seed", "0", "gradcheck"]) == 0
        output = capsys.readouterr().out
        assert "max_rel_err" in output
        assert "OK" in output


class TestIngestCommand:
    def test_normalizes_answers(self, tmp_path):
        dataset_path = tmp_path / "raw.jsonl"
        record = {
            "question_id": "q",
            "text": "MI symptoms",
            "candidates": [
                {
                    "answer_id": "a",
                    "text": "MI is serious. Updated by: staff.",
                    "source": "web",
                    "system_rank": 1,
                    "reference_rank": 1,
                    "reference_score": 4,
                }
            ],
        }
        dataset_path.write_text(json.dumps(record) + "\n")
        abbrev = tmp_path / "abbrev.tsv"
        abbrev.write_text("MI\tmyocardial infarction\n")
        out = tmp_path / "clean.jsonl"
        code = main(
            [
                "ingest",
                "--dataset",
                str(dataset_path),
                "--split",
                "train",
                "--out",
                str(out),
                "--abbrev",
                str(abbrev),
            ]
        )
        assert code == 0
        cleaned = load_dataset(out, "train")
        assert cleaned.questions[0].text == "myocardial infarction symptoms"
        assert cleaned.questions[0].candidates[0].text == "myocardial infarction is serious."

    def test_expansion_flags(self, tmp_path):
        dataset_path = tmp_path / "raw.jsonl"
        record = {
            "question_id": "q",
            "text": "MI symptoms",
            "candidates": [
                {
                    "answer_id": "a",
                    "text": "MI here.",
                    "source": "web",
                    "system_rank": 1,
                    "reference_rank": 1,
                    "reference_score": 4,
                }
            ],
        }
        dataset_path.write_text(json.dumps(record) + "\n")
        abbrev = tmp_path / "abbrev.tsv"
        abbrev.write_text("MI\tmyocardial infarction\n")
        out = tmp_path / "clean.jsonl"
        code = main(
            [
                "ingest",
                "--dataset",
                str(dataset_path),
                "--split",
                "train",
                "--out",
                str(out),
                "--abbrev",
                str(abbrev),
                "--no-expand-questions",
            ]
        )
        assert code == 0
        cleaned = load_dataset(out, "train")
        assert cleaned.questions[0].text == "MI symptoms"
        assert "myocardial" in cleaned.questions[0].candidates[0].text


class TestErrorHandling:
    def test_missing_file_is_machine_parseable(self, capsys, tmp_path):
        code = main(
            [
                "ingest",
                "--dataset",
                str(tmp_path / "absent.jsonl"),
                "--split",
                "train",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert code == 2
        err_line = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err_line)
        assert "error" in payload and "message" in payload

    def test_schema_error_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        code = main(
            [
                "ingest",
                "--dataset",
                str(bad),
                "--split",
                "train",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SchemaError"

    def test_non_finite_loss_writes_no_checkpoint(
        self, pipeline_dir, capsys, tmp_path, monkeypatch
    ):
        linear_forward = Linear.forward

        def nan_forward(self, x):
            # Only the heads' last Linear emits one logit per row.
            out = linear_forward(self, x)
            return np.full_like(out, np.nan) if self.out_dim == 1 else out

        monkeypatch.setattr(Linear, "forward", nan_forward)
        model = tmp_path / "joint.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + [
                "train-joint",
                "--dataset",
                pipeline_dir["train"],
                "--corpus",
                pipeline_dir["corpus"],
                "--epochs",
                "1",
                "--out",
                str(model),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MedrankError"
        assert "non-finite loss" in payload["message"]
        assert "in epoch 1" in payload["message"]
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--set", "train.epochs=0"], "epochs must be >= 1"),
            (["--epochs", "0"], "epochs must be >= 1"),
            (["--set", "train.lr=-1"], "lr must be > 0"),
            (["--set", "train.lr=0"], "lr must be > 0"),
        ],
    )
    def test_unusable_training_settings_write_no_checkpoint(
        self, pipeline_dir, capsys, tmp_path, flags, message
    ):
        sets, options = (flags, []) if flags[0] == "--set" else ([], flags)
        model = tmp_path / "joint.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + sets
            + [
                "train-joint",
                "--dataset",
                pipeline_dir["train"],
                "--corpus",
                pipeline_dir["corpus"],
                "--out",
                str(model),
            ]
            + options
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "SchemaError"
        assert message in payload["message"]
        assert not model.exists()

    @pytest.mark.parametrize(
        "setting, via_file",
        [("provider.D=0", False), ("provider.D=32", True), ("tfidf.V=500", False),
         ("tfidf.V=500", True)],
    )
    def test_scaled_down_rejects_explicit_sizes(
        self, pipeline_dir, capsys, tmp_path, setting, via_file
    ):
        config_path = tmp_path / "run.conf"
        config_path.write_text(setting + "\n", encoding="utf-8")
        flags = ["--config", str(config_path)] if via_file else ["--set", setting]
        model = tmp_path / "joint.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + flags
            + ["train-joint", "--dataset", pipeline_dir["train"],
               "--corpus", pipeline_dir["corpus"], "--out", str(model)]
        )
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(setting.split("=")[0] + " is set, but --scaled-down")
        assert not model.exists()

    def test_zero_vocab_size_is_not_ignored(self, pipeline_dir, capsys, tmp_path):
        out = tmp_path / "tfidf.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + ["fit-tfidf", "--corpus", pipeline_dir["corpus"], "--vocab-size", "0",
               "--out", str(out)]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "V must be >= 1" in json.loads(lines[0])["message"]
        assert not out.exists()

    def test_blank_candidate_fails_at_load(self, pipeline_dir, capsys, tmp_path):
        rows = Path(pipeline_dir["train"]).read_text(encoding="utf-8").splitlines()
        record = json.loads(rows[0])
        record["candidates"][0]["text"] = "   "
        dataset = tmp_path / "blank.jsonl"
        dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
        answer_id = record["candidates"][0]["answer_id"]
        features = tmp_path / "features.jsonl"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + ["extract-features", "--dataset", str(dataset), "--corpus",
               pipeline_dir["corpus"], "--layout", f"{pipeline_dir['dir']}/layout.json",
               "--out", str(features)]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "SchemaError"
        assert f"{answer_id!r}: blank text" in payload["message"]
        assert not features.exists()

    def _train_baseline(self, pipeline_dir, features, out):
        return main(
            pipeline_dir["base"]
            + [
                "train-baseline",
                "--features",
                str(features),
                "--dataset",
                pipeline_dir["train"],
                "--split",
                "train",
                "--layout",
                f"{pipeline_dir['dir']}/layout.json",
                "--out",
                str(out),
            ]
        )

    def test_nan_feature_writes_no_checkpoint(self, pipeline_dir, capsys, tmp_path):
        lines = (pipeline_dir["dir"] / "features_train.jsonl").read_text().splitlines()
        row = json.loads(lines[2])
        row["features"][5] = float("nan")
        lines[2] = json.dumps(row)  # json.dumps writes the bare token NaN
        features = tmp_path / "features.jsonl"
        features.write_text("\n".join(lines) + "\n")
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        assert self._train_baseline(pipeline_dir, features, model) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "SchemaError"
        assert f"{features}:3: non-finite" in payload["message"]
        assert not model.exists()

    def _one_error_line(self, capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        return json.loads(err[0])

    def test_ragged_feature_row_writes_no_checkpoint(self, pipeline_dir, capsys, tmp_path):
        lines = (pipeline_dir["dir"] / "features_train.jsonl").read_text().splitlines()
        row = json.loads(lines[3])
        width = len(row["features"])
        row["features"].pop()
        lines[3] = json.dumps(row)
        features = tmp_path / "features.jsonl"
        features.write_text("\n".join(lines) + "\n")
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        assert self._train_baseline(pipeline_dir, features, model) == 2
        payload = self._one_error_line(capsys)
        assert payload["error"] == "SchemaError"
        assert (
            f"{features}:4: {width - 1} features, but line 1 has {width}"
            in payload["message"]
        )
        assert not model.exists()

    def test_unlabeled_rows_write_no_checkpoint(self, pipeline_dir, capsys, tmp_path):
        rows = [
            json.loads(line)
            for line in (pipeline_dir["dir"] / "features_train.jsonl").read_text().splitlines()
        ]
        for row in rows[:5]:
            del row["label"]
        assert {row["label"] for row in rows[5:]} == {0, 1}
        features = tmp_path / "features.jsonl"
        features.write_text("".join(json.dumps(row) + "\n" for row in rows))
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        assert self._train_baseline(pipeline_dir, features, model) == 2
        payload = self._one_error_line(capsys)
        assert payload["error"] == "SchemaError"
        assert (
            f"5 of {len(rows)} feature rows have no label (first: question_id "
            f"{rows[0]['question_id']!r}, answer_id {rows[0]['answer_id']!r})"
            in payload["message"]
        )
        assert not model.exists()

    def test_non_finite_weights_write_no_checkpoint(
        self, pipeline_dir, capsys, tmp_path, monkeypatch
    ):
        def nan_fit(features, labels, **settings):
            return bl.LogregModel(weight=np.full(features.shape[1], np.nan), bias=0.0)

        monkeypatch.setattr(bl, "train_logreg_filter", nan_fit)
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        features = pipeline_dir["dir"] / "features_train.jsonl"
        assert self._train_baseline(pipeline_dir, features, model) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "MedrankError"
        assert "non-finite logreg.weight" in payload["message"]
        assert not model.exists()

    @pytest.mark.parametrize("error", [FloatingPointError, MemoryError])
    def test_numeric_and_memory_errors_are_one_json_line(
        self, error, capsys, tmp_path, monkeypatch
    ):
        def failing(config, args):
            raise error("raised by the handler")

        monkeypatch.setattr(cli, "cmd_synth", failing)
        code = main(["synth", "--out-dir", str(tmp_path)])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": error.__name__,
            "message": "raised by the handler",
        }

    def test_baseline_predict_rejects_tfidf_flag(self, pipeline_dir, capsys, tmp_path):
        # The checkpoint's layout carries the metadata TF-IDF; predict takes none.
        with pytest.raises(SystemExit) as exc:
            main(
                pipeline_dir["base"]
                + [
                    "predict",
                    "--model",
                    f"{pipeline_dir['dir']}/baseline.json",
                    "--dataset",
                    pipeline_dir["val"],
                    "--corpus",
                    pipeline_dir["corpus"],
                    "--tfidf",
                    f"{pipeline_dir['dir']}/tfidf.json",
                    "--out",
                    str(tmp_path / "preds.jsonl"),
                ]
            )
        assert exc.value.code == 2
        assert "--tfidf" in capsys.readouterr().err
        assert not (tmp_path / "preds.jsonl").exists()

    def test_bad_set_flag(self, capsys, tmp_path):
        code = main(
            ["--set", "notakey", "synth", "--out-dir", str(tmp_path)]
        )
        assert code == 2


def _truncated(text):
    return text[: len(text) // 2]


def _without_encoder(text):
    payload = json.loads(text)
    del payload["meta"]["encoder"]
    return json.dumps(payload)


# case: (pipeline file rewritten, its rewrite, the command that reads it)
UNREADABLE_JSON = {
    "checkpoint-truncated": ("joint.json", _truncated, "predict"),
    "checkpoint-string": ("joint.json", lambda text: '"meta arrays"', "predict"),
    "checkpoint-meta-list": ("joint.json", lambda text: '{"meta": [], "arrays": {}}', "predict"),
    "checkpoint-no-encoder": ("joint.json", _without_encoder, "predict"),
    "layout-truncated": ("layout.json", _truncated, "extract-features"),
    "layout-list": ("layout.json", lambda text: "[1]", "extract-features"),
    "train-layout-truncated": ("layout.json", _truncated, "train-baseline"),
    "train-layout-list": ("layout.json", lambda text: "[1]", "train-baseline"),
    "tfidf-truncated": ("tfidf.json", _truncated, "extract-features"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_unreadable_json_input_names_the_file(pipeline_dir, capsys, tmp_path, case):
    name, rewrite, command = UNREADABLE_JSON[case]
    source = Path(pipeline_dir["dir"]) / name
    bad = tmp_path / name
    bad.write_text(rewrite(source.read_text(encoding="utf-8")), encoding="utf-8")
    inputs = {
        other: str(source.parent / other) for other in ("joint.json", "layout.json", "tfidf.json")
    }
    if name == "tfidf.json":  # extract-features reads it only to fit a new layout
        inputs["layout.json"] = str(tmp_path / "new_layout.json")
    inputs[name] = str(bad)
    out = tmp_path / "out"
    args = {
        "predict": ["--model", inputs["joint.json"], "--dataset", pipeline_dir["val"],
                    "--corpus", pipeline_dir["corpus"]],
        "extract-features": ["--dataset", pipeline_dir["train"], "--corpus",
                             pipeline_dir["corpus"], "--tfidf", inputs["tfidf.json"],
                             "--layout", inputs["layout.json"]],
        "train-baseline": ["--features", f"{pipeline_dir['dir']}/features_train.jsonl",
                           "--dataset", pipeline_dir["train"], "--layout", inputs["layout.json"]],
    }[command]
    capsys.readouterr()
    assert main(pipeline_dir["base"] + [command] + args + ["--out", str(out)]) == 2
    payload = _error_payload(capsys)
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith(str(bad))
    assert not out.exists()


class TestConfigFile:
    def test_config_file_and_env_fallback(self, tmp_path, monkeypatch):
        config_path = tmp_path / "run.conf"
        config_path.write_text("synth.questions=4\nsynth.val_questions=1\n")
        out = tmp_path / "viaenv"
        monkeypatch.setenv("MEDRANK_CONFIG", str(config_path))
        assert main(["--seed", "1", "synth", "--out-dir", str(out)]) == 0
        dataset = load_dataset(out / "questions_train.jsonl", "train")
        assert len(dataset) == 4

    def test_flag_overrides_file(self, tmp_path):
        config_path = tmp_path / "run.conf"
        config_path.write_text("synth.questions=4\nsynth.val_questions=1\n")
        out = tmp_path / "override"
        code = main(
            [
                "--config",
                str(config_path),
                "--set",
                "synth.questions=7",
                "--seed",
                "1",
                "synth",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        dataset = load_dataset(out / "questions_train.jsonl", "train")
        assert len(dataset) == 7
