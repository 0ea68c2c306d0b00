"""Command-line pipeline wiring: exit codes, outputs, determinism, errors."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from medrank import baseline as bl
from medrank import cli
from medrank.cli import main
from medrank.corpus import load_dataset
from medrank.errors import read_record
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


def _predict_baseline(pipeline_dir, model, out, *settings):
    """``predict`` of ``model`` on the validation split with ``--set``
    ``settings``; the exit code."""
    sets = [arg for setting in settings for arg in ("--set", setting)]
    return main(
        pipeline_dir["base"]
        + sets
        + [
            "predict",
            "--model",
            str(model),
            "--dataset",
            pipeline_dir["val"],
            "--corpus",
            pipeline_dir["corpus"],
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

    def test_tfidf_v_sizes_fit_tfidf(self, pipeline_dir, tmp_path):
        out = tmp_path / "tfidf.json"
        args = ["fit-tfidf", "--corpus", pipeline_dir["corpus"], "--out", str(out)]
        assert main(["--set", "tfidf.V=5"] + args) == 0
        model = load_tfidf(out)
        assert model.V == 5 and len(model.vocabulary) == 5

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
        assert _predict_baseline(pipeline_dir, model, preds, "baseline.ranker=hinge") == 0
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


class TestStoredSettingsHold:
    """A checkpoint or an existing layout fixes N, T, direction, provider and
    metadata TF-IDF: a retrieval.*, provider.* or tfidf.V value that repeats
    the stored one changes nothing, and one that differs fails, naming the
    key and the file. A new layout's --tfidf file fixes tfidf.V alike."""

    FILES = {
        "predict-joint": "joint.json",
        "predict-baseline": "baseline.json",
        "extract-features": "layout.json",
    }

    def _run(self, pipeline_dir, reader, settings, out):
        """``reader`` on the validation split with ``settings``; the exit code."""
        stored = f"{pipeline_dir['dir']}/{self.FILES[reader]}"
        if reader == "extract-features":
            command = ["extract-features", "--split", "validation", "--layout", stored]
        else:
            command = ["predict", "--model", stored]
        sets = [arg for setting in settings for arg in ("--set", setting)]
        return main(
            pipeline_dir["base"]
            + sets
            + command
            + ["--dataset", pipeline_dir["val"], "--corpus", pipeline_dir["corpus"]]
            + ["--out", str(out)]
        )

    @pytest.mark.parametrize("reader", list(FILES))
    @pytest.mark.parametrize(
        "setting",
        [
            "retrieval.N=5",
            "retrieval.T=0.0",
            "retrieval.swap_direction=true",
            "provider.kind=toy_hash",
            "provider.D=4",
            "tfidf.V=99",
        ],
    )
    def test_set_contradicting_a_stored_setting_fails(
        self, pipeline_dir, capsys, tmp_path, reader, setting
    ):
        out = tmp_path / "out.jsonl"
        assert self._run(pipeline_dir, reader, [setting], out) == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "SchemaError"
        assert setting.split("=")[0] in payload["message"]
        assert self.FILES[reader] in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("reader", list(FILES))
    def test_set_repeating_the_stored_settings_changes_nothing(
        self, pipeline_dir, tmp_path, reader
    ):
        stored = [
            "retrieval.N=3",
            "retrieval.T=0.7",
            "retrieval.swap_direction=false",
            "provider.kind=tfidf_cosine",
            "provider.D=8",
            "provider.seed=0",
            "tfidf.V=16",
        ]
        assert self._run(pipeline_dir, reader, stored, tmp_path / "set.jsonl") == 0
        assert self._run(pipeline_dir, reader, [], tmp_path / "plain.jsonl") == 0
        assert (tmp_path / "set.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
        if reader == "extract-features":
            want = pipeline_dir["dir"] / "features_val.jsonl"
            assert (tmp_path / "set.jsonl").read_bytes() == want.read_bytes()


    def _fit_new_layout(self, pipeline_dir, tmp_path, value):
        """``extract-features`` of the training split into a new layout with
        the pipeline's --tfidf file and ``tfidf.V=value``; the exit code."""
        return main(
            pipeline_dir["base"]
            + ["--set", f"tfidf.V={value}", "extract-features"]
            + ["--dataset", pipeline_dir["train"], "--corpus", pipeline_dir["corpus"]]
            + ["--tfidf", f"{pipeline_dir['dir']}/tfidf.json"]
            + ["--layout", str(tmp_path / "layout.json"), "--out", str(tmp_path / "rows.jsonl")]
        )

    def test_tfidf_v_contradicting_a_new_layouts_tfidf_file_fails(
        self, pipeline_dir, capsys, tmp_path
    ):
        capsys.readouterr()
        assert self._fit_new_layout(pipeline_dir, tmp_path, 99) == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "SchemaError"
        assert "tfidf.V" in payload["message"] and "tfidf.json" in payload["message"]
        assert not (tmp_path / "rows.jsonl").exists()
        assert not (tmp_path / "layout.json").exists()

    def test_tfidf_v_repeating_a_new_layouts_tfidf_file_changes_nothing(
        self, pipeline_dir, tmp_path
    ):
        assert self._fit_new_layout(pipeline_dir, tmp_path, 16) == 0
        for mine, want in (("rows.jsonl", "features_train.jsonl"), ("layout.json",) * 2):
            assert (tmp_path / mine).read_bytes() == (pipeline_dir["dir"] / want).read_bytes()


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
    """``baseline.ranker`` picks what a baseline checkpoint ranks by: at
    ``train-baseline`` the stored ranker, at ``predict`` an override of it.
    An unknown choice fails, and a joint checkpoint ignores the key."""

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
        assert _predict_baseline(pipeline_dir, model, flagged, "baseline.ranker=logreg") == 0
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

    def test_ranker_from_a_config_file(self, pipeline_dir, tmp_path):
        config_path = tmp_path / "run.conf"
        config_path.write_text("baseline.ranker=hinge\n", encoding="utf-8")
        model = pipeline_dir["dir"] / "baseline.json"
        preds = tmp_path / "preds.jsonl"
        code = main(
            ["--config", str(config_path)]
            + pipeline_dir["base"]
            + ["predict", "--model", str(model), "--dataset", pipeline_dir["val"],
               "--corpus", pipeline_dir["corpus"], "--out", str(preds)]
        )
        assert code == 0
        _assert_scores(preds, _expected_scores(pipeline_dir, model, _hinge_scores))

    def test_unknown_ranker_setting_rejected_at_predict(self, pipeline_dir, tmp_path, capsys):
        model = pipeline_dir["dir"] / "baseline.json"
        preds = tmp_path / "preds.jsonl"
        capsys.readouterr()
        assert _predict_baseline(pipeline_dir, model, preds, "baseline.ranker=logistic") == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert "baseline.ranker" in payload["message"]
        assert "'logistic'" in payload["message"]
        assert not preds.exists()

    def test_joint_checkpoint_ignores_the_ranker_setting(self, pipeline_dir, tmp_path):
        model = pipeline_dir["dir"] / "joint.json"
        for name, settings in (("set", ["baseline.ranker=hinge"]), ("plain", [])):
            assert _predict_baseline(pipeline_dir, model, tmp_path / name, *settings) == 0
        assert (tmp_path / "set").read_bytes() == (tmp_path / "plain").read_bytes()


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

    def test_float_score_fails_ingest(self, capsys, tmp_path):
        dataset = tmp_path / "raw.jsonl"
        candidate = {"answer_id": "a", "text": "An answer.", "source": "web",
                     "system_rank": 1, "reference_rank": 1, "reference_score": 3.0}
        record = {"question_id": "q", "text": "Why?", "candidates": [candidate]}
        dataset.write_text(json.dumps(record) + "\n")
        out = tmp_path / "clean.jsonl"
        code = main(["ingest", "--dataset", str(dataset), "--split", "train", "--out", str(out)])
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "SchemaError"
        assert "reference_score" in payload["message"]
        assert not out.exists()

    def test_non_string_fields_fail_ingest(self, capsys, tmp_path):
        dataset = tmp_path / "raw.jsonl"
        candidate = {"answer_id": 7, "text": ["An answer."], "source": None,
                     "system_rank": 1, "reference_rank": 1, "reference_score": 3}
        record = {"question_id": 12, "text": {"q": 1}, "candidates": [candidate]}
        dataset.write_text(json.dumps(record) + "\n")
        out = tmp_path / "clean.jsonl"
        code = main(["ingest", "--dataset", str(dataset), "--split", "train", "--out", str(out)])
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "SchemaError"
        assert payload["message"] == f"{dataset}:1: question_id must be a string"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-joint", "predict"])
    def test_empty_corpus_names_the_file(self, pipeline_dir, capsys, tmp_path, command):
        empty = tmp_path / "corpus.jsonl"
        empty.write_text("\n", encoding="utf-8")
        p = pipeline_dir
        args = {
            "train-joint": ["--dataset", p["train"], "--epochs", "1"],
            "predict": ["--model", f"{p['dir']}/joint.json", "--dataset", p["val"]],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(p["base"] + [command, *args, "--corpus", str(empty), "--out", str(out)])
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "SchemaError"
        assert payload["message"] == f"{empty}: the corpus holds no QA pairs"
        assert not out.exists()

    def test_empty_training_dataset_names_the_file(self, pipeline_dir, capsys, tmp_path):
        empty = tmp_path / "train.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "joint.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + ["train-joint", "--dataset", str(empty), "--corpus", pipeline_dir["corpus"],
               "--epochs", "1", "--out", str(out)]
        )
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "SchemaError"
        assert payload["message"] == f"{empty}: no questions to train on"
        assert not out.exists()

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

    def test_non_finite_parameters_write_no_checkpoint(self, capsys, tmp_path):
        # One question and one epoch: a single step, so no later loss shows
        # the parameters that step drove to infinity; the save must.
        base = ["--seed", "11", "--set", "synth.questions=1", "--set", "synth.val_questions=2"]
        assert main(base + ["synth", "--out-dir", str(tmp_path)]) == 0
        model = tmp_path / "joint.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing update must not warn
            code = main(
                ["--scaled-down", "--seed", "11", "--set", "train.lr=1e308", "train-joint",
                 "--dataset", str(tmp_path / "questions_train.jsonl"),
                 "--corpus", str(tmp_path / "corpus.jsonl"), "--epochs", "1",
                 "--out", str(model)]
            )
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "MedrankError"
        assert payload["message"].startswith("non-finite param.")
        assert payload["message"].endswith("; no checkpoint written")
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--set", "train.epochs=0"], "epochs must be >= 1"),
            (["--epochs", "0"], "epochs must be >= 1"),
            (["--set", "train.lr=-1"], "lr must be > 0"),
            (["--set", "train.lr=0"], "lr must be > 0"),
            (["--set", "train.lr=inf"], "lr must be finite"),
            (["--set", "train.alpha=nan"], "alpha must be finite"),
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
        "setting, message",
        [
            ("baseline.steps=-1", "baseline.steps: expected an integer >= 1, got -1"),
            ("baseline.hinge_steps=0", "baseline.hinge_steps: expected an integer >= 1, got 0"),
            ("baseline.lr=-0.5", "baseline.lr: expected a finite number > 0, got -0.5"),
            ("baseline.lr=0", "baseline.lr: expected a finite number > 0, got 0.0"),
            ("baseline.lr=inf", "baseline.lr: expected a finite number > 0, got inf"),
            ("baseline.hinge_lr=nan", "baseline.hinge_lr: expected a finite number > 0, got nan"),
            ("baseline.weight_decay=nan",
             "baseline.weight_decay: expected a finite number >= 0, got nan"),
            ("baseline.weight_decay=-1e-4",
             "baseline.weight_decay: expected a finite number >= 0, got -0.0001"),
            ("baseline.weight_decay=1", "baseline.weight_decay: expected "
             "baseline.lr * baseline.weight_decay < 0.5, got 1.0"),
            ("baseline.hinge_lr=5000", "baseline.weight_decay: expected "
             "baseline.hinge_lr * baseline.weight_decay < 0.5, got 0.0001"),
        ],
    )
    def test_unusable_baseline_settings_write_no_checkpoint(
        self, pipeline_dir, capsys, tmp_path, setting, message
    ):
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        assert _train_baseline(pipeline_dir, model, setting) == 2
        payload = _error_payload(capsys)
        assert payload == {"error": "ConfigError", "message": message}
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

    def test_scaled_down_fit_tfidf_rejects_tfidf_v(self, pipeline_dir, capsys, tmp_path):
        out = tmp_path / "tfidf.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + ["--set", "tfidf.V=5", "fit-tfidf", "--corpus", pipeline_dir["corpus"],
               "--out", str(out)]
        )
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("tfidf.V is set, but --scaled-down")
        assert not out.exists()

    def test_zero_vocab_size_is_not_ignored(self, pipeline_dir, capsys, tmp_path):
        out = tmp_path / "tfidf.json"
        capsys.readouterr()
        code = main(
            ["--seed", "3", "--set", "tfidf.V=0"]
            + ["fit-tfidf", "--corpus", pipeline_dir["corpus"], "--out", str(out)]
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

    def test_layout_of_other_width_writes_no_checkpoint(self, pipeline_dir, capsys, tmp_path):
        # The features were extracted at N = 3; a layout at N = 2 is narrower.
        width = len(json.loads(
            (pipeline_dir["dir"] / "features_train.jsonl").read_text().splitlines()[0]
        )["features"])
        layout = tmp_path / "layout.json"
        payload = json.loads((pipeline_dir["dir"] / "layout.json").read_text())
        assert payload["N"] == 3
        layout.write_text(json.dumps({**payload, "N": 2}))
        narrow = bl.feature_dim(read_record(bl.BaselineFeatureConfig, {**payload, "N": 2}, ""))
        assert narrow != width
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        code = main(
            pipeline_dir["base"]
            + ["train-baseline", "--features", str(pipeline_dir["dir"] / "features_train.jsonl"),
               "--dataset", pipeline_dir["train"], "--layout", str(layout), "--out", str(model)]
        )
        assert code == 2
        error = self._one_error_line(capsys)
        assert error["error"] == "SchemaError"
        assert error["message"].startswith(f"{layout}: ")
        assert f"{narrow} wide" in error["message"] and f"{width} wide" in error["message"]
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

    @pytest.mark.parametrize("field", ["answer_id", "question_id"])
    def test_row_outside_the_dataset_writes_no_checkpoint(
        self, pipeline_dir, capsys, tmp_path, field
    ):
        rows = [
            json.loads(line)
            for line in (pipeline_dir["dir"] / "features_train.jsonl").read_text().splitlines()
        ]
        rows[3][field] = "zzz"
        features = tmp_path / "features.jsonl"
        features.write_text("".join(json.dumps(row) + "\n" for row in rows))
        model = tmp_path / "baseline.json"
        capsys.readouterr()
        assert self._train_baseline(pipeline_dir, features, model) == 2
        payload = self._one_error_line(capsys)
        assert payload["error"] == "SchemaError"
        assert payload["message"].startswith(
            f"{features}: feature row (question_id {rows[3]['question_id']!r}, "
            f"answer_id {rows[3]['answer_id']!r}) is not a candidate in the dataset"
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


def _with(**fields):
    """A rewrite that sets top-level ``fields`` of a JSON object."""
    return lambda text: json.dumps({**json.loads(text), **fields})


_DROP = object()


def _set(*path, value):
    """A rewrite that sets the value at ``path`` (a key or list index per
    level), or deletes it when ``value`` is ``_DROP``; json writes a NaN
    ``value`` as NaN, which json reads back."""

    def rewrite(text):
        payload = json.loads(text)
        node = payload
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return json.dumps(payload)

    return rewrite


def _shift(*path, by):
    """A rewrite that adds ``by`` to the number at ``path``."""

    def rewrite(text):
        node = payload = json.loads(text)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += by
        return json.dumps(payload)

    return rewrite


_BN1_MEAN = "buffer.encoder.stack.bn1.running_mean"

# case: (pipeline file rewritten, its rewrite, the command that reads it)
UNREADABLE_JSON = {
    "checkpoint-truncated": ("joint.json", _truncated, "predict"),
    "checkpoint-string": ("joint.json", lambda text: '"meta arrays"', "predict"),
    "checkpoint-meta-list": ("joint.json", lambda text: '{"meta": [], "arrays": {}}', "predict"),
    "checkpoint-no-encoder": ("joint.json", _set("meta", "encoder", value=_DROP), "predict"),
    "baseline-no-feature-config": ("baseline.json", _set("meta", "feature_config", value=_DROP),
                                   "predict"),
    "layout-truncated": ("layout.json", _truncated, "extract-features"),
    "layout-list": ("layout.json", lambda text: "[1]", "extract-features"),
    "layout-text-N": ("layout.json", _with(N="3"), "extract-features"),
    "train-layout-truncated": ("layout.json", _truncated, "train-baseline"),
    "train-layout-list": ("layout.json", lambda text: "[1]", "train-baseline"),
    "train-layout-empty": ("layout.json", lambda text: "{}", "train-baseline"),
    "train-layout-text-T": ("layout.json", _with(T="high"), "train-baseline"),
    "train-layout-zero-N": ("layout.json", _with(N=0), "train-baseline"),
    "train-layout-T-above-one": ("layout.json", _with(T=2.0), "train-baseline"),
    "train-layout-provider-no-kind": ("layout.json", _set("provider", "kind", value=_DROP),
                                      "train-baseline"),
    "tfidf-truncated": ("tfidf.json", _truncated, "extract-features"),
    "tfidf-idf-text": ("tfidf.json", _with(idf=["x"]), "extract-features"),
    "tfidf-idf-short": ("tfidf.json", _with(idf=[1.0]), "extract-features"),
    "tfidf-idf-nan": ("tfidf.json", _set("idf", 0, value=float("nan")), "extract-features"),
    "checkpoint-kernel-int": ("joint.json", _set("meta", "encoder", "layers", 0, "kernel",
                                                 value=3), "predict"),
    "checkpoint-layers-null": ("joint.json", _set("meta", "encoder", "layers", value=None),
                               "predict"),
    "checkpoint-batchnorm-text": ("joint.json", _set("meta", "encoder", "layers", 2,
                                                     "batchnorm", value="no"), "predict"),
    "checkpoint-filter-widths-text": ("joint.json", _set("meta", "filter_widths", value="abc"),
                                      "predict"),
    "checkpoint-candidate-sources-int": ("joint.json", _set("meta", "layout",
                                                            "candidate_sources", value=5),
                                         "predict"),
    "checkpoint-layout-M-text": ("joint.json", _set("meta", "layout", "M", value="x"),
                                 "predict"),
    "checkpoint-rqe-dim-list": ("joint.json", _set("meta", "rqe_dim", value=[1]), "predict"),
    "checkpoint-rqe-dim-twice": (
        "joint.json",
        lambda text: text.replace('"meta": {', '"meta": {"rqe_dim": 999, ', 1),
        "predict",
    ),
    "checkpoint-layout-V-not-tfidf": ("joint.json", _shift("meta", "layout", "V", by=-1),
                                      "predict"),
    "checkpoint-provider-D-not-encoder": ("joint.json", _shift("meta", "provider", "D", by=1),
                                          "predict"),
    "checkpoint-seed-null": ("joint.json", _set("meta", "train", "seed", value=None),
                             "predict"),
    "checkpoint-retrieval-N-text": ("joint.json", _set("meta", "train", "retrieval_N",
                                                       value="a"), "predict"),
    "checkpoint-retrieval-T-two": ("joint.json", _set("meta", "train", "retrieval_T", value=2),
                                   "predict"),
    "checkpoint-nan-buffer": ("joint.json", _set("arrays", _BN1_MEAN, "data", 0,
                                                 value=float("nan")), "predict"),
    "checkpoint-text-buffer": ("joint.json", _set("arrays", _BN1_MEAN, "data", 0, value="0.5"),
                               "predict"),
    "baseline-no-bias": ("baseline.json", _set("arrays", "logreg.bias", value=_DROP), "predict"),
    "baseline-short-weight": ("baseline.json", _set("arrays", "logreg.weight",
                                                    value={"shape": [2], "data": [0.0, 0.0]}),
                              "predict"),
    "baseline-short-hinge": ("baseline.json", _set("arrays", "hinge.weight",
                                                   value={"shape": [2], "data": [0.0, 0.0]}),
                             "predict"),
    "layout-fallback-zero-text": ("layout.json", _set("provider", "fallback_zero", value="no"),
                                  "extract-features"),
    "layout-swap-direction-text": ("layout.json", _with(swap_direction="no"),
                                   "extract-features"),
    "layout-provider-path-int": ("layout.json", _set("provider", "path", value=5),
                                 "extract-features"),
    "layout-tfidf-vocabulary-int": ("layout.json", _set("tfidf", "vocabulary", 0, value=5),
                                    "extract-features"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_unreadable_json_input_names_the_file(pipeline_dir, capsys, tmp_path, case):
    name, rewrite, command = UNREADABLE_JSON[case]
    source = Path(pipeline_dir["dir"]) / name
    bad = tmp_path / name
    bad.write_text(rewrite(source.read_text(encoding="utf-8")), encoding="utf-8")
    inputs = {
        other: str(source.parent / other)
        for other in ("joint.json", "baseline.json", "layout.json", "tfidf.json")
    }
    model = name if name in ("joint.json", "baseline.json") else "joint.json"
    if name == "tfidf.json":  # extract-features reads it only to fit a new layout
        inputs["layout.json"] = str(tmp_path / "new_layout.json")
    inputs[name] = str(bad)
    out = tmp_path / "out"
    args = {
        "predict": ["--model", inputs[model], "--dataset", pipeline_dir["val"],
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


def _json_paths(node, path=()):
    """The key path of every value under ``node``, parents first; a list is
    visited through its first item only, since its items share one type."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[:1]
    else:
        items = []
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _other_type(value):
    """A JSON value of another type than ``value``."""
    for kinds, other in ((bool, "no"), ((int, float), "x"), (str, 5), (list, 3), (dict, [1])):
        if isinstance(value, kinds):
            return other
    return 5  # null


@pytest.mark.parametrize("name", ["joint.json", "layout.json", "tfidf.json"])
def test_wrong_type_sweep(pipeline_dir, capsys, tmp_path, name):
    """Every stored setting, given a value of another JSON type, either fails
    with one JSON error line naming the file, or is never read and leaves the
    output byte for byte as it was: ``predict`` for the checkpoint's meta,
    ``extract-features`` against the layout, and fitting a new layout for
    the TF-IDF. Two questions of each split keep the runs short."""
    p = pipeline_dir
    datasets = {}
    for split in ("train", "val"):
        datasets[split] = tmp_path / f"{split}.jsonl"
        lines = Path(p[split]).read_text(encoding="utf-8").splitlines(keepends=True)
        datasets[split].write_text("".join(lines[:2]), encoding="utf-8")
    out, new_layout = tmp_path / "out", tmp_path / "new_layout.json"
    args = {
        "joint.json": ["predict", "--dataset", str(datasets["val"]), "--corpus", p["corpus"],
                       "--model"],
        "layout.json": ["extract-features", "--dataset", str(datasets["train"]), "--corpus",
                        p["corpus"], "--layout"],
        "tfidf.json": ["extract-features", "--dataset", str(datasets["train"]), "--corpus",
                       p["corpus"], "--layout", str(new_layout), "--tfidf"],
    }[name]

    def run(path):
        for written in (out, new_layout):
            written.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(p["base"] + args + [str(path), "--out", str(out)])
        outputs = [f.read_bytes() for f in (out, new_layout) if f.exists()]
        return code, capsys.readouterr().err, outputs

    source = p["dir"] / name
    code, err, expected = run(source)
    assert (code, err) == (0, "")
    stored = json.loads(source.read_text(encoding="utf-8"))
    root = ("meta",) if name == "joint.json" else ()
    node = stored
    for key in root:
        node = node[key]
    bad, failures, cases = tmp_path / name, [], 0
    for path in _json_paths(node, root):
        value = stored
        for key in path:
            value = value[key]
        rewrite = _set(*path, value=_other_type(value))
        bad.write_text(rewrite(json.dumps(stored)), encoding="utf-8")
        code, err, outputs = run(bad)
        lines = err.splitlines()
        named = (
            code == 2
            and len(lines) == 1
            and json.loads(lines[0])["message"].startswith(f"{bad}: ")
        )
        if not (named or (code == 0 and err == "" and outputs == expected)):
            failures.append((path, code, err))
        cases += 1
    assert cases >= 5  # tfidf.json has the fewest: vocabulary, idf, their first items, V
    assert failures == []


def _first_line(path):
    return Path(path).read_text(encoding="utf-8").splitlines()[0]


# input: (a valid line of it, a field it requires)
JSONL_INPUTS = {
    "dataset": (lambda p: _first_line(p["val"]), "question_id"),
    "corpus": (lambda p: _first_line(p["corpus"]), "pair_id"),
    "features": (lambda p: _first_line(f"{p['dir']}/features_train.jsonl"), "features"),
    "predictions": (
        lambda p: json.dumps({"question_id": "q", "ranking": ["a"], "relevant": ["a"]}),
        "ranking",
    ),
    "provider-path": (
        lambda p: json.dumps({"key": "k", "score": 0.5, "embedding": [0.0] * 8}),
        "embedding",
    ),
}


def _bad_lines(field):
    """Bad lines made from an input's valid line; a lone surrogate stands for
    a byte that is not UTF-8 (the file is written with surrogateescape)."""
    return {
        "invalid-json": lambda line: line[:-1],
        "not-an-object": lambda line: "5",
        "not-utf8": lambda line: '{"text": "\udcff"}',
        "missing-field": lambda line: json.dumps(
            {k: v for k, v in json.loads(line).items() if k != field}
        ),
        "duplicate-key": lambda line: f'{{"{field}": 0, {line.lstrip()[1:]}',
    }


# case: (the input, its bad line made from a valid one)
UNREADABLE_JSONL = {
    f"{name}-{kind}": (name, rewrite)
    for name, (_, field) in JSONL_INPUTS.items()
    for kind, rewrite in _bad_lines(field).items()
}
UNREADABLE_JSONL.update(
    {
        "predictions-int-ranking": ("predictions", _with(ranking=5)),
        "predictions-int-question-id": ("predictions", _with(question_id=5)),
        "predictions-int-relevant-id": ("predictions", _with(relevant=[1])),
        "features-list-question-id": ("features", _with(question_id=[1])),
        "features-text-label": ("features", _with(label="yes")),
        "features-label-two": ("features", _with(label=2)),
        "provider-path-list-key": ("provider-path", _with(key=[1])),
    }
)


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSONL))
def test_unreadable_jsonl_input_names_the_line(pipeline_dir, capsys, tmp_path, case):
    name, rewrite = UNREADABLE_JSONL[case]
    line = JSONL_INPUTS[name][0](pipeline_dir)
    bad = tmp_path / "bad.jsonl"
    text = f"{line}\n\n{rewrite(line)}\n"  # the bad line is line 3
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    p = pipeline_dir
    model = f"{p['dir']}/joint.json"
    sets, args = {
        "dataset": ([], ["predict", "--model", model, "--dataset", str(bad),
                         "--corpus", p["corpus"]]),
        "corpus": ([], ["predict", "--model", model, "--dataset", p["val"],
                        "--corpus", str(bad)]),
        "features": ([], ["train-baseline", "--features", str(bad), "--dataset", p["train"],
                          "--layout", f"{p['dir']}/layout.json"]),
        "predictions": ([], ["evaluate", "--predictions", str(bad), "--dataset", p["val"]]),
        "provider-path": (
            ["--set", "provider.kind=precomputed", "--set", f"provider.path={bad}"],
            ["train-joint", "--dataset", p["train"], "--corpus", p["corpus"], "--epochs", "1"],
        ),
    }[name]
    capsys.readouterr()
    assert main(p["base"] + sets + args + ["--out", str(out)]) == 2
    payload = _error_payload(capsys)  # one line: no traceback
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith(f"{bad}:3: ")
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag", [("evaluate", "--out"), ("analyze", "--out-dir")])
def test_malformed_prediction_exits_2_naming_the_question(
    synth_dir, capsys, tmp_path, command, out_flag
):
    # Each validation question's candidates in file order, the first question's
    # ranking and relevant set with an id that is none of its candidates.
    val = str(synth_dir / "questions_validation.jsonl")
    lines = []
    for question in load_dataset(val, "validation").questions:
        ids = [c.answer_id for c in question.candidates]
        lines.append({"question_id": question.question_id, "ranking": ids, "relevant": ids[:1]})
    lines[0]["ranking"].append("zz")
    lines[0]["relevant"].append("zz")
    bad = tmp_path / "preds.jsonl"
    bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--predictions", str(bad), "--dataset", val, out_flag, str(out)]) == 2
    payload = _error_payload(capsys)  # one line: no traceback
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith(f"question {lines[0]['question_id']!r}: ranking must")
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


def test_failed_extraction_writes_no_layout(pipeline_dir, tmp_path, capsys):
    """A new layout is written once every feature row is extracted, so a failed
    run leaves none behind for a rerun to reuse with the failed run's settings."""
    p = pipeline_dir
    records = tmp_path / "records.jsonl"  # holds no pair the corpus scores
    records.write_text(
        json.dumps({"key": "none", "score": 0.5, "embedding": [0.0] * 8}) + "\n"
    )
    layout = tmp_path / "layout.json"
    out = tmp_path / "features.jsonl"
    args = ["extract-features", "--dataset", p["train"], "--split", "train",
            "--corpus", p["corpus"], "--tfidf", f"{p['dir']}/tfidf.json",
            "--layout", str(layout), "--out", str(out)]
    precomputed = ["--set", "provider.kind=precomputed", "--set", f"provider.path={records}"]
    capsys.readouterr()
    assert main(p["base"] + precomputed + args) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not layout.exists()
    assert not out.exists()
    # the rerun fits its own layout, the one the pipeline fit with these settings
    assert main(p["base"] + args) == 0
    assert layout.read_bytes() == (p["dir"] / "layout.json").read_bytes()
    assert out.read_bytes() == (p["dir"] / "features_train.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["config", "guard", "abbrev"])
def test_undecodable_text_input_names_the_line(tmp_path, capsys, name):
    valid = {"config": "synth.questions=4", "guard": "Conf.", "abbrev": "MI\tmyocardial"}
    bad = tmp_path / "bad.txt"
    bad.write_bytes(f"{valid[name]}\n\n".encode() + b"\xff\n")  # the bad line is line 3
    dataset = tmp_path / "raw.jsonl"
    dataset.write_text(
        json.dumps(
            {
                "question_id": "q",
                "text": "MI symptoms",
                "candidates": [
                    {"answer_id": "a", "text": "MI here.", "source": "web", "system_rank": 1}
                ],
            }
        )
        + "\n"
    )
    out = tmp_path / "clean.jsonl"
    ingest = ["ingest", "--dataset", str(dataset), "--split", "test", "--out", str(out)]
    args = {
        "config": ["--config", str(bad)] + ingest,
        "guard": ingest + ["--guard", str(bad)],
        "abbrev": ingest + ["--abbrev", str(bad)],
    }[name]
    capsys.readouterr()
    assert main(args) == 2
    payload = _error_payload(capsys)  # one line: no traceback
    assert payload["error"] == "SchemaError"
    assert payload["message"].startswith(f"{bad}:3: not UTF-8: ")
    assert not out.exists()
