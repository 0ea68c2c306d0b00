"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; plain ``pytest`` reports the same pass/fail status per test. The
end-to-end criterion reads the session's ``end_to_end`` run (conftest.py),
which trains the scaled-down joint model and the baseline on the synthetic
dataset once and which test_exactness.py shares; everything else is fast.
"""

import itertools
import math

import numpy as np
import pytest

from medrank import baseline as bl
from medrank.cli import main
from medrank.corpus import QAPair, derive_label
from medrank.evalkit import Prediction, evaluate, spearman_per_question, spearman_rho
from medrank.gradcheck import gradient_check_battery
from medrank.joint import (
    ConvEncoder,
    ConvEncoderConfig,
    EntailedInstance,
    HeadConfig,
    MetadataLayout,
    build_joint_model,
    infer,
    question_loss,
    _candidate_sentences,
    _prepare_instance,
    _PreparedQuestion,
)
from medrank.providers import fit_tfidf
from medrank.retrieval import (
    EntailmentIndex,
    RetrievalConfig,
    coverage,
    retrieve,
)
from medrank.tensornet import Conv2d, Maps

from conftest import StubProvider, make_candidate, make_question, small_world
from test_baseline import MatrixNliProvider
from test_joint import zero_params
from test_tensornet import naive_conv2d

GRAD_TOLERANCE = 1e-4
ORACLE_TOLERANCE = 1e-12


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


class TestCriterion1DimensionAudit:
    def test_dimension_audit(self):
        layout = MetadataLayout(("site",), ("faq",), V=2000, M=2032)
        joint_width = ConvEncoderConfig.default().out_dim + 768 + layout.M
        assert joint_width == 3824
        assert HeadConfig.default_filter(joint_width).widths[0] == 3824
        assert HeadConfig.default_pair(2 * joint_width).widths[0] == 7648
        assert HeadConfig.default_filter().widths == (
            3824, 2048, 1024, 512, 512, 256, 64, 1,
        )
        assert HeadConfig.default_pair().widths == (
            7648, 3824, 2048, 1024, 512, 512, 256, 64, 1,
        )

        # encoder output stays fixed for every input shape in [1, 50]^2,
        # swept with real forward passes at scaled-down channel counts
        encoder = ConvEncoder(
            ConvEncoderConfig.scaled_down(), np.random.default_rng(0)
        ).materialize()
        encoder.eval()
        encoder.enable_grad(False)
        for a in range(1, 51):
            for c in range(1, 51):
                assert encoder.forward([np.zeros((8, a, c))]).shape == (1, 16)

        # one full-width pass confirms the 1024-wide embedding
        full = ConvEncoder(ConvEncoderConfig.default(), np.random.default_rng(0)).materialize()
        full.eval()
        full.enable_grad(False)
        out = full.forward([np.random.default_rng(1).standard_normal((768, 3, 4))])
        assert out.shape == (1, 1024)
        _report(1, "joint width 3824, pair input 7648, encoder output 1024 on [1,50]^2")


class TestCriterion2GradientVerification:
    def test_gradient_battery(self):
        results = gradient_check_battery(seed=0)
        for name in (
            "linear_sigmoid_bce",
            "conv2d",
            "conv2d_padded",
            "batchnorm",
            "conv_encoder",
            "filter_head",
            "pair_head",
            "full_model",
        ):
            assert results[name] <= GRAD_TOLERANCE, (name, results[name])
        worst = max(results.values())
        _report(2, f"max relative gradient error {worst:.2e} <= {GRAD_TOLERANCE:.0e}")


class TestCriterion3OracleEquivalence:
    def test_conv2d_matches_naive_loops(self):
        rng = np.random.default_rng(100)
        checked = 0
        while checked < 100:
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            kh = int(rng.integers(1, 4))
            kw = int(rng.integers(1, 4))
            stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            if (h + 2 * padding[0] - kh) < 0 or (w + 2 * padding[1] - kw) < 0:
                continue
            layer = Conv2d(c_in, c_out, (kh, kw), stride, padding, rng).materialize()
            x = rng.standard_normal((c_in, h, w))
            expected = naive_conv2d(x, layer.weight.data, layer.bias.data, stride, padding)
            np.testing.assert_allclose(
                layer.forward(Maps.pack([x])).unpack()[0], expected, atol=ORACLE_TOLERANCE
            )
            layer.clear_cache()
            checked += 1
        _report(3, "conv2d == naive quadruple loop on 100 random cases (1e-12)")

    def test_anli_matches_brute_force(self):
        rng = np.random.default_rng(200)
        for _ in range(60):
            n_s = int(rng.integers(1, 7))
            n_p = int(rng.integers(1, 7))
            matrix = rng.uniform(0, 1, size=(n_s, n_p))
            sentences = [f"s{i}" for i in range(n_s)]
            entailed = [f"p{j}" for j in range(n_p)]
            provider = MatrixNliProvider(matrix, sentences, entailed)
            brute = sum(max(row) for row in matrix) / n_s
            assert bl.anli(sentences, entailed, provider) == pytest.approx(
                brute, abs=ORACLE_TOLERANCE
            )
        _report(3, "ANLI == brute-force max-then-average on random matrices (1e-12)")

    def test_spearman_matches_closed_form_exhaustively(self):
        for n in range(2, 6):
            for perm in itertools.permutations(range(1, n + 1)):
                positions = list(range(1, n + 1))
                rho = spearman_rho(positions, list(perm))
                d2 = sum((p - r) ** 2 for p, r in zip(positions, perm))
                closed = 1 - 6 * d2 / (n * (n**2 - 1))
                assert rho == pytest.approx(closed, abs=ORACLE_TOLERANCE)
        _report(3, "Spearman == closed form on all tie-free permutations n<=5")


class TestCriterion4MetricConventions:
    def test_conventions(self):
        assert spearman_per_question(["b", "a"], {"a": 1, "b": 2}) == pytest.approx(-1.0)
        assert spearman_per_question(["a"], {"a": 1}) == 0.0
        assert [derive_label(s) for s in (1, 2, 3, 4)] == [0, 0, 1, 1]

        # the single-valid-answer convention holds through full evaluation
        from medrank.corpus import Dataset

        question = make_question(
            "q",
            "text",
            (
                make_candidate("a", "Alpha.", "web", 1, 1, 4),
                make_candidate("b", "Beta.", "web", 2, 2, 1),
            ),
        )
        dataset = Dataset(split="validation", questions=(question,))
        report = evaluate(
            [Prediction("q", ("a", "b"), ("a",))], dataset
        )
        assert report.mean_rho == 0.0
        _report(4, "reversed pair rho=-1, single-valid rho=0, labels 3-4 -> 1")


class TestCriterion5RetrievalContract:
    def _index(self):
        pairs = [QAPair(f"p{i}", f"cq {i}", f"ans {i}", "faq") for i in range(3)]
        table = {
            # q0 clears 0.9, q1 clears only 0.5, q2 clears neither
            ("q0", "cq 0"): 0.95, ("q0", "cq 1"): 0.2, ("q0", "cq 2"): 0.1,
            ("q1", "cq 0"): 0.6, ("q1", "cq 1"): 0.55, ("q1", "cq 2"): 0.1,
            ("q2", "cq 0"): 0.3, ("q2", "cq 1"): 0.2, ("q2", "cq 2"): 0.1,
        }
        return EntailmentIndex(pairs, StubProvider(table))

    def test_contract(self):
        index = self._index()
        queries = ["q0", "q1", "q2"]
        for t in (0.3, 0.5, 0.7, 0.9, 0.99):
            for query in queries:
                hits = retrieve(index, query, RetrievalConfig(N=3, T=t))
                assert 1 <= len(hits) <= 3

        low = coverage(index, queries, RetrievalConfig(N=3, T=0.5))
        high = coverage(index, queries, RetrievalConfig(N=3, T=0.9))
        assert low == pytest.approx(2 / 3)
        assert high == pytest.approx(1 / 3)
        assert high <= low
        _report(5, f"retrieve never empty; coverage {low:.2f} at T=0.5 >= {high:.2f} at T=0.9")


class TestCriterion6EndToEndLearning:
    def test_joint_learns_held_out(self, end_to_end):
        joint_report = end_to_end.joint_report
        assert joint_report.accuracy >= 0.90
        assert joint_report.mean_rho >= 0.80
        _report(
            6,
            f"joint held-out accuracy {joint_report.accuracy:.3f} >= 0.90, "
            f"mean rho {joint_report.mean_rho:.3f} >= 0.80",
        )

    def test_baseline_learns_and_joint_ranks_at_least_as_well(self, end_to_end):
        joint_report, baseline_report = end_to_end.joint_report, end_to_end.baseline_report
        assert baseline_report.accuracy >= 0.80
        assert joint_report.mean_rho >= baseline_report.mean_rho
        _report(
            6,
            f"logistic baseline accuracy {baseline_report.accuracy:.3f} >= 0.80; "
            f"joint rho {joint_report.mean_rho:.3f} >= baseline rho "
            f"{baseline_report.mean_rho:.3f}",
        )


class TestCriterion7LossStructure:
    def _fixture(self):
        tfidf = fit_tfidf(
            ["first answer text", "second reply words", "entailed sentence here"], V=8
        )
        layout = MetadataLayout(("nih", "web"), ("faq",), V=8, M=16)
        model = build_joint_model(
            layout,
            tfidf,
            ConvEncoderConfig.scaled_down(),
            rqe_dim=8,
            seed=0,
            filter_config=HeadConfig.scaled_filter(40),
            pair_config=HeadConfig.scaled_pair(80),
        )
        provider = StubProvider(D=8, default=0.3)
        question = make_question(
            "q",
            "query words",
            (
                make_candidate("a1", "First answer text.", "web", 1, 1, 4),
                make_candidate("a2", "Second answer text.", "nih", 2, 2, 1),
            ),
        )
        instance = EntailedInstance(
            ("Entailed answer sentence.",), "faq", 0.9, np.arange(8, dtype=float)
        )
        prepared = _PreparedQuestion(
            "q",
            np.array([1.0, 0.0]),
            [1, 2],
            [
                _prepare_instance(
                    model,
                    instance,
                    (0, 1),
                    list(question.candidates),
                    _candidate_sentences(question),
                    provider,
                )
            ],
        )
        return model, prepared, question, instance, provider

    def test_alpha_zero_pair_gradients(self):
        model, prepared, *_ = self._fixture()
        model.train()
        model.zero_grad()
        question_loss(model, prepared, alpha=0.0, compute_grads=True)
        for _, tensor in model.pair_head.named_params():
            np.testing.assert_array_equal(tensor.grad, 0.0)
        _report(7, "alpha=0 leaves every pairwise-head gradient identically zero")

    def test_single_candidate_has_no_pair_terms(self):
        model, _, question, instance, provider = self._fixture()
        zero_params(model)
        solo = make_question(
            "solo", "query", (make_candidate("only", "First answer text.", "web", 1, 1, 4),)
        )
        prepared = _PreparedQuestion(
            "solo",
            np.array([1.0]),
            [1],
            [
                _prepare_instance(
                    model,
                    instance,
                    (0,),
                    list(solo.candidates),
                    _candidate_sentences(solo),
                    provider,
                )
            ],
        )
        model.train()
        with_pairs = question_loss(model, prepared, alpha=10.0, compute_grads=False)
        without = question_loss(model, prepared, alpha=0.0, compute_grads=False)
        assert with_pairs == pytest.approx(without, abs=1e-12)
        _report(7, "single-candidate question contributes zero pair terms")

    def test_hand_computed_total_loss(self):
        model, prepared, *_ = self._fixture()
        zero_params(model)
        model.train()
        for alpha in (2.0, 0.5):
            loss = question_loss(model, prepared, alpha=alpha, compute_grads=False)
            expected = (2 + alpha * 2) * math.log(2)
            assert loss == pytest.approx(expected, abs=1e-9)
        _report(7, "frozen 2-candidate fixture matches (2 + 2a) ln 2 to 1e-9")


class TestCriterion8EnsembleInvariance:
    def test_duplicated_entailed_candidate(self):
        train, _, corpus, provider, index, model = small_world(questions=6, seed=4)
        config = RetrievalConfig(N=3, T=0.7)
        question = train.questions[0]
        base = infer(model, question, index, provider, config)
        top = retrieve(index, question.text, config)[0]
        duplicated = EntailmentIndex(
            list(corpus)
            + [
                QAPair(
                    top.pair.pair_id + "-dup",
                    top.pair.question_text,
                    top.pair.answer_text,
                    top.pair.source,
                )
            ],
            provider,
        )
        doubled = infer(model, question, duplicated, provider, config)
        assert doubled.ranking == base.ranking
        assert doubled.relevant == base.relevant
        _report(8, "duplicating an entailed candidate leaves decisions and order unchanged")


class TestCriterion9Determinism:
    def test_synth_byte_identical(self, tmp_path):
        args = [
            "--seed",
            "7",
            "--set",
            "synth.questions=20",
            "--set",
            "synth.val_questions=5",
        ]
        assert main(args + ["synth", "--out-dir", str(tmp_path / "one")]) == 0
        assert main(args + ["synth", "--out-dir", str(tmp_path / "two")]) == 0
        for name in ("questions_train.jsonl", "questions_validation.jsonl", "corpus.jsonl"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()
        _report(9, "synth outputs are byte-identical across runs")

    def test_train_joint_byte_identical(self, tmp_path):
        synth_args = [
            "--seed",
            "7",
            "--set",
            "synth.questions=12",
            "--set",
            "synth.val_questions=2",
            "synth",
            "--out-dir",
            str(tmp_path / "data"),
        ]
        assert main(synth_args) == 0
        train_args = [
            "--scaled-down",
            "--seed",
            "7",
            "train-joint",
            "--dataset",
            str(tmp_path / "data" / "questions_train.jsonl"),
            "--corpus",
            str(tmp_path / "data" / "corpus.jsonl"),
            "--epochs",
            "2",
        ]
        assert main(train_args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(train_args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        _report(9, "train-joint checkpoints are byte-identical across runs")
