"""ANLI scoring, baseline feature assembly, logistic filter, hinge ranker."""

import numpy as np
import pytest

from medrank import baseline as bl
from medrank.corpus import Dataset
from medrank.errors import DimensionError, SchemaError
from medrank.providers import (
    ProviderConfig,
    TfidfCosineProvider,
    fit_tfidf,
    tfidf_transform,
)
from medrank.retrieval import EntailedCandidate, RetrievalConfig
from medrank.tensornet import sigmoid

from conftest import StubProvider, make_candidate, make_question, ordered_sum_score


class MatrixNliProvider:
    """Entailment score by (candidate sentence index, entailed sentence index)."""

    def __init__(self, matrix, candidate_sentences, entailed_sentences):
        self.matrix = np.asarray(matrix, dtype=float)
        self.rows = {s: i for i, s in enumerate(candidate_sentences)}
        self.cols = {p: j for j, p in enumerate(entailed_sentences)}

    def score(self, s, p):
        return float(self.matrix[self.rows[s], self.cols[p]])

    def nli(self, s, p):
        embedding = np.zeros(2)
        embedding.setflags(write=False)
        return embedding

    rqe = nli

    def nli_scores(self, s, premises):
        return np.array([self.score(s, p) for p in premises])

    def rqe_scores(self, query, texts, swap=False):
        pairs = [(t, query) if swap else (query, t) for t in texts]
        return np.array([self.score(a, b) for a, b in pairs])


class TestAnli:
    def test_single_pair_collapses(self):
        provider = MatrixNliProvider([[0.7]], ["s0"], ["p0"])
        assert bl.anli(["s0"], ["p0"], provider) == pytest.approx(0.7, abs=1e-12)

    def test_hand_matrix(self):
        provider = MatrixNliProvider(
            [[0.9, 0.1], [0.2, 0.8]], ["s0", "s1"], ["p0", "p1"]
        )
        value = bl.anli(["s0", "s1"], ["p0", "p1"], provider)
        assert value == pytest.approx(0.85, abs=1e-12)

    def test_constant_provider(self):
        provider = StubProvider(default=0.4)
        for n_s, n_p in [(1, 1), (3, 2), (2, 5)]:
            sentences = [f"s{i}" for i in range(n_s)]
            entailed = [f"p{j}" for j in range(n_p)]
            assert bl.anli(sentences, entailed, provider) == pytest.approx(
                0.4, abs=1e-12
            )

    def test_empty_entailed_scores_zero(self):
        assert bl.anli(["s0"], [], StubProvider()) == 0.0

    def test_empty_candidate_rejected(self):
        with pytest.raises(SchemaError):
            bl.anli([], ["p0"], StubProvider())

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n_s = int(rng.integers(1, 7))
            n_p = int(rng.integers(1, 7))
            matrix = rng.uniform(0, 1, size=(n_s, n_p))
            sentences = [f"s{i}" for i in range(n_s)]
            entailed = [f"p{j}" for j in range(n_p)]
            provider = MatrixNliProvider(matrix, sentences, entailed)
            brute = sum(max(row) for row in matrix) / n_s
            assert bl.anli(sentences, entailed, provider) == pytest.approx(
                brute, abs=1e-12
            )

    def test_real_provider_scores_without_embeddings(self):
        model = fit_tfidf(["fever and cough", "rest and fluids", "zzz"], V=10)
        provider = TfidfCosineProvider(ProviderConfig(D=4), model)
        sentences = ["Fever with cough.", "Drink fluids.", "qqq unknown"]
        entailed = ["Rest and fluids help.", "A cough and fever."]
        value = bl.anli(sentences, entailed, provider)
        assert provider._memo == {}
        brute = sum(
            max(ordered_sum_score(provider, s, p) for p in entailed) for s in sentences
        )
        assert value == brute / len(sentences)

    def test_bounded_and_monotone(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1, size=(3, 3))
        sentences = [f"s{i}" for i in range(3)]
        entailed = [f"p{j}" for j in range(3)]
        base = bl.anli(sentences, entailed, MatrixNliProvider(matrix, sentences, entailed))
        assert 0.0 <= base <= 1.0
        bumped = matrix.copy()
        bumped[1, 2] = min(1.0, bumped[1, 2] + 0.3)
        higher = bl.anli(
            sentences, entailed, MatrixNliProvider(bumped, sentences, entailed)
        )
        assert higher >= base - 1e-12


@pytest.fixture
def feature_setup(qa_pairs):
    tfidf = fit_tfidf(["rest fluids help", "see a doctor", "infections mostly"], V=8)
    config = bl.BaselineFeatureConfig(
        N=2, V=len(tfidf.vocabulary), D=4, source_vocab=("nih", "web"), T=0.5
    )
    provider = StubProvider(default=0.25, D=4)
    return tfidf, config, provider


class TestFeatureAssembly:
    def test_layout_arithmetic(self, feature_setup):
        tfidf, config, provider = feature_setup
        expected = len(config.source_vocab) + 2 + 2 * config.V + config.N + (
            config.N * config.D
        ) + config.N
        assert bl.feature_dim(config) == expected
        layout = bl.feature_layout(config)
        assert layout[-1]["offset"] + layout[-1]["length"] == expected

    def test_zero_entailed_zero_fills(self, feature_setup, qa_pairs):
        tfidf, config, provider = feature_setup
        question = make_question()
        candidate = make_candidate(text="Rest fluids help.")
        vec = bl.assemble_baseline_features(
            question, candidate, [], tfidf, config, provider
        )
        layout = {slot["name"]: slot for slot in bl.feature_layout(config)}
        for name in ("tfidf_best_entailed", "rqe_scores", "rqe_embeddings", "avg_nli_scores"):
            slot = layout[name]
            section = vec[slot["offset"] : slot["offset"] + slot["length"]]
            np.testing.assert_array_equal(section, 0.0)

    def test_hand_assembled_fixture(self, feature_setup, qa_pairs):
        tfidf, config, provider = feature_setup
        question = make_question(text="what causes headaches")
        candidate = make_candidate(
            "c1", "Rest fluids help.", "web", system_rank=3
        )
        embedding = np.array([1.0, 2.0, 3.0, 4.0])
        entailed = [EntailedCandidate(qa_pairs[1], 0.9, embedding)]
        vec = bl.assemble_baseline_features(
            question, candidate, entailed, tfidf, config, provider
        )
        expected = np.zeros(bl.feature_dim(config))
        expected[1] = 1.0  # source one-hot: web is second in ("nih", "web")
        expected[2] = 1.0  # one sentence
        expected[3] = 3.0  # system rank
        offset = 4
        expected[offset : offset + 8] = tfidf_transform(tfidf, candidate.text)
        offset += 8
        expected[offset : offset + 8] = tfidf_transform(
            tfidf, qa_pairs[1].answer_text
        )
        offset += 8
        expected[offset] = 0.9
        offset += 2
        expected[offset : offset + 4] = embedding
        offset += 8
        expected[offset] = 0.25  # constant-score provider -> ANLI 0.25
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_unknown_source_zero_onehot(self, feature_setup):
        tfidf, config, provider = feature_setup
        question = make_question()
        candidate = make_candidate(source="elsewhere")
        vec = bl.assemble_baseline_features(
            question, candidate, [], tfidf, config, provider
        )
        np.testing.assert_array_equal(vec[:2], 0.0)

    def test_too_many_entailed_rejected(self, feature_setup, qa_pairs):
        tfidf, config, provider = feature_setup
        entailed = [
            EntailedCandidate(pair, 0.9, np.zeros(4)) for pair in qa_pairs
        ]
        with pytest.raises(DimensionError):
            bl.assemble_baseline_features(
                make_question(), make_candidate(), entailed, tfidf, config, provider
            )

    def test_deterministic_across_calls(self, feature_setup, qa_pairs):
        tfidf, config, provider = feature_setup
        question = make_question()
        candidate = make_candidate(text="Rest fluids help. See a doctor.")
        entailed = [EntailedCandidate(qa_pairs[0], 0.8, np.ones(4))]
        a = bl.assemble_baseline_features(
            question, candidate, entailed, tfidf, config, provider
        )
        b = bl.assemble_baseline_features(
            question, candidate, entailed, tfidf, config, provider
        )
        np.testing.assert_array_equal(a, b)

    def test_source_vocab_fit(self):
        questions = [
            make_question(
                "q1",
                candidates=(
                    make_candidate("a", source="web"),
                    make_candidate("b", source="nih", system_rank=2, reference_rank=2),
                ),
            ),
            make_question("q2", candidates=(make_candidate("c", source="web"),)),
        ]
        assert bl.fit_source_vocab(questions) == ("nih", "web")


class TestFeaturePersistence:
    def test_roundtrip(self, tmp_path):
        rows = [
            {"question_id": "q1", "answer_id": "a1", "label": 1, "features": [0.5, 1.0]},
            {"question_id": "q1", "answer_id": "a2", "features": [0.0, 2.0]},
        ]
        bl.save_features(rows, tmp_path / "f.jsonl")
        assert bl.load_features(tmp_path / "f.jsonl") == rows

    def test_missing_field_rejected(self, tmp_path):
        (tmp_path / "f.jsonl").write_text('{"question_id": "q"}\n')
        with pytest.raises(SchemaError):
            bl.load_features(tmp_path / "f.jsonl")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, value):
        good = '{"question_id": "q", "answer_id": "a1", "features": [0.5, 1.0]}'
        bad = f'{{"question_id": "q", "answer_id": "a2", "features": [0.5, {value}]}}'
        (tmp_path / "f.jsonl").write_text(f"{good}\n{bad}\n")
        with pytest.raises(SchemaError, match=r"f\.jsonl:2: non-finite"):
            bl.load_features(tmp_path / "f.jsonl")

    def test_non_numeric_feature_rejected_with_line(self, tmp_path):
        (tmp_path / "f.jsonl").write_text(
            '{"question_id": "q", "answer_id": "a", "features": ["x"]}\n'
        )
        with pytest.raises(SchemaError, match=r"f\.jsonl:1: features"):
            bl.load_features(tmp_path / "f.jsonl")

    @pytest.mark.parametrize("bad", ["[0.5]", "[0.5, 1.0, 2.0]", "[]"])
    def test_ragged_row_rejected_with_line(self, tmp_path, bad):
        row = '{{"question_id": "q", "answer_id": "a{}", "features": {}}}'
        lines = [row.format(1, "[0.5, 1.0]"), "", row.format(2, "[0.0, 2.0]")]
        lines.append(row.format(3, bad))
        (tmp_path / "f.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"f\.jsonl:4: \d features, but line 1 has 2"):
            bl.load_features(tmp_path / "f.jsonl")

    def test_nested_features_rejected_with_line(self, tmp_path):
        (tmp_path / "f.jsonl").write_text(
            '{"question_id": "q", "answer_id": "a", "features": [[0.5, 1.0]]}\n'
        )
        with pytest.raises(SchemaError, match=r"f\.jsonl:1: features must be a list"):
            bl.load_features(tmp_path / "f.jsonl")


class TestTrainCheckpoint:
    """``train_checkpoint`` needs a label on every feature row."""

    CONFIG = bl.BaselineFeatureConfig(N=1, V=1, D=2, source_vocab=("s",), T=0.7)

    def _rows_and_dataset(self):
        rng = np.random.default_rng(4)
        questions, rows = [], []
        for q in range(4):
            candidates = [
                make_candidate(f"q{q}-a{r}", reference_rank=r, reference_score=5 - r)
                for r in range(1, 5)
            ]
            questions.append(make_question(f"q{q}", candidates=candidates))
            for c in candidates:
                rows.append(
                    {
                        "question_id": f"q{q}",
                        "answer_id": c.answer_id,
                        "label": int(c.reference_score >= 3),
                        "features": rng.standard_normal(bl.feature_dim(self.CONFIG)).tolist(),
                    }
                )
        return rows, Dataset(split="train", questions=tuple(questions))

    def _train(self, rows, dataset, path):
        layout = bl.layout_meta(
            self.CONFIG,
            RetrievalConfig(N=1),
            ProviderConfig(kind="toy_hash", D=2),
            None,
            fit_tfidf(["a"], V=1),
        )
        settings = bl.BaselineConfig(steps=5, hinge_lr=0.1, hinge_steps=5)
        bl.train_checkpoint(rows, dataset, layout, path, settings)

    def test_unlabeled_rows_rejected_before_fitting(self, tmp_path):
        rows, dataset = self._rows_and_dataset()
        for row in rows[2:5]:
            del row["label"]
        labeled = [row for row in rows if "label" in row]
        assert {row["label"] for row in labeled} == {0, 1}
        self._train(labeled, dataset, tmp_path / "labeled.json")
        assert (tmp_path / "labeled.json").exists()
        with pytest.raises(
            SchemaError,
            match=r"3 of 16 feature rows have no label \(first: question_id 'q0', "
            r"answer_id 'q0-a3'\)",
        ):
            self._train(rows, dataset, tmp_path / "all.json")
        assert not (tmp_path / "all.json").exists()

    def test_null_label_counts_as_unlabeled(self, tmp_path):
        rows, dataset = self._rows_and_dataset()
        rows[-1]["label"] = None
        with pytest.raises(SchemaError, match=r"1 of 16 feature rows have no label"):
            self._train(rows, dataset, tmp_path / "model.json")


class TestLogregFilter:
    def test_zero_weight_predicts_half(self):
        model = bl.LogregModel(weight=np.zeros(3), bias=0.0)
        probs = bl.predict_logreg(model, np.random.default_rng(0).standard_normal((5, 3)))
        np.testing.assert_allclose(probs, 0.5)

    def test_separable_set_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(0)
        n = 40
        pos = rng.normal([2.0, 2.0], 0.3, size=(n, 2))
        neg = rng.normal([-2.0, -2.0], 0.3, size=(n, 2))
        features = np.vstack([pos, neg])
        labels = np.array([1.0] * n + [0.0] * n)
        model = bl.train_logreg_filter(features, labels, lr=0.5, steps=500, weight_decay=1e-4)
        predictions = (bl.predict_logreg(model, features) >= 0.5).astype(float)
        assert (predictions == labels).mean() == 1.0

    def test_conflicting_duplicates_predict_half(self):
        features = np.array([[1.0, 0.5], [1.0, 0.5]])
        labels = np.array([1.0, 0.0])
        model = bl.train_logreg_filter(
            features, labels, lr=0.5, steps=2000, weight_decay=1e-4
        )
        assert bl.predict_logreg(model, features[0]) == pytest.approx(0.5, abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(SchemaError):
            bl.train_logreg_filter(
                np.ones((3, 2)), np.ones(3), lr=0.5, steps=500, weight_decay=1e-4
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, value):
        features = np.ones((2, 3))
        features[1, 2] = value
        with pytest.raises(SchemaError, match="non-finite"):
            bl.train_logreg_filter(
                features, np.array([0.0, 1.0]), lr=0.5, steps=500, weight_decay=1e-4
            )

    def test_ranking_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((6, 3))
        model = bl.LogregModel(weight=rng.standard_normal(3), bias=0.1)
        probs = bl.predict_logreg(model, features)
        logits = features @ model.weight + model.bias
        assert list(np.argsort(-probs)) == list(np.argsort(-logits))


def pairwise_hinge_loss(weight, diffs, weight_decay):
    """The objective ``train_pairwise_hinge`` descends."""
    margins = diffs @ weight
    return float(np.maximum(0.0, 1.0 - margins).sum() + weight_decay * weight @ weight)


class TestPairwiseHinge:
    def test_pair_count_combinatorics(self):
        rng = np.random.default_rng(0)
        for c in (2, 3, 5):
            features = rng.standard_normal((c, 3))
            ranks = np.arange(1, c + 1)
            rows, better, worse = bl.ranking_pairs([(features, ranks)])
            diffs = rows[better] - rows[worse]
            assert diffs.shape[0] == c * (c - 1) // 2

    def test_zero_weight_hinge_loss_is_one_per_pair(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((4, 3))
        rows, better, worse = bl.ranking_pairs([(features, np.arange(1, 5))])
        diffs = rows[better] - rows[worse]
        loss = pairwise_hinge_loss(np.zeros(3), diffs, weight_decay=0.0)
        assert loss == pytest.approx(diffs.shape[0])

    def test_recovers_order_on_separable_1d(self):
        # score dimension 0 decreases with reference rank
        features = np.array([[3.0], [2.0], [1.0], [0.0]])
        ranks = np.array([1, 2, 3, 4])
        model = bl.train_pairwise_hinge(
            [(features, ranks)], lr=0.01, steps=300, weight_decay=1e-4
        )
        scores = bl.hinge_score(model, features)
        assert list(np.argsort(-scores)) == [0, 1, 2, 3]

    def test_no_pairs_rejected(self):
        with pytest.raises(SchemaError):
            bl.train_pairwise_hinge(
                [(np.ones((1, 2)), np.array([1]))], lr=0.01, steps=500, weight_decay=1e-4
            )

    def test_ranks_must_align_with_rows(self):
        with pytest.raises(DimensionError):
            bl.ranking_pairs([(np.ones((3, 2)), np.array([1, 2]))])

    def test_tied_ranks_only_rejected(self):
        with pytest.raises(SchemaError):
            bl.ranking_pairs([(np.ones((3, 2)), np.array([2, 2, 2]))])

    def test_no_groups_rejected(self):
        with pytest.raises(SchemaError):
            bl.ranking_pairs([])

    def test_non_finite_features_rejected(self):
        features = np.array([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(SchemaError, match="non-finite"):
            bl.train_pairwise_hinge(
                [(features, np.array([1, 2]))], lr=0.01, steps=500, weight_decay=1e-4
            )

    def test_rank_by_scores_tie_break(self):
        ids = ["a", "b", "c"]
        scores = np.array([0.5, 0.9, 0.5])
        system_ranks = [2, 3, 1]
        assert bl.rank_by_scores(ids, scores, system_ranks) == ["b", "c", "a"]


# ---------------------------------------------------------------------------
# The primal loops the row-coefficient fits replaced, kept as their oracle
# ---------------------------------------------------------------------------


def primal_logreg(features, labels, lr, steps, weight_decay):
    """Full-batch descent on w itself: two passes over the (n, F) matrix a step."""
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
    return weight, bias


def primal_pair_diffs(groups):
    """x_better - x_worse for every within-question pair with distinct ranks."""
    diffs = []
    for features, ranks in groups:
        c = features.shape[0]
        for i in range(c):
            for j in range(i + 1, c):
                if ranks[i] < ranks[j]:
                    diffs.append(features[i] - features[j])
                elif ranks[j] < ranks[i]:
                    diffs.append(features[j] - features[i])
    return np.stack(diffs)


def primal_hinge(groups, lr, steps, weight_decay):
    """Subgradient descent on w over the stacked difference rows."""
    diffs = primal_pair_diffs(groups)
    weight = np.zeros(diffs.shape[1])
    for _ in range(steps):
        margins = diffs @ weight
        violated = margins < 1.0
        grad = -diffs[violated].sum(axis=0) + 2.0 * weight_decay * weight
        weight -= lr * grad
    return weight


ORACLE_KINDS = (
    "wide",
    "tall",
    "duplicate_rows",
    "zero_column",
    "tied_ranks",
    "single_row_groups",
    "no_steps",
    "no_weight_decay",
)


def oracle_case(kind, seed):
    """Seeded groups, stacked features, labels and fit settings for one case."""
    rng = np.random.default_rng(seed)
    if kind == "wide":
        sizes, dim = rng.integers(2, 6, size=4), 150
    elif kind == "tall":
        sizes, dim = rng.integers(3, 8, size=12), 4
    else:
        sizes, dim = rng.integers(2, 6, size=6), 10
    if kind == "single_row_groups":
        sizes[::2] = 1
    n = int(sizes.sum())
    features = rng.standard_normal((n, dim)) * rng.uniform(0.2, 2.0, size=dim)
    if kind == "duplicate_rows":
        copies = rng.choice(n, size=n // 3, replace=False)
        features[copies] = features[rng.integers(n, size=copies.size)]
        features[1] = features[0]
    if kind == "zero_column":
        features[:, rng.integers(dim)] = 0.0
    groups, start = [], 0
    for c in sizes:
        if kind == "tied_ranks":
            ranks = rng.integers(1, 3, size=c)
        else:
            ranks = rng.permutation(c) + 1
        groups.append((features[start : start + c], ranks))
        start += c
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    labels[:2] = (0.0, 1.0)
    settings = {
        "steps": 0 if kind == "no_steps" else int(rng.integers(50, 400)),
        "weight_decay": 0.0 if kind == "no_weight_decay" else float(rng.uniform(1e-4, 1e-2)),
    }
    return groups, features, labels, settings


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ORACLE_KINDS)
class TestFitsMatchPrimalLoops:
    """The row-coefficient fits reproduce the primal loops to rounding."""

    def test_logreg(self, kind, seed):
        _, features, labels, settings = oracle_case(kind, seed)
        model = bl.train_logreg_filter(features, labels, lr=0.5, **settings)
        weight, bias = primal_logreg(features, labels, lr=0.5, **settings)
        np.testing.assert_allclose(model.weight, weight, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(model.bias, bias, rtol=1e-9, atol=0.0)

    def test_hinge(self, kind, seed):
        groups, _, _, settings = oracle_case(kind, seed)
        model = bl.train_pairwise_hinge(groups, lr=0.01, **settings)
        weight = primal_hinge(groups, lr=0.01, **settings)
        np.testing.assert_allclose(model.weight, weight, rtol=1e-9, atol=0.0)

    def test_pairs(self, kind, seed):
        groups, _, _, _ = oracle_case(kind, seed)
        rows, better, worse = bl.ranking_pairs(groups)
        np.testing.assert_array_equal(rows[better] - rows[worse], primal_pair_diffs(groups))
