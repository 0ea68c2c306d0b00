"""Pair tensors, conv encoding, metadata, joint training, ensemble inference."""

import math
import re

import numpy as np
import pytest

from medrank.corpus import QAPair
from medrank.errors import DimensionError, MedrankError, SchemaError
from medrank.joint import (
    ConvEncoderConfig,
    EntailedInstance,
    HeadConfig,
    MetadataLayout,
    TrainConfig,
    augment_training,
    build_head,
    build_joint_model,
    build_metadata,
    build_pair_tensor,
    fit_metadata_layout,
    infer,
    instance_from_retrieved,
    load_joint_model,
    predict_dataset,
    question_loss,
    save_joint_model,
    train_joint,
    JointTrainer,
    _candidate_sentences,
    _head_forward,
    _prepare_instance,
    _PreparedQuestion,
)
from medrank.joint import ConvEncoder
from medrank.providers import ProviderConfig, TfidfCosineProvider, fit_tfidf, tfidf_transform
from medrank.retrieval import EntailmentIndex, RetrievalConfig, retrieve
from medrank.synth import SynthConfig, generate
from medrank.tensornet import Linear, Module, conv_out_dim, logit_bce, sigmoid

from conftest import StubProvider, make_candidate, make_question, pending


def spatial_trace(config, a, c):
    """Per-layer output (height, width) for an a x c input map."""
    trace = []
    h, w = a, c
    for layer in config.layers:
        h = conv_out_dim(h, layer.kernel[0], layer.stride[0], layer.padding[0])
        w = conv_out_dim(w, layer.kernel[1], layer.stride[1], layer.padding[1])
        trace.append((h, w))
    return trace


def zero_params(module):
    for _, tensor in module.named_params():
        tensor.data[...] = 0.0


def small_world(questions=24, val_questions=8, seed=3, provider_seed=0):
    """Synth data plus the scaled-down provider/index/layout/model stack."""
    train, val, corpus = generate(
        SynthConfig(questions=questions, val_questions=val_questions, seed=seed)
    )
    texts = []
    for pair in corpus:
        texts.append(pair.question_text)
        texts.append(pair.answer_text)
    provider = TfidfCosineProvider(
        ProviderConfig(kind="tfidf_cosine", D=8, seed=provider_seed),
        fit_tfidf(texts, V=4096),
    )
    index = EntailmentIndex(corpus, provider)
    meta_tfidf = fit_tfidf([p.answer_text for p in corpus], V=16)
    layout = fit_metadata_layout(
        list(train.questions), corpus, V=len(meta_tfidf.vocabulary), M=None
    )
    encoder_config = ConvEncoderConfig.scaled_down()
    joint_dim = encoder_config.out_dim + 8 + layout.M
    model = build_joint_model(
        layout,
        meta_tfidf,
        encoder_config,
        rqe_dim=8,
        seed=seed,
        filter_config=HeadConfig.scaled_filter(joint_dim),
        pair_config=HeadConfig.scaled_pair(2 * joint_dim),
    )
    return train, val, corpus, provider, index, model


class TestPairTensor:
    def test_shapes(self):
        provider = StubProvider(D=8)
        assert build_pair_tensor(["a"], ["b"], provider, channels=8).shape == (8, 1, 1)
        tensor = build_pair_tensor(
            [f"e{i}" for i in range(3)], [f"c{j}" for j in range(4)], provider, 8
        )
        assert tensor.shape == (8, 3, 4)

    def test_cell_contents(self):
        provider = StubProvider(D=4)
        tensor = build_pair_tensor(["e0", "e1"], ["c0"], provider, channels=4)
        np.testing.assert_array_equal(tensor[:, 1, 0], provider.nli("e1", "c0"))

    def test_constant_provider_gives_constant_tensor(self):
        class ConstantProvider(StubProvider):
            def _embedding(self, a, b):
                return np.full(4, 2.0)

        tensor = build_pair_tensor(["a", "b"], ["c", "d"], ConstantProvider(D=4), 4)
        assert np.all(tensor == 2.0)

    def test_empty_side_rejected(self):
        with pytest.raises(SchemaError):
            build_pair_tensor([], ["c"], StubProvider(D=4), 4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            build_pair_tensor(["a"], ["b"], StubProvider(D=4), channels=8)


class TestConvEncoder:
    def test_spatial_trace_matches_hand_derivation(self):
        config = ConvEncoderConfig.default()
        assert spatial_trace(config, 3, 4) == [(5, 6), (7, 8), (4, 4), (5, 5), (7, 7)]
        assert spatial_trace(config, 1, 1) == [(3, 3), (5, 5), (3, 3), (4, 4), (6, 6)]
        # the scaled config shares kernels/strides/padding, so the same trace
        assert spatial_trace(ConvEncoderConfig.scaled_down(), 3, 4) == spatial_trace(
            config, 3, 4
        )

    def test_output_length_fixed_across_input_sizes(self):
        rng = np.random.default_rng(0)
        config = ConvEncoderConfig.scaled_down()
        encoder = ConvEncoder(config, rng)
        encoder.eval()
        encoder.enable_grad(False)
        for a in (1, 2, 5, 11):
            for c in (1, 3, 8):
                out = encoder.forward([rng.standard_normal((8, a, c))])
                assert out.shape == (1, config.out_dim)

    def test_default_output_is_1024(self):
        assert ConvEncoderConfig.default().out_dim == 1024
        assert ConvEncoderConfig.scaled_down().out_dim == 16

    def test_zero_weight_encoder_outputs_zeros(self):
        encoder = ConvEncoder(ConvEncoderConfig.scaled_down(), np.random.default_rng(0))
        zero_params(encoder)
        encoder.eval()
        encoder.enable_grad(False)
        out = encoder.forward([np.random.default_rng(1).standard_normal((8, 2, 3))])
        np.testing.assert_array_equal(out, np.zeros((1, 16)))

    def test_wrong_channel_count_rejected(self):
        encoder = ConvEncoder(ConvEncoderConfig.scaled_down(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encoder.forward([np.zeros((3, 2, 2))])

    def test_two_dimensional_map_rejected(self):
        encoder = ConvEncoder(ConvEncoderConfig.scaled_down(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encoder.forward([np.zeros((8, 3))])

    def test_no_maps_give_no_rows(self):
        encoder = ConvEncoder(ConvEncoderConfig.scaled_down(), np.random.default_rng(0))
        rows = encoder.forward([])
        assert rows.shape == (0, encoder.out_dim)
        assert encoder.backward(rows) == []
        assert pending(encoder) == 0


class TestMetadata:
    def _layout(self):
        return MetadataLayout(
            candidate_sources=("nih", "web"),
            entailed_sources=("faq", "nih", "web"),
            V=4,
            M=14,
        )

    def test_fixture_slot_by_slot(self):
        layout = self._layout()
        tfidf = fit_tfidf(["alpha beta", "beta gamma", "delta"], V=4)
        candidate = make_candidate("a", "Alpha beta words.", "web", system_rank=2)
        vec = build_metadata(candidate, 3, "faq", 2, tfidf, layout)
        assert vec.shape == (14,)
        expected = np.zeros(14)
        expected[1] = 1.0  # candidate source web
        expected[2] = 1.0  # entailed source faq
        expected[5] = 3.0  # candidate sentences
        expected[6] = 2.0  # entailed sentences
        expected[7] = 2.0  # system rank
        expected[8:12] = tfidf_transform(tfidf, candidate.text)
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_unknown_sources_zero_blocks(self):
        layout = self._layout()
        tfidf = fit_tfidf(["alpha beta", "gamma delta"], V=4)
        candidate = make_candidate("a", "x", "elsewhere")
        vec = build_metadata(candidate, 1, "unknown", 1, tfidf, layout)
        np.testing.assert_array_equal(vec[:5], 0.0)

    def test_overflowing_layout_rejected(self):
        with pytest.raises(DimensionError):
            MetadataLayout(("a",), ("b",), V=10, M=5)

    def test_fit_layout_packs_and_pads(self):
        questions = [make_question(candidates=(make_candidate(source="web"),))]
        pairs = [QAPair("p", "q", "a", "faq")]
        packed = fit_metadata_layout(questions, pairs, V=16, M=None)
        assert packed.M == 1 + 2 + 3 + 16  # entailed vocab includes candidate sources
        padded = fit_metadata_layout(questions, pairs, V=16, M=2032)
        assert padded.M == 2032

    def test_roundtrip_dict(self):
        layout = self._layout()
        assert MetadataLayout.from_dict(layout.to_dict()) == layout


class TestDimensionAudit:
    def test_default_widths(self):
        layout = MetadataLayout(("s",) * 1, ("t",), V=2000, M=2032)
        assert 1024 + 768 + layout.M == 3824
        assert HeadConfig.default_filter(3824).widths == (
            3824, 2048, 1024, 512, 512, 256, 64, 1,
        )
        assert HeadConfig.default_pair(7648).widths == (
            7648, 3824, 2048, 1024, 512, 512, 256, 64, 1,
        )
        assert 2 * 3824 == 7648

    def test_mismatched_head_rejected(self):
        tfidf = fit_tfidf(["a b c"], V=3)
        layout = MetadataLayout((), (), V=3, M=6)
        with pytest.raises(DimensionError):
            build_joint_model(
                layout,
                tfidf,
                ConvEncoderConfig.scaled_down(),
                rqe_dim=8,
                filter_config=HeadConfig.scaled_filter(48),  # true joint dim is 30
                pair_config=HeadConfig.scaled_pair(96),
            )


class TestAugmentation:
    def _question(self, n):
        return make_question(
            "q",
            "topic words here",
            tuple(
                make_candidate(
                    f"a{r}",
                    f"Candidate {r} text.",
                    "web",
                    system_rank=r,
                    reference_rank=r,
                    reference_score=4 if r == 1 else 1,
                )
                for r in range(1, n + 1)
            ),
        )

    def test_three_candidates_give_two_instances(self):
        out = augment_training(self._question(3), StubProvider(D=4))
        assert len(out) == 2
        sizes = sorted(len(idx) for _, idx in out)
        assert sizes == [1, 2]

    def test_single_candidate_gives_none(self):
        assert augment_training(self._question(1), StubProvider(D=4)) == []

    def test_anchor_never_in_own_candidate_set(self):
        question = self._question(4)
        text_of = {c.text: c.reference_rank for c in question.candidates}
        for instance, cand_idx in augment_training(question, StubProvider(D=4)):
            anchor_rank = text_of[" ".join(instance.sentences)]
            for i in cand_idx:
                assert question.candidates[i].reference_rank > anchor_rank

    def test_instances_carry_unit_score_and_self_embedding(self):
        provider = StubProvider(D=4)
        question = self._question(2)
        instances = augment_training(question, provider)
        expected = provider.rqe(question.text, question.text)
        for instance, _ in instances:
            assert instance.score == 1.0
            np.testing.assert_array_equal(instance.rqe_embedding, expected)

    def test_candidate_sets_follow_rank_order(self):
        question = self._question(4)
        by_anchor = {}
        for instance, cand_idx in augment_training(question, StubProvider(D=4)):
            ranks = sorted(question.candidates[i].reference_rank for i in cand_idx)
            by_anchor[len(cand_idx)] = ranks
        assert by_anchor == {3: [2, 3, 4], 2: [3, 4], 1: [4]}


def _two_candidate_prepared(model, provider, alpha_labels=(1.0, 0.0)):
    question = make_question(
        "q",
        "query words",
        (
            make_candidate("a1", "First answer text.", "web", 1, 1, 4),
            make_candidate("a2", "Second answer text.", "nih", 2, 2, 1),
        ),
    )
    instance = EntailedInstance(
        sentences=("Entailed answer sentence.",),
        source="faq",
        score=0.9,
        rqe_embedding=np.arange(8, dtype=float),
    )
    prepared = _PreparedQuestion(
        question_id="q",
        labels=np.asarray(alpha_labels),
        ranks=[1, 2],
        instances=[
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
    return prepared


class TestQuestionLoss:
    def _model_and_provider(self):
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
        return model, StubProvider(D=8, default=0.3)

    def test_zero_model_loss_is_hand_computable(self):
        model, provider = self._model_and_provider()
        zero_params(model)
        prepared = _two_candidate_prepared(model, provider)
        for alpha in (2.0, 0.7):
            model.train()
            loss = question_loss(model, prepared, alpha=alpha, compute_grads=False)
            expected = (2 + alpha * 2) * math.log(2)
            assert loss == pytest.approx(expected, abs=1e-9)

    def test_zero_model_loss_sums_over_instances(self):
        model, provider = self._model_and_provider()
        zero_params(model)
        prepared = _two_candidate_prepared(model, provider)
        prepared.instances.append(prepared.instances[0])
        model.train()
        loss = question_loss(model, prepared, alpha=2.0, compute_grads=False)
        # two instances x (2 filter terms + alpha * 2 ordered pairs)
        assert loss == pytest.approx(2 * (2 + 2.0 * 2) * math.log(2), abs=1e-9)

    def test_alpha_zero_pair_gradients_identically_zero(self):
        model, provider = self._model_and_provider()
        prepared = _two_candidate_prepared(model, provider)
        model.train()
        model.zero_grad()
        question_loss(model, prepared, alpha=0.0, compute_grads=True)
        for _, tensor in model.pair_head.named_params():
            np.testing.assert_array_equal(tensor.grad, 0.0)
        filter_norm = sum(
            float(np.abs(t.grad).sum()) for _, t in model.filter_head.named_params()
        )
        assert filter_norm > 0.0

    def test_single_candidate_contributes_no_pair_terms(self):
        model, provider = self._model_and_provider()
        question = make_question(
            "q", "query", (make_candidate("solo", "Only answer.", "web", 1, 1, 4),)
        )
        instance = EntailedInstance(("Entailed.",), "faq", 0.8, np.zeros(8))
        prepared = _PreparedQuestion(
            "q",
            np.array([1.0]),
            [1],
            [
                _prepare_instance(
                    model,
                    instance,
                    (0,),
                    list(question.candidates),
                    _candidate_sentences(question),
                    provider,
                )
            ],
        )
        zero_params(model)
        model.train()
        loss_a = question_loss(model, prepared, alpha=5.0, compute_grads=False)
        loss_b = question_loss(model, prepared, alpha=0.0, compute_grads=False)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        assert loss_a == pytest.approx(math.log(2), abs=1e-9)

    def test_grads_flow_with_batch_of_one(self):
        model, provider = self._model_and_provider()
        question = make_question(
            "q", "query", (make_candidate("solo", "Only answer.", "web", 1, 1, 4),)
        )
        instance = EntailedInstance(("Entailed.",), "faq", 0.8, np.zeros(8))
        prepared = _PreparedQuestion(
            "q",
            np.array([1.0]),
            [1],
            [
                _prepare_instance(
                    model,
                    instance,
                    (0,),
                    list(question.candidates),
                    _candidate_sentences(question),
                    provider,
                )
            ],
        )
        model.train()
        model.zero_grad()
        question_loss(model, prepared, alpha=2.0, compute_grads=True)
        total = sum(float(np.abs(t.grad).sum()) for t in model.params())
        assert total > 0.0
        assert pending(model) == 0


class TestTraining:
    def test_loss_non_increasing_after_first_epoch(self):
        train, _, _, provider, index, model = small_world(questions=20, seed=6)
        config = TrainConfig(
            alpha=2.0,
            epochs=6,
            lr=3e-3,
            seed=6,
            retrieval=RetrievalConfig(N=3, T=0.7),
        )
        history = train_joint(model, train, index, provider, config)
        means = [float(np.mean(epoch)) for epoch in history]
        for before, after in zip(means[1:], means[2:]):
            assert after <= before * 1.05

    def test_training_requires_reference_data(self):
        train, _, _, provider, index, model = small_world(questions=4, seed=1)
        stripped = make_question(
            "nq", "text", (make_candidate("a", "x", "web", 1, None, None),)
        )
        from medrank.corpus import Dataset

        bad = Dataset(split="test", questions=(stripped,))
        trainer = JointTrainer(
            model, provider, index, TrainConfig(epochs=1, seed=0)
        )
        with pytest.raises(SchemaError, match="reference"):
            trainer.prepare(bad)

    def test_unprepared_trainer_rejected(self):
        train, _, _, provider, index, model = small_world(questions=4, seed=1)
        trainer = JointTrainer(model, provider, index, TrainConfig(epochs=1, seed=0))
        with pytest.raises(SchemaError, match="prepare"):
            trainer.run_epoch()


class TestInference:
    def test_tie_breaks_by_system_rank_with_flat_scores(self):
        train, _, corpus, provider, index, model = small_world(questions=4, seed=2)
        zero_params(model)
        question = train.questions[0]
        prediction = infer(model, question, index, provider, RetrievalConfig(N=3, T=0.7))
        by_system = sorted(question.candidates, key=lambda c: c.system_rank)
        assert list(prediction.ranking) == [c.answer_id for c in by_system]

    def test_duplicated_entailed_candidate_is_noop(self):
        train, _, corpus, provider, index, model = small_world(questions=6, seed=4)
        question = train.questions[0]
        config = RetrievalConfig(N=3, T=0.7)
        base = infer(model, question, index, provider, config)

        hits = retrieve(index, question.text, config)
        duplicated_corpus = list(corpus) + [
            QAPair(
                pair_id=hits[0].pair.pair_id + "-copy",
                question_text=hits[0].pair.question_text,
                answer_text=hits[0].pair.answer_text,
                source=hits[0].pair.source,
            )
        ]
        duplicated_index = EntailmentIndex(duplicated_corpus, provider)
        doubled = infer(model, question, duplicated_index, provider, config)

        assert doubled.ranking == base.ranking
        assert doubled.relevant == base.relevant
        for aid in base.scores:
            assert doubled.scores[aid] == pytest.approx(2 * base.scores[aid], rel=1e-9)

    def test_single_answer_question(self):
        train, _, corpus, provider, index, model = small_world(questions=4, seed=2)
        question = make_question(
            "solo",
            train.questions[0].text,
            (make_candidate("only", "T0a t0b t0c.", "web", 1, 1, 4),),
        )
        prediction = infer(model, question, index, provider, RetrievalConfig(N=3, T=0.7))
        assert prediction.ranking == ("only",)
        assert prediction.scores["only"] == 0.0

    def test_inference_deterministic(self):
        train, _, _, provider, index, model = small_world(questions=4, seed=9)
        question = train.questions[1]
        config = RetrievalConfig(N=3, T=0.7)
        first = infer(model, question, index, provider, config)
        second = infer(model, question, index, provider, config)
        assert first == second

    @pytest.mark.parametrize("training, grad_enabled", [(True, True), (False, False)])
    def test_restores_model_flags(self, training, grad_enabled):
        train, _, _, provider, index, model = small_world(questions=4, seed=2)
        config = RetrievalConfig(N=3, T=0.7)
        reference = infer(model, train.questions[0], index, provider, config)
        model.train(training)
        model.enable_grad(grad_enabled)
        # One head flipped, so flags are restored per module, not model-wide.
        model.filter_head.train(not training)
        before = [(m.training, m.grad_enabled) for m in model.modules()]
        prediction = infer(model, train.questions[0], index, provider, config)
        assert [(m.training, m.grad_enabled) for m in model.modules()] == before
        assert prediction == reference


class NanLayer(Module):
    """Identity until armed; armed, it turns its input into NaN."""

    armed = False

    def forward(self, x):
        return np.full_like(x, np.nan) if self.armed else x

    def backward(self, grad_out):
        return grad_out


class TestNonFiniteGuard:
    def test_nan_loss_stops_before_the_step(self):
        train, _, _, provider, index, model = small_world(questions=4, seed=2)
        stub = NanLayer()
        model.filter_head.layers.insert(-1, stub)
        model.filter_head.names.insert(-1, "stub")
        trainer = JointTrainer(
            model, provider, index, TrainConfig(epochs=2, lr=3e-3, seed=2)
        )
        trainer.prepare(train)
        trainer.run_epoch()
        params = [t.data.copy() for t in model.params()]
        moments = [m.copy() for m in trainer.optimizer._m + trainer.optimizer._v]
        stub.armed = True
        first = re.escape(repr(trainer.prepared[0].question_id))
        with pytest.raises(MedrankError, match=f"question {first} in epoch 2"):
            trainer.run_epoch()
        for before, tensor in zip(params, model.params()):
            np.testing.assert_array_equal(tensor.data, before)
        for before, after in zip(moments, trainer.optimizer._m + trainer.optimizer._v):
            np.testing.assert_array_equal(after, before)
        assert trainer.optimizer._t == len(trainer.prepared)


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        train, val, corpus, provider, index, model = small_world(questions=12, seed=5)
        config = TrainConfig(
            alpha=2.0, epochs=2, lr=3e-3, seed=5, retrieval=RetrievalConfig(N=3, T=0.7)
        )
        train_joint(model, train, index, provider, config)
        before = predict_dataset(model, val, index, provider, config.retrieval)

        path = tmp_path / "joint.json"
        save_joint_model(
            model,
            path,
            config,
            ProviderConfig(kind="tfidf_cosine", D=8, seed=0),
            provider.model,
        )
        loaded, meta = load_joint_model(path)
        assert meta["kind"] == "joint"
        after = predict_dataset(loaded, val, index, provider, config.retrieval)
        assert before == after

    def test_save_is_deterministic(self, tmp_path):
        _, _, _, provider, _, model = small_world(questions=4, seed=8)
        config = TrainConfig(epochs=1, seed=8)
        pc = ProviderConfig(kind="tfidf_cosine", D=8, seed=0)
        save_joint_model(model, tmp_path / "a.json", config, pc, provider.model)
        save_joint_model(model, tmp_path / "b.json", config, pc, provider.model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestHeads:
    def test_head_ends_in_its_logit_layer(self):
        rng = np.random.default_rng(0)
        head = build_head(HeadConfig.scaled_filter(48), rng)
        head.eval()
        head.enable_grad(False)
        x = rng.standard_normal((5, 48))
        out = head.forward(x)
        assert out.shape == (5, 1)
        assert head.names[-1] == "linear3" and isinstance(head.layers[-1], Linear)
        hidden = x
        for layer in head.layers[:-1]:
            hidden = layer.forward(hidden)
        np.testing.assert_array_equal(out, head.layers[-1].forward(hidden))

    def test_saturated_wrong_logit_still_moves_linear1(self):
        # Every logit sits at or below -40 with target 1: the loss gradient of
        # each is -1, so linear1 gets what a seed of -1 per row gives it.
        rng = np.random.default_rng(4)
        head = build_head(HeadConfig.scaled_filter(48), rng)
        x = rng.standard_normal((4, 48))
        head.enable_grad(False)
        head.layers[-1].bias.data -= 40.0 + head.forward(x).max()
        head.enable_grad(True)
        grads = []
        for seed in ("loss", "minus_one"):
            head.zero_grad()
            logits = head.forward(x)[:, 0]
            assert logits.max() <= -40.0
            loss, d_logits = logit_bce(logits, np.ones(4))
            if seed == "loss":
                assert loss >= 160.0
                np.testing.assert_allclose(d_logits, -1.0, rtol=0, atol=1e-12)
            else:
                d_logits = -np.ones(4)
            head.backward(d_logits[:, None])
            grads.append(head.layers[0].weight.grad.copy())
        assert np.abs(grads[1]).max() > 1e-2
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-9, atol=1e-15)

    def test_eval_determinism(self):
        rng = np.random.default_rng(0)
        head = build_head(HeadConfig.scaled_filter(48), rng)
        head.eval()
        head.enable_grad(False)
        x = rng.standard_normal((3, 48))
        np.testing.assert_array_equal(head.forward(x), head.forward(x))

    def test_bad_widths_rejected(self):
        with pytest.raises(DimensionError):
            HeadConfig((48, 24, 2))


# ---------------------------------------------------------------------------
# Oracle: the per-pair loops that question_loss and infer used to run
# ---------------------------------------------------------------------------


def _oracle_head_forward(head, matrix, training):
    if not training:
        return head.forward(matrix)
    if matrix.shape[0] >= 2:
        return head.forward(matrix)
    head.train(False)
    try:
        return head.forward(matrix)
    finally:
        head.train(True)


def oracle_question_loss(model, prepared, alpha, compute_grads=True):
    """question_loss with joint rows, pair rows and the d_joint scatter built
    one candidate and one ordered pair at a time; the NLI rows come from the
    one encoder call over all maps (its oracle is in test_tensornet.py)."""
    nli_rows = model.encoder.forward(
        [tensor for inst in prepared.instances for tensor in inst.tensors]
    )
    joints = []
    filter_targets = []
    row_of = []
    for k, inst in enumerate(prepared.instances):
        for pos, g in enumerate(inst.cand_idx):
            nli_vec = nli_rows[len(joints)]
            joints.append(np.concatenate([nli_vec, inst.rqe_embedding, inst.metas[pos]]))
            filter_targets.append(prepared.labels[g])
            row_of.append((k, g))
    joint_matrix = np.stack(joints)
    targets = np.asarray(filter_targets, dtype=np.float64)
    filter_logits = _oracle_head_forward(
        model.filter_head, joint_matrix, model.training
    )[:, 0]
    total, d_filter = logit_bce(filter_logits, targets)

    pair_rows = []
    pair_targets = []
    row_index = {(k, g): r for r, (k, g) in enumerate(row_of)}
    for k, inst in enumerate(prepared.instances):
        for gi in inst.cand_idx:
            for gj in inst.cand_idx:
                if gi == gj:
                    continue
                pair_rows.append((row_index[(k, gi)], row_index[(k, gj)]))
                pair_targets.append(
                    1.0 if prepared.ranks[gi] < prepared.ranks[gj] else 0.0
                )
    if pair_rows:
        pair_matrix = np.stack(
            [np.concatenate([joint_matrix[i], joint_matrix[j]]) for i, j in pair_rows]
        )
        pair_logits = _oracle_head_forward(
            model.pair_head, pair_matrix, model.training
        )[:, 0]
        pair_loss, d_pair = logit_bce(pair_logits, np.asarray(pair_targets, dtype=np.float64))
        total += alpha * pair_loss

    if not compute_grads:
        model.clear_cache()
        return total

    d_joint = np.zeros_like(joint_matrix)
    if pair_rows:
        d_pair_matrix = model.pair_head.backward(alpha * d_pair[:, None])
        width = joint_matrix.shape[1]
        for r, (i, j) in enumerate(pair_rows):
            d_joint[i] += d_pair_matrix[r, :width]
            d_joint[j] += d_pair_matrix[r, width:]
    d_joint += model.filter_head.backward(d_filter[:, None])
    model.encoder.backward(d_joint[:, : model.encoder.out_dim])
    return total


def oracle_infer(model, question, index, provider, config):
    """infer's ensemble with joint rows and pair rows built one at a time;
    returns (scores, ranking, relevant). The NLI rows of every hit come from
    one encoder call. The model must be in eval mode."""
    cand_sentences = _candidate_sentences(question)
    candidates = list(question.candidates)
    n = len(candidates)
    filter_sum = np.zeros(n)
    pair_sum = np.zeros((n, n))
    hits = retrieve(index, question.text, config)
    preps = [
        _prepare_instance(
            model, instance_from_retrieved(hit), tuple(range(n)), candidates,
            cand_sentences, provider,
        )
        for hit in hits
    ]
    nli_rows = model.encoder.forward([tensor for prep in preps for tensor in prep.tensors])
    for k, prep in enumerate(preps):
        joints = np.stack(
            [
                np.concatenate(
                    [nli_rows[k * n + i], prep.rqe_embedding, prep.metas[i]]
                )
                for i in range(n)
            ]
        )
        filter_sum += sigmoid(model.filter_head.forward(joints)[:, 0])
        if n > 1:
            rows = []
            coords = []
            for i in range(n):
                for j in range(n):
                    if i != j:
                        rows.append(np.concatenate([joints[i], joints[j]]))
                        coords.append((i, j))
            probs = sigmoid(model.pair_head.forward(np.stack(rows))[:, 0])
            for (i, j), p in zip(coords, probs):
                pair_sum[i, j] += p
    mean_filter = filter_sum / len(hits)
    scores = pair_sum.sum(axis=1)
    order = sorted(range(n), key=lambda i: (-scores[i], candidates[i].system_rank))
    ranking = tuple(candidates[i].answer_id for i in order)
    relevant = tuple(candidates[i].answer_id for i in order if mean_filter[i] >= 0.5)
    return scores, ranking, relevant


@pytest.fixture(scope="module")
def oracle_world():
    """Two identical scaled-down models and prepared training questions whose
    augmentation instances use candidate subsets down to a single candidate."""
    train, _, _, provider, index, model = small_world(questions=6, seed=7)
    twin = small_world(questions=6, seed=7)[-1]
    trainer = JointTrainer(model, provider, index, TrainConfig(seed=7))
    trainer.prepare(train)
    return train, provider, index, model, twin, trainer.prepared


def _solo_prepared(model, provider):
    question = make_question(
        "solo", "query words", (make_candidate("only", "Only answer.", "web", 1, 1, 4),)
    )
    instance = EntailedInstance(("Entailed.",), "faq", 0.8, np.zeros(8))
    return _PreparedQuestion(
        "solo",
        np.array([1.0]),
        [1],
        [
            _prepare_instance(
                model, instance, (0,), list(question.candidates),
                _candidate_sentences(question), provider,
            )
        ],
    )


class TestSharedForwardOracle:
    def test_fixture_covers_subsets_and_single_candidates(self, oracle_world):
        prepared = oracle_world[-1]
        sizes = {len(inst.cand_idx) for q in prepared for inst in q.instances}
        assert 1 in sizes and 5 in sizes and len(sizes) >= 3
        assert all(len(q.instances) > 1 for q in prepared)

    @pytest.mark.parametrize("training", [True, False])
    def test_loss_and_every_gradient_bit_identical(self, oracle_world, training):
        train, provider, index, model, twin, prepared = oracle_world
        questions = list(prepared) + [_solo_prepared(model, provider)]
        for question in questions:
            for net in (model, twin):
                net.train(training)
                net.zero_grad()
            expected = oracle_question_loss(twin, question, alpha=2.0)
            assert question_loss(model, question, alpha=2.0) == expected
            for (name, tensor), (_, ref) in zip(model.named_params(), twin.named_params()):
                np.testing.assert_array_equal(tensor.grad, ref.grad, err_msg=name)
            for (name, buffer), (_, ref) in zip(model.named_buffers(), twin.named_buffers()):
                np.testing.assert_array_equal(buffer, ref, err_msg=name)
            assert pending(model) == 0
            expected = oracle_question_loss(twin, question, alpha=0.7, compute_grads=False)
            assert question_loss(model, question, alpha=0.7, compute_grads=False) == expected
            assert pending(model) == 0

    @pytest.mark.parametrize("n", [1, 5])
    def test_infer_matches_oracle(self, oracle_world, n):
        train, provider, index, model, _, _ = oracle_world
        config = RetrievalConfig(N=3, T=0.7)
        model.eval()
        model.enable_grad(False)
        for question in train.questions[:3]:
            if n == 1:
                question = make_question(
                    question.question_id, question.text, question.candidates[:1]
                )
            assert len(question.candidates) == n
            scores, ranking, relevant = oracle_infer(model, question, index, provider, config)
            prediction = infer(model, question, index, provider, config)
            np.testing.assert_array_equal(
                [prediction.scores[c.answer_id] for c in question.candidates], scores
            )
            assert prediction.ranking == ranking
            assert prediction.relevant == relevant


def _zero_fill_and_add(model):
    """Give every parameter of ``model`` the gradient contract of an
    accumulate-only core: ``zero_grad`` fills the buffer with zeros, and
    every contribution, the first one too, is added to it."""

    def zero_grad(tensor):
        if tensor.grad is None or tensor.grad.shape != tensor.shape:
            tensor.grad = np.zeros_like(tensor.data)
        else:
            tensor.grad.fill(0.0)

    def add_grad(tensor, grad):
        if tensor.grad is None:
            zero_grad(tensor)
        tensor.grad += grad

    for tensor in model.params():
        tensor.zero_grad = lambda t=tensor: zero_grad(t)
        tensor.add_grad = lambda g, t=tensor: add_grad(t, g)
        tensor.add_matmul = lambda a, b, t=tensor: add_grad(t, (a @ b).reshape(t.shape))


class TestTrainingExactness:
    def test_adam_steps_match_zero_fill_and_add_oracle(self):
        train, _, _, provider, index, model = small_world(questions=3, seed=9)
        twin = small_world(questions=3, seed=9)[-1]
        _zero_fill_and_add(twin)
        trainers = [
            JointTrainer(net, provider, index, TrainConfig(seed=9, lr=0.01))
            for net in (model, twin)
        ]
        trainers[0].prepare(train)
        prepared = trainers[0].prepared
        solo = _solo_prepared(model, provider)
        # The one-candidate question comes after a question with pairs, so the
        # pair head's buffers hold that step's gradient when it gets none.
        questions = [prepared[0], solo, *prepared[1:], solo]
        assert any(len(inst.cand_idx) > 1 for inst in prepared[0].instances)
        for trainer in trainers:
            trainer.prepared = questions
        for _ in range(2):
            for trainer in trainers:
                trainer.run_epoch()
        assert trainers[0].optimizer._t == trainers[1].optimizer._t == 2 * len(questions)
        for (name, tensor), (_, ref) in zip(model.named_params(), twin.named_params()):
            assert tensor.data.tobytes() == ref.data.tobytes(), name
        for optimizer in (trainers[0].optimizer, trainers[1].optimizer):
            assert all(m.any() for m in optimizer._m)
        for moment in ("_m", "_v"):
            for (name, _), ours, ref in zip(
                model.named_params(),
                getattr(trainers[0].optimizer, moment),
                getattr(trainers[1].optimizer, moment),
            ):
                assert ours.tobytes() == ref.tobytes(), f"{moment} {name}"
        for (name, buffer), (_, ref) in zip(model.named_buffers(), twin.named_buffers()):
            assert buffer.tobytes() == ref.tobytes(), name


class TestHeadForward:
    @pytest.mark.parametrize("training", [True, False])
    def test_one_row_batch_keeps_the_head_mode(self, training):
        rng = np.random.default_rng(0)
        head = build_head(HeadConfig.scaled_filter(48), rng)
        row = rng.standard_normal((1, 48))
        head.train(False)
        head.enable_grad(False)
        running = head.forward(row)[:, 0]
        head.train(training)
        out = _head_forward(head, row)
        assert all(m.training == training for m in head.modules())
        np.testing.assert_array_equal(out, running)
