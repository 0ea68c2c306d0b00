"""Central finite-difference gradient verification.

``grad_check`` compares the analytic gradients stored on parameters with
central differences of a loss; ``gradient_check_battery`` runs it over every
differentiable component of the joint model at scaled-down dimensions. The
``gradcheck`` command and acceptance criterion 2 read the battery.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .corpus import CandidateAnswer, QuestionRecord
from .joint import (
    ConvEncoder,
    ConvEncoderConfig,
    EntailedInstance,
    HeadConfig,
    MetadataLayout,
    build_head,
    build_joint_model,
    question_loss,
    _candidate_sentences,
    _prepare_instance,
    _PreparedQuestion,
)
from .providers import ProviderConfig, ToyHashProvider, fit_tfidf
from .tensornet import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Linear,
    Maps,
    Module,
    Tensor,
    _BatchNormBase,
    logit_bce,
)


def grad_check(
    f: Callable[[], float],
    params: Sequence[Tensor],
    epsilon: float = 1e-5,
    sample_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Central finite differences against the grads already stored on params.

    The caller runs forward+backward once so every tensor in ``params``
    carries its analytic gradient, then passes the pure loss evaluator ``f``.
    Per component the relative error is |a - n| / max(1e-8, |a| + |n|); the
    maximum over all checked components is returned. ``sample_per_param``
    limits the check to a seeded random subset of each tensor.
    """
    analytic = []
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
        analytic.append(p.grad.copy())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for tensor, grad in zip(params, analytic):
        flat = tensor.data.reshape(-1)
        gflat = grad.reshape(-1)
        if sample_per_param is not None and flat.size > sample_per_param:
            indices = rng.choice(flat.size, size=sample_per_param, replace=False)
        else:
            indices = range(flat.size)
        for i in indices:
            original = flat[i]
            flat[i] = original + epsilon
            up = f()
            flat[i] = original - epsilon
            down = f()
            flat[i] = original
            if not (math.isfinite(up) and math.isfinite(down)):
                raise FloatingPointError("non-finite loss during gradient check")
            numeric = (up - down) / (2.0 * epsilon)
            a = gflat[i]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst


def _check_module(
    module: Module, loss_fn, seed_grad, params=None, train_mode: bool = True, **kwargs
) -> float:
    """Populate analytic grads, then finite-difference with caching disabled."""
    module.train(train_mode)
    module.enable_grad(True)
    module.zero_grad()
    seed_grad()
    module.enable_grad(False)
    try:
        return grad_check(loss_fn, params if params is not None else module.params(), **kwargs)
    finally:
        module.enable_grad(True)


def _functional(y, r) -> float:
    """The linear functional sum(y * r) of an array or of packed maps."""
    if isinstance(y, Maps):
        y, r = y.data, r.data
    return float((y * r).sum())


def gradient_check_battery(seed: int = 0, full_model_samples: int = 25) -> dict[str, float]:
    """Central-difference checks for every differentiable component.

    Runs at scaled-down dimensions in double precision; returns the max
    relative error per component. Every value should be <= 1e-4.
    """
    results: dict[str, float] = {}
    rng = np.random.default_rng(seed)

    # linear + binary cross-entropy on the sigmoid of its logits
    x = rng.standard_normal((5, 4))
    t = rng.integers(0, 2, size=5).astype(np.float64)
    head = Linear(4, 1, rng)

    def linear_loss() -> float:
        return logit_bce(head.forward(x)[:, 0], t)[0]

    def linear_seed() -> None:
        head.backward(logit_bce(head.forward(x)[:, 0], t)[1][:, None])

    results["linear_sigmoid_bce"] = _check_module(head, linear_loss, linear_seed)

    # conv2d on three packed maps under a fixed random linear functional
    conv = Conv2d(2, 3, (3, 3), (2, 2), (1, 1), rng)
    cx = Maps.pack(list(rng.standard_normal((3, 2, 5, 5))))
    cr = Maps.pack(list(rng.standard_normal((3, 3, 3, 3))))

    def conv_seed() -> None:
        conv.forward(cx)
        conv.backward(cr)

    results["conv2d"] = _check_module(
        conv, lambda: _functional(conv.forward(cx), cr), conv_seed
    )

    # batchnorm in train mode (batch statistics path): over a batch of rows,
    # and per map over three packed maps
    batchnorm_errors = []
    for bn, shape in ((BatchNorm1d(4), (6, 4)), (BatchNorm2d(4), (3, 4, 2, 3))):
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=4)
        bn.beta.data[...] = rng.standard_normal(4)
        bx, br = rng.standard_normal(shape), rng.standard_normal(shape)
        if len(shape) == 4:
            bx, br = Maps.pack(list(bx)), Maps.pack(list(br))

        def bn_loss(bn=bn, bx=bx, br=br) -> float:
            return _functional(bn.forward(bx), br)

        def bn_seed(bn=bn, bx=bx, br=br) -> None:
            bn.forward(bx)
            bn.backward(br)

        batchnorm_errors.append(_check_module(bn, bn_loss, bn_seed))
    results["batchnorm"] = max(batchnorm_errors)

    # full conv encoder composite over maps of mixed shapes, one repeated
    encoder = ConvEncoder(ConvEncoderConfig.scaled_down(), rng)
    ex = [rng.standard_normal((8, a, c)) for a, c in ((3, 4), (1, 3), (3, 4), (2, 1))]
    er = rng.standard_normal((len(ex), encoder.out_dim))

    def encoder_seed() -> None:
        encoder.forward(ex)
        encoder.backward(er)

    results["conv_encoder"] = _check_module(
        encoder, lambda: float((encoder.forward(ex) * er).sum()), encoder_seed
    )

    # filtering and pairwise heads at scaled widths
    for name, config, width in (
        ("filter_head", HeadConfig.scaled_filter(48), 48),
        ("pair_head", HeadConfig.scaled_pair(96), 96),
    ):
        net = build_head(config, rng)
        hx = rng.standard_normal((4, width))
        ht = rng.integers(0, 2, size=4).astype(np.float64)

        def head_loss(net=net, hx=hx, ht=ht) -> float:
            return logit_bce(net.forward(hx)[:, 0], ht)[0]

        def head_seed(net=net, hx=hx, ht=ht) -> None:
            net.backward(logit_bce(net.forward(hx)[:, 0], ht)[1][:, None])

        results[name] = _check_module(net, head_loss, head_seed)

    # the full joint model through question_loss
    docs = [" ".join(f"w{k:02d}" for k in range(i, i + 4)) for i in (0, 4, 8, 12)]
    tfidf = fit_tfidf(docs, V=16)
    provider = ToyHashProvider(ProviderConfig(kind="toy_hash", D=8, seed=seed))
    layout = MetadataLayout(
        candidate_sources=("src",), entailed_sources=("faq", "src"), V=16, M=24
    )
    model = build_joint_model(
        layout,
        tfidf,
        ConvEncoderConfig.scaled_down(),
        rqe_dim=8,
        seed=seed,
        filter_config=HeadConfig.scaled_filter(48),
        pair_config=HeadConfig.scaled_pair(96),
    )
    question = QuestionRecord(
        question_id="gc-q",
        text="w00 w01 w02",
        candidates=(
            CandidateAnswer("gc-a", "w00 w01. W02 w03.", "src", 1, 1, 4),
            CandidateAnswer("gc-b", "w08 w09. W10.", "src", 2, 2, 1),
        ),
    )
    instance = EntailedInstance(
        sentences=("w00 w01 w04", "w02 w05"),
        source="faq",
        score=0.9,
        rqe_embedding=provider.rqe(question.text, question.text),
    )
    prepared = _PreparedQuestion(
        question_id=question.question_id,
        labels=np.array([1.0, 0.0]),
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
    # Check the composed model at a generic parameter point: freshly
    # initialized eval-mode batchnorm leaves every zero-padded border cell
    # exactly on the ReLU kink, where finite differences cannot match any
    # subgradient choice. Randomizing the normalization state moves the
    # check off that measure-zero configuration.
    state_rng = np.random.default_rng([seed, 17])
    for sub in model.modules():
        if isinstance(sub, _BatchNormBase):
            sub.gamma.data[...] = state_rng.uniform(0.8, 1.25, sub.channels)
            sub.beta.data[...] = 0.3 * state_rng.standard_normal(sub.channels)
            sub.running_mean = 0.2 * state_rng.standard_normal(sub.channels)
            sub.running_var = state_rng.uniform(0.7, 1.5, sub.channels)
    for name, tensor in model.named_params():
        if name.endswith("bias"):
            tensor.data += 0.1 * state_rng.standard_normal(tensor.data.shape)

    # The composed model runs with eval-mode normalization: the question batch
    # shares features across rows (the RQE embedding, the one-hots), and batch
    # statistics would cancel those directions to true-zero gradients that
    # finite differences cannot resolve. Train-mode batchnorm backward is
    # covered by the standalone and per-head checks above.
    results["full_model"] = _check_module(
        model,
        lambda: question_loss(model, prepared, alpha=2.0, compute_grads=False),
        lambda: question_loss(model, prepared, alpha=2.0, compute_grads=True),
        train_mode=False,
        sample_per_param=full_model_samples,
        seed=seed,
    )
    return results
