"""Neural core: forward semantics, gradient oracles, optimizers, checkpoints."""

import math
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from medrank import tensornet
from medrank.errors import DimensionError
from medrank.gradcheck import _functional, grad_check, gradient_check_battery
from medrank.joint import PAPER_SIZES, ConvEncoder, ConvEncoderConfig
from medrank.tensornet import (
    Adam,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Linear,
    Maps,
    Module,
    ParamStore,
    QuadrantPool,
    ReLU,
    SGD,
    SPLIT_MIN_FLOPS,
    SWEEP_BLOCK,
    SWEEP_MIN_BLOCKS,
    Sequential,
    Tensor,
    conv_out_dim,
    logit_bce,
    read_manifest,
    sigmoid,
    sweep_workers,
    write_manifest,
)

from conftest import (
    assert_no_update_left,
    count_posts,
    he_uniform,
    pending,
    small_world,
    track_updates,
)


def naive_conv2d(x, weight, bias, stride, padding):
    """Direct quadruple-loop convolution oracle (cross-correlation)."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += weight[o, c, a, b] * padded[c, i * sh + a, j * sw + b]
                out[o, i, j] = acc + (0.0 if bias is None else bias[o])
    return out


def _windows(padded, kernel, stride):
    view = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=(1, 2))
    return view[:, :: stride[0], :: stride[1]]


def windowed_conv2d_forward(x, weight, bias, stride, padding):
    """Sliding-window ``tensordot`` convolution; returns (y, padded map)."""
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    windows = _windows(padded, weight.shape[2:], stride)
    y = np.tensordot(weight, windows, axes=([1, 2, 3], [0, 3, 4]))
    if bias is not None:
        y += bias[:, None, None]
    return y, padded


def windowed_conv2d_backward(padded, x_shape, grad_out, weight, stride, padding):
    """One ``tensordot`` per kernel tap; returns (dx, dweight, dbias)."""
    kh, kw = weight.shape[2:]
    windows = _windows(padded, (kh, kw), stride)
    dweight = np.tensordot(grad_out, windows, axes=([1, 2], [1, 2]))
    _, h, w = x_shape
    ph, pw = padding
    sh, sw = stride
    out_h, out_w = grad_out.shape[1:]
    dpadded = np.zeros_like(padded)
    for i in range(kh):
        for j in range(kw):
            contrib = np.tensordot(weight[:, :, i, j], grad_out, axes=([0], [0]))
            dpadded[:, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += contrib
    return dpadded[:, ph : ph + h, pw : pw + w], dweight, grad_out.sum(axis=(1, 2))


def pack(maps):
    """Packs (C, H, W) maps, such as the rows of a (B, C, H, W) array."""
    return Maps.pack(list(maps))


class TestBceLoss:
    def test_symmetric_point(self):
        loss, grad = logit_bce(np.zeros(2), np.array([1.0, 0.0]))
        assert loss == 2 * math.log(2)
        np.testing.assert_array_equal(grad, [-0.5, 0.5])

    def test_perfect_prediction_is_small(self):
        loss, _ = logit_bce(np.array([40.0]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_saturated_logits_keep_loss_and_gradient(self):
        # Wrong-side logits cost |z| and pull with gradient -+1; right-side
        # ones cost and pull (almost) nothing.
        z = np.array([-40.0, 40.0, -40.0, 40.0])
        t = np.array([1.0, 0.0, 0.0, 1.0])
        for i, want in enumerate((40.0, 40.0, 0.0, 0.0)):
            loss, _ = logit_bce(z[i : i + 1], t[i : i + 1])
            assert loss == pytest.approx(want, rel=1e-12, abs=1e-12)
        loss, grad = logit_bce(z, t)
        assert math.isfinite(loss) and np.isfinite(grad).all()
        np.testing.assert_allclose(grad, [-1.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-12)
        huge, huge_grad = logit_bce(np.array([-1e4, 1e4]), np.array([1.0, 0.0]))
        assert huge == 2e4
        np.testing.assert_array_equal(huge_grad, [-1.0, 1.0])

    def test_matches_probability_form(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-6.0, 6.0, size=9)
        t = rng.integers(0, 2, size=9).astype(float)
        p = sigmoid(z)
        loss, grad = logit_bce(z, t)
        want = -(t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum()
        assert loss == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(grad, p - t, rtol=0, atol=1e-15)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-4.0, 4.0, size=7)
        target = rng.integers(0, 2, size=7).astype(float)
        _, grad = logit_bce(z, target)
        eps = 1e-6
        for i in range(7):
            bumped = z.copy()
            bumped[i] += eps
            dipped = z.copy()
            dipped[i] -= eps
            numeric = (logit_bce(bumped, target)[0] - logit_bce(dipped, target)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            logit_bce(np.zeros(2), np.zeros(3))


class TestActivations:
    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-30, 30, 101)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-12)


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 3, rng).materialize()
        layer.weight.data = np.eye(3)
        layer.bias.data = np.zeros(3)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_shape_mismatch(self):
        layer = Linear(3, 2, np.random.default_rng(0)).materialize()
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((4, 5)))

    def test_gradient(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng).materialize()
        x = rng.standard_normal((5, 4))
        r = rng.standard_normal((5, 3))
        layer.zero_grad()
        layer.forward(x)
        layer.backward(r)
        layer.enable_grad(False)
        err = grad_check(lambda: float((layer.forward(x) * r).sum()), layer.params())
        assert err <= 1e-4


class TestConv2d:
    def test_output_dim_formula(self):
        assert conv_out_dim(7, 3, 2, 1) == 4

    def test_non_positive_output_rejected(self):
        with pytest.raises(DimensionError):
            conv_out_dim(1, 5, 1, 0)

    def test_one_by_one_kernel_preserves_spatial_dims(self):
        rng = np.random.default_rng(0)
        layer = Conv2d(3, 2, (1, 1), (1, 1), (0, 0), rng).materialize()
        out = layer.forward(pack(rng.standard_normal((1, 3, 5, 7))))
        assert out.data.shape == (2, 35) and out.shapes == ((5, 7),)

    def test_matches_naive_oracle_on_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            kh = int(rng.integers(1, min(h + 2, 4)))
            kw = int(rng.integers(1, min(w + 2, 4)))
            stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            if (h + 2 * padding[0] - kh) < 0 or (w + 2 * padding[1] - kw) < 0:
                continue
            layer = Conv2d(c_in, c_out, (kh, kw), stride, padding, rng).materialize()
            x = rng.standard_normal((c_in, h, w))
            expected = naive_conv2d(
                x, layer.weight.data, layer.bias.data, stride, padding
            )
            np.testing.assert_allclose(
                layer.forward(pack([x])).unpack()[0], expected, atol=1e-12
            )

    def test_forward_and_backward_match_windowed_oracle(self):
        rng = np.random.default_rng(7)
        seen = {"cases": 0, "one_by_one": 0, "uneven": 0, "no_bias": 0, "padding_2": 0}
        for _ in range(150):
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            padding = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            bias = bool(rng.integers(0, 2))
            if h + 2 * padding[0] < kernel[0] or w + 2 * padding[1] < kernel[1]:
                continue
            seen["cases"] += 1
            seen["one_by_one"] += kernel == (1, 1)
            seen["uneven"] += any(
                (size + 2 * p - k) % s
                for size, p, k, s in zip((h, w), padding, kernel, stride)
            )
            seen["no_bias"] += not bias
            seen["padding_2"] += 2 in padding
            layer = Conv2d(c_in, c_out, kernel, stride, padding, rng, bias=bias).materialize()
            bias_data = layer.bias.data if bias else None
            x = rng.standard_normal((c_in, h, w))
            expected, padded = windowed_conv2d_forward(
                x, layer.weight.data, bias_data, stride, padding
            )
            grad_out = rng.standard_normal(expected.shape)
            dx, dweight, dbias = windowed_conv2d_backward(
                padded, x.shape, grad_out, layer.weight.data, stride, padding
            )
            layer.zero_grad()
            np.testing.assert_allclose(
                layer.forward(pack([x])).unpack()[0], expected, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                layer.backward(pack([grad_out])).unpack()[0], dx, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(layer.weight.grad, dweight, rtol=0, atol=1e-12)
            if bias:
                np.testing.assert_allclose(layer.bias.grad, dbias, rtol=0, atol=1e-12)
        assert seen["cases"] >= 100 and min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "kernel, stride, padding, fewer_inputs",
        [
            ((1, 1), (1, 1), (1, 1), True),
            ((3, 3), (1, 1), (2, 2), True),
            ((2, 2), (1, 1), (1, 1), True),
            ((3, 3), (1, 1), (1, 1), False),  # as many input cells as output
            ((3, 3), (2, 2), (1, 1), False),
            ((3, 3), (1, 1), (0, 0), False),
        ],
        ids=["1x1-pad1", "3x3-pad2", "2x2-pad1", "3x3-pad1", "3x3-stride2-pad1", "3x3-pad0"],
    )
    def test_both_backward_forms_match_windowed_oracle(
        self, kernel, stride, padding, fewer_inputs
    ):
        # The encoder's geometries on either side of the input-cell rule
        # (fewer input cells than output cells), over mixed packed shapes.
        rng = np.random.default_rng(11)
        layer = Conv2d(3, 4, kernel, stride, padding, rng).materialize()
        shapes = [
            (h, w)
            for h, w in ((1, 1), (3, 2), (2, 3), (1, 3), (3, 3), (4, 5))
            if h + 2 * padding[0] >= kernel[0] and w + 2 * padding[1] >= kernel[1]
        ]
        maps = [rng.standard_normal((3, h, w)) for h, w in shapes]
        outputs = [
            windowed_conv2d_forward(x, layer.weight.data, layer.bias.data, stride, padding)
            for x in maps
        ]
        grads = [rng.standard_normal(y.shape) for y, _ in outputs]
        n_in = sum(h * w for h, w in shapes)
        n_out = sum(g[0].size for g in grads)
        assert (n_in < n_out) == fewer_inputs and len(shapes) >= 2
        layer.zero_grad()
        for y, (want, _) in zip(layer.forward(Maps.pack(maps)).unpack(), outputs):
            np.testing.assert_allclose(y, want, rtol=0, atol=1e-12)
        # The form taken shows in the weight gradient's bytes.
        product = _first_weight_product(layer, None, Maps.pack(grads))
        dx = layer.backward(Maps.pack(grads)).unpack()
        assert layer.weight.grad.tobytes() == product.tobytes()
        dweight = np.zeros_like(layer.weight.data)
        dbias = np.zeros(4)
        for x, d, (_, padded), g in zip(maps, dx, outputs, grads):
            want_dx, want_dw, want_db = windowed_conv2d_backward(
                padded, x.shape, g, layer.weight.data, stride, padding
            )
            np.testing.assert_allclose(d, want_dx, rtol=0, atol=1e-12)
            dweight += want_dw
            dbias += want_db
        np.testing.assert_allclose(layer.weight.grad, dweight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.bias.grad, dbias, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cached_shapes", [64, 1])
    def test_stacked_maps_backward_in_reverse(self, monkeypatch, cached_shapes):
        # The tap-index cache is keyed by (h, w): two maps share h, two share
        # w. With room for one shape every backward rebuilds its index.
        monkeypatch.setattr(tensornet, "TAP_INDEX_CACHE", cached_shapes)
        rng = np.random.default_rng(8)
        stride, padding = (2, 1), (1, 2)
        layer = Conv2d(3, 2, (3, 2), stride, padding, rng).materialize()
        weight, bias = layer.weight.data, layer.bias.data
        maps = [rng.standard_normal((3, h, w)) for h, w in ((4, 5), (4, 7), (6, 5))]
        singles = []
        for x in maps:
            y, padded = windowed_conv2d_forward(x, weight, bias, stride, padding)
            g = rng.standard_normal(y.shape)
            singles.append((y, g, windowed_conv2d_backward(
                padded, x.shape, g, weight, stride, padding
            )))
        outputs = [layer.forward(pack([x])).unpack()[0] for x in maps]
        for y, single in reversed(list(zip(outputs, singles))):
            expected, g, (dx, dweight, dbias) = single
            layer.zero_grad()
            np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                layer.backward(pack([g])).unpack()[0], dx, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(layer.weight.grad, dweight, rtol=0, atol=1e-12)
            np.testing.assert_allclose(layer.bias.grad, dbias, rtol=0, atol=1e-12)
        assert pending(layer) == 0
        assert len(layer._tap_indices) <= cached_shapes

    def test_forward_caches_only_the_padded_map(self):
        rng = np.random.default_rng(9)
        layer = Conv2d(4, 5, (3, 3), (1, 1), (2, 1), rng).materialize()
        x = rng.standard_normal((2, 4, 3, 6))
        layer.forward(pack(x))
        (ctx,) = layer._ctx
        cells, *geometry = ctx
        # The two maps packed side by side, padded with the one zero column
        # that every padding tap reads.
        packed = x.transpose(1, 0, 2, 3).reshape(4, -1)
        np.testing.assert_array_equal(cells, np.pad(packed, ((0, 0), (0, 1))))
        assert cells.base is None

        # The rest is integer geometry, nothing float like the im2col matrix.
        def arrays(item):
            if isinstance(item, np.ndarray):
                yield item
            elif isinstance(item, (list, tuple)):
                for part in item:
                    yield from arrays(part)

        assert {a.dtype.kind for a in arrays(geometry)} == {"i"}

    def test_gradient(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(2, 3, (3, 3), (2, 2), (1, 1), rng).materialize()
        x = pack(rng.standard_normal((1, 2, 5, 5)))
        r = pack(rng.standard_normal((1, 3, 3, 3)))
        layer.zero_grad()
        layer.forward(x)
        layer.backward(r)
        layer.enable_grad(False)
        err = grad_check(lambda: _functional(layer.forward(x), r), layer.params())
        assert err <= 1e-4

    def test_input_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        layer = Conv2d(2, 2, (2, 2), (1, 1), (1, 1), rng).materialize()
        x = rng.standard_normal((2, 3, 3))
        r = pack(rng.standard_normal((1, 2, 4, 4)))
        layer.forward(pack([x]))
        (dx,) = layer.backward(r).unpack()
        eps = 1e-6
        layer.enable_grad(False)
        for idx in [(0, 0, 0), (1, 2, 1), (0, 1, 2)]:
            orig = x[idx]
            x[idx] = orig + eps
            up = _functional(layer.forward(pack([x])), r)
            x[idx] = orig - eps
            down = _functional(layer.forward(pack([x])), r)
            x[idx] = orig
            assert dx[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-4)


class TestQuadrantPool:
    def test_constant_input(self):
        pool = QuadrantPool()
        out = pool.forward(pack(np.full((1, 3, 5, 4), 2.5)))
        np.testing.assert_allclose(out, 2.5)
        assert out.shape == (1, 12)

    def test_two_by_two_hand_case(self):
        pool = QuadrantPool()
        out = pool.forward(pack(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0, 4.0]])

    def test_single_cell(self):
        pool = QuadrantPool()
        out = pool.forward(pack(np.array([[[[7.0]]]])))
        np.testing.assert_array_equal(out, [[7.0, 7.0, 7.0, 7.0]])

    def test_odd_dims_overlap(self):
        # 3x3 single channel: quadrants are the four overlapping 2x2 corners.
        x = np.arange(9, dtype=float).reshape(1, 3, 3)
        out = QuadrantPool().forward(pack([x]))[0]
        expected = [
            x[0, :2, :2].mean(),
            x[0, :2, 1:].mean(),
            x[0, 1:, :2].mean(),
            x[0, 1:, 1:].mean(),
        ]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_length_always_4c(self):
        pool = QuadrantPool()
        rng = np.random.default_rng(0)
        for c in (1, 3):
            for h in (1, 2, 5):
                for w in (1, 4, 7):
                    out = pool.forward(pack(rng.standard_normal((1, c, h, w))))
                    assert out.shape == (1, 4 * c)
                    pool.clear_cache()

    def test_shape_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tensornet, "TAP_INDEX_CACHE", 2)
        rng = np.random.default_rng(5)
        pool = QuadrantPool()
        for h, w in ((1, 1), (2, 3), (3, 3), (2, 3), (1, 1)):
            x = rng.standard_normal((2, h, w))
            np.testing.assert_allclose(
                pool.forward(pack([x]))[0], single_pool_forward(x), rtol=0, atol=1e-12
            )
        assert len(pool._pieces) == 2

    def test_gradient(self):
        rng = np.random.default_rng(4)
        pool = QuadrantPool()
        x = rng.standard_normal((2, 3, 5))
        r = rng.standard_normal((1, 8))
        pool.forward(pack([x]))
        (dx,) = pool.backward(r).unpack()
        pool.enable_grad(False)
        eps = 1e-6
        for idx in [(0, 0, 0), (1, 1, 2), (0, 2, 4)]:
            orig = x[idx]
            x[idx] = orig + eps
            up = float((pool.forward(pack([x])) * r).sum())
            x[idx] = orig - eps
            down = float((pool.forward(pack([x])) * r).sum())
            x[idx] = orig
            assert dx[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-5)


class TestBatchNorm:
    def test_eval_identity_at_default_stats(self):
        bn = BatchNorm1d(3).materialize()
        bn.eval()
        x = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 2.0]])
        np.testing.assert_allclose(bn.forward(x), x, atol=1e-5 * np.abs(x).max() + 1e-6)

    def test_train_normalizes_to_beta_gamma(self):
        bn = BatchNorm1d(2).materialize()
        bn.gamma.data[:] = [2.0, 0.5]
        bn.beta.data[:] = [1.0, -1.0]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 2)) * 3.0 + 5.0
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=0), [1.0, -1.0], atol=1e-9)
        np.testing.assert_allclose(y.std(axis=0), [2.0, 0.5], rtol=1e-4)

    def test_batch_of_one_rejected_in_train_mode(self):
        bn = BatchNorm1d(2).materialize()
        with pytest.raises(DimensionError):
            bn.forward(np.zeros((1, 2)))

    def test_batch_of_one_works_in_eval_mode(self):
        bn = BatchNorm1d(2).materialize()
        bn.eval()
        assert bn.forward(np.ones((1, 2))).shape == (1, 2)

    def test_running_stats_track_data(self):
        bn = BatchNorm1d(1, momentum=0.5).materialize()
        x = np.array([[2.0], [4.0]])
        bn.forward(x)
        assert bn.running_mean[0] == pytest.approx(0.5 * 3.0)
        # unbiased variance of (2, 4) is 2
        assert bn.running_var[0] == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)

    def test_gradient_train_mode(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm1d(4).materialize()
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, 4)
        bn.beta.data[:] = rng.standard_normal(4)
        x = rng.standard_normal((6, 4))
        r = rng.standard_normal((6, 4))
        bn.zero_grad()
        bn.forward(x)
        bn.backward(r)
        bn.enable_grad(False)
        err = grad_check(lambda: float((bn.forward(x) * r).sum()), bn.params())
        assert err <= 1e-4

    def test_gradient_eval_mode(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm2d(3).materialize()
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[:] = rng.standard_normal(3)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = rng.uniform(0.5, 2.0, 3)
        bn.eval()
        x = pack(rng.standard_normal((1, 3, 4, 5)))
        r = pack(rng.standard_normal((1, 3, 4, 5)))
        bn.zero_grad()
        bn.forward(x)
        bn.backward(r)
        bn.enable_grad(False)
        err = grad_check(lambda: _functional(bn.forward(x), r), bn.params())
        assert err <= 1e-4

    def test_input_gradient_train_mode(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm1d(3).materialize()
        x = rng.standard_normal((5, 3))
        r = rng.standard_normal((5, 3))
        bn.forward(x)
        dx = bn.backward(r)
        bn.enable_grad(False)
        eps = 1e-6
        for idx in [(0, 0), (2, 1), (4, 2)]:
            orig = x[idx]
            x[idx] = orig + eps
            up = float((bn.forward(x) * r).sum())
            x[idx] = orig - eps
            down = float((bn.forward(x) * r).sum())
            x[idx] = orig
            assert dx[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-4)


# ---------------------------------------------------------------------------
# Oracle: the single-map (C, H, W) layers that the packed layers replaced
# ---------------------------------------------------------------------------


def single_bn2d_forward(bn, x):
    """BatchNorm2d on one (C, H, W) map; train mode folds the map's
    statistics into ``bn``'s running buffers. Returns (y, cache)."""
    c, h, w = x.shape
    x2d = x.reshape(c, h * w).T
    if bn.training:
        batch = x2d.shape[0]
        mean = x2d.mean(axis=0)
        var = x2d.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        xhat = (x2d - mean) * inv_std
        bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mean
        bn.running_var = (
            1.0 - bn.momentum
        ) * bn.running_var + bn.momentum * var * batch / (batch - 1)
    else:
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        xhat = (x2d - bn.running_mean) * inv_std
    y = bn.gamma.data * xhat + bn.beta.data
    return y.T.reshape(c, h, w), (xhat, inv_std, bn.training)


def single_bn2d_backward(bn, cache, grad_out):
    xhat, inv_std, batch_stats = cache
    c, h, w = grad_out.shape
    g = grad_out.reshape(c, h * w).T
    bn.gamma.add_grad((g * xhat).sum(axis=0))
    bn.beta.add_grad(g.sum(axis=0))
    gx = g * bn.gamma.data
    if batch_stats:
        n = g.shape[0]
        dx = (inv_std / n) * (n * gx - gx.sum(axis=0) - xhat * (gx * xhat).sum(axis=0))
    else:
        dx = gx * inv_std
    return dx.T.reshape(c, h, w)


def _quadrants(h, w):
    def halves(size):
        return slice(0, -(-size // 2)), slice(size // 2, size)

    (top, bottom), (left, right) = halves(h), halves(w)
    return ((top, left), (top, right), (bottom, left), (bottom, right))


def single_pool_forward(x):
    """QuadrantPool on one (C, H, W) map: the (4C,) channel-major means."""
    quads = _quadrants(*x.shape[1:])
    means = np.stack([x[:, rows, cols].mean(axis=(1, 2)) for rows, cols in quads], axis=1)
    return means.reshape(-1)


def single_pool_backward(shape, grad_out):
    grads = grad_out.reshape(shape[0], 4)
    dx = np.zeros(shape)
    for q, (rows, cols) in enumerate(_quadrants(*shape[1:])):
        size = (rows.stop - rows.start) * (cols.stop - cols.start)
        dx[:, rows, cols] += grads[:, q][:, None, None] / size
    return dx


def single_forward(layer, x):
    """One single-map layer forward; returns (y, cache)."""
    if isinstance(layer, Conv2d):
        bias = None if layer.bias is None else layer.bias.data
        y, padded = windowed_conv2d_forward(
            x, layer.weight.data, bias, layer.stride, layer.padding
        )
        return y, (padded, x.shape)
    if isinstance(layer, BatchNorm2d):
        return single_bn2d_forward(layer, x)
    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0), x > 0
    return single_pool_forward(x), x.shape


def single_backward(layer, cache, grad_out):
    """One single-map layer backward; parameter gradients add onto ``layer``."""
    if isinstance(layer, Conv2d):
        padded, shape = cache
        dx, dweight, dbias = windowed_conv2d_backward(
            padded, shape, grad_out, layer.weight.data, layer.stride, layer.padding
        )
        layer.weight.add_grad(dweight)
        if layer.bias is not None:
            layer.bias.add_grad(dbias)
        return dx
    if isinstance(layer, BatchNorm2d):
        return single_bn2d_backward(layer, cache, grad_out)
    if isinstance(layer, ReLU):
        return grad_out * cache
    return single_pool_backward(cache, grad_out)


class SingleMapEncoder:
    """Runs a ConvEncoder's layers on one (C, a, c) map per call with the
    single-map code above; backward calls run last forward first."""

    def __init__(self, encoder):
        self.layers = encoder.stack.layers
        self._ctx = []

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = single_forward(layer, x)
            caches.append(cache)
        self._ctx.append(caches)
        return x

    def backward(self, grad_out):
        for layer, cache in reversed(list(zip(self.layers, self._ctx.pop()))):
            grad_out = single_backward(layer, cache, grad_out)
        return grad_out


def encoder_map_lists(seed, count):
    """Seeded lists of (8, a, c) maps: each mixes repeated and unique shapes,
    holds a 1 x c and an a x 1 map, and interleaves its shapes; the last list
    has only unique shapes."""
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(count - 1):
        shapes = {(1, int(rng.integers(1, 7))), (int(rng.integers(2, 7)), 1)}
        distinct = int(rng.integers(3, 6))
        while len(shapes) < distinct:
            shapes.add((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        shapes = sorted(shapes)
        repeats = rng.integers(0, len(shapes), size=int(rng.integers(1, 5)))
        picks = shapes + [shapes[int(k)] for k in repeats]
        lists.append([rng.standard_normal((8, *picks[k])) for k in rng.permutation(len(picks))])
    unique = ((1, 1), (1, 4), (3, 1), (2, 5), (4, 3), (6, 6))
    lists.append([rng.standard_normal((8, a, c)) for a, c in unique])
    return lists


def twin_encoders(seed):
    """A scaled-down ConvEncoder and an identical twin for the single-map
    oracle, with random batchnorm parameters and running statistics."""
    twins = [
        ConvEncoder(ConvEncoderConfig.scaled_down(), np.random.default_rng(seed)).materialize()
        for _ in range(2)
    ]
    state = np.random.default_rng([seed, 1])
    pairs = zip(*([m for m in e.modules() if isinstance(m, BatchNorm2d)] for e in twins))
    for bn, twin in pairs:
        c = bn.channels
        gamma, beta = state.uniform(0.5, 1.5, c), state.standard_normal(c)
        mean, var = 0.2 * state.standard_normal(c), state.uniform(0.7, 1.5, c)
        for layer in (bn, twin):
            layer.gamma.data[...], layer.beta.data[...] = gamma, beta
            layer.running_mean, layer.running_var = mean.copy(), var.copy()
    return twins


class TestStackedLayers:
    """Each layer over packed maps equals the single-map layer run map by map."""

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda rng: Conv2d(3, 2, (3, 2), (2, 1), (1, 2), rng).materialize(), (4, 3, 5, 4)),
            (
                lambda rng: Conv2d(3, 4, (1, 1), (1, 1), (0, 0), rng, bias=False).materialize(),
                (3, 3, 1, 6),
            ),
            (lambda rng: BatchNorm2d(3).materialize(), (4, 3, 2, 5)),
            (lambda rng: BatchNorm2d(3).materialize().eval(), (4, 3, 2, 5)),
            (lambda rng: ReLU(), (3, 2, 4, 3)),
            (lambda rng: QuadrantPool(), (4, 3, 5, 2)),
        ],
    )
    def test_stack_matches_maps_one_at_a_time(self, make, shape):
        layer, single = make(np.random.default_rng(0)), make(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(shape)
        layer.zero_grad()
        single.zero_grad()
        y = layer.forward(pack(x))
        outs, caches = zip(*(single_forward(single, m) for m in x))
        pooled = isinstance(layer, QuadrantPool)
        np.testing.assert_allclose(
            y if pooled else y.unpack(), np.stack(outs), rtol=0, atol=1e-12
        )
        grad = rng.standard_normal(np.shape(outs))
        dx = layer.backward(grad if pooled else pack(grad)).unpack()
        for b in reversed(range(shape[0])):
            expected = single_backward(single, caches[b], grad[b])
            np.testing.assert_allclose(dx[b], expected, rtol=0, atol=1e-12)
        for (name, t), (_, ref) in zip(layer.named_params(), single.named_params()):
            np.testing.assert_allclose(t.grad, ref.grad, rtol=0, atol=1e-12, err_msg=name)
        for (name, buf), (_, ref) in zip(layer.named_buffers(), single.named_buffers()):
            np.testing.assert_allclose(buf, ref, rtol=0, atol=1e-12, err_msg=name)
        assert pending(layer) == 0


class CountingLayer:
    """Pass-through proxy for one stack layer: counts forward and backward
    calls and forwards every other attribute to the layer."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = {"forward": 0, "backward": 0}

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def forward(self, x):
        self.calls["forward"] += 1
        return self._inner.forward(x)

    def backward(self, grad_out):
        self.calls["backward"] += 1
        return self._inner.backward(grad_out)


def compare_with_single_map_oracle(training, lists, seed=21):
    """Runs consecutive pairs of map lists through a ConvEncoder and the
    single-map oracle on its twin; asserts rows, input and parameter
    gradients per list and the running buffers after each pair."""
    rng = np.random.default_rng(seed)
    for i in range(0, len(lists) - 1, 2):
        grouped, twin = twin_encoders(seed + i)
        oracle = SingleMapEncoder(twin)
        for net in (grouped, twin):
            net.train(training)
        for maps in lists[i : i + 2]:
            grouped.zero_grad()
            twin.zero_grad()
            rows = grouped.forward(maps)
            np.testing.assert_allclose(
                rows, np.stack([oracle.forward(x) for x in maps]), rtol=0, atol=1e-12
            )
            d_rows = rng.standard_normal(rows.shape)
            d_maps = grouped.backward(d_rows)
            for k in reversed(range(len(maps))):
                expected = oracle.backward(d_rows[k])
                np.testing.assert_allclose(d_maps[k], expected, rtol=0, atol=1e-12)
            for (name, t), (_, ref) in zip(grouped.named_params(), twin.named_params()):
                np.testing.assert_allclose(t.grad, ref.grad, rtol=0, atol=1e-12, err_msg=name)
            assert pending(grouped) == 0
        for (name, buf), (_, ref) in zip(grouped.named_buffers(), twin.named_buffers()):
            np.testing.assert_allclose(buf, ref, rtol=0, atol=1e-12, err_msg=name)


class TestGroupedEncoderOracle:
    """ConvEncoder packs maps of mixed shapes into one pass; the single-map
    layers are its oracle."""

    LISTS = 52

    def test_fixture_mixes_shapes(self):
        lists = encoder_map_lists(seed=20, count=self.LISTS)
        shapes = [[x.shape[1:] for x in maps] for maps in lists]
        assert all(len(set(s)) < len(s) for s in shapes[:-1])
        assert len(set(shapes[-1])) == len(shapes[-1])
        assert all(any(a == 1 for a, _ in s) and any(c == 1 for _, c in s) for s in shapes)

    @pytest.mark.parametrize("training", [True, False])
    def test_rows_gradients_and_buffers_match(self, training):
        compare_with_single_map_oracle(training, encoder_map_lists(seed=20, count=self.LISTS))

    def test_running_stats_folded_out_of_map_order_are_caught(self, monkeypatch):
        # The moving average weighs later maps more, so folding the per-map
        # statistics in reverse map order moves the running buffers.
        fold = BatchNorm2d.track
        monkeypatch.setattr(
            BatchNorm2d,
            "track",
            lambda self, means, variances: fold(self, means[::-1], variances[::-1]),
        )
        with pytest.raises(AssertionError, match="running_"):
            compare_with_single_map_oracle(True, encoder_map_lists(seed=20, count=self.LISTS))

    def test_each_layer_runs_once_per_call_behind_proxies(self):
        # Pass-through proxies with a one-argument forward and backward, as a
        # tracer wraps the stack's layers: every layer runs once per encoder
        # call in each direction, and the rows and gradients are the
        # unwrapped twin's bit for bit.
        wrapped, twin = twin_encoders(seed=30)
        proxies = [CountingLayer(layer) for layer in wrapped.stack.layers]
        wrapped.stack.layers = proxies
        mixed, unique = encoder_map_lists(seed=31, count=2)
        maps = mixed + unique
        assert len({x.shape for x in maps}) >= 4
        d_rows = np.random.default_rng(32).standard_normal((len(maps), wrapped.out_dim))
        for net in (wrapped, twin):
            net.zero_grad()
        np.testing.assert_array_equal(wrapped.forward(maps), twin.forward(maps))
        for got, expected in zip(wrapped.backward(d_rows), twin.backward(d_rows), strict=True):
            np.testing.assert_array_equal(got, expected)
        for (name, t), (_, ref) in zip(wrapped.named_params(), twin.named_params()):
            np.testing.assert_array_equal(t.grad, ref.grad, err_msg=name)
        for (name, buf), (_, ref) in zip(wrapped.named_buffers(), twin.named_buffers()):
            np.testing.assert_array_equal(buf, ref, err_msg=name)
        assert [p.calls for p in proxies] == [{"forward": 1, "backward": 1}] * len(proxies)

    def test_rows_come_back_in_map_order(self):
        encoder = ConvEncoder(
            ConvEncoderConfig.scaled_down(), np.random.default_rng(0)
        ).materialize()
        encoder.eval()
        encoder.enable_grad(False)
        maps = encoder_map_lists(seed=3, count=2)[0]
        rows = encoder.forward(maps)
        for k, x in enumerate(maps):
            np.testing.assert_allclose(encoder.forward([x])[0], rows[k], rtol=0, atol=1e-12)


class TestSequentialComposite:
    def test_linear_logit_bce_gradient(self):
        rng = np.random.default_rng(8)
        net = Sequential([Linear(4, 1, rng)]).materialize()
        x = rng.standard_normal((5, 4))
        t = rng.integers(0, 2, size=5).astype(float)
        net.zero_grad()
        net.backward(logit_bce(net.forward(x)[:, 0], t)[1][:, None])
        net.enable_grad(False)
        err = grad_check(lambda: logit_bce(net.forward(x)[:, 0], t)[0], net.params())
        assert err <= 1e-4

    def test_lifo_interleaved_forwards(self):
        # Two forwards through the same net, backwards in reverse order.
        rng = np.random.default_rng(9)
        net = Sequential([Linear(3, 2, rng), ReLU(), Linear(2, 1, rng)]).materialize()
        x1 = rng.standard_normal((2, 3))
        x2 = rng.standard_normal((4, 3))
        r1 = rng.standard_normal((2, 1))
        r2 = rng.standard_normal((4, 1))
        net.zero_grad()
        net.forward(x1)
        net.forward(x2)
        net.backward(r2)
        net.backward(r1)
        net.enable_grad(False)

        def loss():
            return float(
                (net.forward(x1) * r1).sum() + (net.forward(x2) * r2).sum()
            )

        err = grad_check(loss, net.params())
        assert err <= 1e-4

    def test_backward_without_forward_raises(self):
        net = Sequential([Linear(2, 2, np.random.default_rng(0))]).materialize()
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 2)))

    def test_no_caching_when_grad_disabled(self):
        net = Sequential([Linear(2, 2, np.random.default_rng(0)), ReLU()]).materialize()
        net.enable_grad(False)
        net.forward(np.zeros((3, 2)))
        assert pending(net) == 0


def _weight_layers(rng):
    """A Linear and two Conv2d layers, one per backward form, with an input
    and an output gradient for each."""
    linear = Linear(4, 3, rng).materialize()
    conv = Conv2d(2, 3, (2, 3), stride=(1, 2), padding=(1, 1), rng=rng).materialize()
    maps = Maps.pack([rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 3, 2))])
    # Stride 1 and padding that grows the maps: fewer input cells (7) than
    # output cells (15), so the input-cell form.
    padded_conv = Conv2d(2, 3, (3, 3), (1, 1), (2, 1), rng).materialize()
    small_maps = Maps.pack([rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 1, 1))])

    def linear_case():
        return rng.standard_normal((5, 4)), rng.standard_normal((5, 3))

    def conv_case(layer, maps):
        out = layer.forward(maps)
        layer.clear_cache()
        return lambda: (
            maps.like(rng.standard_normal(maps.data.shape)),
            out.like(rng.standard_normal(out.data.shape)),
        )

    return [
        (linear, linear_case),
        (conv, conv_case(conv, maps)),
        (padded_conv, conv_case(padded_conv, small_maps)),
    ]


def _first_weight_product(layer, x, grad_out):
    """The product the layer's backward takes as its weight gradient:
    ``grad_out.T @ x`` for a Linear; for a Conv2d, ``g @ cols.T`` over the
    output cells or, when the input has fewer cells, ``dz @ X.T`` over the
    input cells, taps moved behind the channels."""
    if isinstance(layer, Linear):
        return grad_out.T @ x
    cells, taps, pieces, geometry = layer._ctx[-1]
    (n_taps, n_out), n_in = taps.shape, cells.shape[1] - 1
    if n_in >= n_out:
        cols = np.take(cells, taps, axis=1).reshape(-1, n_out)
        return (grad_out.data @ cols.T).reshape(layer.weight.shape)
    o, c = layer.out_channels, layer.in_channels
    g_ext = np.pad(grad_out.data, ((0, 0), (0, 1)))
    reads = np.concatenate([piece.reads for piece in pieces], axis=1)
    reads = np.minimum(reads + np.repeat(grad_out.starts(), geometry.sizes), n_out)
    dz = np.take(g_ext, reads, axis=1).reshape(-1, n_in)
    dw = (dz @ cells[:, :n_in].T).reshape(o, n_taps, c).transpose(0, 2, 1)
    return np.ascontiguousarray(dw).reshape(layer.weight.shape)


class TestGradientContract:
    """``zero_grad`` marks the buffers stale; the first contribution writes,
    later ones add, and a stale buffer reads as zeros."""

    def _backward(self, layer, x, grad_out):
        layer.forward(x)
        layer.backward(grad_out)
        return [t.grad.copy() for t in layer.params()]

    def test_no_contribution_reads_zeros_over_old_values(self):
        for layer, case in _weight_layers(np.random.default_rng(0)):
            layer.zero_grad()
            old = self._backward(layer, *case())
            assert all(np.abs(g).sum() > 0 for g in old)
            buffers = [t.grad for t in layer.params()]
            layer.zero_grad()
            for t, buffer in zip(layer.params(), buffers):
                assert t.grad is buffer
                np.testing.assert_array_equal(t.grad, np.zeros(t.shape))

    def test_two_backwards_sum_exactly(self):
        for layer, case in _weight_layers(np.random.default_rng(1)):
            (x1, g1), (x2, g2) = case(), case()
            layer.zero_grad()
            first = self._backward(layer, x1, g1)
            layer.zero_grad()
            second = self._backward(layer, x2, g2)
            layer.zero_grad()
            layer.forward(x1)
            layer.forward(x2)
            layer.backward(g2)
            layer.backward(g1)
            for t, a, b in zip(layer.params(), first, second):
                np.testing.assert_array_equal(t.grad, b + a)

    def test_first_weight_contribution_is_the_product_bytes(self):
        for layer, case in _weight_layers(np.random.default_rng(2)):
            x, grad_out = case()
            # Old contents must be overwritten, not added to.
            layer.weight.grad = np.full(layer.weight.shape, np.nan)
            layer.zero_grad()
            layer.forward(x)
            expected = _first_weight_product(layer, x, grad_out)
            layer.backward(grad_out)
            assert layer.weight.grad.tobytes() == expected.tobytes()

    def test_first_contribution_without_zero_grad_writes(self):
        w = Tensor(np.zeros((2, 3)), "w")
        ParamStore([w])
        a, b = np.arange(4.0).reshape(2, 2), np.arange(6.0).reshape(2, 3)
        w.add_matmul(a, b)
        np.testing.assert_array_equal(w.grad, a @ b)
        w.add_grad(np.ones((2, 3)))
        np.testing.assert_array_equal(w.grad, a @ b + 1.0)

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((3, 2)), 1.0])
    def test_wrong_gradient_shape_raises(self, bad):
        w = Tensor(np.zeros((2, 3)), "w")
        ParamStore([w])
        w.zero_grad()
        with pytest.raises(DimensionError, match="'w'"):
            w.add_grad(bad)
        w.add_grad(np.ones((2, 3)))
        with pytest.raises(DimensionError, match="'w'"):
            w.add_grad(bad)
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_wrong_product_shape_raises(self):
        w = Tensor(np.zeros((2, 3)), "w")
        ParamStore([w])
        w.zero_grad()
        with pytest.raises(DimensionError, match="'w'"):
            w.add_matmul(np.ones((3, 1)), np.ones((1, 2)))
        np.testing.assert_array_equal(w.grad, np.zeros((2, 3)))


class TestOptimizers:
    def test_sgd_zero_gradient_is_noop(self):
        w = Tensor(np.array([1.0, -2.0]))
        store = ParamStore([w])
        w.zero_grad()
        SGD(store, lr=0.5).step()
        np.testing.assert_array_equal(w.data, [1.0, -2.0])

    def test_sgd_hand_step_on_square(self):
        # f(w) = w^2, f'(1) = 2; one step at lr 0.1 gives 0.8
        w = Tensor(np.array([1.0]))
        store = ParamStore([w])
        w.grad = np.array([2.0])
        SGD(store, lr=0.1).step()
        assert w.data[0] == pytest.approx(0.8, abs=1e-12)

    def test_adam_first_step_direction(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal(6))
        store = ParamStore([w])
        grad = rng.standard_normal(6)
        grad[np.abs(grad) < 0.1] = 0.5
        w.grad = grad.copy()
        before = w.data.copy()
        Adam(store, lr=1e-3).step()
        moved = w.data - before
        np.testing.assert_array_equal(np.sign(moved), -np.sign(grad))

    def test_adam_converges_on_quadratic(self):
        w = Tensor(np.array([3.0]))
        opt = Adam(ParamStore([w]), lr=0.1)
        for _ in range(200):
            w.grad = 2.0 * w.data
            opt.step()
        assert abs(w.data[0]) < 1e-2


def reference_sgd(data, grads, lr):
    """The unblocked SGD formula: oracle for the in-place sweep."""
    data = [d.copy() for d in data]
    for step_grads in grads:
        for p, g in zip(data, step_grads):
            if g is not None:
                p -= lr * g
    return data


def reference_adam(data, grads, lr, betas, eps, moments=False):
    """The unblocked Adam formulas: oracle for the in-place sweep. With
    ``moments``, also the first and second moments."""
    data = [d.copy() for d in data]
    ms = [np.zeros_like(d) for d in data]
    vs = [np.zeros_like(d) for d in data]
    b1, b2 = betas
    for t, step_grads in enumerate(grads, start=1):
        for p, m, v, g in zip(data, ms, vs, step_grads):
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return (data, ms, vs) if moments else data


class TestInPlaceOptimizers:
    """The blocked in-place step is bit-identical to the unblocked formulas."""

    STEPS = 4

    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        data = [
            rng.standard_normal(2 * SWEEP_BLOCK + 7),  # two blocks and a tail
            rng.standard_normal((3, 5)),
            rng.standard_normal(1),
            np.asfortranarray(rng.standard_normal((4, 6))),  # stored C-ordered
            rng.standard_normal(9),  # never gets a gradient
        ]
        grads = [
            [rng.standard_normal(d.shape) for d in data[:-1]] + [None]
            for _ in range(self.STEPS)
        ]
        return data, grads

    def _run(self, optimizer_cls, data, grads, **kwargs):
        tensors = [Tensor(d.copy(order="K")) for d in data]
        optimizer = optimizer_cls(ParamStore(tensors), **kwargs)
        for step_grads in grads:
            for tensor, g in zip(tensors, step_grads):
                tensor.grad = None if g is None else g.copy()
            optimizer.step()
        return [t.data for t in tensors]

    def test_adam_matches_reference(self):
        data, grads = self._problem()
        got = self._run(Adam, data, grads, lr=0.01)
        want = reference_adam(data, grads, 0.01, (0.9, 0.999), 1e-8)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_sgd_matches_reference(self):
        data, grads = self._problem(seed=1)
        got = self._run(SGD, data, grads, lr=0.1)
        want = reference_sgd(data, grads, 0.1)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_zero_grad_reuses_buffer(self):
        # From birth on the buffer is the store's view; each zero_grad keeps
        # it and writes nothing, and reading it zero-fills it.
        w = Tensor(np.ones((2, 3)))
        store = ParamStore([w])
        w.zero_grad()
        optimizer = Adam(store, lr=1e-3)
        buffer = w.grad
        assert buffer.base is store.grads
        for _ in range(2):
            buffer += 5.0
            optimizer.zero_grad()
            np.testing.assert_array_equal(buffer, np.full((2, 3), 5.0))
            assert w.grad is buffer
            np.testing.assert_array_equal(buffer, np.zeros((2, 3)))

    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_step_allocates_no_weight_sized_temporary(self, optimizer_cls):
        w = Tensor(np.full(2**21, 0.5))
        optimizer = optimizer_cls(ParamStore([w]), lr=1e-3)
        optimizer.zero_grad()
        optimizer.step()
        tracemalloc.start()
        try:
            optimizer.zero_grad()
            w.grad += 1.0
            optimizer.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.data.nbytes / 4


class TestPooledSweep:
    """The sweep dealt to several worker threads gives the bytes of one."""

    STEPS = 3

    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        data = [
            rng.standard_normal(9 * SWEEP_BLOCK + 5),  # ragged tail
            rng.standard_normal((6 * SWEEP_BLOCK + 1234,)),
            rng.standard_normal((3, SWEEP_BLOCK - 7)),  # never gets a gradient
            rng.standard_normal((2, 3 * SWEEP_BLOCK - 100)),
            rng.standard_normal(17),
        ]
        grads = [
            [None if i == 2 else rng.standard_normal(d.shape) for i, d in enumerate(data)]
            for _ in range(self.STEPS)
        ]
        return data, grads

    def _run(self, monkeypatch, workers, optimizer_cls, data, grads, **kwargs):
        """Parameters and state after the steps, with ``workers`` workers;
        and the helper count of each post to the pool (the calling thread
        is the other worker)."""
        monkeypatch.setattr(tensornet, "sweep_workers", lambda blocks: workers)
        posts = count_posts(monkeypatch)
        tensors = [Tensor(d.copy()) for d in data]
        optimizer = optimizer_cls(ParamStore(tensors), **kwargs)
        for step_grads in grads:
            for tensor, g in zip(tensors, step_grads):
                tensor.grad = None if g is None else g.copy()
            optimizer.step()
        return [a.tobytes() for a in [t.data for t in tensors] + optimizer._states], posts

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_pooled_matches_one_worker_bytes(self, monkeypatch, optimizer_cls, workers):
        data, grads = self._problem()
        elements = sum(d.size for d, g in zip(data, grads[0]) if g is not None)
        assert elements > 2 * SWEEP_MIN_BLOCKS * SWEEP_BLOCK
        pooled, posts = self._run(monkeypatch, workers, optimizer_cls, data, grads, lr=0.01)
        inline, no_posts = self._run(monkeypatch, 1, optimizer_cls, data, grads, lr=0.01)
        assert posts == [workers - 1] * self.STEPS and no_posts == []
        assert pooled == inline
        assert pooled[2] == data[2].tobytes()

    def test_worker_exception_reaches_step(self, monkeypatch):
        # Only the last worker's share overflows; the caller's error state
        # must hold in the worker for this to raise FloatingPointError.
        data, grads = self._problem(seed=1)
        grads[0][-1][-1] = 1e200
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            self._run(monkeypatch, 3, Adam, data, grads[:1], lr=1e-3)

    def test_first_block_exception_waits_for_every_block(self, monkeypatch):
        # The first block overflows here, on whichever thread takes it; the
        # step raises only after every other block has run and no pool
        # thread is left running one.
        data, grads = self._problem(seed=1)
        grads[0][0][0] = 1e200
        monkeypatch.setattr(tensornet, "sweep_workers", lambda blocks: 3)
        tensors = [Tensor(d.copy()) for d in data]
        store = ParamStore(tensors)
        for tensor, g in zip(tensors, grads[0]):
            tensor.grad = None if g is None else g.copy()
        optimizer = Adam(store, lr=1e-3)
        counts = track_updates(optimizer)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            optimizer.step()
        assert_no_update_left(counts)
        runs = data[0].size + data[1].size, data[3].size + data[4].size  # around data[2]
        assert counts[1] == sum(-(-n // SWEEP_BLOCK) for n in runs)
        assert not np.array_equal(tensors[-1].data, data[-1])  # the last share ran

    def test_model_below_minimum_starts_no_thread(self, monkeypatch):
        # 2 * SWEEP_MIN_BLOCKS - 1 blocks' worth of elements, many of them in
        # one-element parameters: one worker whatever the cores.
        rng = np.random.default_rng(2)
        small = 4 * SWEEP_MIN_BLOCKS
        sizes = [SWEEP_MIN_BLOCKS * SWEEP_BLOCK, (SWEEP_MIN_BLOCKS - 1) * SWEEP_BLOCK - small]
        tensors = [Tensor(rng.standard_normal(n)) for n in sizes + [1] * small]
        store = ParamStore(tensors)
        for t in tensors:
            t.grad = rng.standard_normal(t.data.shape)
        optimizer = Adam(store, lr=1e-3)

        def no_thread(self):
            raise AssertionError("the sweep started a thread")

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        optimizer.step()
        assert threading.active_count() == before


class Holder(Module):
    """A module whose parameters are the given tensors."""

    def __init__(self, tensors):
        super().__init__()
        self.tensors = list(tensors)

    def _local_params(self):
        return [(str(i), t) for i, t in enumerate(self.tensors)]


class TestHandOff:
    """Parameters handed off mid-backward, drained by workers while the
    caller goes on, end the step with the bytes of one inline sweep."""

    STEPS = 4
    HAND_OFFS = [[5, 6], [0, 3], [2]]  # each group's gradients final in turn

    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        data = [rng.standard_normal(n) for n in (700, 64, (5, 3), 333, 1, 900, 129)]
        grads = [[rng.standard_normal(d.shape) for d in data] for _ in range(self.STEPS)]
        for step_grads in grads[1:]:
            step_grads[3] = None  # a handed-off parameter with no gradient
        return data, grads

    def _run(self, monkeypatch, workers, optimizer_cls, hand_offs, seed=0):
        """Parameter and state bytes, and the step count, after the steps;
        16-element blocks give every worker many blocks to take."""
        monkeypatch.setattr(tensornet, "SWEEP_BLOCK", 16)
        monkeypatch.setattr(tensornet, "sweep_workers", lambda blocks: workers)
        data, grads = self._problem(seed)
        tensors = [Tensor(d.copy()) for d in data]
        optimizer = optimizer_cls(ParamStore(tensors), lr=0.01)
        for step_grads in grads:
            for tensor, g in zip(tensors, step_grads):
                tensor.grad = None if g is None else g.copy()
            for group in hand_offs:
                optimizer.hand_off(Holder(tensors[i] for i in group))
            optimizer.step()
        state = [a.tobytes() for a in [t.data for t in tensors] + optimizer._states]
        return state, getattr(optimizer, "_t", None)

    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_hand_offs_match_inline_bytes(self, monkeypatch, optimizer_cls, workers):
        # More workers than cores and a thread switch every microsecond: a
        # block taken twice, or never, changes the bytes.
        inline = self._run(monkeypatch, 1, optimizer_cls, [])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):  # repeated: thread interleavings differ run to run
                assert self._run(monkeypatch, workers, optimizer_cls, self.HAND_OFFS) == inline
        finally:
            sys.setswitchinterval(interval)
        if optimizer_cls is Adam:
            assert inline[1] == self.STEPS

    def test_blocks_listed_while_a_worker_drains_are_taken(self, monkeypatch):
        # The first hand-off's worker holds its first block until the second
        # hand-off is listed; with two workers allowed, that worker and then
        # the caller drain both, and no second worker starts.
        monkeypatch.setattr(tensornet, "SWEEP_BLOCK", 16)
        monkeypatch.setattr(tensornet, "sweep_workers", lambda blocks: 2)
        posts = count_posts(monkeypatch)
        gate = threading.Event()

        class GatedSGD(SGD):
            def _next_update(self):
                update = super()._next_update()

                def gated(*args):
                    assert gate.wait(10)
                    update(*args)

                return gated

        data, grads = self._problem()
        tensors = [Tensor(d.copy()) for d in data]
        store = ParamStore(tensors)
        for tensor, g in zip(tensors, grads[0]):
            tensor.grad = g
        optimizer = GatedSGD(store, lr=0.1)
        optimizer.hand_off(Holder(tensors[:3]))
        optimizer.hand_off(Holder(tensors[3:5]))
        gate.set()
        optimizer.step()
        assert posts == [1]
        want = reference_sgd(data, grads[:1], 0.1)
        assert [t.data.tobytes() for t in tensors] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("model_blocks", [SWEEP_MIN_BLOCKS, 2 * SWEEP_MIN_BLOCKS])
    def test_small_hand_off_is_only_a_size_check(self, monkeypatch, model_blocks):
        # Below the worker threshold, for the model or for the handed-off
        # module, a hand-off starts nothing and lists nothing: the step
        # sweeps every parameter inline, as without it.
        rng = np.random.default_rng(3)
        data = [rng.standard_normal(n) for n in (model_blocks * SWEEP_BLOCK, 40, 7)]
        grads = [[rng.standard_normal(d.shape) for d in data]]
        tensors = [Tensor(d.copy()) for d in data]
        store = ParamStore(tensors)
        for tensor, g in zip(tensors, grads[0]):
            tensor.grad = g
        optimizer = SGD(store, lr=0.1)

        def no_thread(self):
            raise AssertionError("the hand-off started a thread")

        class Unread(Module):
            def params(self):
                raise AssertionError("a model too small to share read the module")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", no_thread)
            if model_blocks < 2 * SWEEP_MIN_BLOCKS:
                optimizer.hand_off(Unread())
            optimizer.hand_off(Holder(tensors[1:]))
        assert not any(optimizer._handed)
        optimizer.step()  # the larger model's step may share its sweep
        want = reference_sgd(data, grads, 0.1)
        assert [t.data.tobytes() for t in tensors] == [w.tobytes() for w in want]

    def test_foreign_or_repeated_hand_off_raises(self, monkeypatch):
        monkeypatch.setattr(tensornet, "sweep_workers", lambda blocks: 2)
        tensors = [Tensor(np.ones(4)), Tensor(np.ones(3))]
        store = ParamStore(tensors)
        for tensor in tensors:
            tensor.grad = np.ones(tensor.shape)
        optimizer = SGD(store, lr=0.1)
        stranger = Tensor(np.ones(2), "stranger")
        ParamStore([stranger])
        with pytest.raises(ValueError, match="not in this optimizer"):
            optimizer.hand_off(Holder([stranger]))
        optimizer.hand_off(Holder(tensors[:1]))
        with pytest.raises(ValueError, match="handed off twice"):
            optimizer.hand_off(Holder(tensors[:1]))
        optimizer.join()
        np.testing.assert_array_equal(tensors[0].data, np.full(4, 1.0 - 0.1))
        np.testing.assert_array_equal(tensors[1].data, np.ones(3))  # the step ended
        optimizer.step()  # a fresh step: nothing is handed off any more
        np.testing.assert_array_equal(tensors[0].data, np.full(4, 1.0 - 0.1 - 0.1))
        np.testing.assert_array_equal(tensors[1].data, np.full(3, 1.0 - 0.1))


class TestLinearSplit:
    """A Linear product of at least ``SPLIT_MIN_FLOPS`` runs as two pieces
    whose bytes depend on the shapes alone, wherever the pieces run."""

    def _passes(self, monkeypatch, workers, rows):
        """Output, gradient and input-gradient bytes of two train-mode
        forwards and backwards (the second backward adds to the first's
        weight gradient) with ``workers`` workers; and the helper count of
        each post to the pool."""
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: workers)
        posts = count_posts(monkeypatch)
        rng = np.random.default_rng(rows)
        layer = Linear(3824, 2048, rng).materialize()
        xs = [rng.standard_normal((rows, 3824)) for _ in range(2)]
        gs = [rng.standard_normal((rows, 2048)) for _ in range(2)]
        layer.train()
        layer.zero_grad()
        outs = [layer.forward(x) for x in xs]
        grads_in = [layer.backward(g) for g in reversed(gs)]
        arrays = outs + grads_in + [layer.weight.grad, layer.bias.grad]
        return [a.tobytes() for a in arrays], posts, (layer, xs, gs)

    @pytest.mark.parametrize("rows", [5, 20])
    def test_pool_and_caller_give_the_same_bytes(self, monkeypatch, rows):
        with monkeypatch.context() as patch:
            pooled, posts, _ = self._passes(patch, 2, rows)
        with monkeypatch.context() as patch:
            alone, no_posts, (layer, xs, gs) = self._passes(patch, 1, rows)
        assert posts == [1] * 4 and no_posts == []
        assert pooled == alone
        # Both agree with the whole products, to rounding.
        w, b = layer.weight.data, layer.bias.data
        want = [x @ w.T + b for x in xs] + [g @ w for g in reversed(gs)]
        want.append(sum(g.T @ x for g, x in zip(gs, xs)))
        for got, ref in zip(alone, want):
            np.testing.assert_allclose(np.frombuffer(got).reshape(ref.shape), ref, rtol=1e-12)

    def test_product_below_the_threshold_stays_whole(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: calls.append(args) or 1)
        rng = np.random.default_rng(3)
        layer = Linear(256, 64, rng).materialize()
        rows = (SPLIT_MIN_FLOPS - 1) // (2 * 256 * 64)  # one more row reaches it
        assert 2 * rows * 256 * 64 < SPLIT_MIN_FLOPS <= 2 * (rows + 1) * 256 * 64
        x, g = rng.standard_normal((rows, 256)), rng.standard_normal((rows, 64))
        layer.zero_grad()
        out = layer.forward(x)
        grad_in = layer.backward(g)
        assert calls == []  # no core count asked for, no piece listed
        assert out.tobytes() == (x @ layer.weight.data.T + layer.bias.data).tobytes()
        assert grad_in.tobytes() == (g @ layer.weight.data).tobytes()
        assert layer.weight.grad.tobytes() == (g.T @ x).tobytes()
        layer.forward(np.vstack([x, x[:1]]))
        assert calls == [(2, 1)]


def im2col(layer, maps):
    """The (C*kh*kw, L) im2col matrix of ``layer`` over packed (C, H, W)
    ``maps``, built from sliding windows of each zero-padded map."""
    (ph, pw), blocks = layer.padding, []
    for x in maps:
        padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
        windows = _windows(padded, layer.kernel, layer.stride)  # (C, oh, ow, kh, kw)
        blocks.append(windows.transpose(0, 3, 4, 1, 2).reshape(-1, math.prod(windows.shape[1:3])))
    return np.concatenate(blocks, axis=1)


class TestConvSplit:
    """A conv product of at least ``SPLIT_MIN_FLOPS`` runs over its L output
    cells padded to a multiple of 8, as two pieces cut over W's rows: its
    bytes depend on the shapes alone, and backward never sees the padding."""

    # Every paper conv's input channels and layer spec, at D = 768.
    PAPER_CONVS = list(
        zip((768, *(spec.channels for spec in PAPER_SIZES.encoder)), PAPER_SIZES.encoder)
    )

    def _forward(self, monkeypatch, workers, layer, maps):
        """Forward bytes with ``workers`` workers, and the pool's posts."""
        with monkeypatch.context() as patch:
            patch.setattr(tensornet, "sweep_workers", lambda *args: workers)
            posts = count_posts(patch)
            return layer.forward(pack(maps)).data.tobytes(), posts

    @pytest.mark.parametrize("index", range(len(PAPER_CONVS)))
    def test_paper_convs_split_to_the_padded_whole_product(self, monkeypatch, index):
        in_channels, spec = self.PAPER_CONVS[index]
        rng = np.random.default_rng(index)
        layer = Conv2d(
            in_channels, spec.channels, spec.kernel, spec.stride, spec.padding, rng
        ).materialize()
        layer.eval().enable_grad(False)
        weight = layer.weight.data.reshape(spec.channels, -1)
        bias = layer.bias.data[:, None]
        aligned = []
        for shapes in ([(7, 7)] * 5, [(6, 6)] * 5):
            maps = [rng.standard_normal((in_channels, h, w)) for h, w in shapes]
            pooled, posts = self._forward(monkeypatch, 2, layer, maps)
            alone, no_posts = self._forward(monkeypatch, 1, layer, maps)
            assert posts == [1] and no_posts == []
            assert pooled == alone
            cols = im2col(layer, maps)
            n_out = cols.shape[1]
            assert 2 * weight.size * n_out >= SPLIT_MIN_FLOPS
            aligned.append(n_out % 8 == 0)
            padded = np.pad(cols, ((0, 0), (0, -n_out % 8)))
            assert alone == ((weight @ padded)[:, :n_out] + bias).tobytes()
            unpadded = weight @ cols + bias
            got = np.frombuffer(alone).reshape(unpadded.shape)
            np.testing.assert_allclose(
                got, unpadded, rtol=1e-12, atol=1e-12 * np.abs(unpadded).max()
            )
        # One L a multiple of 8 and one not, for every paper conv.
        assert sorted(aligned) == [False, True]

    def test_product_below_the_threshold_keeps_the_unpadded_bytes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: calls.append(args) or 1)
        rng = np.random.default_rng(5)
        layer = Conv2d(64, 40, (1, 1), (1, 1), (0, 0), rng).materialize()
        weight, bias = layer.weight.data.reshape(40, 64), layer.bias.data[:, None]
        cells = (SPLIT_MIN_FLOPS - 1) // (2 * 40 * 64)  # one more cell reaches it
        assert 2 * 40 * 64 * cells < SPLIT_MIN_FLOPS <= 2 * 40 * 64 * (cells + 1)
        assert cells % 8  # a padded product would be wider
        x = rng.standard_normal((64, 1, cells))
        out = layer.forward(pack([x])).data
        assert calls == []  # no core count asked for, no piece listed
        assert out.tobytes() == (weight @ x.reshape(64, -1) + bias).tobytes()
        layer.forward(pack([rng.standard_normal((64, 1, cells + 1))]))
        assert calls == [(2, 1)]

    def test_scaled_encoder_forward_posts_nothing(self, monkeypatch):
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: 2)
        posts = count_posts(monkeypatch)
        rng = np.random.default_rng(6)
        config = ConvEncoderConfig.scaled_down()
        encoder = ConvEncoder(config, rng).materialize()
        maps = [rng.standard_normal((config.in_channels, 10, 20)) for _ in range(8)]
        rows = encoder.forward(maps)
        encoder.backward(np.ones_like(rows))
        assert posts == []

    def test_gradcheck_conv_cases_pass_through_the_split(self, monkeypatch):
        # With every product split, each conv output is the first L columns
        # of an (O, L rounded up to 8) product. The pieces run on the caller,
        # as on one core: thousands of tiny products would wait on threads.
        monkeypatch.setattr(tensornet, "SPLIT_MIN_FLOPS", 0)
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: 1)
        widths = set()
        forward = Conv2d.forward

        def recorded(layer, maps):
            out = forward(layer, maps)
            widths.add((out.data.shape[1], out.data.base.shape[1]))
            return out

        monkeypatch.setattr(Conv2d, "forward", recorded)
        results = gradient_check_battery(seed=0)
        assert results["conv2d"] <= 1e-4 and results["conv2d_padded"] <= 1e-4
        assert {(27, 32), (44, 48)} <= widths  # the two conv cases' L, padded
        assert all(base == -(-n // 8) * 8 for n, base in widths)

    @pytest.mark.parametrize(
        "stride, padding", [((1, 1), (2, 2)), ((2, 2), (1, 1))], ids=["input_cell", "output_cell"]
    )
    def test_backward_after_a_split_forward_gives_the_same_bytes(
        self, monkeypatch, stride, padding
    ):
        def passes(min_flops):
            monkeypatch.setattr(tensornet, "SPLIT_MIN_FLOPS", min_flops)
            rng = np.random.default_rng(7)
            layer = Conv2d(4, 16, (3, 3), stride, padding, rng).materialize()
            x = pack([rng.standard_normal((4, h, w)) for h, w in ((3, 4), (1, 1), (5, 3))])
            layer.zero_grad()
            y = layer.forward(x)
            dx = layer.backward(y.like(rng.standard_normal(y.data.shape)))
            grads = [dx.data, layer.weight.grad, layer.bias.grad]
            return y.data.shape[1], [a.tobytes() for a in grads]

        n_out, split = passes(0)
        assert n_out % 8  # so the split forward padded L
        assert passes(SPLIT_MIN_FLOPS) == (n_out, split)


class TestSharedPool:
    """Products and optimizer sweeps share one pool of threads: a caller
    never waits for a thread that is busy elsewhere, and no piece's
    exception is lost or raised early."""

    def test_pooled_exception_reaches_the_caller_after_every_piece(self, monkeypatch):
        # The caller's piece waits until a pooled piece has raised; the next
        # pooled piece is still running then, and must finish before the
        # exception reaches the caller.
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: 3)
        caller = threading.current_thread()
        raised = threading.Event()
        lock, pooled, finished = threading.Lock(), [], []

        def piece():
            if threading.current_thread() is caller:
                assert raised.wait(10)
                return
            with lock:
                pooled.append(threading.current_thread())
                first = len(pooled) == 1
            if first:
                raised.set()
                raise ValueError("pooled piece failed")
            time.sleep(0.1)
            finished.append(True)

        with pytest.raises(ValueError, match="pooled piece failed"):
            tensornet._run_pieces([piece, piece, piece])
        assert len(pooled) == 2 and finished == [True]

    def test_forward_beside_a_busy_hand_off_runs_on_the_caller(self, monkeypatch):
        # One pool thread, held inside a hand-off's first block: a product
        # posts a helper that thread cannot take, and the caller runs both
        # pieces and withdraws the helper rather than wait.
        monkeypatch.setattr(tensornet, "_POOL", tensornet._Pool())
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: 2)
        posts = count_posts(monkeypatch)
        holding, gate = threading.Event(), threading.Event()

        class GatedSGD(SGD):
            def _next_update(self):
                update = super()._next_update()

                def gated(*args):
                    holding.set()
                    assert gate.wait(10)
                    update(*args)

                return gated

        rng = np.random.default_rng(4)
        layer = Linear(3824, 2048, rng).materialize().eval().enable_grad(False)
        x = rng.standard_normal((20, 3824))
        want = layer.forward(x)
        data = [rng.standard_normal(n) for n in (300, 40)]
        grads = [[rng.standard_normal(d.shape) for d in data]]
        tensors = [Tensor(d.copy()) for d in data]
        store = ParamStore(tensors)
        for tensor, g in zip(tensors, grads[0]):
            tensor.grad = g
        optimizer = GatedSGD(store, lr=0.1)
        try:
            optimizer.hand_off(Holder(tensors[:1]))
            assert holding.wait(10)
            got = layer.forward(x)
            assert not gate.is_set() and not tensornet._POOL._calls  # withdrawn
        finally:
            gate.set()
            optimizer.step()
        assert posts == [1, 1, 1] and got.tobytes() == want.tobytes()
        assert [t.data.tobytes() for t in tensors] == [
            w.tobytes() for w in reference_sgd(data, grads, 0.1)
        ]

    def test_join_leaves_no_pool_thread_running_a_piece(self, monkeypatch):
        # join alone, as after a backward that failed past a hand-off, while
        # a pool thread is mid-drain: the caller drains the rest beside it,
        # and once join returns no update runs or starts.
        monkeypatch.setattr(tensornet, "SWEEP_BLOCK", 16)
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: 2)

        class SlowSGD(SGD):
            def _next_update(self):
                update = super()._next_update()

                def slow(*args):
                    time.sleep(0.001)
                    update(*args)

                return slow

        rng = np.random.default_rng(5)
        data = [rng.standard_normal(n) for n in (900, 700, 50)]
        grads = [[rng.standard_normal(d.shape) for d in data]]
        tensors = [Tensor(d.copy()) for d in data]
        store = ParamStore(tensors)
        for tensor, g in zip(tensors, grads[0]):
            tensor.grad = g
        optimizer = SlowSGD(store, lr=0.1)
        counts = track_updates(optimizer)
        optimizer.hand_off(Holder(tensors[:2]))
        optimizer.join()
        assert_no_update_left(counts)
        assert counts[1] == (900 + 700) // 16 and optimizer._work is None
        want = reference_sgd(data[:2], [grads[0][:2]], 0.1) + [data[2]]
        assert [t.data.tobytes() for t in tensors] == [w.tobytes() for w in want]


class TestArena:
    """Every parameter, whatever its size, is born in the flat arrays of its
    store; sweeping their runs gives the unblocked formulas' bytes."""

    STEPS = 3

    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        data = [
            rng.standard_normal(SWEEP_BLOCK - 1),
            rng.standard_normal(SWEEP_BLOCK),
            rng.standard_normal((3, 4)),
            rng.standard_normal(5),  # no gradient after the first step: two runs
            rng.standard_normal((2, 2, 3)),
            rng.standard_normal(2 * SWEEP_BLOCK + 3),  # ragged tail
            rng.standard_normal(1),
        ]
        grads = [[rng.standard_normal(d.shape) for d in data] for _ in range(self.STEPS)]
        for step_grads in grads[1:]:
            step_grads[3] = None
        return data, grads

    def _run(self, monkeypatch, workers, optimizer_cls, data, grads, **kwargs):
        monkeypatch.setattr(tensornet, "sweep_workers", lambda blocks: workers)
        tensors = [Tensor(d.copy()) for d in data]
        optimizer = optimizer_cls(ParamStore(tensors), **kwargs)
        for step_grads in grads:
            for tensor, g in zip(tensors, step_grads):
                tensor.grad = None if g is None else g.copy()
            optimizer.step()
        return tensors, optimizer

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_adam_matches_reference_bytes(self, monkeypatch, workers):
        data, grads = self._problem()
        tensors, optimizer = self._run(monkeypatch, workers, Adam, data, grads, lr=0.01)
        want = reference_adam(data, grads, 0.01, (0.9, 0.999), 1e-8, moments=True)
        ranges = optimizer.store.ranges
        m, v = ([state[span] for span in ranges] for state in optimizer._states)
        got = [t.data for t in tensors], m, v
        for got_arrays, want_arrays in zip(got, want):
            assert [a.tobytes() for a in got_arrays] == [a.tobytes() for a in want_arrays]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sgd_matches_reference_bytes(self, monkeypatch, workers):
        data, grads = self._problem(seed=1)
        tensors, _ = self._run(monkeypatch, workers, SGD, data, grads, lr=0.1)
        want = reference_sgd(data, grads, 0.1)
        assert [t.data.tobytes() for t in tensors] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("optimizer_cls, states", [(SGD, 0), (Adam, 2)])
    def test_every_parameter_is_a_view_of_the_flat_arrays(self, optimizer_cls, states):
        data, grads = self._problem()
        tensors = [Tensor(d.copy()) for d in data]
        store = ParamStore(tensors)
        for tensor, g in zip(tensors, grads[0]):
            tensor.grad = g
        optimizer = optimizer_cls(store, lr=0.1)
        ends = np.cumsum([0] + [d.size for d in data])
        assert store.ranges == [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        arrays = [store.values, store.grads, *optimizer._states]
        assert len(arrays) == 2 + states
        assert all(a.shape == (ends[-1],) and a.base is None for a in arrays)
        for tensor, span, d, g in zip(tensors, store.ranges, data, grads[0]):
            assert tensor.data.base is store.values and tensor.grad.base is store.grads
            assert np.shares_memory(tensor.data, store.values[span])
            assert np.shares_memory(tensor.grad, store.grads[span])
            assert store.values[span].tobytes() == d.tobytes()
            assert store.grads[span].tobytes() == g.tobytes()

    def test_construction_frees_the_original_arrays(self):
        # No second copy of the values outlives birth: the store drops each
        # tensor's initial array once it is written in.
        rng = np.random.default_rng(5)
        sizes = (SWEEP_BLOCK - 1, SWEEP_BLOCK, 2 * SWEEP_BLOCK + 3)
        arrays = [rng.standard_normal(n) for n in sizes]
        originals = [weakref.ref(a) for a in arrays]
        tensors = [Tensor(a) for a in arrays]
        del arrays
        assert all(ref() is not None for ref in originals)  # held until birth
        ParamStore(tensors)
        assert [ref() for ref in originals] == [None] * len(originals)

    def test_construction_keeps_values_and_gradients(self):
        # Birth writes each initial value C-ordered into the store; building
        # an optimizer then leaves every value and gradient as it was.
        rng = np.random.default_rng(3)
        values = [
            np.asfortranarray(rng.standard_normal((3, 4))),
            rng.standard_normal((2, 1, 3)),
            rng.standard_normal(2),
            rng.standard_normal(SWEEP_BLOCK - 1),
            rng.standard_normal(SWEEP_BLOCK),
        ]
        tensors = fresh, stale, bare, edge, big = [Tensor(v) for v in values]
        store = ParamStore(tensors)
        for tensor, want in zip(tensors, values):
            assert tensor.shape == want.shape and tensor.data.flags.c_contiguous
            np.testing.assert_array_equal(tensor.data, want)
            assert tensor.data.base is store.values and tensor._grad.base is store.grads
            assert tensor.grad is None
        grads = {fresh: rng.standard_normal((3, 4)), edge: rng.standard_normal(SWEEP_BLOCK - 1)}
        grads[big] = rng.standard_normal(SWEEP_BLOCK)
        for tensor, grad in grads.items():
            tensor.grad = grad
        stale.grad = np.ones((2, 1, 3))
        stale.zero_grad()

        Adam(store, lr=1e-3)
        for tensor, want in zip(tensors, values):
            np.testing.assert_array_equal(tensor.data, want)
            assert tensor.data.base is store.values
        for tensor, grad in grads.items():
            np.testing.assert_array_equal(tensor.grad, grad)
        assert stale._stale and stale._grad.base is store.grads
        stale.add_grad(np.full((2, 1, 3), 2.0))  # written, not added to the old ones
        np.testing.assert_array_equal(stale.grad, np.full((2, 1, 3), 2.0))
        assert bare.grad is None
        bare.zero_grad()
        assert bare.grad.base is store.grads

    def test_grad_assignment_copies_into_the_arena(self):
        w = Tensor(np.zeros((2, 3)))
        store = ParamStore([w])
        optimizer = SGD(store, lr=1.0)
        value = np.arange(6.0).reshape(2, 3)
        w.grad = value
        assert w.grad is not value and w.grad.base is store.grads
        value[...] = 0.0
        optimizer.step()
        np.testing.assert_array_equal(w.data, -np.arange(6.0).reshape(2, 3))
        w.grad = None
        optimizer.step()  # no gradient: skipped
        np.testing.assert_array_equal(w.data, -np.arange(6.0).reshape(2, 3))

    def test_grad_assignment_copies_for_a_large_parameter(self):
        # A layer's weight: a later backward writes into the gradient buffer,
        # which must not be the caller's.
        rng = np.random.default_rng(4)
        layer = Linear(256, 128, rng, bias=False).materialize()
        assert layer.weight.data.size >= SWEEP_BLOCK
        optimizer = Adam(layer.store, lr=1e-3)
        value = np.ones((128, 256))
        layer.weight.grad = value
        assert layer.weight.grad is not value
        optimizer.step()
        optimizer.zero_grad()
        layer.forward(np.ones((2, 256)))
        layer.backward(np.ones((2, 128)))
        np.testing.assert_array_equal(value, np.ones((128, 256)))

    def test_grad_assignment_of_another_shape_raises(self):
        w, big = Tensor(np.zeros(3), "w"), Tensor(np.zeros(SWEEP_BLOCK), "big")
        SGD(ParamStore([w, big]), lr=0.1)
        for tensor in (w, big):
            with pytest.raises(DimensionError, match=repr(tensor.name)):
                tensor.grad = np.zeros(tensor.data.size + 1)
            assert tensor.grad is None

    @pytest.mark.parametrize("optimizer_cls", [SGD, Adam])
    def test_repeated_parameter_raises(self, optimizer_cls):
        w, v = Tensor(np.ones(3), "w"), Tensor(np.ones(SWEEP_BLOCK), "v")
        for params, name in (([w, w], "'w'"), ([w, v, w], "'w'"), ([v, v], "'v'")):
            with pytest.raises(ValueError, match=name):
                optimizer_cls(ParamStore(params), lr=0.1)
        assert w.data is None and v.data is None  # raised before bearing anything
        optimizer_cls(ParamStore([w, v]), lr=0.1)

    def test_tensor_is_born_in_one_store(self):
        w = Tensor(np.ones(3), "w")
        big = Tensor(np.ones(SWEEP_BLOCK), "big")
        store = ParamStore([big, w])
        other = Tensor(np.ones(2), "other")
        with pytest.raises(ValueError, match="'w' is already in a store"):
            ParamStore([other, w])
        assert other.data is None  # raised before bearing anything
        w.grad = np.ones(3)
        SGD(store, lr=0.5).step()
        np.testing.assert_array_equal(w.data, np.full(3, 0.5))
        assert w.data.base is store.values

    def test_rebound_data_raises(self):
        w = Tensor(np.ones(3), "w")
        optimizer = Adam(ParamStore([w]), lr=1e-3)
        w.data = np.zeros(3)
        w.grad = np.ones(3)
        with pytest.raises(RuntimeError, match="'w'"):
            optimizer.step()
        np.testing.assert_array_equal(w.data, np.zeros(3))


@pytest.mark.parametrize(
    "cores, blocks, want",
    [
        (1, 0, 1),
        (1, 10_000, 1),
        (2, 0, 1),
        (2, 2 * SWEEP_MIN_BLOCKS - 1, 1),
        (2, 2 * SWEEP_MIN_BLOCKS, 2),
        (2, 10_000, 2),
        (4, 3 * SWEEP_MIN_BLOCKS + 1, 3),
        (4, 1_790, 4),
    ],
)
def test_sweep_workers_follow_affinity_and_blocks(monkeypatch, cores, blocks, want):
    before = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert sweep_workers(blocks) == want
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert sweep_workers(blocks) == want
    assert all(1 <= sweep_workers(n) <= cores for n in range(0, 40 * SWEEP_MIN_BLOCKS, 3))
    assert sweep_workers(2, 1) == min(cores, 2)  # two pieces of a split product
    assert threading.active_count() == before


class TestInitialization:
    def test_he_uniform_bound_and_determinism(self):
        fan_in = 24
        bound = math.sqrt(6.0 / fan_in)
        a, b = (
            Linear(fan_in, 100, np.random.default_rng(7), bias=False).materialize().weight.data
            for _ in range(2)
        )
        assert np.abs(a).max() <= bound
        np.testing.assert_array_equal(a, b)

    def test_in_place_draws_match_one_uniform_call_per_weight(self):
        # Linear then Conv2d on one generator, born together: each weight has
        # the bytes of its own rng.uniform call, the biases are zero, and the
        # generator is left where those calls leave it.
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        linear = Linear(300, 200, rng)
        conv = Conv2d(7, 5, (3, 2), (1, 1), (0, 0), rng)
        Sequential([linear, conv]).materialize()
        want_linear = he_uniform(oracle, (200, 300), 300)
        want_conv = he_uniform(oracle, (5, 7, 3, 2), 7 * 3 * 2)
        assert linear.weight.data.tobytes() == want_linear.tobytes()
        assert conv.weight.data.tobytes() == want_conv.tobytes()
        assert not linear.bias.data.any() and not conv.bias.data.any()
        assert rng.random() == oracle.random()


class TestSplitFill:
    """A He draw of at least ``FILL_SPLIT_MIN`` elements on a PCG64
    generator is cut into one range per worker, each drawn from an advanced
    copy; the bytes and the generator state stay those of one
    ``rng.uniform`` call, wherever the ranges run."""

    @staticmethod
    def _buffered(bits):
        """A generator over ``bits`` that has drawn one 32-bit integer:
        PCG64 holds the other half of its 64-bit output in a buffer."""
        rng = np.random.Generator(bits)
        rng.integers(0, 2**32, dtype=np.uint32)
        return rng

    @staticmethod
    def _draw(rng):
        """A 32-bit and a float64 draw: the buffered half, then fresh output."""
        return rng.integers(0, 2**32, dtype=np.uint32), rng.random()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ranges_give_one_uniform_call(self, monkeypatch, workers):
        calls = []
        monkeypatch.setattr(
            tensornet, "sweep_workers", lambda *args: calls.append(args) or workers
        )
        posts = count_posts(monkeypatch)
        rng, oracle = (self._buffered(np.random.PCG64(17)) for _ in range(2))
        assert rng.bit_generator.state["has_uint32"] == 1
        layer = Linear(4100, 2050, rng, bias=False)  # a ragged last block
        assert 4100 * 2050 >= tensornet.FILL_SPLIT_MIN and 4100 * 2050 % SWEEP_BLOCK
        layer.materialize()
        want = he_uniform(oracle, (2050, 4100), 4100)
        assert layer.weight.data.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert calls[0] == (-(-4100 * 2050 // SWEEP_BLOCK),)
        assert posts == ([workers - 1] if workers > 1 else [])
        assert self._draw(rng) == self._draw(oracle)

    def test_other_bit_generators_fill_as_one_range(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: calls.append(args) or 2)
        posts = count_posts(monkeypatch)
        rng, oracle = (self._buffered(np.random.MT19937(17)) for _ in range(2))
        layer = Linear(4100, 2050, rng, bias=False).materialize()
        want = he_uniform(oracle, (2050, 4100), 4100)
        assert layer.weight.data.tobytes() == want.tobytes()
        assert self._draw(rng) == self._draw(oracle)
        assert calls == [] and posts == []

    def test_scaled_model_build_posts_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensornet, "sweep_workers", lambda *args: calls.append(args) or 2)
        posts = count_posts(monkeypatch)
        model = small_world(questions=4, seed=8)[-1]
        assert max(p.data.size for p in model.store.params) < tensornet.FILL_SPLIT_MIN
        assert calls == [] and posts == []


class TestManifest:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "layer.weight": rng.standard_normal((3, 4)),
            "layer.bias": rng.standard_normal(3),
        }
        meta = {"kind": "test", "seed": 7}
        path = tmp_path / "ckpt.json"
        write_manifest(path, meta, arrays)
        loaded_meta, loaded = read_manifest(path)
        assert loaded_meta == meta
        for name, value in arrays.items():
            np.testing.assert_array_equal(loaded[name], value)

    def test_write_is_deterministic(self, tmp_path):
        arrays = {"w": np.ones((2, 2)) / 3.0}
        write_manifest(tmp_path / "a.json", {"k": 1}, arrays)
        write_manifest(tmp_path / "b.json", {"k": 1}, arrays)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
