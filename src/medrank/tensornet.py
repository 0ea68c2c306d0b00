"""Minimal dense-tensor neural network core with reverse-mode gradients.

Everything is float64 numpy. Layers cache forward activations on an internal
stack when gradients are enabled, so several forward passes may be issued
before the matching backward passes, which must then run in reverse order
(last forward, first backward). Call ``eval()``/``enable_grad(False)`` for
inference so no caches accumulate.

Included: linear, ReLU, batch normalization (1d over a batch, 2d over the
spatial positions of each feature map), 2-D convolution (cross-correlation
convention; im2col matmul forward, col2im scatter backward), quadrant
average pooling, the sigmoid function, binary cross-entropy on logits,
SGD/Adam, and a JSON checkpoint manifest.

The convolutional layers (``Conv2d``, ``BatchNorm2d``, ``ReLU``,
``QuadrantPool``) take a stack of same-shape maps, (B, C, H, W), and treat
each map independently, so one call serves every map of one shape.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, SchemaError


class Tensor:
    """A dense value with an optional same-shape gradient buffer.

    ``data`` is C-ordered, so the optimizers can update it through flat views.
    """

    def __init__(self, data, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        """Zero the gradient buffer in place; allocate it only when missing."""
        if self.grad is None or self.grad.shape != self.data.shape:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def add_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.zero_grad()
        self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.shape})"


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-style uniform init with bound sqrt(6 / fan_in)."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def conv_out_dim(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise DimensionError(
            f"convolution output dimension {out} for input {size} "
            f"(k={kernel}, s={stride}, p={padding})"
        )
    return out


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


class Module:
    """Base class: training / gradient flags and parameter traversal."""

    def __init__(self):
        self.training = True
        self.grad_enabled = True
        self._ctx: list = []

    def children(self) -> list[tuple[str, "Module"]]:
        return []

    def modules(self) -> Iterable["Module"]:
        yield self
        for _, child in self.children():
            yield from child.modules()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def enable_grad(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.grad_enabled = mode
            if not mode:
                module._ctx.clear()
        return self

    def _local_params(self) -> list[tuple[str, Tensor]]:
        return []

    def _local_buffers(self) -> list[str]:
        return []

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = list(self._local_params())
        for name, child in self.children():
            out.extend((f"{name}.{k}", t) for k, t in child.named_params())
        return out

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        out = [(k, getattr(self, k)) for k in self._local_buffers()]
        for name, child in self.children():
            out.extend((f"{name}.{k}", v) for k, v in child.named_buffers())
        return out

    def zero_grad(self) -> None:
        for tensor in self.params():
            tensor.zero_grad()

    def _push(self, ctx) -> None:
        if self.grad_enabled:
            self._ctx.append(ctx)

    def _pop(self):
        if not self._ctx:
            raise RuntimeError(
                f"{type(self).__name__}.backward without a cached forward "
                "(was grad_enabled off?)"
            )
        return self._ctx.pop()

    def clear_cache(self) -> None:
        for module in self.modules():
            module._ctx.clear()


class Linear(Module):
    """Affine layer y = x @ W.T + b over a batch of row vectors.

    Pass bias=False when the layer feeds a batchnorm, which would cancel the
    bias anyway.
    """

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True
    ):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(he_uniform(rng, (out_dim, in_dim), in_dim), "weight")
        self.bias = Tensor(np.zeros(out_dim), "bias") if bias else None

    def _local_params(self):
        params = [("weight", self.weight)]
        if self.bias is not None:
            params.append(("bias", self.bias))
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"linear expects (B, {self.in_dim}), got {x.shape}"
            )
        self._push(x)
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._pop()
        self.weight.add_grad(grad_out.T @ x)
        if self.bias is not None:
            self.bias.add_grad(grad_out.sum(axis=0))
        return grad_out @ self.weight.data


class ReLU(Module):
    """Elementwise max(x, 0) on an input of any shape."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._push(x > 0)
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._pop()
        return grad_out * mask


class _BatchNormBase(Module):
    """Batchnorm over the axes ``_axes`` of the input, per channel.

    In train mode each slice over ``_axes`` is normalized by its own
    statistics, and each slice's statistics fold into the running buffers in
    slice order (an exponential moving average with the unbiased variance).
    ``deferred_stats``, when a list, collects those per-slice updates instead
    of applying them, so a caller that runs slices out of order can apply
    them in its own order with ``track``.
    """

    # Axes each statistic reduces over; axes the parameter gradients sum over.
    _axes: tuple[int, ...] = (0,)
    _param_axes: tuple[int, ...] = (0,)

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels), "gamma")
        self.beta = Tensor(np.zeros(channels), "beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.deferred_stats: list | None = None

    def _local_params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def _local_buffers(self):
        return ["running_mean", "running_var"]

    def _channel(self, vector: np.ndarray) -> np.ndarray:
        """A per-channel vector shaped to broadcast against the input."""
        return vector

    def track(self, mean_steps: np.ndarray, var_steps: np.ndarray) -> None:
        """Fold (k, C) rows of momentum-scaled statistics in, row by row."""
        keep = 1.0 - self.momentum
        for mean_step, var_step in zip(mean_steps, var_steps):
            self.running_mean = keep * self.running_mean + mean_step
            self.running_var = keep * self.running_var + var_step

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise DimensionError(
                f"batchnorm expects {self.channels} channels, got {x.shape[1]}"
            )
        gamma, beta = self._channel(self.gamma.data), self._channel(self.beta.data)
        if not self.training:
            inv_std = self._channel(1.0 / np.sqrt(self.running_var + self.eps))
            xhat = (x - self._channel(self.running_mean)) * inv_std
            self._push((xhat, inv_std, False))
            return gamma * xhat + beta
        count = math.prod(x.shape[a] for a in self._axes)
        if count < 2:
            raise DimensionError("batch normalization needs batch size >= 2 in train mode")
        # The sums np.mean and np.var take, without their call overhead.
        mean = x.sum(axis=self._axes, keepdims=True) / count
        centered = x - mean
        var = (centered * centered).sum(axis=self._axes, keepdims=True) / count
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = centered * inv_std
        # Running stats track the unbiased variance.
        steps = (
            self.momentum * mean.reshape(-1, self.channels),
            self.momentum * var.reshape(-1, self.channels) * count / (count - 1),
        )
        if self.deferred_stats is None:
            self.track(*steps)
        else:
            self.deferred_stats.append(steps)
        self._push((xhat, inv_std, True))
        return gamma * xhat + beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std, batch_stats = self._pop()
        self.gamma.add_grad((grad_out * xhat).sum(axis=self._param_axes))
        self.beta.add_grad(grad_out.sum(axis=self._param_axes))
        gx = grad_out * self._channel(self.gamma.data)
        if not batch_stats:
            return gx * inv_std
        count = math.prod(grad_out.shape[a] for a in self._axes)
        return (inv_std / count) * (
            count * gx
            - gx.sum(axis=self._axes, keepdims=True)
            - xhat * (gx * xhat).sum(axis=self._axes, keepdims=True)
        )


class BatchNorm1d(_BatchNormBase):
    """Normalizes each feature over the batch axis of a (B, F) input."""


class BatchNorm2d(_BatchNormBase):
    """Normalizes each channel of each map in a (B, C, H, W) stack over its
    own H x W positions; in train mode every map has its own statistics."""

    _axes = (2, 3)
    _param_axes = (0, 2, 3)

    def _channel(self, vector: np.ndarray) -> np.ndarray:
        return vector[:, None, None]


# Input shapes whose im2col tap index a Conv2d keeps (see Conv2d._tap_index).
TAP_INDEX_CACHE = 64


class Conv2d(Module):
    """2-D convolution (cross-correlation) on a (B, C, H, W) stack of maps.

    Forward gathers the (B, C*kh*kw, L) im2col stack of the zero-padded maps
    with one fancy index through the per-(h, w) tap index, then multiplies
    the flattened weight with each map's matrix in one stacked matmul, so
    every map's output is what a forward of that map alone gives. Backward
    gathers the im2col stack again, takes the weight gradient as one matmul
    over all B*L columns, and scatters the input gradient back with one
    col2im ``np.bincount`` (Chellapilla et al. 2006).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int],
        stride: tuple[int, int] = (1, 1),
        padding: tuple[int, int] = (0, 0),
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ):
        super().__init__()
        if min(kernel) < 1 or min(stride) < 1 or min(padding) < 0:
            raise DimensionError("kernel/stride must be >= 1 and padding >= 0")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = in_channels * kernel[0] * kernel[1]
        self.weight = Tensor(
            he_uniform(rng, (out_channels, in_channels, kernel[0], kernel[1]), fan_in),
            "weight",
        )
        self.bias = Tensor(np.zeros(out_channels), "bias") if bias else None
        self._tap_indices: dict[tuple[int, int], np.ndarray] = {}

    def _local_params(self):
        params = [("weight", self.weight)]
        if self.bias is not None:
            params.append(("bias", self.bias))
        return params

    def out_shape(self, h: int, w: int) -> tuple[int, int]:
        return (
            conv_out_dim(h, self.kernel[0], self.stride[0], self.padding[0]),
            conv_out_dim(w, self.kernel[1], self.stride[1], self.padding[1]),
        )

    def _tap_index(self, h: int, w: int) -> np.ndarray:
        """Flat positions in one padded (Hp, Wp) map read by the kernel.

        Row ``i * kw + j`` holds, for every output position in row-major
        order, the position kernel tap (i, j) reads, so gathering it from
        each channel plane yields the im2col matrix. The index depends only
        on the input's (h, w), not on the channel or map count, and is cached
        per shape (at most ``TAP_INDEX_CACHE`` shapes, oldest dropped first).
        """
        index = self._tap_indices.get((h, w))
        if index is None:
            kh, kw = self.kernel
            sh, sw = self.stride
            out_h, out_w = self.out_shape(h, w)
            wp = w + 2 * self.padding[1]
            taps = np.arange(kh)[:, None] * wp + np.arange(kw)
            outputs = np.arange(out_h)[:, None] * (sh * wp) + np.arange(out_w) * sw
            index = taps.reshape(-1, 1) + outputs.reshape(1, -1)
            if len(self._tap_indices) >= TAP_INDEX_CACHE:
                del self._tap_indices[next(iter(self._tap_indices))]
            self._tap_indices[(h, w)] = index
        return index

    def _cols(self, padded: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The (B, C*kh*kw, L) im2col stack of a padded (B, C, Hp, Wp) stack."""
        b, c = padded.shape[:2]
        return padded.reshape(b, c, -1)[:, :, index].reshape(b, c * index.shape[0], -1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv2d expects (B, {self.in_channels}, H, W), got {x.shape}"
            )
        b, c, h, w = x.shape
        out_h, out_w = self.out_shape(h, w)
        ph, pw = self.padding
        padded = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
        padded[:, :, ph : ph + h, pw : pw + w] = x
        cols = self._cols(padded, self._tap_index(h, w))
        y = self.weight.data.reshape(self.out_channels, -1) @ cols
        if self.bias is not None:
            y += self.bias.data[:, None]
        # The im2col stack is kh*kw times the maps; backward gathers it again.
        self._push(padded)
        return y.reshape(b, self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        padded = self._pop()
        b, c, hp, wp = padded.shape
        ph, pw = self.padding
        index = self._tap_index(hp - 2 * ph, wp - 2 * pw)
        g = grad_out.reshape(b, self.out_channels, -1)
        weight = self.weight.data.reshape(self.out_channels, -1)
        if self.bias is not None:
            self.bias.add_grad(g.sum(axis=(0, 2)))
        cols = self._cols(padded, index)
        self.weight.add_grad(
            (
                g.transpose(1, 0, 2).reshape(self.out_channels, -1)
                @ cols.transpose(0, 2, 1).reshape(-1, weight.shape[1])
            ).reshape(self.weight.shape)
        )
        # col2im: each im2col entry's gradient adds onto the padded position
        # it was read from, channel plane by channel plane of each map.
        plane = hp * wp
        positions = (index + (np.arange(b * c) * plane)[:, None, None]).reshape(-1)
        dpadded = np.bincount(
            positions, weights=(weight.T @ g).reshape(-1), minlength=padded.size
        ).reshape(padded.shape)
        return dpadded[:, :, ph : hp - ph, pw : wp - pw]


class QuadrantPool(Module):
    """Averages the four (possibly overlapping) quadrants of each map in a
    (B, C, H, W) stack.

    Rows split into [0, ceil(H/2)) and [floor(H/2), H); columns likewise. For
    odd dimensions the halves overlap by one row/column, and for size one
    they coincide, so every quadrant is non-empty for any H, W >= 1. Output
    is (B, 4C), each row channel-major with quadrant order TL, TR, BL, BR:
    entry c*4 + q.
    """

    @staticmethod
    def _quadrants(h: int, w: int) -> list[tuple[slice, slice, int]]:
        """(rows, cols, cell count) of the TL, TR, BL, BR quadrants."""
        row_halves = slice(0, -(-h // 2)), slice(h // 2, h)
        col_halves = slice(0, -(-w // 2)), slice(w // 2, w)
        return [
            (rows, cols, (rows.stop - rows.start) * (cols.stop - cols.start))
            for rows in row_halves
            for cols in col_halves
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        quads = self._quadrants(h, w)
        means = np.stack(
            [x[:, :, rows, cols].sum(axis=(2, 3)) / size for rows, cols, size in quads],
            axis=2,
        )
        self._push((x.shape, quads))
        return means.reshape(b, 4 * c)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape, quads = self._pop()
        grads = grad_out.reshape(shape[0], shape[1], 4)
        dx = np.zeros(shape)
        for q, (rows, cols, size) in enumerate(quads):
            dx[:, :, rows, cols] += grads[:, :, q, None, None] / size
        return dx


class Sequential(Module):
    """Chains layers; backward runs in reverse."""

    def __init__(self, layers: Sequence[Module], names: Sequence[str] | None = None):
        super().__init__()
        self.layers = list(layers)
        self.names = list(names) if names is not None else [
            str(i) for i in range(len(self.layers))
        ]
        if len(self.names) != len(self.layers):
            raise DimensionError("names and layers lengths differ")

    def children(self):
        return list(zip(self.names, self.layers))

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


# ---------------------------------------------------------------------------
# Functional pieces
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def logit_bce(logits, targets) -> tuple[float, np.ndarray]:
    """Summed binary cross-entropy of sigmoid(logits) against the targets, and
    its gradient with respect to the logits.

    The loss is softplus(z) - t z, which equals -(t ln p + (1-t) ln(1-p)) at
    p = sigmoid(z), and the gradient is sigmoid(z) - t, so both stay finite
    and a saturated wrong logit still gets a gradient of full size.
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if z.shape != t.shape:
        raise DimensionError(f"bce shapes differ: {z.shape} vs {t.shape}")
    # softplus(z) = max(z, 0) + log(1 + e^-|z|); unlike np.logaddexp it passes
    # a NaN logit through without a warning, for the trainer to report.
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float((softplus - t * z).sum()), sigmoid(z) - t


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


# Float64 elements per block of the optimizers' in-place sweep (256 KB). A
# block's parameter, gradient, state and scratch slices stay in cache while
# every operation of the update runs over them; 16K-32K elements is the
# measured plateau (4K pays per-call overhead, 1M spills to memory).
SWEEP_BLOCK = 32768


class _Optimizer:
    """Parameter list, ``zero_grad`` and the blocked in-place update sweep.

    ``step`` visits each parameter that has a gradient in flat blocks of at
    most ``SWEEP_BLOCK`` elements and updates the parameter and its state in
    place through two reused scratch blocks, so a step allocates nothing the
    size of a weight. Every element goes through the same operations in the
    same order as the unblocked formula, so results are bit-identical.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        size = min(SWEEP_BLOCK, max((p.data.size for p in self.params), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _sweep(self, p: Tensor, states: Sequence[np.ndarray], update: Callable) -> None:
        """Call ``update(param, grad, states, a, b)`` on each flat block of ``p``.

        ``a`` and ``b`` are free scratch blocks. ``states`` are C-ordered
        arrays shaped like ``p.data``.
        """
        flat = p.data.reshape(-1)
        grad = np.ascontiguousarray(p.grad, dtype=np.float64).reshape(-1)
        flat_states = [s.reshape(-1) for s in states]
        scratch_a, scratch_b = self._scratch
        for start in range(0, flat.size, SWEEP_BLOCK):
            block = slice(start, start + SWEEP_BLOCK)
            pb = flat[block]
            a, b = scratch_a[: pb.size], scratch_b[: pb.size]
            update(pb, grad[block], [s[block] for s in flat_states], a, b)


class SGD(_Optimizer):
    """Plain gradient descent: p -= lr g."""

    def step(self) -> None:
        lr = self.lr

        def update(p, g, states, a, b):
            np.multiply(g, lr, out=b)
            p -= b

        for p in self.params:
            if p.grad is not None:
                self._sweep(p, [], update)


class Adam(_Optimizer):
    """Adam with bias correction; defaults lr=1e-3, betas=(0.9, 0.999).

    Per element: m = b1 m + (1-b1) g, v = b2 v + (1-b2) g^2, then
    p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps) (Kingma & Ba,
    arXiv:1412.6980, Alg. 1).
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self._m = [np.zeros(p.data.shape) for p in self.params]
        self._v = [np.zeros(p.data.shape) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        lr, eps = self.lr, self.eps
        b1, b2 = self.betas
        bc1, bc2 = 1.0 - b1**self._t, 1.0 - b2**self._t

        def update(p, g, states, a, b):
            m, v = states
            m *= b1
            np.multiply(g, 1.0 - b1, out=b)
            m += b
            v *= b2
            np.multiply(g, 1.0 - b2, out=b)
            b *= g
            v += b
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, bc1, out=b)
            b *= lr
            b /= a
            p -= b

        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is not None:
                self._sweep(p, [m, v], update)


# ---------------------------------------------------------------------------
# Checkpoint manifest
# ---------------------------------------------------------------------------


def write_manifest(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Persist named arrays plus metadata as a single sorted-key JSON file."""
    payload = {
        "meta": meta,
        "arrays": {
            name: {"shape": list(a.shape), "data": np.asarray(a).ravel().tolist()}
            for name, a in arrays.items()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def read_manifest(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if "meta" not in payload or "arrays" not in payload:
        raise SchemaError(f"{path}: not a checkpoint manifest")
    arrays = {
        name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["arrays"].items()
    }
    return payload["meta"], arrays
