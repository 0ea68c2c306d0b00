"""Minimal dense-tensor neural network core with reverse-mode gradients.

Everything is float64 numpy. Layers cache forward activations on an internal
stack when gradients are enabled, so several forward passes may be issued
before the matching backward passes, which must then run in reverse order
(last forward, first backward). Call ``eval()``/``enable_grad(False)`` for
inference so no caches accumulate.

Included: linear, ReLU, batch normalization (1d over a batch, 2d over the
spatial positions of each feature map), 2-D convolution (cross-correlation
convention; im2col matmul forward, col2im gather backward), quadrant
average pooling, the sigmoid function, binary cross-entropy on logits,
SGD/Adam, and a JSON checkpoint manifest.

The convolutional layers (``Conv2d``, ``BatchNorm2d``, ``ReLU``,
``QuadrantPool``) take ``Maps``: any number of maps of any sizes packed side
by side into one (C, P) array. Each map is treated independently, so one call
serves every map whatever its shape.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, SchemaError, read_json_object


class Tensor:
    """A dense value with an optional same-shape gradient buffer.

    ``data`` and the gradient are C-ordered float64, so the optimizers can
    update them through flat views. After ``zero_grad`` the buffer is stale:
    it reads as zeros, and the first gradient contribution is written into it
    rather than added, so no pass fills it with zeros first. Later
    contributions add.
    """

    def __init__(self, data, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self._grad: np.ndarray | None = None
        self._stale = False
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient buffer; a stale one is zero-filled on this read."""
        if self._stale:
            self._grad.fill(0.0)
            self._stale = False
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = None if value is None else np.asarray(value, np.float64, order="C")
        self._stale = False

    def zero_grad(self) -> None:
        """Mark the gradient buffer stale, without writing to it; allocate it
        only when missing."""
        if self._grad is None or self._grad.shape != self.data.shape:
            self._grad = np.empty_like(self.data)
        self._stale = True

    def _write_not_add(self, shape: tuple[int, ...], want: tuple[int, ...]) -> bool:
        """Whether a contribution of ``shape`` (which must be ``want``) is
        written, because the buffer is stale, rather than added; clears the
        stale mark."""
        if shape != want:
            raise DimensionError(
                f"gradient of shape {shape} for tensor {self.name!r} of shape {self.data.shape}"
            )
        if self._grad is None:
            self.zero_grad()
        stale, self._stale = self._stale, False
        return stale

    def add_grad(self, grad) -> None:
        """Add ``grad``, of exactly this tensor's shape, to the gradient."""
        if self._write_not_add(np.shape(grad), self.data.shape):
            np.copyto(self._grad, grad)
        else:
            self._grad += grad

    def add_matmul(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add ``a @ b``, the gradient flattened to (shape[0], rest), to the
        gradient. A stale buffer takes the product straight from the matmul,
        so the first contribution makes no product-sized temporary."""
        rows, cols = self.data.shape[0], math.prod(self.data.shape[1:])
        if self._write_not_add((a.shape[0], b.shape[1]), (rows, cols)):
            np.matmul(a, b, out=self._grad.reshape(rows, cols))
        else:
            self._grad += (a @ b).reshape(self.data.shape)

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


class Maps(np.lib.mixins.NDArrayOperatorsMixin):
    """Feature maps of one channel count and any sizes, packed side by side.

    ``data`` is (C, P): map k's H_k x W_k cells sit row-major in columns
    ``[start_k, start_k + H_k * W_k)``, the maps in order. ``shapes`` holds
    each map's (H, W) and ``sizes`` its cell count. Elementwise numpy
    functions and operators act on ``data`` and keep the geometry, so ``ReLU``
    takes a ``Maps`` as it takes an array.
    """

    __slots__ = ("data", "shapes", "sizes")

    def __init__(self, data: np.ndarray, shapes, sizes: np.ndarray | None = None):
        self.data = data
        self.shapes = tuple(shapes)
        self.sizes = (
            np.array([h * w for h, w in self.shapes], dtype=np.intp)
            if sizes is None
            else sizes
        )

    @classmethod
    def pack(cls, maps: Sequence[np.ndarray]) -> "Maps":
        """Pack a non-empty list of (C, H, W) maps."""
        data = np.concatenate([m.reshape(m.shape[0], -1) for m in maps], axis=1)
        return cls(data, [m.shape[1:] for m in maps])

    def like(self, data: np.ndarray) -> "Maps":
        """Same geometry, other data."""
        return Maps(data, self.shapes, self.sizes)

    def starts(self) -> np.ndarray:
        """First column of each map."""
        return np.cumsum(self.sizes) - self.sizes

    def unpack(self) -> list[np.ndarray]:
        """The (C, H, W) maps, in order."""
        ends = np.cumsum(self.sizes).tolist()
        return [
            self.data[:, end - h * w : end].reshape(-1, h, w)
            for end, (h, w) in zip(ends, self.shapes)
        ]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return self.like(ufunc(*(a.data if isinstance(a, Maps) else a for a in inputs)))


# Input shapes whose geometry a Conv2d or QuadrantPool keeps (see _shape_piece).
TAP_INDEX_CACHE = 64


def _shape_piece(cache: dict, h: int, w: int, build: Callable):
    """``build(h, w)``, kept in ``cache`` per (h, w); at most
    ``TAP_INDEX_CACHE`` shapes, the oldest dropped first."""
    piece = cache.get((h, w))
    if piece is None:
        piece = build(h, w)
        if len(cache) >= TAP_INDEX_CACHE:
            del cache[next(iter(cache))]
        cache[(h, w)] = piece
    return piece


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
        self.weight.add_matmul(grad_out.T, x)
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
    """Per-channel batchnorm parameters and running statistics.

    In train mode each batch (or map) is normalized by its own statistics,
    and each one's statistics fold into the running buffers in order (an
    exponential moving average with the unbiased variance).
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels), "gamma")
        self.beta = Tensor(np.zeros(channels), "beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def _local_params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def _local_buffers(self):
        return ["running_mean", "running_var"]

    def _check_channels(self, channels: int) -> None:
        if channels != self.channels:
            raise DimensionError(
                f"batchnorm expects {self.channels} channels, got {channels}"
            )

    def track(self, mean_steps: np.ndarray, var_steps: np.ndarray) -> None:
        """Fold (k, C) rows of momentum-scaled statistics in, in row order.

        Folding row by row, b = keep * b + row, leaves keep^k times the old
        buffer plus each row weighted by keep to the number of rows after it,
        which is what this computes in one pass.
        """
        keep = 1.0 - self.momentum
        weights = keep ** np.arange(len(mean_steps) - 1, -1, -1)
        decay = keep ** len(mean_steps)
        self.running_mean = decay * self.running_mean + weights @ mean_steps
        self.running_var = decay * self.running_var + weights @ var_steps


class BatchNorm1d(_BatchNormBase):
    """Normalizes each feature over the batch axis of a (B, F) input."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_channels(x.shape[1])
        gamma, beta = self.gamma.data, self.beta.data
        if not self.training:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean) * inv_std
            self._push((xhat, inv_std, False))
            return gamma * xhat + beta
        count = x.shape[0]
        if count < 2:
            raise DimensionError("batch normalization needs batch size >= 2 in train mode")
        # The sums np.mean and np.var take, without their call overhead.
        mean = x.sum(axis=0, keepdims=True) / count
        centered = x - mean
        var = (centered * centered).sum(axis=0, keepdims=True) / count
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = centered * inv_std
        # Running stats track the unbiased variance.
        self.track(self.momentum * mean, self.momentum * var * count / (count - 1))
        self._push((xhat, inv_std, True))
        return gamma * xhat + beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std, batch_stats = self._pop()
        self.gamma.add_grad((grad_out * xhat).sum(axis=0))
        self.beta.add_grad(grad_out.sum(axis=0))
        gx = grad_out * self.gamma.data
        if not batch_stats:
            return gx * inv_std
        count = grad_out.shape[0]
        return (inv_std / count) * (
            count * gx
            - gx.sum(axis=0, keepdims=True)
            - xhat * (gx * xhat).sum(axis=0, keepdims=True)
        )


class BatchNorm2d(_BatchNormBase):
    """Normalizes each channel of each map over the map's own cells.

    In train mode every map has its own statistics, taken per column segment
    of the packed maps with ``np.add.reduceat``, and they fold into the
    running buffers in map order.
    """

    def forward(self, maps: Maps) -> Maps:
        data = maps.data
        self._check_channels(data.shape[0])
        gamma, beta = self.gamma.data[:, None], self.beta.data[:, None]
        if not self.training:
            inv_std = (1.0 / np.sqrt(self.running_var + self.eps))[:, None]
            xhat = (data - self.running_mean[:, None]) * inv_std
            self._push((xhat, inv_std, None))
        else:
            counts = maps.sizes
            if (counts < 2).any():
                raise DimensionError(
                    "batch normalization needs maps of >= 2 cells in train mode"
                )
            starts = maps.starts()
            mean = np.add.reduceat(data, starts, axis=1) / counts
            centered = data - np.repeat(mean, counts, axis=1)
            var = np.add.reduceat(centered * centered, starts, axis=1) / counts
            inv_std = np.repeat(1.0 / np.sqrt(var + self.eps), counts, axis=1)
            xhat = centered * inv_std
            # Running stats track the unbiased variance.
            self.track(
                (self.momentum * mean).T, (self.momentum * var * counts / (counts - 1)).T
            )
            self._push((xhat, inv_std, (starts, counts)))
        return maps.like(gamma * xhat + beta)

    def backward(self, g: Maps) -> Maps:
        xhat, inv_std, segments = self._pop()
        gh = g.data * xhat
        self.gamma.add_grad(gh.sum(axis=1))
        self.beta.add_grad(g.data.sum(axis=1))
        gamma = self.gamma.data[:, None]
        gx = g.data * gamma
        if segments is None:
            dx = gx * inv_std
        else:
            starts, counts = segments
            means = np.stack(
                [
                    np.add.reduceat(gx, starts, axis=1),
                    np.add.reduceat(gh, starts, axis=1) * gamma,
                ]
            ) / counts
            mean_gx, mean_gxhat = np.repeat(means, counts, axis=2)
            dx = inv_std * (gx - mean_gx - xhat * mean_gxhat)
        return g.like(dx)


class _ConvPiece(NamedTuple):
    """Where a Conv2d reads one (h, w) input map: row ``i * kw + j`` of
    ``taps`` holds, for every output cell in row-major order, the map's flat
    cell that kernel tap (i, j) reads, or ``_PADDING`` where it reads the
    zero padding. ``reads`` is the inverse: per tap, the output cell that
    reads each input cell through it (one at most), or ``_PADDING``."""

    out_shape: tuple[int, int]
    taps: np.ndarray
    reads: np.ndarray


# An index past the end of any packed maps. Offsetting keeps it there, and
# Conv2d then clips it onto the zero column it appends after the input cells
# (forward) or after the output cells (backward).
_PADDING = np.iinfo(np.intp).max // 2


class Conv2d(Module):
    """2-D convolution (cross-correlation) over packed maps.

    Forward gathers the (C*kh*kw, L) im2col matrix of all L output cells of
    all maps with one ``np.take``, through per-shape tap indices offset to
    each map's columns, with every padding tap reading one appended zero
    column. One matmul with the flattened weight then gives every map's
    output as a forward of that map alone would. Backward gathers the
    im2col matrix again, takes the weight gradient as one matmul, and does
    col2im as one gather through the inverse tap indices followed by a sum
    over the taps (Chellapilla et al. 2006). The per-shape indices are
    cached for at most ``TAP_INDEX_CACHE`` shapes.
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
        self._tap_indices: dict[tuple[int, int], _ConvPiece] = {}

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

    def _piece(self, h: int, w: int) -> _ConvPiece:
        (kh, kw), (sh, sw), (ph, pw) = self.kernel, self.stride, self.padding
        out_h, out_w = self.out_shape(h, w)
        rows = np.arange(kh)[:, None] + np.arange(out_h) * sh - ph
        cols = np.arange(kw)[:, None] + np.arange(out_w) * sw - pw
        inside = ((rows >= 0) & (rows < h))[:, None, :, None] & (
            (cols >= 0) & (cols < w)
        )[None, :, None, :]
        taps = np.where(inside, rows[:, None, :, None] * w + cols[None, :, None, :], _PADDING)
        taps = taps.reshape(kh * kw, out_h * out_w)
        tap, out = np.nonzero(taps != _PADDING)
        reads = np.full((kh * kw, h * w), _PADDING)
        reads[tap, taps[tap, out]] = out
        return _ConvPiece((out_h, out_w), taps, reads)

    def forward(self, maps: Maps) -> Maps:
        c, p = maps.data.shape
        if c != self.in_channels:
            raise DimensionError(f"conv2d expects {self.in_channels} channels, got {c}")
        pieces = [_shape_piece(self._tap_indices, h, w, self._piece) for h, w in maps.shapes]
        out_sizes = np.array([piece.taps.shape[1] for piece in pieces], dtype=np.intp)
        taps = np.concatenate([piece.taps for piece in pieces], axis=1)
        taps += np.repeat(maps.starts(), out_sizes)
        np.minimum(taps, p, out=taps)
        # The maps plus one zero column, which every padding tap reads.
        cells = np.zeros((c, p + 1))
        cells[:, :p] = maps.data
        # np.take writes the gathered (C, kh*kw, L) block C-ordered, so the
        # reshape below is a view; a[:, taps] would need a copy.
        y = self.weight.data.reshape(self.out_channels, -1) @ np.take(
            cells, taps, axis=1
        ).reshape(-1, taps.shape[1])
        if self.bias is not None:
            y += self.bias.data[:, None]
        # The im2col matrix is kh*kw times the maps; backward gathers it again.
        self._push((cells, taps, pieces, maps.like(None)))
        return Maps(y, [piece.out_shape for piece in pieces], out_sizes)

    def backward(self, g: Maps) -> Maps:
        cells, taps, pieces, geometry = self._pop()
        if self.bias is not None:
            self.bias.add_grad(g.data.sum(axis=1))
        n_taps, n_out = taps.shape
        cols = np.take(cells, taps, axis=1).reshape(-1, n_out)
        self.weight.add_matmul(g.data, cols.T)
        # col2im as a gather: each input cell sums, tap by tap, the im2col
        # gradient of the one output cell that read it through that tap, or
        # of an appended zero output column where none did.
        g_ext = np.zeros((self.out_channels, n_out + 1))
        g_ext[:, :n_out] = g.data
        dcols = self.weight.data.reshape(self.out_channels, -1).T @ g_ext
        reads = np.concatenate([piece.reads for piece in pieces], axis=1)
        reads += np.repeat(g.starts(), geometry.sizes)
        np.minimum(reads, n_out, out=reads)
        reads += np.arange(n_taps)[:, None] * (n_out + 1)
        dx = np.take(dcols.reshape(cells.shape[0], -1), reads, axis=1).sum(axis=1)
        return geometry.like(dx)


class _PoolPiece(NamedTuple):
    """One (h, w) map's quadrants: ``cells`` holds the flat positions of the
    TL, TR, BL and BR quadrants' cells in turn, ``sizes`` their counts."""

    cells: np.ndarray
    sizes: np.ndarray


class QuadrantPool(Module):
    """Averages the four (possibly overlapping) quadrants of each map.

    Rows split into [0, ceil(H/2)) and [floor(H/2), H); columns likewise. For
    odd dimensions the halves overlap by one row/column, and for size one
    they coincide, so every quadrant is non-empty for any H, W >= 1. Output
    is (n, 4C) for n maps, each row channel-major with quadrant order TL, TR,
    BL, BR: entry c*4 + q. Forward gathers every quadrant's cells and sums
    them per quadrant with one ``np.add.reduceat``.
    """

    def __init__(self):
        super().__init__()
        self._pieces: dict[tuple[int, int], _PoolPiece] = {}

    @staticmethod
    def _piece(h: int, w: int) -> _PoolPiece:
        row_halves = np.arange(-(-h // 2)), np.arange(h // 2, h)
        col_halves = np.arange(-(-w // 2)), np.arange(w // 2, w)
        quads = [
            (rows[:, None] * w + cols).reshape(-1)
            for rows in row_halves
            for cols in col_halves
        ]
        return _PoolPiece(
            np.concatenate(quads), np.array([q.size for q in quads], dtype=np.intp)
        )

    def forward(self, maps: Maps) -> np.ndarray:
        c, n = maps.data.shape[0], len(maps.shapes)
        pieces = [_shape_piece(self._pieces, h, w, self._piece) for h, w in maps.shapes]
        sizes = np.concatenate([p.sizes for p in pieces])
        cells = np.concatenate([p.cells for p in pieces]) + np.repeat(
            maps.starts(), [p.cells.size for p in pieces]
        )
        sums = np.add.reduceat(
            np.take(maps.data, cells, axis=1), np.cumsum(sizes) - sizes, axis=1
        )
        means = sums / sizes
        self._push((cells, sizes, maps.like(None), maps.data.shape))
        return means.reshape(c, n, 4).transpose(1, 0, 2).reshape(n, 4 * c)

    def backward(self, grad_out: np.ndarray) -> Maps:
        cells, sizes, geometry, (c, p) = self._pop()
        grads = grad_out.reshape(len(sizes) // 4, c, 4).transpose(1, 0, 2).reshape(c, -1)
        values = np.repeat(grads / sizes, sizes, axis=1)
        positions = (cells + (np.arange(c) * p)[:, None]).reshape(-1)
        return geometry.like(
            np.bincount(positions, weights=values.reshape(-1), minlength=c * p).reshape(c, p)
        )


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
        grad = p.grad.reshape(-1)
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
    """The ``meta`` object and named arrays of a ``write_manifest`` file;
    anything else raises a ``SchemaError`` naming the file."""
    payload = read_json_object(path)
    meta, entries = payload.get("meta"), payload.get("arrays")
    if not isinstance(meta, dict) or not isinstance(entries, dict):
        raise SchemaError(f"{path}: not a checkpoint manifest")
    try:
        arrays = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in entries.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: unreadable array: {exc!r}") from exc
    return meta, arrays
