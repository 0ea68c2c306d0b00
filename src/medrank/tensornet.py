"""Minimal dense-tensor neural network core with reverse-mode gradients.

Everything is float64 numpy. Layers cache forward activations on an internal
stack when gradients are enabled, so several forward passes may be issued
before the matching backward passes, which must then run in reverse order
(last forward, first backward). Call ``eval()``/``enable_grad(False)`` for
inference so no caches accumulate.

Included: linear, ReLU, batch normalization (1d over a batch, 2d over the
spatial positions of each feature map), 2-D convolution (cross-correlation
convention; im2col matmul forward, an input-cell or col2im backward), quadrant
average pooling, the sigmoid function, binary cross-entropy on logits, one
flat store for every parameter, SGD/Adam over it, and a JSON checkpoint
manifest.

The convolutional layers (``Conv2d``, ``BatchNorm2d``, ``ReLU``,
``QuadrantPool``) take ``Maps``: any number of maps of any sizes packed side
by side into one (C, P) array. Each map is treated independently, so one call
serves every map whatever its shape.

One process-wide pool of worker threads, started the first time work is
shared, serves the optimizers' update sweep, the large ``Linear`` and
``Conv2d`` forward products and the large He draws. Work is cut into pieces
that depend on the shapes alone (a split conv product also pads its output
cells to a multiple of 8, on one core too; a split draw gives the one-range
bytes), and the calling thread and the free workers take them from one list,
so results are the same bytes whatever the number of cores.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import threading
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, MedrankError, SchemaError, read_json_object


class Tensor:
    """A parameter: a value and a same-shape gradient buffer, both views of
    the flat arrays of the ``ParamStore`` that bears it (``data`` is None
    until then). ``init`` is the initial value the store writes into
    ``data``: an array, a number broadcast over ``shape``, or a function
    that fills a C-ordered float64 array in place. Update ``data`` in place
    and never rebind it: an optimizer raises on ``step`` for a parameter
    whose ``data`` has left its store.

    A new tensor has no gradient (``grad`` is None). After ``zero_grad`` the
    buffer is stale: it reads as zeros, and the first gradient contribution
    is written into it rather than added, so no pass fills it with zeros
    first. Later contributions add. Setting ``grad`` copies a value of the
    tensor's shape into the buffer (another shape raises), never keeping the
    caller's array; ``None`` leaves the tensor without one.
    """

    def __init__(self, init, name: str = "", shape: tuple[int, ...] | None = None):
        if not callable(init):
            value = np.asarray(init, dtype=np.float64)
            shape = value.shape if shape is None else shape
            init = functools.partial(np.copyto, src=value)
        self._init: Callable[[np.ndarray], object] | None = init
        self.shape = tuple(shape)
        self.data: np.ndarray | None = None
        self._grad: np.ndarray | None = None  # the store's view, from birth on
        self._stale: bool | None = None  # None: no gradient; True: stale
        self.name = name

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient buffer; a stale one is zero-filled on this read."""
        if self._stale:
            self._grad.fill(0.0)
            self._stale = False
        return None if self._stale is None else self._grad

    @grad.setter
    def grad(self, value) -> None:
        if value is None:
            self._stale = None
        else:
            self._write_not_add(np.shape(value), self.shape)
            np.copyto(self._grad, value)

    def zero_grad(self) -> None:
        """Mark the gradient buffer stale, without writing to it."""
        self._stale = True

    def _write_not_add(self, shape: tuple[int, ...], want: tuple[int, ...]) -> bool:
        """Whether a contribution of ``shape`` (which must be ``want``) is
        written, because the buffer is stale or holds no gradient, rather
        than added; leaves the gradient live."""
        if shape != want:
            raise DimensionError(
                f"gradient of shape {shape} for tensor {self.name!r} of shape {self.shape}"
            )
        stale, self._stale = self._stale is not False, False
        return stale

    def add_grad(self, grad) -> None:
        """Add ``grad``, of exactly this tensor's shape, to the gradient."""
        if self._write_not_add(np.shape(grad), self.shape):
            np.copyto(self._grad, grad)
        else:
            self._grad += grad

    def add_matmul(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add ``a @ b``, the gradient flattened to (shape[0], rest), to the
        gradient. A stale buffer takes the product straight from the matmul,
        so the first contribution makes no product-sized temporary."""
        self.matmul_piece(a, b)()

    def matmul_piece(self, a: np.ndarray, b: np.ndarray) -> Callable[[], object]:
        """``add_matmul(a, b)`` as a call any thread may run: the shape check
        and the buffer's bookkeeping happen now, on the calling thread, and
        the call does only the product and its write or add."""
        rows, cols = self.shape[0], math.prod(self.shape[1:])
        write = self._write_not_add((a.shape[0], b.shape[1]), (rows, cols))
        grad = self._grad.reshape(rows, cols)
        if write:
            return functools.partial(np.matmul, a, b, out=grad)
        return lambda: np.add(grad, a @ b, out=grad)

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.shape})"


class ParamStore:
    """Every parameter of a model side by side, in parameter order, in one
    flat values array and one flat gradient array.

    Building the store bears each tensor: its ``data`` and gradient buffer
    become views of the two arrays, and its initial value is written in, in
    parameter order; with ``init`` false nothing is drawn, and the values
    wait for a checkpoint to fill them. ``ranges`` holds each parameter's
    slice, which an optimizer's states share, and ``index`` its position by
    ``id``. A tensor listed twice, or already born, raises before any is
    laid out.
    """

    def __init__(self, params: Sequence[Tensor], init: bool = True):
        self.params = list(params)
        self.index: dict[int, int] = {}
        for i, p in enumerate(self.params):
            if id(p) in self.index:
                raise ValueError(f"parameter {p.name!r} is listed twice")
            if p.data is not None:
                raise ValueError(f"parameter {p.name!r} is already in a store")
            self.index[id(p)] = i
        ends = np.cumsum([0] + [math.prod(p.shape) for p in self.params]).tolist()
        self.ranges = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        self.values, self.grads = np.empty(ends[-1]), np.zeros(ends[-1])
        for p, span in zip(self.params, self.ranges):
            p.data = self.values[span].reshape(p.shape)
            p._grad = self.grads[span].reshape(p.shape)
            if init:
                p._init(p.data)
            p._init = None


# Fewest elements at which a He draw is shared across the worker pool (64 MB).
# Of the paper model only the pair head's first layer (29.2M of the 58.6M
# parameters) reaches it; no --scaled-down tensor (the largest has 4,608)
# and no single layer the pool's own tests build under a forced worker count
# (up to 7.8M) does, so their posts stay those of the products under test.
FILL_SPLIT_MIN = 1 << 23


def he_fill(rng: np.random.Generator, fan_in: int) -> Callable[[np.ndarray], None]:
    """He-style uniform init with bound sqrt(6 / fan_in), drawn in place: the
    bytes and generator state ``rng.uniform(-bound, bound, shape)`` leaves.

    The fill walks the flat tensor in ``SWEEP_BLOCK`` blocks, drawing,
    scaling and shifting each while it sits in cache. ``Generator.random``
    takes exactly one 64-bit output of the bit generator per float64, so
    element i is drawn from output i. That lets a tensor of at least
    ``FILL_SPLIT_MIN`` elements on a ``PCG64`` generator be cut at block
    boundaries into one range per ``sweep_workers`` worker, filled on the
    pool: range k draws from a copy of the generator advanced (``advance``,
    O(log n)) by its first element's index. The generator then takes the
    last range's state, with its buffered 32-bit half put back (``advance``
    clears it). Any other bit generator fills as one range."""
    bound = math.sqrt(6.0 / fan_in)

    def fill_range(gen: np.random.Generator, flat: np.ndarray) -> None:
        for first in range(0, flat.size, SWEEP_BLOCK):
            block = flat[first : first + SWEEP_BLOCK]
            gen.random(out=block)
            block *= 2.0 * bound
            block -= bound

    def fill(data: np.ndarray) -> None:
        flat = data.reshape(-1)
        blocks = -(-flat.size // SWEEP_BLOCK)
        workers = 1
        if flat.size >= FILL_SPLIT_MIN and type(rng.bit_generator) is np.random.PCG64:
            workers = sweep_workers(blocks)
        if workers == 1:
            fill_range(rng, flat)
            return
        cuts = [k * blocks // workers * SWEEP_BLOCK for k in range(workers)] + [flat.size]
        state = rng.bit_generator.state
        gens = []
        for start in cuts[:-1]:
            bits = np.random.PCG64()
            bits.state = state
            gens.append(np.random.Generator(bits.advance(start)))
        _run_pieces(
            [functools.partial(fill_range, g, flat[a:b]) for g, a, b in zip(gens, cuts, cuts[1:])]
        )
        end = gens[-1].bit_generator.state
        end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
        rng.bit_generator.state = end

    return fill


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
        """The module's own parameters: its ``Tensor`` attributes, in order."""
        return [(k, v) for k, v in vars(self).items() if isinstance(v, Tensor)]

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

    def materialize(self, init: bool = True) -> "Module":
        """Bear every parameter in one new ``ParamStore``, kept as
        ``self.store``; returns the module."""
        self.store = ParamStore(self.params(), init)
        return self

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


# Fewest flops at which a product is split in two for the worker pool:
# 2 * rows * in * out for a Linear, 2 * O * C*kh*kw * L for a Conv2d over L
# output cells. On a 2-core Xeon VM (OpenBLAS 0.3.31, one BLAS thread, one
# layer called over and over), forward took, whole -> split:
# - Linear: 0.024 -> 0.088 ms at 20x256->64 (0.66 MFLOP), 0.077 -> 0.107 ms
#   at 20x256->256 (2.6), 0.161 -> 0.172 ms at 20x512->256 but 0.50 -> 0.32
#   ms at 5x1024->512 (both 5.2), 0.355 -> 0.239 ms at 20x512->512 (10.5),
#   and 40.1 -> 21.1 ms at 20x7648->3824 (1,170).
# - Conv2d, gather included: 0.34 -> 0.29 ms at 512->256 2x2 over 12 cells
#   (6.3 MFLOP), 2.7 -> 1.2 ms at 512->512 3x3 stride 2 over 3 cells
#   (14.2), 1.38 -> 0.76 ms at 768->768 1x1 over 27 cells (31.9), and 60 ->
#   34 ms at 768->512 3x3 over 405 cells (2,867). With few channels the
#   gather, which stays on the calling thread, outweighs the split: 0.29 ->
#   0.34 ms at 64->64 3x3 over 108 cells (8.0), 0.91 -> 0.77 ms at
#   128->128 3x3 (31.9). Neither preset has such a conv: the paper's have
#   256 channels or more, and the scaled-down ones never reach 8 MFLOP.
SPLIT_MIN_FLOPS = 8_000_000


def _row_pieces(rows: int, flops: int) -> list[slice]:
    """The output rows each pool piece of a product of ``flops`` flops
    writes: none under ``SPLIT_MIN_FLOPS``, where the product stays whole;
    else the first half of the ``rows``, rounded down to a multiple of 8,
    and the rest, or all the rows in one piece where that half is 0."""
    if flops < SPLIT_MIN_FLOPS:
        return []
    cut = rows // 16 * 8
    return [slice(0, cut), slice(cut, rows)] if cut else [slice(0, rows)]


class Linear(Module):
    """Affine layer y = x @ W.T + b over a batch of row vectors.

    Pass bias=False when the layer feeds a batchnorm, which would cancel the
    bias anyway.

    A product of at least ``SPLIT_MIN_FLOPS`` runs as two pieces on the
    worker pool. Forward cuts W's rows at half their count, rounded down to
    a multiple of 8 (``_row_pieces``), and each piece writes its columns of
    the output;
    backward runs the weight gradient and the input gradient, the calls an
    unsplit backward makes, as the two pieces. The pieces depend on the
    shapes alone, so the bytes do not depend on the cores.
    """

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True
    ):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(he_fill(rng, in_dim), "weight", (out_dim, in_dim))
        self.bias = Tensor(0.0, "bias", (out_dim,)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"linear expects (B, {self.in_dim}), got {x.shape}"
            )
        self._push(x)
        weight = self.weight.data
        pieces = self._pieces(x.shape[0])
        if pieces:
            out = np.empty((x.shape[0], self.out_dim))
            _run_pieces(
                [functools.partial(np.matmul, x, weight[s].T, out=out[:, s]) for s in pieces]
            )
        else:
            out = x @ weight.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._pop()
        if self._pieces(x.shape[0]):
            grad_in = np.empty((x.shape[0], self.in_dim))
            _run_pieces(
                [
                    self.weight.matmul_piece(grad_out.T, x),
                    functools.partial(np.matmul, grad_out, self.weight.data, out=grad_in),
                ]
            )
        else:
            self.weight.add_matmul(grad_out.T, x)
            grad_in = grad_out @ self.weight.data
        if self.bias is not None:
            self.bias.add_grad(grad_out.sum(axis=0))
        return grad_in

    def _pieces(self, rows: int) -> list[slice]:
        """The rows of W each forward piece reads over ``rows`` input rows;
        none keeps the product whole."""
        return _row_pieces(self.out_dim, 2 * rows * self.in_dim * self.out_dim)


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
        self.gamma = Tensor(1.0, "gamma", (channels,))
        self.beta = Tensor(0.0, "beta", (channels,))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

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
    output as a forward of that map alone would.

    Backward takes one of two forms, by geometry alone: whichever makes its
    two matmuls run over fewer cells, at 2*O*C*kh*kw multiply-adds per cell.
    - When the maps have fewer cells P than the output's L (padding that
      grows the maps), the input-cell form gathers the output gradient
      through the inverse tap indices into a (O*kh*kw, P) matrix: for each
      input cell, the gradient reaching it through each tap. Two matmuls
      with the P input cells give the weight and input gradients
      (Vasudevan et al., ASAP 2017), so none is spent on padding.
    - Otherwise (P >= L, as under a stride of 2) the output-cell form
      gathers the im2col matrix again for the weight gradient, and does
      col2im as one gather through the inverse tap indices followed by a
      sum over the taps (Chellapilla et al. 2006).
    The per-shape indices are cached for at most ``TAP_INDEX_CACHE``
    shapes.

    A forward product of at least ``SPLIT_MIN_FLOPS`` runs on the worker
    pool as two pieces, W's rows cut where ``Linear`` cuts them, over L
    padded up to a multiple of 8 with taps of the zero column; the output
    is the first L columns. A row split of an unpadded product changes bits
    whenever L is not a multiple of 8, so the padding is what makes the
    bytes depend on the shapes alone, and it applies on one core too.
    Backward reads the unpadded taps and never sees the padding.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: tuple[int, int],
        stride: tuple[int, int],
        padding: tuple[int, int],
        rng: np.random.Generator,
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
        self.weight = Tensor(
            he_fill(rng, in_channels * kernel[0] * kernel[1]),
            "weight",
            (out_channels, in_channels, kernel[0], kernel[1]),
        )
        self.bias = Tensor(0.0, "bias", (out_channels,)) if bias else None
        self._tap_indices: dict[tuple[int, int], _ConvPiece] = {}

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
        weight = self.weight.data.reshape(self.out_channels, -1)
        n_out = taps.shape[1]
        rows = _row_pieces(self.out_channels, 2 * weight.size * n_out)
        # np.take writes the gathered (C, kh*kw, L) block C-ordered, so the
        # reshape below is a view; a[:, taps] would need a copy.
        if not rows:
            y = weight @ np.take(cells, taps, axis=1).reshape(-1, n_out)
        else:  # over L padded to a multiple of 8 with zero-column taps
            padded = np.concatenate([taps, np.full((len(taps), -n_out % 8), p)], axis=1)
            cols = np.take(cells, padded, axis=1).reshape(-1, padded.shape[1])
            y = np.empty((self.out_channels, padded.shape[1]))
            _run_pieces([functools.partial(np.matmul, weight[r], cols, out=y[r]) for r in rows])
            y = y[:, :n_out]
        if self.bias is not None:
            y += self.bias.data[:, None]
        # The im2col matrix is kh*kw times the maps; backward gathers it again.
        self._push((cells, taps, pieces, maps.like(None)))
        return Maps(y, [piece.out_shape for piece in pieces], out_sizes)

    def backward(self, g: Maps) -> Maps:
        cells, taps, pieces, geometry = self._pop()
        if self.bias is not None:
            self.bias.add_grad(g.data.sum(axis=1))
        (n_taps, n_out), n_in = taps.shape, cells.shape[1] - 1
        o, c = self.out_channels, self.in_channels
        # The output gradient plus one zero column, which every input cell
        # reads through a tap no output cell reads it through.
        g_ext = np.zeros((o, n_out + 1))
        g_ext[:, :n_out] = g.data
        reads = np.concatenate([piece.reads for piece in pieces], axis=1)
        reads += np.repeat(g.starts(), geometry.sizes)
        np.minimum(reads, n_out, out=reads)
        if n_in < n_out:
            # Input-cell form: dz holds, per output channel and tap, the
            # gradient each input cell receives through that tap, so both
            # products run over the P input cells, not the L output cells.
            dz = np.take(g_ext, reads, axis=1).reshape(-1, n_in)
            dw = (dz @ cells[:, :n_in].T).reshape(o, n_taps, c).transpose(0, 2, 1)
            self.weight.add_grad(dw.reshape(self.weight.shape))
            # The weight as (O*T, C); BLAS reads its transpose in place.
            w_t = self.weight.data.reshape(o, c, n_taps).transpose(0, 2, 1).reshape(-1, c)
            return geometry.like(w_t.T @ dz)
        # Output-cell form: the im2col gradient, then col2im as a gather:
        # each input cell sums, tap by tap, the im2col gradient of the one
        # output cell that read it through that tap, or of the zero column.
        cols = np.take(cells, taps, axis=1).reshape(-1, n_out)
        self.weight.add_matmul(g.data, cols.T)
        dcols = self.weight.data.reshape(o, -1).T @ g_ext
        reads += np.arange(n_taps)[:, None] * (n_out + 1)
        dx = np.take(dcols.reshape(c, -1), reads, axis=1).sum(axis=1)
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
# Worker pool
# ---------------------------------------------------------------------------


class _Pool:
    """The process's worker threads, started as work first asks for them and
    never stopped. ``post(call, count)`` queues ``count`` calls of ``call``
    and grows the pool to at least ``count`` threads; a free thread takes
    the oldest queued call. ``withdraw(call)`` takes back the queued calls
    of ``call`` that no thread has started, so no caller waits for a thread
    that is busy elsewhere."""

    def __init__(self):
        self._cond = threading.Condition()
        self._calls: collections.deque = collections.deque()
        self._threads = 0

    def post(self, call: Callable[[], object], count: int) -> None:
        with self._cond:
            self._calls.extend([call] * count)
            for _ in range(self._threads, count):
                name = f"tensornet-pool-{self._threads}"
                threading.Thread(target=self._serve, name=name, daemon=True).start()
                self._threads += 1
            self._cond.notify(count)

    def withdraw(self, call: Callable[[], object]) -> None:
        """Drop the queued calls of ``call``."""
        with self._cond:
            if self._calls:
                self._calls = collections.deque(c for c in self._calls if c != call)

    def _serve(self) -> None:
        while True:
            with self._cond:
                while not self._calls:
                    self._cond.wait()
                call = self._calls.popleft()
            call()


_POOL = _Pool()
if hasattr(os, "register_at_fork"):  # a forked child inherits none of the threads
    os.register_at_fork(after_in_child=_POOL.__init__)


class _Work:
    """Pieces that the calling thread and pooled helpers take from one list,
    each drainer the next untaken piece until none is left, and run as
    ``run(piece)``.

    ``add`` lists pieces and posts helpers; ``finish`` drains the list on
    the calling thread, withdraws the helpers no pool thread has started,
    waits for the pieces the others took, and re-raises the first exception
    a piece raised. A helper that starts later finds the list empty and
    leaves, so no piece runs after ``finish``, and no piece waits for a
    thread busy elsewhere. A piece that raises stops no other: every listed
    piece runs, on whichever thread takes it. Helpers run under the numpy
    error state of the thread that made the work.
    """

    def __init__(self, run: Callable[[object], object]):
        self._run = run
        self._errors = np.geterr()  # a pool thread starts from numpy's defaults
        self._cond = threading.Condition()
        self._pieces: list = []
        self._taken = 0
        self._running = 0  # pieces taken and not yet finished
        self._helpers = 0  # helpers posted that have not yet found the list empty
        self._error: BaseException | None = None

    def add(self, pieces: Iterable, workers: int) -> None:
        """List ``pieces``, and post helpers until ``workers`` drain the
        list: the caller, the helpers still draining and the new ones."""
        with self._cond:
            self._pieces.extend(pieces)
            starts = workers - 1 - self._helpers
            self._helpers += max(0, starts)
        if starts > 0:
            _POOL.post(self._help, starts)

    def finish(self) -> None:
        """Run every untaken piece here, and return once none is running;
        re-raises the first piece's exception. Nothing may be added after."""
        self._take(helper=False)
        _POOL.withdraw(self._help)
        with self._cond:
            self._cond.wait_for(lambda: self._running == 0)
        if self._error is not None:
            raise self._error

    def _help(self) -> None:
        with np.errstate(**self._errors):
            self._take(helper=True)

    def _take(self, helper: bool) -> None:
        """Run the next untaken piece until none is left. A helper leaves
        the count in the same locked act that finds the list empty, so a
        piece listed while it drains is never missed."""
        ran = False
        while True:
            with self._cond:
                if ran:
                    self._running -= 1
                    if not self._running:
                        self._cond.notify_all()
                if self._taken == len(self._pieces):
                    self._helpers -= helper
                    return
                piece = self._pieces[self._taken]
                self._taken += 1
                self._running += 1
            try:
                self._run(piece)
            except BaseException as exc:  # re-raised by finish
                with self._cond:
                    if self._error is None:
                        self._error = exc
            ran = True


def _run_pieces(pieces: list[Callable[[], object]]) -> None:
    """Call every piece, on the calling thread and on pool threads that are
    free, and return once all have finished; re-raises the first exception."""
    work = _Work(lambda piece: piece())
    work.add(pieces, sweep_workers(len(pieces), 1))
    work.finish()


# Float64 elements per block of the optimizers' in-place sweep (256 KB). A
# block's parameter, gradient, state and scratch slices stay in cache while
# every operation of the update runs over them. The measured plateau is
# 16K-32K elements with one worker and 32K-64K with two (4K-8K pays per-call
# overhead, 1M spills to memory).
SWEEP_BLOCK = 32768

# Fewest blocks a sweep worker gets. The break-even moves with the load on
# the other core: on a 2-core Xeon VM, with each pooled step starting its
# threads afresh (the calling thread draining beside them), Adam over 16
# blocks took 3.5-4.0 ms inline and 2.9-3.1 ms on two workers in quiet runs,
# but 4.2-4.9 ms and 4.6-5.5 ms in busy ones, where two workers lost from 4
# blocks up.
SWEEP_MIN_BLOCKS = 8


def sweep_workers(blocks: int, min_blocks: int = SWEEP_MIN_BLOCKS) -> int:
    """Workers for ``blocks`` pieces of work, the caller counted as one: one
    per core this process may run on, but no fewer than ``min_blocks``
    pieces each, and at least one."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity call on macOS or Windows
        cores = os.cpu_count() or 1
    return max(1, min(cores, blocks // min_blocks))


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Optimizer:
    """``zero_grad`` and the blocked in-place update sweep over a ``ParamStore``.

    The optimizer allocates only its states: one flat array per state, laid
    out like the store's values and gradients, so each parameter's range in
    ``store.ranges`` is its range of all of them.

    A step merges the ranges of the parameters that have a gradient into
    contiguous runs, cuts the runs into flat blocks of at most
    ``SWEEP_BLOCK`` elements and updates the parameters and states in place
    through two scratch blocks per thread, so a step allocates nothing the
    size of a weight. The blocks go on one work list per step, which the
    calling thread and the pool's helpers drain: each takes the next
    untaken block until none is left.

    ``hand_off(module)`` opens the step during backward. It lists the blocks
    of a module whose gradients are already final and posts a helper to the
    worker pool, so their update runs on a second core while the caller goes
    on with the rest of backward. ``step`` lists the blocks of every
    parameter not handed off; the calling thread drains the list beside the
    helpers still draining and any new ones, and ``step`` returns once no
    block is left running. ``sweep_workers`` decides every count (numpy
    releases the interpreter lock inside each operation): a worker per
    usable core, one of them the caller. So a sweep too small to share runs
    inline on the caller, and a hand-off too small for a worker of its own
    is only a size check, its parameters waiting for ``step``. A helper no
    pool thread has started when ``step`` drains (the thread may be running
    a ``Linear`` piece) is withdrawn, not waited for. The count follows the
    process's CPU affinity and the number of elements alone, with no
    setting. Every element goes through the same operations in the same
    order as the unblocked formula, so results are bit-identical whatever
    the worker count and the hand-offs.
    """

    def __init__(self, store: ParamStore, lr: float, states: int = 0):
        self.store = store
        self.lr = lr
        self._states = [np.zeros(store.values.size) for _ in range(states)]
        self._block = min(SWEEP_BLOCK, store.values.size)
        self._scratch = threading.local()  # each thread's pair of scratch blocks
        self._end_step()

    def _end_step(self) -> None:
        """Forget the open step: its work list and hand-offs."""
        self._work: _Work | None = None
        self._handed = [False] * len(self.store.params)

    def zero_grad(self) -> None:
        for p in self.store.params:
            p.zero_grad()

    def _next_update(self) -> Callable:
        """``update(param, grad, states, a, b)`` for one flat block of the step
        that opens now; ``a`` and ``b`` are free scratch blocks."""
        raise NotImplementedError

    def hand_off(self, module: Module) -> None:
        """Start updating the parameters of ``module``, whose gradients are
        final for this step, on a pool thread, and return at once. Until
        ``step`` (or ``join``) returns, nothing may read or write their values
        or gradients. With one usable core, or a model too small to share,
        the hand-off reads no parameter list at all."""
        if sweep_workers(-(-self.store.values.size // SWEEP_BLOCK)) < 2:
            return
        indices = []
        for p in module.params():
            if id(p) not in self.store.index:
                raise ValueError(f"parameter {p.name!r} is not in this optimizer")
            indices.append(self.store.index[id(p)])
        elements = sum(self.store.params[i].data.size for i in indices)
        if sweep_workers(-(-elements // SWEEP_BLOCK)) > 1:
            self._share(indices)

    def step(self) -> None:
        """Update every parameter that has a gradient, handed off or not, and
        return once no block is left running."""
        try:
            self._share([i for i, handed in enumerate(self._handed) if not handed])
        finally:
            self.join()

    def join(self) -> None:
        """Drain the open step's list beside its helpers, wait for them, then
        close the step; re-raises the first exception an update raised.
        Called alone, after a backward that failed past a hand-off, it leaves
        the handed-off parameters updated and the rest as they were."""
        try:
            if self._work is not None:
                self._work.finish()
        finally:
            self._end_step()

    def _share(self, indices: list[int]) -> None:
        """List the blocks of the parameters ``indices`` that have a gradient,
        and post helpers up to the ``sweep_workers`` count for their
        elements, counting the caller and the helpers still draining. Only
        the caller's thread touches a ``Tensor``: helpers see flat arrays
        alone."""
        if self._work is None:
            self._work = _Work(functools.partial(self._sweep, self._next_update()))
        runs: list[list[int]] = []  # [start, stop) ranges of parameters with a gradient
        for i in indices:
            p, span = self.store.params[i], self.store.ranges[i]
            if self._handed[i]:
                raise ValueError(f"parameter {p.name!r} is handed off twice in one step")
            self._handed[i] = True
            if p.data.base is not self.store.values:
                raise RuntimeError(f"parameter {p.name!r} has left its store (data rebound)")
            if p.grad is None:
                continue  # splits the run around it
            if runs and runs[-1][1] == span.start:
                runs[-1][1] = span.stop
            else:
                runs.append([span.start, span.stop])
        blocks = [
            slice(first, min(first + SWEEP_BLOCK, stop))
            for start, stop in runs
            for first in range(start, stop, SWEEP_BLOCK)
        ]
        self._work.add(
            blocks, sweep_workers(-(-sum(stop - start for start, stop in runs) // SWEEP_BLOCK))
        )

    def _sweep(self, update: Callable, block: slice) -> None:
        """Update one block through this thread's scratch pair."""
        scratch = getattr(self._scratch, "pair", None)
        if scratch is None:
            scratch = self._scratch.pair = (np.empty(self._block), np.empty(self._block))
        values = self.store.values[block]
        a, b = scratch[0][: values.size], scratch[1][: values.size]
        update(values, self.store.grads[block], [s[block] for s in self._states], a, b)


class SGD(_Optimizer):
    """Plain gradient descent: p -= lr g."""

    def _next_update(self) -> Callable:
        lr = self.lr

        def update(p, g, states, a, b):
            np.multiply(g, lr, out=b)
            p -= b

        return update


class Adam(_Optimizer):
    """Adam with bias correction; default betas=(0.9, 0.999).

    Per element: m = b1 m + (1-b1) g, v = b2 v + (1-b2) g^2, then
    p -= lr (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps) (Kingma & Ba,
    arXiv:1412.6980, Alg. 1). ``_t`` counts the steps opened, by ``step``
    or an earlier ``hand_off``.
    """

    def __init__(
        self,
        store: ParamStore,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(store, lr, states=2)
        self.betas = betas
        self.eps = eps
        self._t = 0

    def _next_update(self) -> Callable:
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

        return update


# ---------------------------------------------------------------------------
# Checkpoint manifest
# ---------------------------------------------------------------------------


def write_manifest(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Persist named arrays plus metadata as a single sorted-key JSON file.
    A non-finite array raises ``MedrankError``, and nothing is written."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise MedrankError(f"non-finite {name}; no checkpoint written")
    payload = {
        "meta": meta,
        "arrays": {
            name: {"shape": list(a.shape), "data": np.asarray(a).ravel().tolist()}
            for name, a in arrays.items()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def read_manifest(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``meta`` object and named float64 arrays of a ``write_manifest``
    file; anything else, or an array value that is not a finite number, raises
    a ``SchemaError`` naming the file."""
    payload = read_json_object(path)
    meta, entries = payload.get("meta"), payload.get("arrays")
    if not isinstance(meta, dict) or not isinstance(entries, dict):
        raise SchemaError(f"{path}: not a checkpoint manifest")
    try:
        arrays = {
            name: np.asarray(entry["data"]).reshape(entry["shape"])
            for name, entry in entries.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: unreadable array: {exc!r}") from exc
    for name, a in arrays.items():
        if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
            raise SchemaError(f"{path}: array {name!r} holds a value that is not a finite number")
        arrays[name] = a.astype(np.float64, copy=False)
    return meta, arrays


def stored_array(arrays: dict, name: str, shape: tuple, where: str) -> np.ndarray:
    """``arrays[name]``, checked to have ``shape``; a missing or misshaped one
    raises a ``SchemaError`` naming the file ``where`` and the array."""
    stored = arrays.get(name)
    if stored is None or stored.shape != shape:
        got = "missing" if stored is None else f"of shape {stored.shape}"
        raise SchemaError(f"{where}: array {name!r} is {got}, expected shape {shape}")
    return stored
