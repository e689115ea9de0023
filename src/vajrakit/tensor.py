"""Minimal dense NCHW tensor engine.

Every computational block in the kit is composed from the ops in this module:
convolution, pooling, inference-mode batchnorm, activations, softmax, batched
matmul, elementwise add and product, and channel split/concat. Tensors are
plain numpy arrays of shape (n, c, h, w), float32 throughout. No op writes
into an input unless it is passed as ``out``; ``split_channels`` returns
views of its input.

Dense convolution is a BLAS matmul over the im2col patch matrix, built one
bounded row tile at a time straight from the unpadded input (zeros where a
tap falls in the padding) and multiplied into its slice of the output; a
1x1 stride-1 unpadded conv multiplies a reshape of the input, with no copy.
Grouped and depthwise convolution accumulate one small contraction per
kernel tap over shifted, strided views of the padded input. Pooling is a
separable reduction: the k row-shifted slices, then the k column-shifted
slices of that, folded with np.maximum or np.add.

Every op that blocks and graphs call is hooked: it runs the same-named method
of the backend installed by ``override_backend``, or the fast path here if
there is none. So ``oracle.py`` swaps in its naive ops, and ``cost.py``
reads shapes and costs off a forward over ``zero_view``s, which hold one
element whatever their shape. ``mul`` broadcasts its second operand.

Ownership: ``batchnorm_infer``, ``add`` and ``activation`` take ``out=``;
the fast path writes its result there and returns it, and ``out`` may be
an input. A backend's method is never passed ``out``, so callers always use
the returned array, which under a backend may be a new one (under
``cost.MetaBackend``, a read-only zero view that nothing writes). A block
passes as ``out`` only a buffer it got from an op in the same forward and
no longer reads otherwise: never a block input, a weight or a split part.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass

import numpy as np

DTYPE = np.float32


class ShapeError(ValueError):
    """Tensor geometry violates an op precondition."""


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate the (n, c, h, w) container contract."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a rank-4 (n, c, h, w) array")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has an empty dimension: {x.shape}")
    if x.dtype != DTYPE:
        raise ShapeError(f"{name} must be float32, got {x.dtype}")
    return x


def tensor4(data, shape=None) -> np.ndarray:
    """Build a float32 NCHW tensor from nested data or a flat list + shape."""
    arr = np.asarray(data, dtype=DTYPE)
    if shape is not None:
        arr = arr.reshape(shape)
    return check_tensor4(arr)


def conv_out_hw(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    """Closed-form output spatial dims for a k x k window."""
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(
            f"window k={k} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


@dataclass(frozen=True)
class ConvSpec:
    """Convolution geometry; the unit of batchnorm fusion."""

    c_in: int
    c_out: int
    k: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self):
        if self.k not in (1, 3, 5, 7):
            raise ValueError(f"kernel side must be 1/3/5/7, got {self.k}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}"
            )

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.c_out, self.c_in // self.groups, self.k, self.k)


@dataclass
class BNParams:
    """Inference-mode normalization statistics, one entry per channel."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-3

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=DTYPE)
        self.beta = np.asarray(self.beta, dtype=DTYPE)
        self.mean = np.asarray(self.mean, dtype=DTYPE)
        self.var = np.asarray(self.var, dtype=DTYPE)
        c = len(self.gamma)
        if not (len(self.beta) == len(self.mean) == len(self.var) == c):
            raise ValueError("BN arrays must share one length")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if np.any(self.var < 0):
            raise ValueError("var must be nonnegative")
        # eps == 0 is tolerated for identity statistics; var + eps > 0 is
        # enforced wherever the denominator is actually formed.

    @classmethod
    def identity(cls, c: int) -> "BNParams":
        """gamma 1, beta 0, mean 0, var 1 and the default eps: read-only views
        of one shared element each, until bind points the fields at real
        arrays. The constants need none of ``__post_init__``'s conversions
        or checks, so they are set without running it."""
        bn = object.__new__(cls)
        bn.gamma = bn.var = np.ndarray((c,), DTYPE, _ONE, 0, (0,))
        bn.beta = bn.mean = zero_view((c,))
        bn.eps = cls.eps
        return bn

    @property
    def channels(self) -> int:
        return len(self.gamma)


_ZERO, _ONE = np.zeros(1, DTYPE), np.ones(1, DTYPE)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def zero_view(shape: tuple) -> np.ndarray:
    """A read-only all-zero array of any `shape`, all of it one shared element."""
    return np.ndarray(shape, DTYPE, _ZERO, 0, (0,) * len(shape))


# ---------------------------------------------------------------------------
# Backend dispatch: default fast path, or an installed backend's own op.
# ---------------------------------------------------------------------------

_BACKEND: contextvars.ContextVar = contextvars.ContextVar("vajrakit_backend", default=None)


@contextlib.contextmanager
def override_backend(backend):
    """Route every hooked op through `backend` within the context."""
    token = _BACKEND.set(backend)
    try:
        yield backend
    finally:
        _BACKEND.reset(token)


def _hooked(op):
    """The one dispatch point: the installed backend's same-named method,
    called without ``out``, else `op`, which writes into ``out`` if given."""
    name = op.__name__

    @functools.wraps(op)
    def dispatch(*args, **kwargs):
        method = getattr(_BACKEND.get(), name, None)
        if method is None:
            return op(*args, **kwargs)
        kwargs.pop("out", None)
        return method(*args, **kwargs)

    return dispatch


def _out(out: np.ndarray | None, shape: tuple) -> np.ndarray:
    """`out` checked against the result's shape, or a new buffer of that shape."""
    if out is None:
        return np.empty(shape, DTYPE)
    if out.shape != tuple(shape) or out.dtype != DTYPE:
        raise ShapeError(f"out is {out.dtype} {out.shape}, result is {DTYPE.__name__} {tuple(shape)}")
    return out


def _pad_hw(x: np.ndarray, p: int, value: float = 0.0) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=DTYPE(value))


def _taps(a: np.ndarray, k: int, stride: int, length: int, axis: int) -> list[np.ndarray]:
    """The k views of `a` shifted by 0..k-1 along `axis`, each taking every
    stride-th entry, `length` of them. No copy."""
    span = stride * (length - 1) + 1
    lead = (slice(None),) * axis
    return [a[lead + (slice(i, i + span, stride),)] for i in range(k)]


def _fold(taps: list[np.ndarray], ufunc) -> np.ndarray:
    """Reduce equally shaped views with a binary ufunc into one new array."""
    if len(taps) == 1:
        return taps[0].copy()
    acc = ufunc(taps[0], taps[1])
    for t in taps[2:]:
        ufunc(acc, t, out=acc)
    return acc


def _window_reduce(xp: np.ndarray, k: int, stride: int, ho: int, wo: int, ufunc) -> np.ndarray:
    """Separable k x k window reduction: fold the k row-shifted slices, then the
    k column-shifted slices of that. Exact for max; for add, each output is
    a sum of k partial sums of k."""
    rows = _fold(_taps(xp, k, stride, ho, 2), ufunc)
    return _fold(_taps(rows, k, stride, wo, 3), ufunc)


# Bytes of patch matrix built at a time by dense conv. Each tile feeds one
# GEMM of width rows * w_out: smaller tiles give narrow GEMMs that BLAS runs
# slowly, larger ones fall out of cache before the GEMM reads them. Summed
# over the dense convs of presets N@640 and X@256 (best of 9 per call, two
# sweeps; 2-vCPU Xeon, 2 MB L2 per core, OpenBLAS 0.3.31), 1 MB tiles were
# 15-19% slower than 4 MB; 16 MB tiles were 21-43% slower on N and 0.5-8%
# slower on X.
TILE_BYTES = 4 << 20


def _valid(shift: int, size: int, stride: int, start: int, count: int) -> tuple[int, int]:
    """The range [a, b) of t in [0, count) with (start + t) * stride + shift
    inside [0, size): where a tap reads the input rather than the padding."""
    a = min(max(-(shift // stride) - start, 0), count)
    b = min(max((size - shift + stride - 1) // stride - start, a), count)
    return a, b


def _dense_conv(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, out: np.ndarray) -> None:
    """out (n, c_out, ho, wo), as (n, c_out, ho*wo) = weights (c_out, c_in*k*k)
    @ the im2col patch matrix of each image, whose rows are (channel, tap row,
    tap column) and whose columns are output sites. The patch matrix is built
    TILE_BYTES at a time, a band of whole output rows per tile, straight from
    the unpadded input."""
    n, c, h, w = x.shape
    k, s, p = spec.k, spec.stride, spec.padding
    ho, wo = out.shape[2:]
    out = out.reshape(n, spec.c_out, ho * wo)
    wmat = weights.reshape(spec.c_out, c * k * k)
    if k == 1 and s == 1 and p == 0:
        np.matmul(wmat, x.reshape(n, c, h * w), out=out)  # a view of x; no copy
        return
    band = min(ho, max(1, TILE_BYTES // (c * k * k * wo * x.itemsize)))
    # a tap's padding columns are the same in every band, never written and
    # so zero from here on; its padding rows differ per band and are zeroed
    # where they fall
    buf = np.zeros((c, k, k, band, wo), DTYPE)
    cols = [_valid(j - p, w, s, 0, wo) for j in range(k)]
    for b in range(n):
        for r0 in range(0, ho, band):
            rows = min(band, ho - r0)
            tile = buf[:, :, :, :rows]
            for i in range(k):
                ra, rb = _valid(i - p, h, s, r0, rows)
                src = x[b, :, (r0 + ra) * s + i - p:(r0 + rb - 1) * s + i - p + 1:s]
                for j, (qa, qb) in enumerate(cols):
                    dst = tile[:, i, j]
                    if ra:
                        dst[:, :ra] = 0
                    if rb < rows:
                        dst[:, rb:] = 0
                    if ra < rb and qa < qb:
                        dst[:, ra:rb, qa:qb] = src[:, :, qa * s + j - p:(qb - 1) * s + j - p + 1:s]
            np.matmul(wmat, tile.reshape(c * k * k, rows * wo), out=out[b, :, r0 * wo:(r0 + rows) * wo])


@_hooked
def conv2d(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Grouped 2-D convolution over NCHW.

    Dense conv (groups == 1) is im2col + BLAS matmul, with the patch matrix
    built in row tiles of TILE_BYTES from the unpadded input and each tile
    multiplied into its slice of the output. Grouped and depthwise conv
    accumulate k*k per-tap contractions over the shifted stride-s views of
    the padded input. Elementwise agreement with the naive loop-nest in
    oracle.py is part of the contract and enforced by the test suite.
    """
    check_tensor4(x, "conv input")
    if x.shape[1] != spec.c_in:
        raise ShapeError(f"conv expects {spec.c_in} input channels, got {x.shape[1]}")
    if weights.shape != spec.weight_shape:
        raise ShapeError(f"weights shaped {weights.shape}, spec wants {spec.weight_shape}")
    if bias is not None and len(bias) != spec.c_out:
        raise ShapeError("bias length must equal c_out")

    n, _, h, w = x.shape
    k, s, g = spec.k, spec.stride, spec.groups
    ho, wo = conv_out_hw(h, w, k, s, spec.padding)
    out = np.empty((n, spec.c_out, ho, wo), DTYPE)

    if g == 1:
        _dense_conv(x, spec, weights, out)
    else:
        xp = _pad_hw(x, spec.padding)
        xg = xp.reshape(n, g, spec.c_in // g, *xp.shape[2:])
        wg = weights.reshape(g, spec.c_out // g, spec.c_in // g, k, k)
        og = out.reshape(n, g, spec.c_out // g, ho, wo)
        # per tap: (g, og, cg) x (n, g, cg, ho, wo) -> (n, g, og, ho, wo)
        terms = [(wg[..., i, j], tap) for i, rows in enumerate(_taps(xg, k, s, ho, 3))
                 for j, tap in enumerate(_taps(rows, k, s, wo, 4))]
        np.einsum("goc,ngchw->ngohw", *terms[0], out=og)
        for term in terms[1:]:
            og += np.einsum("goc,ngchw->ngohw", *term)

    if bias is not None:
        out += np.asarray(bias, DTYPE)[None, :, None, None]
    return out


@_hooked
def pool2d(
    x: np.ndarray,
    kind: str,
    k: int,
    stride: int,
    padding: int = 0,
    include_pad: bool = True,
) -> np.ndarray:
    """Average or max pooling as a separable reduction: the k row-shifted
    slices of the padded input, then the k column-shifted slices of that.
    Max pads with -inf so padding never wins, and rounds nothing; average
    divides the sum by the full window k*k unless include_pad=False, then
    by the count of real entries, reduced the same way over padded ones."""
    check_tensor4(x, "pool input")
    if kind not in ("avg", "max"):
        raise ValueError(f"pool kind must be avg|max, got {kind!r}")
    h, w = x.shape[2:]
    ho, wo = conv_out_hw(h, w, k, stride, padding)
    if kind == "max":
        return _window_reduce(_pad_hw(x, padding, value=-np.inf), k, stride, ho, wo, np.maximum)
    out = _window_reduce(_pad_hw(x, padding), k, stride, ho, wo, np.add)
    if include_pad or padding == 0:
        out /= DTYPE(k * k)
    else:
        ones = _pad_hw(np.ones((1, 1, h, w), DTYPE), padding)
        out /= _window_reduce(ones, k, stride, ho, wo, np.add)
    return out


@_hooked
def batchnorm_infer(x: np.ndarray, bn: BNParams, out: np.ndarray | None = None) -> np.ndarray:
    """Per-channel y = gamma * (x - mean) / sqrt(var + eps) + beta, as
    x * scale + shift, into `out` if given (which may be x)."""
    check_tensor4(x, "bn input")
    if bn.channels != x.shape[1]:
        raise ShapeError(f"BN has {bn.channels} channels, input has {x.shape[1]}")
    if np.any(bn.var + DTYPE(bn.eps) <= 0):
        raise ValueError("var + eps must be positive")
    scale = bn.gamma / np.sqrt(bn.var + DTYPE(bn.eps))
    shift = bn.beta - bn.mean * scale
    out = np.multiply(x, scale[None, :, None, None], out=_out(out, x.shape))
    out += shift[None, :, None, None]
    return out


def _sigmoid_into(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow warnings for large negative inputs;
    # 0.5 * tanh(t * 0.5) + 0.5, each step rounded in `out` (which may be t)
    np.multiply(t, DTYPE(0.5), out=out)
    np.tanh(out, out=out)
    out *= DTYPE(0.5)
    out += DTYPE(0.5)
    return out


def sigmoid(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, DTYPE)
    return _sigmoid_into(t, np.empty(t.shape, DTYPE))


# Elements per band of SiLU: h = t * 0.5 goes to the output band (which may
# be the input; only h is read after), tanh(h) + 1 to one scratch band, then
# h * (tanh(h) + 1) in place. Since 0.5 * fl(th + 1) = fl(0.5 * th + 0.5),
# this is bitwise t * sigmoid(t) in four passes instead of five: 10-20% less
# time than five on 1x16x320x320, 1x64x80x80 and 4x128x40x40. On 6.2 MB of
# SiLU input, 64K-element bands ran as fast as the whole array at once
# (3.53 vs 3.48 ms). Both on a 2-vCPU Xeon, numpy 2.4.6.
SILU_BAND = 1 << 16


def _rows(x: np.ndarray, out: np.ndarray):
    """Matching 1-D views of x and out that together cover both in C order:
    the whole arrays if both are contiguous, else per leading index, recursively."""
    if x.ndim <= 1 or (x.flags.c_contiguous and out.flags.c_contiguous):
        yield x.reshape(-1), out.reshape(-1)
        return
    for x_sub, out_sub in zip(x, out):
        yield from _rows(x_sub, out_sub)


@_hooked
def activation(x: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise silu | sigmoid | identity, into `out` if given (which may
    be x); silu(t) = t * sigmoid(t), computed SILU_BAND elements at a time."""
    if kind == "identity":
        if out is None or out is x:
            return x
        np.copyto(_out(out, x.shape), x)
        return out
    if kind == "sigmoid":
        return _sigmoid_into(x, _out(out, x.shape))
    if kind != "silu":
        raise ValueError(f"unknown activation {kind!r}")
    out = _out(out, x.shape)
    scratch = np.empty(min(SILU_BAND, x.size), DTYPE)
    for t, y in _rows(x, out):
        for i in range(0, t.size, SILU_BAND):
            h = np.multiply(t[i:i + SILU_BAND], DTYPE(0.5), out=y[i:i + SILU_BAND])
            th = np.tanh(h, out=scratch[:h.size])
            th += DTYPE(1)
            h *= th
    return out


@_hooked
def softmax_lastdim(m: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax over the trailing axis, max-shifted for stability."""
    m = np.asarray(m, DTYPE)
    z = np.exp(m - m.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


@_hooked
def matmul_batched(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the trailing two axes per batch element."""
    a = np.asarray(a, DTYPE)
    b = np.asarray(b, DTYPE)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return np.matmul(a, b)


@_hooked
def split_channels(x: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split into `parts` equal channel slices, each a view of x."""
    check_tensor4(x, "split input")
    if x.shape[1] % parts:
        raise ShapeError(f"cannot split {x.shape[1]} channels into {parts} equal parts")
    step = x.shape[1] // parts
    return [x[:, i * step:(i + 1) * step] for i in range(parts)]


@_hooked
def concat_channels(xs: list[np.ndarray]) -> np.ndarray:
    """Channel-axis concatenation; inverse of split_channels."""
    if not xs:
        raise ShapeError("concat of empty list")
    base = xs[0].shape
    for x in xs:
        check_tensor4(x, "concat input")
        if x.shape[0] != base[0] or x.shape[2:] != base[2:]:
            raise ShapeError(f"concat shape mismatch: {x.shape} vs {base}")
    return np.ascontiguousarray(np.concatenate(xs, axis=1))


@_hooked
def add(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sum, into `out` if given (which may be x or y)."""
    if x.shape != y.shape:
        raise ShapeError(f"add shape mismatch: {x.shape} vs {y.shape}")
    return np.add(x, y, out=_out(out, x.shape))


@_hooked
def mul(x: np.ndarray, y) -> np.ndarray:
    """Elementwise product, `y` broadcast against `x`."""
    return x * y


@_hooked
def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel -> (n, c, 1, 1)."""
    check_tensor4(x, "gap input")
    return x.mean(axis=(2, 3), keepdims=True, dtype=DTYPE)


@_hooked
def upsample_nearest(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x spatial upsampling."""
    check_tensor4(x, "upsample input")
    return np.ascontiguousarray(x.repeat(2, axis=2).repeat(2, axis=3))
