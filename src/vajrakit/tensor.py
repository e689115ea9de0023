"""Minimal dense NCHW tensor engine.

Every computational block in the kit is composed from the ops in this module:
convolution, pooling, inference-mode batchnorm, activations, softmax, batched
matmul, elementwise add and product, and channel split/concat. Tensors are
plain numpy arrays of shape (n, c, h, w), float32 throughout; all ops are
pure functions of their inputs.

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
    def identity(cls, c: int, eps: float | None = None) -> "BNParams":
        return cls(np.ones(c, DTYPE), np.zeros(c, DTYPE), np.zeros(c, DTYPE), np.ones(c, DTYPE),
                   cls.eps if eps is None else eps)

    @property
    def channels(self) -> int:
        return len(self.gamma)


_ZERO = np.zeros(1, DTYPE)
_ZERO.flags.writeable = False


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
    """The one dispatch point: the installed backend's same-named method, else `op`."""
    name = op.__name__

    @functools.wraps(op)
    def dispatch(*args, **kwargs):
        return (getattr(_BACKEND.get(), name, None) or op)(*args, **kwargs)

    return dispatch


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


def _dense_conv(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """(n, c_out, ho*wo) = weights (c_out, c_in*k*k) @ the im2col patch matrix
    of each image, whose rows are (channel, tap row, tap column) and whose
    columns are output sites. The patch matrix is built TILE_BYTES at a time,
    a band of whole output rows per tile, straight from the unpadded input."""
    n, c, h, w = x.shape
    k, s, p = spec.k, spec.stride, spec.padding
    wmat = weights.reshape(spec.c_out, c * k * k)
    if k == 1 and s == 1 and p == 0:
        return np.matmul(wmat, x.reshape(n, c, h * w))  # a view of x; no copy
    band = min(ho, max(1, TILE_BYTES // (c * k * k * wo * x.itemsize)))
    # a tap's padding columns are the same in every band, never written and
    # so zero from here on; its padding rows differ per band and are zeroed
    # where they fall
    buf = np.zeros((c, k, k, band, wo), DTYPE)
    cols = [_valid(j - p, w, s, 0, wo) for j in range(k)]
    out = np.empty((n, spec.c_out, ho * wo), DTYPE)
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
    return out


@_hooked
def conv2d(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Grouped 2-D convolution over NCHW.

    Dense conv (groups == 1) is im2col + BLAS matmul, with the patch matrix
    built in row tiles of TILE_BYTES from the unpadded input and each tile
    multiplied into its slice of a preallocated output. Grouped and
    depthwise conv accumulate k*k per-tap contractions over the shifted
    stride-s views of the padded input. Elementwise agreement with the naive
    loop-nest in oracle.py is part of the contract and enforced by the test
    suite.
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

    if g == 1:
        out = _dense_conv(x, spec, weights, ho, wo)
    else:
        xp = _pad_hw(x, spec.padding)
        xg = xp.reshape(n, g, spec.c_in // g, *xp.shape[2:])
        wg = weights.reshape(g, spec.c_out // g, spec.c_in // g, k, k)
        # per tap: (g, og, cg) x (n, g, cg, ho, wo) -> (n, g, og, ho, wo)
        terms = (np.einsum("goc,ngchw->ngohw", wg[..., i, j], tap)
                 for i, rows in enumerate(_taps(xg, k, s, ho, 3))
                 for j, tap in enumerate(_taps(rows, k, s, wo, 4)))
        out = next(terms)
        for term in terms:
            out += term

    out = np.ascontiguousarray(out.reshape(n, spec.c_out, ho, wo), dtype=DTYPE)
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
def batchnorm_infer(x: np.ndarray, bn: BNParams) -> np.ndarray:
    """Per-channel y = gamma * (x - mean) / sqrt(var + eps) + beta."""
    check_tensor4(x, "bn input")
    if bn.channels != x.shape[1]:
        raise ShapeError(f"BN has {bn.channels} channels, input has {x.shape[1]}")
    if np.any(bn.var + DTYPE(bn.eps) <= 0):
        raise ValueError("var + eps must be positive")
    scale = bn.gamma / np.sqrt(bn.var + DTYPE(bn.eps))
    shift = bn.beta - bn.mean * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow warnings for large negative inputs;
    # 0.5 * tanh(t * 0.5) + 0.5 in one new buffer, the same roundings
    y = np.asarray(t, DTYPE) * DTYPE(0.5)
    np.tanh(y, out=y)
    y *= DTYPE(0.5)
    y += DTYPE(0.5)
    return y


@_hooked
def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise silu | sigmoid | identity; silu(t) = t * sigmoid(t),
    computed in the sigmoid's buffer."""
    if kind == "identity":
        return x
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "silu":
        y = sigmoid(x)
        y *= x
        return y
    raise ValueError(f"unknown activation {kind!r}")


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
    """Split into `parts` equal channel slices (copies, contiguous)."""
    check_tensor4(x, "split input")
    if x.shape[1] % parts:
        raise ShapeError(f"cannot split {x.shape[1]} channels into {parts} equal parts")
    step = x.shape[1] // parts
    return [np.ascontiguousarray(x[:, i * step:(i + 1) * step]) for i in range(parts)]


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
def add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise ShapeError(f"add shape mismatch: {x.shape} vs {y.shape}")
    return x + y


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
