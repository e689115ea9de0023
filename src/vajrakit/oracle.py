"""Naive reference implementations and the instrumented MAC counter.

Everything here is deliberately slow and literal: convolution as the explicit
loop nest over output sites and receptive fields, pooling as window loops,
softmax row by row: the independent second route for every equivalence check
(hooked ops it lacks run the fast path). The MAC counter counts the work done
(receptive fields of executed sites, inner dims of executed dot products).
cost.py runs the same block forwards, so the two agreeing checks each op's
formula against loops; block structure is checked by the tests' own figures.

Usage:

    with oracle.reference() as ref:
        y = some_block.forward(x)     # runs on the naive ops
    ref.macs                          # multiply-accumulates executed
"""
from __future__ import annotations

import numpy as np

from .tensor import (
    DTYPE,
    BNParams,
    ConvSpec,
    ShapeError,
    check_tensor4,
    conv_out_hw,
    override_backend,
)


class ReferenceBackend:
    """Loop-nest ops with a running multiply-accumulate count."""

    def __init__(self):
        self.macs = 0

    # -- convolution: 6-deep loop nest (batch, group, out-channel, site, field)
    def conv2d(self, x, spec: ConvSpec, weights, bias=None):
        x = np.asarray(x)  # a concat view is read as its copy
        check_tensor4(x, "conv input")
        if x.shape[1] != spec.c_in:
            raise ShapeError(f"conv expects {spec.c_in} input channels, got {x.shape[1]}")
        if weights.shape != spec.weight_shape:
            raise ShapeError(f"weights shaped {weights.shape}, spec wants {spec.weight_shape}")
        n, _, h, w = x.shape
        ho, wo = conv_out_hw(h, w, spec.k, spec.stride, spec.padding)
        p, k, s = spec.padding, spec.k, spec.stride
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).astype(np.float64)
        wts = weights.astype(np.float64)
        g = spec.groups
        cg = spec.c_in // g
        og = spec.c_out // g
        out = np.zeros((n, spec.c_out, ho, wo), dtype=np.float64)
        for b in range(n):
            for gi in range(g):
                for oc in range(og):
                    co = gi * og + oc
                    for oh in range(ho):
                        for ow in range(wo):
                            patch = xp[b, gi * cg:(gi + 1) * cg, oh * s:oh * s + k, ow * s:ow * s + k]
                            out[b, co, oh, ow] = np.sum(patch * wts[co])
                            self.macs += patch.size
        if bias is not None:
            out += np.asarray(bias, np.float64)[None, :, None, None]
        return out.astype(DTYPE)

    def pool2d(self, x, kind, k, stride, padding=0, include_pad=True):
        check_tensor4(x, "pool input")
        n, c, h, w = x.shape
        ho, wo = conv_out_hw(h, w, k, stride, padding)
        fill = -np.inf if kind == "max" else 0.0
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=fill)
        out = np.zeros((n, c, ho, wo), dtype=np.float64)
        for b in range(n):
            for ci in range(c):
                for oh in range(ho):
                    for ow in range(wo):
                        win = xp[b, ci, oh * stride:oh * stride + k, ow * stride:ow * stride + k]
                        if kind == "max":
                            out[b, ci, oh, ow] = win.max()
                        elif include_pad or padding == 0:
                            out[b, ci, oh, ow] = win.mean()
                        else:
                            h0, w0 = oh * stride - padding, ow * stride - padding
                            valid = win[max(0, -h0):k - max(0, h0 + k - h),
                                        max(0, -w0):k - max(0, w0 + k - w)]
                            out[b, ci, oh, ow] = win.sum() / valid.size
        return out.astype(DTYPE)

    def matmul_batched(self, a, b):
        a = np.asarray(a, np.float64)
        b = np.asarray(b, np.float64)
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        m, kk = a.shape[-2], a.shape[-1]
        nn = b.shape[-1]
        a2 = np.broadcast_to(a, lead + (m, kk)).reshape(-1, m, kk)
        b2 = np.broadcast_to(b, lead + (kk, nn)).reshape(-1, kk, nn)
        out = np.zeros((a2.shape[0], m, nn), dtype=np.float64)
        for bi in range(a2.shape[0]):
            for i in range(m):
                for j in range(nn):
                    out[bi, i, j] = np.dot(a2[bi, i, :], b2[bi, :, j])
                    self.macs += kk
        return out.reshape(lead + (m, nn)).astype(DTYPE)

    def softmax_lastdim(self, m):
        m = np.asarray(m, np.float64)
        flat = m.reshape(-1, m.shape[-1])
        out = np.zeros_like(flat)
        for i, row in enumerate(flat):
            z = np.exp(row - row.max())
            out[i] = z / z.sum()
        return out.reshape(m.shape).astype(DTYPE)


def reference():
    """Context manager routing core ops through a fresh ReferenceBackend,
    which it yields."""
    return override_backend(ReferenceBackend())


# Direct entry points for op-level oracle tests.

def conv2d_naive(x, spec, weights, bias=None):
    return ReferenceBackend().conv2d(x, spec, weights, bias)


def pool2d_naive(x, kind, k, stride, padding=0, include_pad=True):
    return ReferenceBackend().pool2d(x, kind, k, stride, padding, include_pad)


def softmax_naive(m):
    return ReferenceBackend().softmax_lastdim(m)


def batchnorm_naive(x, bn: BNParams):
    """Literal per-element evaluation of the normalization formula."""
    out = np.zeros(x.shape, dtype=np.float64)
    for ci in range(x.shape[1]):
        out[:, ci] = (bn.gamma[ci] * (x[:, ci].astype(np.float64) - bn.mean[ci])
                      / np.sqrt(float(bn.var[ci]) + bn.eps) + bn.beta[ci])
    return out.astype(DTYPE)
