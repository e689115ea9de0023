"""In-memory span tracing from outside the vajrakit package.

Three kinds of span are recorded, all from this directory's code:

- a root span per operation (``graph.forward`` or ``compile``), and the
  set-up and compile steps the harness calls (``graph.parse`` ...);
- ``blocks.<kind>`` around each ``Model.blocks[id].forward`` call, by giving
  a shallow copy of the model proxy blocks;
- ``tensor.<op>.<bucket>`` around each hooked primitive, through an observer
  installed with ``tensor.override_backend`` that re-enters the default path
  under ``override_backend(None)``.

Spans carry the operation id they belong to; self time is a span's duration
minus the durations of its direct children. Work and byte counts attached to
tensor spans are computed from tensor shapes, never measured.
"""
from __future__ import annotations

import contextlib
import copy
import time

from vajrakit import tensor as T

F32 = 4  # bytes per float32 element


class Tracer:
    """Collects (name, start_ns, end_ns, parent, op, attrs) records."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), None, parent, self.op, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def records(self):
        """Spans as dicts, for writing out once the run ends."""
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op, **attrs}
            for n, s, e, p, op, attrs in self.spans
        ]

    def self_times_ns(self):
        """Per-span duration minus the time covered by its direct children."""
        own = [e - s for _, s, e, _, _, _ in self.spans]
        for _, s, e, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= e - s
        return own


# ---------------------------------------------------------------------------
# Shape-derived work: buckets, multiply-accumulates and computed bytes.
# ---------------------------------------------------------------------------

CONV_BUCKETS = ("k3s1", "k3s2", "k1", "dw")
POOL_BUCKETS = ("max5s1", "max3s2", "avg2s1")


def conv_bucket(spec) -> str:
    if spec.groups > 1:
        return "dw"
    name = "k1" if spec.k == 1 else f"k{spec.k}s{spec.stride}"
    if name not in CONV_BUCKETS:
        raise ValueError(f"conv k={spec.k} s={spec.stride} has no benchmark bucket")
    return name


def pool_bucket(kind, k, stride) -> str:
    name = f"{kind}{k}s{stride}"
    if name not in POOL_BUCKETS:
        raise ValueError(f"pool {name} has no benchmark bucket")
    return name


def conv_work(x_shape, spec) -> tuple[int, int]:
    """(macs, computed bytes) of one conv2d call.

    Bytes = input + weights + output, plus the zero-padded input copy
    (written, then read) and, for dense k > 1 kernels, the im2col matrix
    (written, then read by the GEMM)."""
    n, c, h, w = x_shape
    ho, wo = T.conv_out_hw(h, w, spec.k, spec.stride, spec.padding)
    macs = n * ho * wo * spec.k * spec.k * (spec.c_in // spec.groups) * spec.c_out
    elems = n * c * h * w + spec.c_out * (spec.c_in // spec.groups) * spec.k ** 2 + n * spec.c_out * ho * wo
    if spec.padding:
        elems += 2 * n * c * (h + 2 * spec.padding) * (w + 2 * spec.padding)
    if spec.groups == 1 and spec.k > 1:
        elems += 2 * n * c * spec.k ** 2 * ho * wo
    return macs, F32 * elems


def pool_bytes(x_shape, k, stride, padding) -> int:
    """Input + output, plus the padded input copy (written, then read)."""
    n, c, h, w = x_shape
    ho, wo = T.conv_out_hw(h, w, k, stride, padding)
    elems = n * c * h * w + n * c * ho * wo
    if padding:
        elems += 2 * n * c * (h + 2 * padding) * (w + 2 * padding)
    return F32 * elems


def matmul_work(a_shape, b_shape) -> tuple[int, int]:
    lead = 1
    for d in a_shape[:-2]:
        lead *= d
    m, kk = a_shape[-2:]
    nn = b_shape[-1]
    return lead * m * kk * nn, F32 * lead * (m * kk + kk * nn + m * nn)


class ObserverBackend:
    """Times each hooked primitive as a span, then runs the default path."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def conv2d(self, x, spec, weights, bias=None):
        macs, nbytes = conv_work(x.shape, spec)
        with self.tracer.span(f"tensor.conv2d.{conv_bucket(spec)}", macs=macs, bytes=nbytes):
            with T.override_backend(None):
                return T.conv2d(x, spec, weights, bias)

    def pool2d(self, x, kind, k, stride, padding=0, include_pad=True):
        name = f"tensor.pool2d.{pool_bucket(kind, k, stride)}"
        with self.tracer.span(name, macs=0, bytes=pool_bytes(x.shape, k, stride, padding)):
            with T.override_backend(None):
                return T.pool2d(x, kind, k, stride, padding, include_pad)

    def matmul_batched(self, a, b):
        macs, nbytes = matmul_work(a.shape, b.shape)
        with self.tracer.span("tensor.matmul_batched", macs=macs, bytes=nbytes):
            with T.override_backend(None):
                return T.matmul_batched(a, b)

    def softmax_lastdim(self, m):
        with self.tracer.span("tensor.softmax_lastdim", macs=0, bytes=F32 * 2 * m.size):
            with T.override_backend(None):
                return T.softmax_lastdim(m)


class TimedBlock:
    """Stands in for one ``Model.blocks[id]`` entry and spans its forward."""

    def __init__(self, block, tracer: Tracer, node):
        self.block = block
        self.tracer = tracer
        self.name = f"blocks.{node.kind}"
        self.node_id = node.id

    def forward(self, x):
        with self.tracer.span(self.name, node=self.node_id):
            return self.block.forward(x)


def traced_model(model, tracer: Tracer):
    """Shallow copy of a bound model whose blocks are wrapped in spans; the
    arrays are shared, so outputs are those of the original model."""
    out = copy.copy(model)
    nodes = {n.id: n for n in model.graph.nodes}
    out.blocks = {
        nid: (TimedBlock(blk, tracer, nodes[nid]) if blk is not None else None)
        for nid, blk in model.blocks.items()
    }
    return out
