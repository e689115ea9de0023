"""Analytic MAC/parameter accounting for every op and block.

Conventions (all counts are exact integers, per single input sample):

- MACs count multiply-accumulates inside convolutions and matrix products
  only. The instrumented counter in oracle.py must reproduce them exactly.
- ``params`` counts learnable scalars: conv kernels, biases, and batchnorm
  gamma/beta, read off each block's arrays. Running statistics are store
  entries but not parameters. ``conv_cost`` counts a kernel's alone.
- Pooling, batchnorm application, activations, residual adds, softmax and
  gating multiplies are tracked under ``other_ops`` and never enter MAC
  totals or ratios. Each op's per-element count is stated once, at its
  ``MetaBackend`` method.
- ``conv3x3`` is the census of dense (groups == 1) 3x3 convolution sites.
- FLOPs are reported as 2 * MACs, in the totals only.

A node's counts are one ``Tally``. Its fields, in order, are the report's
columns, the JSON keys of each node and of the totals, and the schema's
properties, so a new count is one more field.

No block structure is restated here: ``block_tally`` runs a block's own
forward on a zero view (``tensor.zero_view``) under ``MetaBackend``, and
``graph.static_walk``, which ``graph_cost`` reads, does the same for a graph.
No feature map is allocated, but a view larger than numpy's maximum array
size is still an error.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from . import blocks as B
from .tensor import ConvSpec, ShapeError, conv_out_hw, override_backend, zero_view

RATIO_LINE = "adown vs standard 3x3 stride-2 conv: 5/18 (27.8% rounded; paper: 27.7%)"


def conv_cost(spec: ConvSpec, h_in: int, w_in: int) -> tuple[int, int]:
    """(macs, params) of one convolution's kernel: macs =
    h_out*w_out*k^2*(c_in/g)*c_out, params = k^2*(c_in/g)*c_out. A bias is
    an array, not geometry, so block and graph totals count it off the
    block's arrays."""
    ho, wo = conv_out_hw(h_in, w_in, spec.k, spec.stride, spec.padding)
    params = spec.k * spec.k * (spec.c_in // spec.groups) * spec.c_out
    return ho * wo * params, params


@dataclass
class Tally:
    """A node's counts. A field's ``head`` names its text column (default:
    its name) and its ``fmt`` prints it (default: thousands separators)."""

    macs: int = 0
    params: int = 0
    conv3x3: int = field(default=0, metadata={"head": "3x3", "fmt": "d"})  # a census: no separator
    other_ops: int = 0


COUNTS = tuple(f.name for f in fields(Tally))


def _with_flops(counts: dict) -> dict:
    """The counts with FLOPs (2 * MACs) placed after the MACs."""
    return {"macs": counts["macs"], "flops": 2 * counts["macs"], **counts}


def _cells(counts: dict) -> list:
    return [format(counts[f.name], f.metadata.get("fmt", ",")) for f in fields(Tally)]


class MetaBackend:
    """Every hooked op on storage-free zero views: each returns a zero view
    of its output shape and adds its count to ``tally``."""

    def __init__(self):
        self.tally = Tally()

    def take(self, block) -> Tally:
        """The tally since the last take, with the learnable parameters of `block` (or None)."""
        t, self.tally = self.tally, Tally()
        if block is not None:
            t.params = sum(arr.size for _, arr, is_stat in block.named_arrays("") if not is_stat)
        return t

    def conv2d(self, x, spec, weights, bias=None):
        n, _, h, w = x.shape
        y = zero_view((n, spec.c_out, *conv_out_hw(h, w, spec.k, spec.stride, spec.padding)))
        self.tally.macs += n * conv_cost(spec, h, w)[0]
        self.tally.conv3x3 += int(spec.k == 3 and spec.groups == 1)
        if bias is not None:
            self.tally.other_ops += y.size  # bias add
        return y

    def pool2d(self, x, kind, k, stride, padding=0, include_pad=True):
        n, c, h, w = x.shape
        y = zero_view((n, c, *conv_out_hw(h, w, k, stride, padding)))
        self.tally.other_ops += k * k * y.size  # one per window entry
        return y

    def batchnorm_infer(self, x, bn):
        self.tally.other_ops += 2 * x.size  # scale + shift
        return x

    def activation(self, x, kind):
        if kind != "identity":
            self.tally.other_ops += x.size
        return x

    def add(self, x, y):  # and mul: one per element of x
        self.tally.other_ops += x.size
        return x

    mul = add

    def global_avg_pool(self, x):
        self.tally.other_ops += x.size  # one read per input element
        return zero_view((*x.shape[:2], 1, 1))

    def matmul_batched(self, a, b):
        y = zero_view((*a.shape[:-1], b.shape[-1]))
        self.tally.macs += y.size * a.shape[-1]
        return y

    def softmax_lastdim(self, m):
        self.tally.other_ops += 4 * m.size  # max, sub+exp, sum, div
        return m

    def split_channels(self, x, parts):
        n, c, h, w = x.shape
        return [zero_view((n, c // parts, h, w))] * parts

    def concat_channels(self, xs):
        n, _, h, w = xs[0].shape
        if any(x.shape[2:] != (h, w) for x in xs):
            raise ShapeError(f"concat shape mismatch: {[x.shape for x in xs]}")
        return zero_view((n, sum(x.shape[1] for x in xs), h, w))

    def upsample_nearest(self, x):
        n, c, h, w = x.shape
        return zero_view((n, c, 2 * h, 2 * w))


def block_tally(block, h: int, w: int) -> tuple[Tally, int, int]:
    """A block's cost at input h x w, and its output spatial dims, read off
    its forward on a zero view."""
    meta = MetaBackend()
    with override_backend(meta):
        y = block.forward(zero_view((1, block.c_in, h, w)))
    return (meta.take(block), *y.shape[2:])


@dataclass(kw_only=True)
class NodeCost(Tally):
    """One node's row: its counts, name and kind."""

    name: str
    kind: str


@dataclass
class CostReport:
    nodes: list

    @property
    def totals(self) -> dict:
        return _with_flops({k: sum(getattr(n, k) for n in self.nodes) for k in COUNTS})

    def to_json_obj(self) -> dict:
        return {"nodes": [asdict(n) for n in self.nodes], "totals": self.totals}

    def to_text(self) -> str:
        tot = self.totals
        rows = [("node", "kind", *(f.metadata.get("head", f.name) for f in fields(Tally)))]
        rows += [(n.name, n.kind, *_cells(vars(n))) for n in self.nodes]
        rows.append(("TOTAL", "", *_cells(tot)))
        widths = [max(map(len, col)) for col in zip(*rows)]
        rule = "  ".join("-" * w for w in widths)
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows]
        flops = f"FLOPs (2*MACs): {tot['flops']:,}"
        return "\n".join([lines[0], rule, *lines[1:-1], rule, lines[-1], flops])


def _record(properties: dict) -> dict:
    """A schema object that requires exactly `properties`, in their order."""
    return {"type": "object", "required": list(properties), "additionalProperties": False,
            "properties": properties}


def _counts(keys) -> dict:
    return {k: {"type": "integer", "minimum": 0} for k in keys}


COST_REPORT_SCHEMA = _record({
    "nodes": {"type": "array", "items": _record(
        {"name": {"type": "string"}, "kind": {"type": "string"}, **_counts(COUNTS)})},
    "totals": _record(_counts(_with_flops(dict.fromkeys(COUNTS, 0)))),
})


def graph_cost(graph, input_shape: tuple) -> CostReport:
    """Per-node cost report for a whole graph at input (c, h, w), read off
    ``graph.static_walk``; upsample and concat cost nothing."""
    from .graph import static_walk

    return CostReport([NodeCost(name=node.id, kind=node.kind, **vars(t))
                       for node, _, t in static_walk(graph, *input_shape)])


@dataclass
class ADownCost:
    """The downsampler's conv arithmetic vs a standard 3x3 stride-2 conv.

    macs/params cover the two convolutions only; pooling work is excluded
    from the ratio, which is the exact rational 5/18 for every even geometry.
    """

    macs: int
    params: int
    ratio_vs_standard: Fraction
    std_macs: int
    std_params: int


def adown_cost(c_in: int, c_out: int, h: int, w: int) -> ADownCost:
    block = B.ADown(c_in, c_out)
    macs = block_tally(block, h, w)[0].macs
    params = sum(conv_cost(cv.spec, h, w)[1] for cv in (block.cv1, block.cv2))
    std_macs, std_params = conv_cost(ConvSpec(c_in, c_out, 3, 2, 1), h, w)
    return ADownCost(macs, params, Fraction(macs, std_macs), std_macs, std_params)
