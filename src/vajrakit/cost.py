"""Analytic MAC/parameter accounting for every op and block.

Conventions (all counts are exact integers, per single input sample):

- MACs count multiply-accumulates inside convolutions and matrix products
  only. The instrumented counter in oracle.py must reproduce them exactly.
- ``params`` counts learnable scalars: conv kernels, biases, and batchnorm
  gamma/beta. Running statistics are store entries but not parameters.
- Pooling, batchnorm application, activations, residual adds, softmax and
  gating multiplies are tracked under ``other_ops`` (per-element convention
  noted at each site) and never enter MAC totals or ratios.
- ``conv3x3`` is the census of dense (groups == 1) 3x3 convolution sites.
- FLOPs are reported as 2 * MACs; both columns are printed.

``block_tally`` has three leaf rules (conv+BN, conv+bias, RepVGG) and one
walk over a composite's declared children (``blocks.Composite.CHILDREN``).
What a composite computes itself, outside its children (residual adds, the
squeeze-excite pool and gate, SPPF and ADown pooling, attention matmuls and
softmax), lives in the ``_OWN_WORK`` table.

The model is purely static: nothing here executes a forward pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import blocks as B
from .tensor import ConvSpec, conv_out_hw

RATIO_LINE = "adown vs standard 3x3 stride-2 conv: 5/18 (27.8% rounded; paper: 27.7%)"


def conv_cost(spec: ConvSpec, h_in: int, w_in: int) -> tuple[int, int]:
    """(macs, params) of one convolution: macs = h_out*w_out*k^2*(c_in/g)*c_out,
    params = k^2*(c_in/g)*c_out plus c_out when biased."""
    ho, wo = conv_out_hw(h_in, w_in, spec.k, spec.stride, spec.padding)
    per_site = spec.k * spec.k * (spec.c_in // spec.groups)
    macs = ho * wo * per_site * spec.c_out
    params = per_site * spec.c_out + (spec.c_out if spec.has_bias else 0)
    return macs, params


@dataclass
class Tally:
    macs: int = 0
    params: int = 0
    conv3x3: int = 0
    other: int = 0

    def __iadd__(self, o: "Tally"):
        self.macs += o.macs
        self.params += o.params
        self.conv3x3 += o.conv3x3
        self.other += o.other
        return self


def _conv_leaf(spec: ConvSpec, h, w, bn: bool, act: str) -> tuple[Tally, int, int]:
    macs, params = conv_cost(spec, h, w)
    ho, wo = conv_out_hw(h, w, spec.k, spec.stride, spec.padding)
    elems = spec.c_out * ho * wo
    other = 0
    if spec.has_bias:
        other += elems  # bias add
    if bn:
        params += 2 * spec.c_out  # gamma, beta
        other += 2 * elems  # scale + shift
    if act != "identity":
        other += elems
    census = 1 if (spec.k == 3 and spec.groups == 1) else 0
    return Tally(macs, params, census, other), ho, wo


def _attention_work(block, c, h, w) -> tuple[int, int]:
    sites = h * w
    logits = block.heads * sites * sites
    macs = 2 * logits * block.d_head  # QK^T and attn.V
    # scale by 1/sqrt(d); softmax: max, sub+exp, sum, div; positional-encoding add
    return macs, logits + 4 * logits + c * sites


def _adown_work(block, c, h, w) -> tuple[int, int]:
    ho, wo = conv_out_hw(h - 1, w - 1, 3, 2, 1)
    # 2x2 stride-1 average pool, then a 3x3 stride-2 max pool on one half
    return 0, 4 * c * (h - 1) * (w - 1) + 9 * (c // 2) * ho * wo


# A composite's own work beyond its children, as (macs, other_ops) from
# (block, c_in, h, w) at the block's input; kinds not listed have none.
_OWN_WORK = {
    B.RepCSP: lambda b, c, h, w: (0, b.cv1.spec.c_out * h * w),  # branch add
    B.MerudandaDW: lambda b, c, h, w: (0, c * h * w),  # residual add
    B.SqueezeExcite: lambda b, c, h, w: (0, 2 * c * h * w),  # pool reads, gating multiply
    B.RepViTBlock: lambda b, c, h, w: (0, 2 * c * h * w),  # mixer residuals
    B.AttentionBlockV2: lambda b, c, h, w: (0, 2 * c * h * w),  # sublayer residuals
    B.SPPF: lambda b, c, h, w: (0, 3 * b.k * b.k * b.cv1.spec.c_out * h * w),  # max pools
    B.AttentionV2: _attention_work,
    B.ADown: _adown_work,
}


def block_tally(block, h: int, w: int) -> tuple[Tally, int, int]:
    """Walk a block's structure, summing costs; returns output spatial dims."""
    if isinstance(block, B.ConvBNAct):
        return _conv_leaf(block.spec, h, w, bn=True, act=block.act)
    if isinstance(block, B.ConvAct):
        return _conv_leaf(block.spec, h, w, bn=False, act=block.act)

    t = Tally()
    if isinstance(block, B.RepVGGBlock):
        leaf3, ho, wo = _conv_leaf(block.spec3, h, w, bn=True, act="identity")
        leaf1, _, _ = _conv_leaf(block.spec1, h, w, bn=True, act="identity")
        t += leaf3
        t += leaf1
        elems = block.spec3.c_out * ho * wo
        t.other += elems  # branch add
        if block.bn_id is not None:
            t.params += 2 * block.spec3.c_out
            t.other += 3 * elems  # bn apply + extra add
        t.other += elems  # activation
        return t, ho, wo

    # Every child reads the block's input dims, whatever its place in CHILDREN,
    # except SE's gate convs, which act on the pooled 1x1 vector, and ADown's
    # branches: cv1 reads the (h-1)x(w-1) average pool, cv2 the 3x3 stride-2
    # max pool of that. ADown is the only composite that changes spatial dims.
    out_hw = conv_out_hw(h - 1, w - 1, 3, 2, 1) if isinstance(block, B.ADown) else (h, w)
    for seg, child in block.children():
        in_hw = (1, 1) if isinstance(block, B.SqueezeExcite) else (h, w)
        if isinstance(block, B.ADown):
            in_hw = (h - 1, w - 1) if seg == "cv1" else out_hw
        sub, *child_hw = block_tally(child, *in_hw)
        if tuple(child_hw) not in (in_hw, out_hw):
            raise ValueError(f"{type(block).__name__}.{seg} changes spatial dims inside its block")
        t += sub
    macs, other = _OWN_WORK.get(type(block), lambda *_: (0, 0))(block, block.c_in, h, w)
    t.macs += macs
    t.other += other
    return (t, *out_hw)


@dataclass
class NodeCost:
    name: str
    kind: str
    macs: int
    params: int
    conv3x3: int
    other_ops: int


@dataclass
class CostReport:
    nodes: list

    @property
    def totals(self) -> dict:
        macs = sum(n.macs for n in self.nodes)
        return {
            "macs": macs,
            "flops": 2 * macs,
            "params": sum(n.params for n in self.nodes),
            "conv3x3": sum(n.conv3x3 for n in self.nodes),
            "other_ops": sum(n.other_ops for n in self.nodes),
        }

    def to_json_obj(self) -> dict:
        return {
            "nodes": [
                {
                    "name": n.name,
                    "kind": n.kind,
                    "macs": n.macs,
                    "params": n.params,
                    "conv3x3": n.conv3x3,
                    "other_ops": n.other_ops,
                }
                for n in self.nodes
            ],
            "totals": self.totals,
        }

    def to_text(self) -> str:
        headers = ("node", "kind", "macs", "params", "3x3", "other_ops")
        rows = [
            (n.name, n.kind, f"{n.macs:,}", f"{n.params:,}", str(n.conv3x3), f"{n.other_ops:,}")
            for n in self.nodes
        ]
        tot = self.totals
        rows.append(("TOTAL", "", f"{tot['macs']:,}", f"{tot['params']:,}",
                     str(tot["conv3x3"]), f"{tot['other_ops']:,}"))
        widths = [max(len(headers[i]), max(len(r[i]) for r in rows)) for i in range(6)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows[:-1]:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(6)))
        lines.append("  ".join("-" * w for w in widths))
        lines.append("  ".join(rows[-1][i].ljust(widths[i]) for i in range(6)))
        lines.append(f"FLOPs (2*MACs): {tot['flops']:,}")
        return "\n".join(lines)


COST_REPORT_SCHEMA = {
    "type": "object",
    "required": ["nodes", "totals"],
    "additionalProperties": False,
    "properties": {
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "macs", "params", "conv3x3", "other_ops"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"type": "string"},
                    "macs": {"type": "integer", "minimum": 0},
                    "params": {"type": "integer", "minimum": 0},
                    "conv3x3": {"type": "integer", "minimum": 0},
                    "other_ops": {"type": "integer", "minimum": 0},
                },
            },
        },
        "totals": {
            "type": "object",
            "required": ["macs", "flops", "params", "conv3x3", "other_ops"],
            "additionalProperties": False,
            "properties": {
                "macs": {"type": "integer", "minimum": 0},
                "flops": {"type": "integer", "minimum": 0},
                "params": {"type": "integer", "minimum": 0},
                "conv3x3": {"type": "integer", "minimum": 0},
                "other_ops": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def block_cost(node, input_shape: tuple, fused: bool = False) -> NodeCost:
    """CostReport entry for one graph node at (c, h, w)."""
    from .graph import build_block

    c, h, w = input_shape
    if node.kind == "upsample":
        return NodeCost(node.id, node.kind, 0, 0, 0, 0)
    if node.kind == "concat":
        return NodeCost(node.id, node.kind, 0, 0, 0, 0)
    blk = build_block(node, fused)
    tally, _, _ = block_tally(blk, h, w)
    return NodeCost(node.id, node.kind, tally.macs, tally.params, tally.conv3x3, tally.other)


def graph_cost(graph, input_shape: tuple) -> CostReport:
    """Per-node cost report for a whole graph at input (c, h, w)."""
    from .graph import propagate_shapes

    c, h, w = input_shape
    shapes = propagate_shapes(graph, c, h, w)
    entries = []
    for node in graph.nodes:
        src_shape = shapes[node.inputs[0]] if node.inputs else (c, h, w)
        entries.append(block_cost(node, src_shape, graph.fused))
    return CostReport(entries)


@dataclass
class ADownCost:
    """The downsampler's conv arithmetic vs a standard 3x3 stride-2 conv.

    macs/params cover the two convolutions only; pooling work is reported
    separately (pool_ops) and excluded from the ratio, which is the exact
    rational 5/18 for every even geometry.
    """

    macs: int
    params: int
    ratio_vs_standard: Fraction
    std_macs: int
    std_params: int
    pool_ops: int


def adown_cost(c_in: int, c_out: int, h: int, w: int) -> ADownCost:
    if c_in % 2 or c_out % 2 or h % 2 or w % 2:
        raise ValueError(f"adown cost needs even C, C_out, H, W; got {c_in},{c_out},{h}x{w}")
    half_in, half_out = c_in // 2, c_out // 2
    ho, wo = h // 2, w // 2
    conv3_macs = ho * wo * 9 * half_in * half_out
    conv1_macs = ho * wo * half_in * half_out
    macs = conv3_macs + conv1_macs
    params = 9 * half_in * half_out + half_in * half_out
    std_macs = ho * wo * 9 * c_in * c_out
    std_params = 9 * c_in * c_out
    pool_ops = 4 * c_in * (h - 1) * (w - 1) + 9 * half_in * ho * wo
    return ADownCost(macs, params, Fraction(macs, std_macs), std_macs, std_params, pool_ops)


def attention_cost(c: int, h: int, w: int, heads: int) -> tuple[int, int]:
    """(macs, params) of one AttentionV2 at c channels over an h x w map."""
    if c % heads:
        raise ValueError(f"heads={heads} must divide {c} channels")
    sites = h * w
    d = c // heads
    macs = sites * c * 2 * c          # qk 1x1
    macs += sites * c * c             # v 1x1
    macs += sites * 9 * c             # depthwise 3x3 positional encoding
    macs += sites * c * c             # proj 1x1
    macs += 2 * heads * sites * sites * d  # QK^T and attn.V
    params = (2 * c * c + 2 * 2 * c) + (c * c + 2 * c) + (9 * c + 2 * c) + (c * c + 2 * c)
    return macs, params
