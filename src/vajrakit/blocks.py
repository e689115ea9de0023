"""VajraV1 computational blocks as composable forward transforms.

Every block is built from the tensor-core ops and keeps its parameters as
plain numpy arrays. Construction zero-fills conv weights and sets batchnorm
to identity statistics, so a freshly built residual block is the identity
map; real values are filled in by the weight initializer or bound from a
WeightStore. Blocks are immutable after construction in the sense that
forward never mutates them.

Parameter enumeration contract: ``named_arrays(prefix)`` yields
(name, array, is_stat) in a deterministic order. ``is_stat`` marks batchnorm
running statistics, which live in the weight store but do not count as
learnable parameters. ``fuse()`` returns the inference-form twin of a block
with every batchnorm folded away (see reparam.py for the arithmetic).

Only the three leaves, ``ConvBNAct``, ``ConvAct`` and ``RepVGGBlock``, name
their own arrays and define their own ``fuse``. Every other block is a
``Composite`` and states its structure once, in ``CHILDREN``: ordered
(attribute, segment) pairs, listed in weight-name order, which need not be
forward order. A child's arrays are named ``<prefix>.<segment>``; a list
attribute expands to ``<segment>0``, ``<segment>1``, ...; an empty segment
reuses the parent's prefix. From that list the base class derives
``named_arrays``, ``fuse`` (a shallow copy holding the fused children) and
``c_in`` (the first child's; ADown doubles it), and cost.py walks the same
list.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from . import reparam
from .tensor import (
    DTYPE,
    BNParams,
    ConvSpec,
    activation,
    add,
    batchnorm_infer,
    concat_channels,
    conv2d,
    global_avg_pool,
    matmul_batched,
    pool2d,
    softmax_lastdim,
    split_channels,
)

BN_EPS_DEFAULT = 1e-3


def _bn_arrays(prefix: str, bn: BNParams):
    yield f"{prefix}.gamma", bn.gamma, False
    yield f"{prefix}.beta", bn.beta, False
    yield f"{prefix}.mean", bn.mean, True
    yield f"{prefix}.var", bn.var, True


class ConvBNAct:
    """Convolution (no bias) + inference batchnorm + activation."""

    def __init__(self, c_in, c_out, k=1, stride=1, groups=1, act="silu",
                 padding=None, eps=BN_EPS_DEFAULT):
        if padding is None:
            padding = k // 2
        self.spec = ConvSpec(c_in, c_out, k, stride, padding, groups, has_bias=False)
        self.w = np.zeros(self.spec.weight_shape, DTYPE)
        self.bn = BNParams.identity(c_out, eps)
        self.act = act

    @property
    def c_in(self):
        return self.spec.c_in

    def forward(self, x):
        return activation(batchnorm_infer(conv2d(x, self.spec, self.w), self.bn), self.act)

    def named_arrays(self, prefix):
        yield f"{prefix}.w", self.w, False
        yield from _bn_arrays(f"{prefix}.bn", self.bn)

    def fuse(self) -> "ConvAct":
        fused = reparam.fuse_conv_bn(self.spec, self.w, None, self.bn)
        return ConvAct.from_fused(fused, self.act)


class ConvAct:
    """Convolution with bias + activation: the fused (batchnorm-free) form."""

    def __init__(self, c_in, c_out, k=1, stride=1, groups=1, act="silu", padding=None):
        if padding is None:
            padding = k // 2
        self.spec = ConvSpec(c_in, c_out, k, stride, padding, groups, has_bias=True)
        self.w = np.zeros(self.spec.weight_shape, DTYPE)
        self.b = np.zeros(c_out, DTYPE)
        self.act = act

    @classmethod
    def from_fused(cls, fused: "reparam.FusedConv", act: str) -> "ConvAct":
        s = fused.spec
        out = cls(s.c_in, s.c_out, s.k, s.stride, s.groups, act, padding=s.padding)
        out.w = fused.weights
        out.b = fused.bias
        return out

    @property
    def c_in(self):
        return self.spec.c_in

    def forward(self, x):
        return activation(conv2d(x, self.spec, self.w, self.b), self.act)

    def named_arrays(self, prefix):
        yield f"{prefix}.w", self.w, False
        yield f"{prefix}.b", self.b, False

    def fuse(self) -> "ConvAct":
        return self


class RepVGGBlock:
    """Two-branch train-form block: 3x3+BN plus 1x1+BN, summed, then act.

    The optional identity+BN branch is only legal for stride 1 with equal
    channel counts. The whole block collapses to a single 3x3 conv under
    reparam.fuse_repvgg.
    """

    def __init__(self, c_in, c_out, stride=1, identity=False, act="silu", eps=BN_EPS_DEFAULT):
        if identity and (c_in != c_out or stride != 1):
            raise ValueError(
                f"identity branch needs c_in == c_out and stride 1, got {c_in}->{c_out} s{stride}"
            )
        self.spec3 = ConvSpec(c_in, c_out, 3, stride, padding=1)
        self.spec1 = ConvSpec(c_in, c_out, 1, stride, padding=0)
        self.w3 = np.zeros(self.spec3.weight_shape, DTYPE)
        self.w1 = np.zeros(self.spec1.weight_shape, DTYPE)
        self.bn3 = BNParams.identity(c_out, eps)
        self.bn1 = BNParams.identity(c_out, eps)
        self.bn_id = BNParams.identity(c_out, eps) if identity else None
        self.act = act

    @property
    def c_in(self):
        return self.spec3.c_in

    def forward(self, x):
        y = add(
            batchnorm_infer(conv2d(x, self.spec3, self.w3), self.bn3),
            batchnorm_infer(conv2d(x, self.spec1, self.w1), self.bn1),
        )
        if self.bn_id is not None:
            y = add(y, batchnorm_infer(x, self.bn_id))
        return activation(y, self.act)

    def named_arrays(self, prefix):
        yield f"{prefix}.w3", self.w3, False
        yield from _bn_arrays(f"{prefix}.bn3", self.bn3)
        yield f"{prefix}.w1", self.w1, False
        yield from _bn_arrays(f"{prefix}.bn1", self.bn1)
        if self.bn_id is not None:
            yield from _bn_arrays(f"{prefix}.bnid", self.bn_id)

    def fuse(self) -> ConvAct:
        return ConvAct.from_fused(reparam.fuse_repvgg(self), self.act)


class Composite:
    """A block built from other blocks, declared once in ``CHILDREN``."""

    CHILDREN: tuple  # ((attribute, segment), ...), set by every subclass

    def children(self):
        """(segment, block) pairs in declared order, list attributes expanded."""
        for attr, seg in self.CHILDREN:
            child = getattr(self, attr)
            if isinstance(child, list):
                for i, blk in enumerate(child):
                    yield f"{seg}{i}", blk
            else:
                yield seg, child

    @property
    def c_in(self):
        return next(self.children())[1].c_in

    def named_arrays(self, prefix):
        for seg, child in self.children():
            yield from child.named_arrays(f"{prefix}.{seg}" if seg else prefix)

    def fuse(self):
        out = copy.copy(self)
        for attr, _ in self.CHILDREN:
            child = getattr(self, attr)
            fused = [b.fuse() for b in child] if isinstance(child, list) else child.fuse()
            setattr(out, attr, fused)
        return out


class RepCSP(Composite):
    """Two 1x1 branches joined by elementwise ADD before the final 1x1.

    Branch one stacks n RepVGG blocks at the stage width; branch two is the
    fine-grained shortcut. The add-join (rather than concat) is the point.
    """

    CHILDREN = (("cv1", "cv1"), ("blocks", "rep"), ("cv2", "cv2"), ("cv3", "cv3"))

    def __init__(self, c_in, c_out, n=1, identity=False, eps=BN_EPS_DEFAULT):
        self.cv1 = ConvBNAct(c_in, c_out, 1, eps=eps)
        self.cv2 = ConvBNAct(c_in, c_out, 1, eps=eps)
        self.blocks = [RepVGGBlock(c_out, c_out, 1, identity, eps=eps) for _ in range(n)]
        self.cv3 = ConvBNAct(c_out, c_out, 1, eps=eps)

    def forward(self, x):
        y = self.cv1.forward(x)
        for blk in self.blocks:
            y = blk.forward(y)
        return self.cv3.forward(add(y, self.cv2.forward(x)))


class MerudandaX(Composite):
    """Primary aggregation block: 1x1 stem, split in two, two sequential
    (RepCSP + 3x3) stages on the second half, concat of all four partitions,
    final 1x1. Dense 3x3 census is 2n+2 by construction."""

    CHILDREN = (("stem", "stem"), ("csp1", "csp1"), ("conv1", "conv1"), ("csp2", "csp2"),
                ("conv2", "conv2"), ("final", "final"))

    def __init__(self, c_in, c_out, n=1, stem_width=None, mid_width=None,
                 identity=False, eps=BN_EPS_DEFAULT):
        stem_width = stem_width if stem_width is not None else c_out
        mid_width = mid_width if mid_width is not None else c_out // 2
        if stem_width % 2:
            raise ValueError(f"stem width {stem_width} must split evenly in two")
        half = stem_width // 2
        self.stem = ConvBNAct(c_in, stem_width, 1, eps=eps)
        self.csp1 = RepCSP(half, mid_width, n, identity, eps=eps)
        self.conv1 = ConvBNAct(mid_width, mid_width, 3, eps=eps)
        self.csp2 = RepCSP(mid_width, mid_width, n, identity, eps=eps)
        self.conv2 = ConvBNAct(mid_width, mid_width, 3, eps=eps)
        self.final = ConvBNAct(stem_width + 2 * mid_width, c_out, 1, eps=eps)

    def forward(self, x):
        a, b = split_channels(self.stem.forward(x), 2)
        c = self.conv1.forward(self.csp1.forward(b))
        d = self.conv2.forward(self.csp2.forward(c))
        return self.final.forward(concat_channels([a, b, c, d]))


class DWChain(Composite):
    """Inverted-bottleneck conv chain: DW 3x3, PW expand, DW k x k, PW project,
    DW 3x3. The mid depthwise kernel is 3 or 7."""

    CHILDREN = (("cv1", "cv1"), ("cv2", "cv2"), ("cv3", "cv3"), ("cv4", "cv4"), ("cv5", "cv5"))

    def __init__(self, c, dw_kernel=3, expand=2, eps=BN_EPS_DEFAULT):
        if dw_kernel not in (3, 7):
            raise ValueError(f"dw_kernel must be 3 or 7, got {dw_kernel}")
        ce = expand * c
        self.cv1 = ConvBNAct(c, c, 3, groups=c, eps=eps)
        self.cv2 = ConvBNAct(c, ce, 1, eps=eps)
        self.cv3 = ConvBNAct(ce, ce, dw_kernel, groups=ce, eps=eps)
        self.cv4 = ConvBNAct(ce, c, 1, eps=eps)
        self.cv5 = ConvBNAct(c, c, 3, groups=c, eps=eps)

    def forward(self, x):
        for cv in (self.cv1, self.cv2, self.cv3, self.cv4, self.cv5):
            x = cv.forward(x)
        return x


class MerudandaDW(Composite):
    """Compact inverted block: the DW chain with a residual add around it."""

    CHILDREN = (("chain", ""),)

    def __init__(self, c, dw_kernel=3, expand=2, eps=BN_EPS_DEFAULT):
        self.chain = DWChain(c, dw_kernel, expand, eps)

    def forward(self, x):
        return add(x, self.chain.forward(x))


class SqueezeExcite(Composite):
    """Channel gating: x * sigmoid(W2 . act(W1 . GAP(x)))."""

    CHILDREN = (("fc1", "fc1"), ("fc2", "fc2"))

    def __init__(self, c, reduce_ratio=4):
        if c % reduce_ratio:
            raise ValueError(f"reduce ratio {reduce_ratio} must divide {c} channels")
        self.fc1 = ConvAct(c, c // reduce_ratio, 1, act="silu")
        self.fc2 = ConvAct(c // reduce_ratio, c, 1, act="sigmoid")

    def forward(self, x):
        gate = self.fc2.forward(self.fc1.forward(global_avg_pool(x)))
        return x * gate


class RepViTBlock(Composite):
    """Token mixer (DW chain + squeeze-excite, residual) followed by a
    channel-mixing MLP (PW expand 2x, act, PW project), also residual."""

    CHILDREN = (("chain", "mixer"), ("se", "se"), ("mlp1", "mlp1"), ("mlp2", "mlp2"))

    def __init__(self, c, dw_kernel=3, expand=2, se_ratio=4, eps=BN_EPS_DEFAULT):
        self.chain = DWChain(c, dw_kernel, expand, eps)
        self.se = SqueezeExcite(c, se_ratio)
        self.mlp1 = ConvBNAct(c, 2 * c, 1, eps=eps)
        self.mlp2 = ConvBNAct(2 * c, c, 1, act="identity", eps=eps)

    def forward(self, x):
        x1 = add(x, self.se.forward(self.chain.forward(x)))
        return add(x1, self.mlp2.forward(self.mlp1.forward(x1)))


INNER_KINDS = ("merudanda_dw", "repvit")


def make_inner(kind: str, c: int, dw_kernel: int, eps=BN_EPS_DEFAULT):
    if kind == "merudanda_dw":
        return MerudandaDW(c, dw_kernel, eps=eps)
    if kind == "repvit":
        return RepViTBlock(c, dw_kernel, eps=eps)
    raise ValueError(f"unknown inner kind {kind!r}")


class MerudandaBhag15(Composite):
    """Parameter-efficient aggregation: 1x1 stem, split in two, n inner blocks
    chained on the second half with every intermediate appended, concat of the
    n+2 partitions, final 1x1."""

    CHILDREN = (("stem", "stem"), ("inner", "inner"), ("final", "final"))

    def __init__(self, c_in, c_out, n=1, inner_kind="merudanda_dw", dw_kernel=3,
                 hidden=None, eps=BN_EPS_DEFAULT):
        h = hidden if hidden is not None else c_out // 2
        self.stem = ConvBNAct(c_in, 2 * h, 1, eps=eps)
        self.inner = [make_inner(inner_kind, h, dw_kernel, eps) for _ in range(n)]
        self.final = ConvBNAct((2 + n) * h, c_out, 1, eps=eps)

    def forward(self, x):
        parts = list(split_channels(self.stem.forward(x), 2))
        for blk in self.inner:
            parts.append(blk.forward(parts[-1]))
        return self.final.forward(concat_channels(parts))


class SPPF(Composite):
    """1x1 reduce, three chained same-stride maxpools, concat, 1x1 project."""

    CHILDREN = (("cv1", "cv1"), ("cv2", "cv2"))

    def __init__(self, c_in, c_out, k=5, eps=BN_EPS_DEFAULT):
        if k % 2 == 0:
            raise ValueError(f"sppf pool size must be odd, got {k}")
        self.k = k
        hidden = c_in // 2
        self.cv1 = ConvBNAct(c_in, hidden, 1, eps=eps)
        self.cv2 = ConvBNAct(4 * hidden, c_out, 1, eps=eps)

    def forward(self, x):
        ys = [self.cv1.forward(x)]
        for _ in range(3):
            ys.append(pool2d(ys[-1], "max", self.k, 1, self.k // 2))
        return self.cv2.forward(concat_channels(ys))


class AttentionV2(Composite):
    """Multi-head self-attention over spatial sites with a joint QK 1x1 conv,
    a depthwise 3x3 positional encoding on V added before the projection, and
    batchnorm inside every conv (no norm on the logits)."""

    CHILDREN = (("qk", "qk"), ("v", "v"), ("pe", "pe"), ("proj", "proj"))

    def __init__(self, c, heads, eps=BN_EPS_DEFAULT):
        if c % heads:
            raise ValueError(f"heads={heads} must divide {c} channels")
        self.heads = heads
        self.d_head = c // heads
        self.qk = ConvBNAct(c, 2 * c, 1, act="identity", eps=eps)
        self.v = ConvBNAct(c, c, 1, act="identity", eps=eps)
        self.pe = ConvBNAct(c, c, 3, groups=c, act="identity", eps=eps)
        self.proj = ConvBNAct(c, c, 1, act="identity", eps=eps)

    def forward(self, x, return_attn=False):
        n, c, h, w = x.shape
        sites = h * w
        d = self.d_head
        qk = self.qk.forward(x).reshape(n, self.heads, 2 * d, sites)
        q, k = qk[:, :, :d, :], qk[:, :, d:, :]
        v_map = self.v.forward(x)
        v_seq = v_map.reshape(n, self.heads, d, sites)

        logits = matmul_batched(q.transpose(0, 1, 3, 2), k) * DTYPE(1.0 / math.sqrt(d))
        attn = softmax_lastdim(logits)  # (n, heads, sites, sites), row-stochastic
        out_seq = matmul_batched(v_seq, attn.transpose(0, 1, 3, 2))

        out_map = out_seq.reshape(n, c, h, w)
        y = self.proj.forward(add(out_map, self.pe.forward(v_map)))
        if return_attn:
            return y, attn
        return y


class AttentionBlockV2(Composite):
    """Transformer block: self-attention sublayer and a 2x-expansion FFN,
    each wrapped in a residual add."""

    CHILDREN = (("attn", "attn"), ("ffn1", "ffn1"), ("ffn2", "ffn2"))

    def __init__(self, c, heads, eps=BN_EPS_DEFAULT):
        self.attn = AttentionV2(c, heads, eps)
        self.ffn1 = ConvBNAct(c, 2 * c, 1, eps=eps)
        self.ffn2 = ConvBNAct(2 * c, c, 1, act="identity", eps=eps)

    def forward(self, x):
        x1 = add(x, self.attn.forward(x))
        return add(x1, self.ffn2.forward(self.ffn1.forward(x1)))


class AttentionBhag6(Composite):
    """Aggregation wrapper for transformer blocks at the lowest-resolution
    stage: SPPF, 1x1, split, N stacked AttentionBlockV2 on the second half,
    concat, 1x1. The first half bypasses attention untouched."""

    CHILDREN = (("sppf", "sppf"), ("cv1", "cv1"), ("blocks", "block"), ("cv2", "cv2"))

    def __init__(self, c_in, c_out, n_blocks=1, heads=None, sppf_k=5, eps=BN_EPS_DEFAULT):
        if c_in % 2:
            raise ValueError(f"attention aggregation needs an even width, got {c_in}")
        half = c_in // 2
        if heads is None:
            heads = max(1, half // 64)
        self.heads = heads
        self.sppf = SPPF(c_in, c_in, sppf_k, eps=eps)
        self.cv1 = ConvBNAct(c_in, 2 * half, 1, eps=eps)
        self.blocks = [AttentionBlockV2(half, heads, eps) for _ in range(n_blocks)]
        self.cv2 = ConvBNAct(2 * half, c_out, 1, eps=eps)

    def forward(self, x):
        y = self.cv1.forward(self.sppf.forward(x))
        a, b = split_channels(y, 2)
        for blk in self.blocks:
            b = blk.forward(b)
        return self.cv2.forward(concat_channels([a, b]))


class ADown(Composite):
    """Pooling-diversified stride-2 downsample: 2x2 avg pool (stride 1),
    channel split, 3x3 stride-2 conv on one half, 3x3 stride-2 max pool plus
    1x1 conv on the other, concat. Costs 5/18 of a standard 3x3 stride-2 conv."""

    CHILDREN = (("cv1", "cv1"), ("cv2", "cv2"))

    def __init__(self, c_in, c_out, eps=BN_EPS_DEFAULT):
        if c_in % 2 or c_out % 2:
            raise ValueError(f"adown needs even channel counts, got {c_in}->{c_out}")
        self.cv1 = ConvBNAct(c_in // 2, c_out // 2, 3, stride=2, eps=eps)
        self.cv2 = ConvBNAct(c_in // 2, c_out // 2, 1, eps=eps)

    @property
    def c_in(self):
        return 2 * self.cv1.c_in  # each conv sees one half of the channels

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"adown needs even spatial dims, got {h}x{w}")
        y = pool2d(x, "avg", 2, 1, 0)
        a, b = split_channels(y, 2)
        a = self.cv1.forward(a)
        b = self.cv2.forward(pool2d(b, "max", 3, 2, 1))
        return concat_channels([a, b])
