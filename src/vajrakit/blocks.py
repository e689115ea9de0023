"""VajraV1 computational blocks as composable forward transforms.

Every block is built from the tensor-core ops and keeps its parameters as
plain numpy arrays. Construction allocates no kernel: conv weights and
biases start as read-only zero views and batchnorm at identity statistics,
so an unbound block still runs and a residual block is the identity map.
Real values come from a WeightStore, which owns every array; binding points
a block at them. Forward never mutates a block. Fixed architecture constants:
BN eps from ``BNParams``, ``k // 2`` padding, DW expansion 2, SE reduction 4.

Each block states its structure once. A leaf (``ConvBNAct``, ``ConvAct``,
``RepVGGBlock``) lists its array attributes in ``ARRAYS``, in weight-name
order, each attribute named as its weight-name segment; a ``BNParams``
expands to gamma, beta, mean and var, and a ``None`` attribute is skipped.
Every other block is a ``Composite`` and lists its children in
``CHILDREN``: (attribute, segment) pairs in weight-name order, which need
not be forward order. A child's arrays are named ``<prefix>.<segment>``; a
list attribute expands to ``<segment>0``, ``<segment>1``, ...; an empty
segment reuses the parent's prefix. One walk over both lists, ``leaves``,
yields (prefix, leaf) for every leaf; ``slots`` expands each leaf's
``ARRAYS`` into (name, owner, attribute, is_stat), where ``setattr(owner,
attribute, array)`` binds the name, and ``named_arrays`` reads the slots.
``is_stat`` marks batchnorm running statistics: store entries, not
learnable parameters. ``fuse()`` returns the inference-form structure,
unbound and computing nothing: ``ConvBNAct`` and ``RepVGGBlock`` give a
zero-view ``ConvAct`` over their (3x3) spec, ``ConvAct`` gives itself, and a
composite a shallow copy holding its fused children. reparam.fuse_block
folds the arrays into it. Each forward calls only tensor.py's hooked ops, so
cost.py reads shapes and costs off a forward pass over zero views.

Forward never writes into its input: it passes ``out=`` (tensor.py's
ownership rule) only an array an op returned to it in the same forward, so
batchnorm, branch adds and activations run in the buffer of the conv output
they follow, and residual adds write into the branch output.
"""
from __future__ import annotations

import copy
import math

from .tensor import (
    DTYPE,
    BNParams,
    ConvSpec,
    ShapeError,
    activation,
    add,
    batchnorm_infer,
    concat_channels,
    conv2d,
    global_avg_pool,
    matmul_batched,
    mul,
    pool2d,
    softmax_lastdim,
    split_channels,
    zero_view,
)

_BN_FIELDS = (("gamma", False), ("beta", False), ("mean", True), ("var", True))


class Block:
    """Base of every block: the one walk over ARRAYS and CHILDREN."""

    ARRAYS: tuple = ()  # a leaf's array attributes, in weight-name order
    CHILDREN: tuple = ()  # a composite's ((attribute, segment), ...)

    def children(self):
        """(segment, block) pairs in declared order, list attributes expanded."""
        for attr, seg in self.CHILDREN:
            child = getattr(self, attr)
            if isinstance(child, list):
                for i, blk in enumerate(child):
                    yield f"{seg}{i}", blk
            else:
                yield seg, child

    def leaves(self, prefix):
        """(prefix, leaf) for every leaf under this block, in weight-name order."""
        if not self.CHILDREN:
            yield prefix, self
        for seg, child in self.children():
            yield from child.leaves(f"{prefix}.{seg}" if seg else prefix)

    def slots(self, prefix):
        for leaf_prefix, leaf in self.leaves(prefix):
            for path in leaf.ARRAYS:
                value = getattr(leaf, path)
                if isinstance(value, BNParams):
                    for field, is_stat in _BN_FIELDS:
                        yield f"{leaf_prefix}.{path}.{field}", value, field, is_stat
                elif value is not None:
                    yield f"{leaf_prefix}.{path}", leaf, path, False

    def named_arrays(self, prefix):
        for name, owner, attr, is_stat in self.slots(prefix):
            yield name, getattr(owner, attr), is_stat


class ConvBNAct(Block):
    """Convolution (no bias) + inference batchnorm + activation."""

    ARRAYS = ("w", "bn")

    def __init__(self, c_in, c_out, k=1, stride=1, groups=1, act="silu"):
        self.spec = ConvSpec(c_in, c_out, k, stride, k // 2, groups, has_bias=False)
        self.w = zero_view(self.spec.weight_shape)
        self.bn = BNParams.identity(c_out)
        self.act = act

    @property
    def c_in(self):
        return self.spec.c_in

    def forward(self, x):
        y = conv2d(x, self.spec, self.w)
        return activation(batchnorm_infer(y, self.bn, out=y), self.act, out=y)

    def fuse(self) -> "ConvAct":
        s = self.spec
        return ConvAct(s.c_in, s.c_out, s.k, s.stride, s.groups, self.act)


class ConvAct(Block):
    """Convolution with bias + activation: the fused (batchnorm-free) form."""

    ARRAYS = ("w", "b")

    def __init__(self, c_in, c_out, k=1, stride=1, groups=1, act="silu"):
        self.spec = ConvSpec(c_in, c_out, k, stride, k // 2, groups, has_bias=True)
        self.w = zero_view(self.spec.weight_shape)
        self.b = zero_view((c_out,))
        self.act = act

    @property
    def c_in(self):
        return self.spec.c_in

    def forward(self, x):
        y = conv2d(x, self.spec, self.w, self.b)
        return activation(y, self.act, out=y)

    def fuse(self) -> "ConvAct":
        return self


class RepVGGBlock(Block):
    """Two-branch train-form block: 3x3+BN plus 1x1+BN, summed, then SiLU.

    The optional identity+BN branch is only legal for stride 1 with equal
    channel counts. The whole block collapses to a single 3x3 conv, whose
    arrays reparam.fuse_repvgg computes.
    """

    ARRAYS = ("w3", "bn3", "w1", "bn1", "bnid")

    def __init__(self, c_in, c_out, stride=1, identity=False):
        if identity and (c_in != c_out or stride != 1):
            raise ValueError(
                f"identity branch needs c_in == c_out and stride 1, got {c_in}->{c_out} s{stride}"
            )
        self.spec3 = ConvSpec(c_in, c_out, 3, stride, padding=1)
        self.spec1 = ConvSpec(c_in, c_out, 1, stride, padding=0)
        self.w3 = zero_view(self.spec3.weight_shape)
        self.w1 = zero_view(self.spec1.weight_shape)
        self.bn3 = BNParams.identity(c_out)
        self.bn1 = BNParams.identity(c_out)
        self.bnid = BNParams.identity(c_out) if identity else None

    @property
    def c_in(self):
        return self.spec3.c_in

    def forward(self, x):
        y, z = conv2d(x, self.spec3, self.w3), conv2d(x, self.spec1, self.w1)
        y = add(batchnorm_infer(y, self.bn3, out=y), batchnorm_infer(z, self.bn1, out=z), out=y)
        if self.bnid is not None:
            y = add(y, batchnorm_infer(x, self.bnid), out=y)
        return activation(y, "silu", out=y)

    def fuse(self) -> ConvAct:
        return ConvAct(self.spec3.c_in, self.spec3.c_out, 3, self.spec3.stride)


class Composite(Block):
    """A block built from other blocks, declared once in ``CHILDREN``."""

    @property
    def c_in(self):
        return next(self.children())[1].c_in

    def fuse(self):
        out = copy.copy(self)
        for attr, _ in self.CHILDREN:
            child = getattr(self, attr)
            fused = [b.fuse() for b in child] if isinstance(child, list) else child.fuse()
            setattr(out, attr, fused)
        return out


def _check_count(name, n):
    if n < 0:
        raise ValueError(f"{name}={n}: a block count cannot be negative")


class RepCSP(Composite):
    """Two 1x1 branches joined by elementwise ADD before the final 1x1.

    Branch one stacks n RepVGG blocks at the stage width; branch two is the
    fine-grained shortcut. The add-join (rather than concat) is the point.
    """

    CHILDREN = (("cv1", "cv1"), ("blocks", "rep"), ("cv2", "cv2"), ("cv3", "cv3"))

    def __init__(self, c_in, c_out, n=1, identity=False):
        _check_count("n", n)
        self.cv1 = ConvBNAct(c_in, c_out, 1)
        self.cv2 = ConvBNAct(c_in, c_out, 1)
        self.blocks = [RepVGGBlock(c_out, c_out, 1, identity) for _ in range(n)]
        self.cv3 = ConvBNAct(c_out, c_out, 1)

    def forward(self, x):
        y = self.cv1.forward(x)
        for blk in self.blocks:
            y = blk.forward(y)
        return self.cv3.forward(add(y, self.cv2.forward(x), out=y))


class MerudandaX(Composite):
    """Primary aggregation block: 1x1 stem, split in two, two sequential
    (RepCSP + 3x3) stages on the second half, concat of all four partitions,
    final 1x1. Dense 3x3 census is 2n+2 by construction."""

    CHILDREN = (("stem", "stem"), ("csp1", "csp1"), ("conv1", "conv1"), ("csp2", "csp2"),
                ("conv2", "conv2"), ("final", "final"))

    def __init__(self, c_in, c_out, n=1, stem_width=None, mid_width=None, identity=False):
        stem_width = stem_width if stem_width is not None else c_out
        mid_width = mid_width if mid_width is not None else c_out // 2
        if stem_width % 2:
            raise ValueError(f"stem width {stem_width} must split evenly in two")
        half = stem_width // 2
        self.stem = ConvBNAct(c_in, stem_width, 1)
        self.csp1 = RepCSP(half, mid_width, n, identity)
        self.conv1 = ConvBNAct(mid_width, mid_width, 3)
        self.csp2 = RepCSP(mid_width, mid_width, n, identity)
        self.conv2 = ConvBNAct(mid_width, mid_width, 3)
        self.final = ConvBNAct(stem_width + 2 * mid_width, c_out, 1)

    def forward(self, x):
        a, b = split_channels(self.stem.forward(x), 2)
        c = self.conv1.forward(self.csp1.forward(b))
        d = self.conv2.forward(self.csp2.forward(c))
        cat = concat_channels([a, b, c, d])
        del a, b, c, d
        return self.final.forward(cat)


class DWChain(Composite):
    """Inverted-bottleneck conv chain: DW 3x3, PW expand 2x, DW k x k, PW
    project, DW 3x3. The mid depthwise kernel is 3 or 7."""

    CHILDREN = (("cv1", "cv1"), ("cv2", "cv2"), ("cv3", "cv3"), ("cv4", "cv4"), ("cv5", "cv5"))

    def __init__(self, c, dw_kernel=3):
        if dw_kernel not in (3, 7):
            raise ValueError(f"dw_kernel must be 3 or 7, got {dw_kernel}")
        ce = 2 * c
        self.cv1 = ConvBNAct(c, c, 3, groups=c)
        self.cv2 = ConvBNAct(c, ce, 1)
        self.cv3 = ConvBNAct(ce, ce, dw_kernel, groups=ce)
        self.cv4 = ConvBNAct(ce, c, 1)
        self.cv5 = ConvBNAct(c, c, 3, groups=c)

    def forward(self, x):
        for cv in (self.cv1, self.cv2, self.cv3, self.cv4, self.cv5):
            x = cv.forward(x)
        return x


class MerudandaDW(Composite):
    """Compact inverted block: the DW chain with a residual add around it."""

    CHILDREN = (("chain", ""),)

    def __init__(self, c, dw_kernel=3):
        self.chain = DWChain(c, dw_kernel)

    def forward(self, x):
        y = self.chain.forward(x)
        return add(x, y, out=y)


class SqueezeExcite(Composite):
    """Channel gating: x * sigmoid(W2 . act(W1 . GAP(x))), hidden width c // 4."""

    CHILDREN = (("fc1", "fc1"), ("fc2", "fc2"))

    def __init__(self, c):
        if c % 4:
            raise ValueError(f"reduce ratio 4 must divide {c} channels")
        self.fc1 = ConvAct(c, c // 4, 1, act="silu")
        self.fc2 = ConvAct(c // 4, c, 1, act="sigmoid")

    def forward(self, x):
        gate = self.fc2.forward(self.fc1.forward(global_avg_pool(x)))
        return mul(x, gate)


class RepViTBlock(Composite):
    """Token mixer (DW chain + squeeze-excite, residual) followed by a
    channel-mixing MLP (PW expand 2x, act, PW project), also residual."""

    CHILDREN = (("chain", "mixer"), ("se", "se"), ("mlp1", "mlp1"), ("mlp2", "mlp2"))

    def __init__(self, c, dw_kernel=3):
        self.chain = DWChain(c, dw_kernel)
        self.se = SqueezeExcite(c)
        self.mlp1 = ConvBNAct(c, 2 * c, 1)
        self.mlp2 = ConvBNAct(2 * c, c, 1, act="identity")

    def forward(self, x):
        y = self.se.forward(self.chain.forward(x))
        x1 = add(x, y, out=y)
        y = self.mlp2.forward(self.mlp1.forward(x1))
        return add(x1, y, out=y)


_INNER = {"merudanda_dw": MerudandaDW, "repvit": RepViTBlock}
INNER_KINDS = tuple(_INNER)  # a sequence, not a set: hypothesis samples from it


class MerudandaBhag15(Composite):
    """Parameter-efficient aggregation: 1x1 stem, split in two, n inner blocks
    chained on the second half with every intermediate appended, concat of the
    n+2 partitions, final 1x1."""

    CHILDREN = (("stem", "stem"), ("inner", "inner"), ("final", "final"))

    def __init__(self, c_in, c_out, n=1, inner_kind="merudanda_dw", dw_kernel=3, hidden=None):
        if inner_kind not in _INNER:
            raise ValueError(f"unknown inner kind {inner_kind!r}")
        _check_count("n", n)
        h = hidden if hidden is not None else c_out // 2
        self.stem = ConvBNAct(c_in, 2 * h, 1)
        self.inner = [_INNER[inner_kind](h, dw_kernel) for _ in range(n)]
        self.final = ConvBNAct((2 + n) * h, c_out, 1)

    def forward(self, x):
        parts = list(split_channels(self.stem.forward(x), 2))
        for blk in self.inner:
            parts.append(blk.forward(parts[-1]))
        return self.final.forward(concat_channels(parts))


class SPPF(Composite):
    """1x1 reduce, three chained same-stride maxpools, concat, 1x1 project."""

    CHILDREN = (("cv1", "cv1"), ("cv2", "cv2"))

    def __init__(self, c_in, c_out, k=5):
        if k < 1 or k % 2 == 0:
            raise ValueError(f"sppf pool size must be odd and positive, got {k}")
        self.k = k
        hidden = c_in // 2
        self.cv1 = ConvBNAct(c_in, hidden, 1)
        self.cv2 = ConvBNAct(4 * hidden, c_out, 1)

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

    def __init__(self, c, heads):
        if c % heads:
            raise ValueError(f"heads={heads} must divide {c} channels")
        self.heads = heads
        self.d_head = c // heads
        self.qk = ConvBNAct(c, 2 * c, 1, act="identity")
        self.v = ConvBNAct(c, c, 1, act="identity")
        self.pe = ConvBNAct(c, c, 3, groups=c, act="identity")
        self.proj = ConvBNAct(c, c, 1, act="identity")

    def forward(self, x, return_attn=False):
        n, c, h, w = x.shape
        sites = h * w
        d = self.d_head
        qk = self.qk.forward(x).reshape(n, self.heads, 2 * d, sites)
        q, k = qk[:, :, :d, :], qk[:, :, d:, :]
        v_map = self.v.forward(x)
        v_seq = v_map.reshape(n, self.heads, d, sites)

        logits = mul(matmul_batched(q.transpose(0, 1, 3, 2), k), DTYPE(1.0 / math.sqrt(d)))
        attn = softmax_lastdim(logits)  # (n, heads, sites, sites), row-stochastic
        out_seq = matmul_batched(v_seq, attn.transpose(0, 1, 3, 2))

        out_map = out_seq.reshape(n, c, h, w)
        y = self.proj.forward(add(out_map, self.pe.forward(v_map), out=out_map))
        if return_attn:
            return y, attn
        return y


class AttentionBlockV2(Composite):
    """Transformer block: self-attention sublayer and a 2x-expansion FFN,
    each wrapped in a residual add."""

    CHILDREN = (("attn", "attn"), ("ffn1", "ffn1"), ("ffn2", "ffn2"))

    def __init__(self, c, heads):
        self.attn = AttentionV2(c, heads)
        self.ffn1 = ConvBNAct(c, 2 * c, 1)
        self.ffn2 = ConvBNAct(2 * c, c, 1, act="identity")

    def forward(self, x):
        y = self.attn.forward(x)
        x1 = add(x, y, out=y)
        y = self.ffn2.forward(self.ffn1.forward(x1))
        return add(x1, y, out=y)


class AttentionBhag6(Composite):
    """Aggregation wrapper for transformer blocks at the lowest-resolution
    stage: SPPF, 1x1, split, N stacked AttentionBlockV2 on the second half,
    concat, 1x1. The first half bypasses attention untouched."""

    CHILDREN = (("sppf", "sppf"), ("cv1", "cv1"), ("blocks", "block"), ("cv2", "cv2"))

    def __init__(self, c_in, c_out, n_blocks=1, heads=None, sppf_k=5):
        if c_in % 2:
            raise ValueError(f"attention aggregation needs an even width, got {c_in}")
        _check_count("n_blocks", n_blocks)
        half = c_in // 2
        if heads is None:
            heads = max(1, half // 64)
        self.heads = heads
        self.sppf = SPPF(c_in, c_in, sppf_k)
        self.cv1 = ConvBNAct(c_in, 2 * half, 1)
        self.blocks = [AttentionBlockV2(half, heads) for _ in range(n_blocks)]
        self.cv2 = ConvBNAct(2 * half, c_out, 1)

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

    def __init__(self, c_in, c_out):
        if c_in % 2 or c_out % 2:
            raise ValueError(f"adown needs even channel counts, got {c_in}->{c_out}")
        self.cv1 = ConvBNAct(c_in // 2, c_out // 2, 3, stride=2)
        self.cv2 = ConvBNAct(c_in // 2, c_out // 2, 1)

    @property
    def c_in(self):
        return 2 * self.cv1.c_in  # each conv sees one half of the channels

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"adown needs even spatial dims, got {h}x{w}")
        y = pool2d(x, "avg", 2, 1, 0)
        a, b = split_channels(y, 2)
        a = self.cv1.forward(a)
        b = self.cv2.forward(pool2d(b, "max", 3, 2, 1))
        return concat_channels([a, b])
