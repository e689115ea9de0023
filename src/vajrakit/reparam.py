"""Structural reparameterization: fold batchnorm into convolutions and
collapse multi-branch RepVGG blocks into single 3x3 convolutions.

Every fold lives here: ``fuse_conv_bn`` and ``fuse_repvgg`` return one
leaf's folded (weights, bias); ``fuse_block`` returns a block's ``fuse()``
structure with those arrays set, its bound inference-form twin. The fusion
covers the affine part only; activations stay outside. All transforms are
pure and idempotent: fusing an already-fused model returns bit-identical
weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import blocks as B
from .graph import Model, ModelGraph
from .tensor import DTYPE, BNParams, ConvSpec, ShapeError
from .weights import WeightStore, run_spans


def fuse_conv_bn(spec: ConvSpec, weights: np.ndarray,
                 bn: BNParams) -> tuple[np.ndarray, np.ndarray]:
    """Fold batchnorm statistics into the weights of a bias-free conv.

    W' = W * gamma / sqrt(var + eps) per output channel,
    b' = (0 - mean) * gamma / sqrt(var + eps) + beta.
    """
    if bn.channels != spec.c_out:
        raise ValueError(f"BN has {bn.channels} channels, conv emits {spec.c_out}")
    denom_sq = bn.var + DTYPE(bn.eps)
    if np.any(denom_sq <= 0):
        raise ValueError("var + eps must be positive to fold batchnorm")
    scale = bn.gamma / np.sqrt(denom_sq)
    return weights * scale[:, None, None, None], (DTYPE(0) - bn.mean) * scale + bn.beta


def embed_kernel(weights: np.ndarray, target: int) -> np.ndarray:
    """Zero-pad a k x k kernel stack to K x K, centered.

    Running the padded kernel with padding increased by (K - k) / 2 computes
    the same map as the original.
    """
    k = weights.shape[-1]
    if k % 2 == 0 or target % 2 == 0:
        raise ValueError(f"kernel sides must be odd, got {k} -> {target}")
    if k > target:
        raise ValueError(f"cannot embed {k}x{k} into {target}x{target}")
    if k == target:
        return weights.copy()
    pad = (target - k) // 2
    return np.pad(weights, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def identity_kernel(c_out: int, c_in_per_group: int, k: int) -> np.ndarray:
    """Delta kernel realizing the identity map as a k x k conv (grouped-aware):
    weight[o, o % c_in_per_group, center, center] = 1."""
    w = np.zeros((c_out, c_in_per_group, k, k), DTYPE)
    mid = k // 2
    for o in range(c_out):
        w[o, o % c_in_per_group, mid, mid] = 1.0
    return w


def fuse_repvgg(block) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a RepVGGBlock's branches into one 3x3 conv with bias.

    Each branch is BN-folded first; the 1x1 branch (and the identity branch,
    when present) is added into the centre tap of the folded 3x3 kernel in
    place, then the biases sum. The centre taps sum in the same order as
    ``w3 + embed_kernel(w1, 3) (+ embed_kernel(wid, 3))``, so the result is
    bitwise that sum, except that an off-centre ``-0.0`` stays ``-0.0``
    where adding the padding's ``+0.0`` made it ``+0.0`` (initialized
    weights never hold one).
    """
    w, b3 = fuse_conv_bn(block.spec3, block.w3, block.bn3)
    w1, b1 = fuse_conv_bn(block.spec1, block.w1, block.bn1)
    w[:, :, 1, 1] += w1[:, :, 0, 0]
    b = b3 + b1
    if block.bnid is not None:
        spec_id = ConvSpec(block.spec3.c_in, block.spec3.c_out, 1, 1, 0)
        w_id = identity_kernel(spec_id.c_out, spec_id.c_in, 1)
        wid, bid = fuse_conv_bn(spec_id, w_id, block.bnid)
        w[:, :, 1, 1] += wid[:, :, 0, 0]
        b = b + bid
    return w, b


def _fold_leaf(leaf, out) -> None:
    """Set the folded arrays of `leaf` on `out`, its twin in ``fuse()``'s
    structure; a ``ConvBNAct`` without batchnorm is its own twin and keeps
    its arrays."""
    if isinstance(leaf, B.RepVGGBlock):
        out.w, out.b = fuse_repvgg(leaf)
    elif leaf.bn is not None:
        out.w, out.b = fuse_conv_bn(leaf.spec, leaf.w, leaf.bn)


def _twins(block, fused):
    """(leaf, twin) pairs of a block and its ``fuse()`` structure."""
    return [(leaf, out) for (_, leaf), (_, out) in zip(block.leaves(""), fused.leaves(""), strict=True)]


def fuse_block(block):
    """``block.fuse()`` with each leaf's folded arrays set."""
    fused = block.fuse()
    for leaf, out in _twins(block, fused):
        _fold_leaf(leaf, out)
    return fused


@dataclass
class TrialDiff:
    max_abs: float
    max_rel: float


@dataclass
class EquivalenceReport:
    """Per-trial max abs/rel differences between two callables, plus a pass
    flag under the given absolute tolerance."""

    trials: list
    tol: float

    @property
    def max_abs(self) -> float:
        return max(t.max_abs for t in self.trials)

    @property
    def passed(self) -> bool:
        return self.max_abs <= self.tol


def _flatten_outputs(out):
    if isinstance(out, dict):
        return [out[k] for k in sorted(out)]
    if isinstance(out, (list, tuple)):
        return list(out)
    return [out]


def reparam_graph(graph, store):
    """Whole-model pass: apply BN folding and RepVGG fusion at every site.

    Returns a (graph, store) pair in which no node carries multi-branch
    RepVGG blocks or standalone batchnorm. Graphs already marked fused pass
    through with bit-identical weights, so the pass is idempotent.

    The leaves of every block are folded in runs (``weights.run_spans``,
    weighted by each leaf's array sizes), each leaf whole in the run holding
    its middle element. The folded arrays join the store in node order, so
    the bytes do not depend on the split.
    """
    blocks = {node_id: blk for node_id, blk in Model(graph).bind(store).blocks.items() if blk is not None}
    fused = {node_id: blk.fuse() for node_id, blk in blocks.items()}
    twins = [pair for node_id, blk in blocks.items() for pair in _twins(blk, fused[node_id])]

    def fold(i, j):
        for leaf, out in twins[i:j]:
            _fold_leaf(leaf, out)

    run_spans(fold, [sum(arr.size for _, arr, _ in leaf.named_arrays("")) for leaf, _ in twins])
    out = WeightStore()
    for node_id, blk in fused.items():
        for name, arr, _ in blk.named_arrays(node_id):
            arr.flags.writeable = False  # a folded array has no other holder: adopt it
            out.add(name, arr)
    return ModelGraph(graph.nodes, graph.scale, fused=True), out


def verify_equivalence(f: Callable, g: Callable, trials: int, shape: tuple,
                       tol: float, seed: int = 0) -> EquivalenceReport:
    """Compare two tensor functions on random inputs of the given shape."""
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(trials):
        x = rng.standard_normal(shape).astype(DTYPE)
        fa = _flatten_outputs(f(x))
        ga = _flatten_outputs(g(x))
        if len(fa) != len(ga):
            raise ShapeError(f"output arity differs: {len(fa)} vs {len(ga)}")
        max_abs = 0.0
        max_rel = 0.0
        for a, b in zip(fa, ga):
            if a.shape != b.shape:
                raise ShapeError(f"output shapes differ: {a.shape} vs {b.shape}")
            diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
            max_abs = max(max_abs, float(diff.max()))
            denom = np.maximum(np.abs(a.astype(np.float64)), 1e-12)
            max_rel = max(max_rel, float((diff / denom).max()))
        results.append(TrialDiff(max_abs, max_rel))
    return EquivalenceReport(results, tol)
