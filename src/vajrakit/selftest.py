"""Self-contained property suite behind `vajrakit selftest`.

Compact versions of the module property checks, runnable from an installed
package with no test files around. The pytest suite covers the same ground
(and more) with full sweep sizes.
"""
from __future__ import annotations

import os
import tempfile
from fractions import Fraction

import numpy as np

from . import blocks as B
from . import oracle
from .cost import adown_cost, block_tally
from .graph import Model, parse_config
from .presets import SCALES, load_preset
from .reparam import fuse_block, reparam_graph, verify_equivalence
from .tensor import DTYPE, BNParams, ConvSpec, conv2d, conv_out_hw, pool2d, softmax_lastdim
from .weights import WeightStore, _fill_span, init_weights


def rand_bn(rng, c) -> BNParams:
    """Well-conditioned random statistics: positive var, moderate gain."""
    return BNParams(
        rng.uniform(0.5, 1.5, c).astype(DTYPE),
        rng.normal(0, 0.2, c).astype(DTYPE),
        rng.normal(0, 0.5, c).astype(DTYPE),
        rng.uniform(0.25, 2.0, c).astype(DTYPE),
    )


def randomize(block, rng, scale=0.3, with_bn=False):
    """Set a block's parameters to fresh random arrays: kernels always,
    biases always, batchnorm statistics only when with_bn."""
    for name, owner, attr, is_stat in block.slots("t"):
        shape = getattr(owner, attr).shape
        new = None
        if is_stat:
            if with_bn:
                if name.endswith(".mean"):
                    new = rng.normal(0, 0.2, shape)
                else:  # .var
                    new = rng.uniform(0.25, 1.5, shape)
        elif len(shape) == 4:
            new = rng.standard_normal(shape) * scale
        elif name.endswith(".b"):
            new = rng.normal(0, 0.1, shape)
        elif with_bn and name.endswith(".gamma"):
            new = rng.uniform(0.8, 1.25, shape)
        elif with_bn and name.endswith(".beta"):
            new = rng.normal(0, 0.1, shape)
        if new is not None:
            setattr(owner, attr, new.astype(DTYPE))
    return block


def _check(ok, msg: str = "check failed") -> None:  # an assert that python -O keeps
    if not ok:
        raise AssertionError(msg)


def check_conv_matches_loop_nest():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = int(rng.choice([1, 2, 4]))
        c_in = g * int(rng.integers(1, 4))
        c_out = g * int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.choice([1, 2]))
        spec = ConvSpec(c_in, c_out, k, s, k // 2, g)
        x = rng.standard_normal((2, c_in, 9, 9)).astype(DTYPE)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        b = rng.standard_normal(c_out).astype(DTYPE)
        fast = conv2d(x, spec, w, b)
        ref = oracle.conv2d_naive(x, spec, w, b)
        _check(np.abs(fast - ref).max() <= 1e-5, f"conv mismatch on {spec}")


def check_pool_and_softmax():
    x = np.array([[[[1, 2], [3, 4]]]], DTYPE)
    _check(pool2d(x, "avg", 2, 1, 0)[0, 0, 0, 0] == DTYPE(2.5))
    x16 = np.arange(1, 17, dtype=DTYPE).reshape(1, 1, 4, 4)
    got = pool2d(x16, "max", 3, 2, 1)[0, 0]
    _check(got.tolist() == [[6, 8], [14, 16]])
    row = np.array([[0.0, np.log(3.0)]], DTYPE)
    sm = softmax_lastdim(row)
    _check(np.abs(sm - [0.25, 0.75]).max() <= 1e-6)
    shifted = softmax_lastdim(row + DTYPE(5.0))
    _check(np.abs(sm - shifted).max() <= 1e-6)


def check_repvgg_fusion():
    rng = np.random.default_rng(11)
    for i in range(30):
        c = int(rng.choice([8, 16, 32]))
        stride = int(rng.choice([1, 2]))
        identity = bool(rng.integers(0, 2)) and stride == 1
        blk = B.RepVGGBlock(c, c, stride, identity)
        blk.w3 = rng.standard_normal(blk.spec3.weight_shape).astype(DTYPE) * DTYPE(0.3)
        blk.w1 = rng.standard_normal(blk.spec1.weight_shape).astype(DTYPE) * DTYPE(0.3)
        blk.bn3 = rand_bn(rng, c)
        blk.bn1 = rand_bn(rng, c)
        if identity:
            blk.bnid = rand_bn(rng, c)
        fused = fuse_block(blk)
        x = rng.standard_normal((2, c, 16, 16)).astype(DTYPE)
        diff = np.abs(blk.forward(x) - fused.forward(x)).max()
        _check(diff <= 1e-4, f"fusion diff {diff} on config {i}")


def check_census_2n_plus_2():
    for n in (1, 2, 3):
        blk = B.MerudandaX(32, 32, n)
        tally, _, _ = block_tally(blk, 8, 8)
        _check(tally.conv3x3 == 2 * n + 2, f"census {tally.conv3x3} != {2 * n + 2}")


def check_residual_identities():
    rng = np.random.default_rng(3)
    for blk in (B.MerudandaDW(16, 7), B.RepViTBlock(16, 3), B.AttentionBlockV2(16, 2)):
        x = rng.standard_normal((2, 16, 8, 8)).astype(DTYPE)
        y = blk.forward(x)
        _check(np.array_equal(x, y), f"{type(blk).__name__} broke the residual identity")


def check_attention_rows():
    rng = np.random.default_rng(5)
    for _ in range(10):
        heads = int(rng.choice([1, 2, 4]))
        c = heads * int(rng.choice([8, 16]))
        blk = B.AttentionV2(c, heads)
        randomize(blk, rng)
        x = rng.standard_normal((1, c, 6, 6)).astype(DTYPE)
        y, attn = blk.forward(x, return_attn=True)
        _check(y.shape == x.shape)
        rows = attn.sum(axis=-1)
        _check(np.abs(rows - 1.0).max() <= 1e-6, "attention rows must sum to 1")


def check_adown_arithmetic():
    ac = adown_cost(64, 128, 32, 32)
    _check(ac.macs == 5242880)
    _check(ac.ratio_vs_standard == Fraction(5, 18))
    _check(Fraction(ac.params, ac.std_params) == Fraction(5, 18))
    blk = B.ADown(64, 128)
    rng = np.random.default_rng(1)
    randomize(blk, rng)
    x = rng.standard_normal((1, 64, 32, 32)).astype(DTYPE)
    with oracle.reference() as ref:
        blk.forward(x)
    _check(ref.macs == ac.macs, f"counter {ref.macs} != analytic {ac.macs}")


def check_cost_counter_equality():
    rng = np.random.default_rng(13)
    small = [
        B.RepVGGBlock(8, 8),
        B.MerudandaX(8, 8),
        B.MerudandaDW(8, 3),
        B.RepViTBlock(8, 7),
        B.MerudandaBhag15(8, 8, 1, "repvit"),
        B.SPPF(8, 8),
        B.AttentionBhag6(16, 16, 1, 2),
        B.ADown(8, 8),
        B.ConvBNAct(8, 8, 3, 2),
    ]
    for blk in small:
        randomize(blk, rng)
        x = rng.standard_normal((1, blk.c_in, 8, 8)).astype(DTYPE)
        with oracle.reference() as ref:
            blk.forward(x)
        tally, _, _ = block_tally(blk, 8, 8)
        _check(ref.macs == tally.macs, f"{type(blk).__name__}: {ref.macs} != {tally.macs}")


def check_store_roundtrip_and_idempotence():
    cfg = """
block a type=conv_bn_act in=3 out=8 k=3 s=2 from=input
block b type=merudanda_x in=8 out=8 n=1 from=a
block c type=adown in=8 out=16 from=b
"""
    graph, _ = parse_config(cfg)
    store = init_weights(graph, 42)
    # init's draws, whole and cut into the runs [0, 1), [1, 3) and [3, n) of
    # kernels, equal each kernel drawn in turn from one generator; a numpy
    # whose Generator draws otherwise fails
    sites = [(name, arr.shape, 1.0 / np.sqrt(arr[0].size)) for name, arr in store.items() if arr.ndim == 4]
    rng = np.random.default_rng(42)
    split = [np.empty(shape, DTYPE) for _, shape, _ in sites]
    for i, j in ((0, 1), (1, 3), (3, len(split))):
        _fill_span(split, 42, i, j)
    for (name, shape, bound), arr in zip(sites, split):
        want = rng.uniform(-bound, bound, shape).astype(DTYPE).tobytes()
        _check(store[name].tobytes() == want == arr.tobytes(), f"init draws differ from sequential at {name}")
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "w.vjw")
        store.save(path)
        loaded = WeightStore.load(path)
        _check(store.names() == loaded.names())
        for name, arr in store.items():
            _check(np.array_equal(arr, loaded[name]), f"roundtrip changed {name}")
    g1, s1 = reparam_graph(graph, store)
    g2, s2 = reparam_graph(g1, s1)
    _check(s1.names() == s2.names())
    for name, arr in s1.items():
        _check(np.array_equal(arr, s2[name]), f"reparam pass not idempotent at {name}")
    x = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(DTYPE)
    base = Model(graph).bind(store)
    fused = Model(g1).bind(s1)
    rep = verify_equivalence(base.stage_outputs, fused.stage_outputs, 3, x.shape, 1e-3)
    _check(rep.passed, f"graph fusion diff {rep.max_abs}")


def check_presets():
    for scale in SCALES:
        graph, scale_cfg = load_preset(scale)
        _check(scale_cfg is not None and scale_cfg.scale == scale)
        attn_nodes = [n for n in graph.nodes if n.kind == "attention_bhag6"]
        _check(len(attn_nodes) == 1 and attn_nodes[0].stage == "S5")


def check_conv_linearity_and_shapes():
    rng = np.random.default_rng(17)
    spec = ConvSpec(4, 6, 3, 1, 1)
    w = (rng.standard_normal(spec.weight_shape) * 0.1).astype(DTYPE)
    x = rng.standard_normal((1, 4, 8, 8)).astype(DTYPE)
    y = rng.standard_normal((1, 4, 8, 8)).astype(DTYPE)
    a, b = DTYPE(1.5), DTYPE(-2.0)
    lhs = conv2d((a * x + b * y).astype(DTYPE), spec, w)
    rhs = a * conv2d(x, spec, w) + b * conv2d(y, spec, w)
    _check(np.abs(lhs - rhs).max() <= 1e-5)
    for _ in range(50):
        k = int(rng.choice([1, 3, 5, 7]))
        s = int(rng.choice([1, 2]))
        p = int(rng.integers(0, 4))
        h = int(rng.integers(k, 20))
        w_ = int(rng.integers(k, 20))
        spec = ConvSpec(2, 3, k, s, p)
        x = rng.standard_normal((1, 2, h, w_)).astype(DTYPE)
        out = conv2d(x, spec, np.zeros(spec.weight_shape, DTYPE))
        _check(out.shape[2:] == conv_out_hw(h, w_, k, s, p))


def check_stage_outputs_match_forward():
    graph, _ = load_preset("N")
    model = Model(graph).bind(init_weights(graph, 0))
    x = np.random.default_rng(5).standard_normal((1, 3, 64, 64)).astype(DTYPE)
    outs = model.forward(x)
    want = {}
    for node in graph.nodes:
        if node.stage is not None:
            want[node.stage] = outs[node.id]
    got = model.stage_outputs(x)
    _check(list(got) == list(want), f"stage tags {list(got)} != {list(want)}")
    for tag, y in want.items():
        _check(np.array_equal(got[tag], y), f"stage {tag} differs from forward")


CHECKS = [
    ("tensor-core: conv vs naive loop nest", check_conv_matches_loop_nest),
    ("tensor-core: pooling and softmax examples", check_pool_and_softmax),
    ("tensor-core: conv linearity + shape arithmetic", check_conv_linearity_and_shapes),
    ("reparam: repvgg fusion equivalence", check_repvgg_fusion),
    ("nn-blocks: merudanda_x census 2n+2", check_census_2n_plus_2),
    ("nn-blocks: residual identities bit-exact", check_residual_identities),
    ("nn-blocks: attention rows sum to 1", check_attention_rows),
    ("cost-model: adown arithmetic 5/18", check_adown_arithmetic),
    ("cost-model: analytic MACs == counter", check_cost_counter_equality),
    ("assembly: store roundtrip + idempotent fusion", check_store_roundtrip_and_idempotence),
    ("assembly: shipped presets valid", check_presets),
    ("assembly: stage_outputs equals forward's tagged outputs", check_stage_outputs_match_forward),
]


def run(print_line=print) -> list[str]:
    """Run every check; returns the names that failed."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report any failure mode
            failures.append(name)
            print_line(f"FAIL  {name}: {e}")
        else:
            print_line(f"PASS  {name}")
    print_line(f"{len(CHECKS) - len(failures)}/{len(CHECKS)} suites passed")
    return failures
