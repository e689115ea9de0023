"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (visible with -s; pytest -v
shows the same pass/fail per criterion through the test names).
"""
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_bn, rand_input, randomize
from vajrakit import blocks as B
from vajrakit import oracle
from vajrakit.cost import adown_cost, block_tally, conv_cost, graph_cost
from vajrakit.graph import Model, parse_config
from vajrakit.presets import REFERENCE_TOTALS, SCALES, load_preset, preset_text
from vajrakit.reparam import reparam_graph, verify_equivalence
from vajrakit.tensor import DTYPE, ConvSpec
from vajrakit.weights import WeightStore, init_weights


def _report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_reparameterization_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)

    # 200 random RepVGG configs, identity branch on and off
    worst = 0.0
    for i in range(200):
        c = int(rng.choice([8, 16, 32]))
        stride = int(rng.choice([1, 2]))
        identity = bool(rng.integers(0, 2)) and stride == 1
        blk = B.RepVGGBlock(c, c, stride, identity)
        blk.w3 = (rng.standard_normal(blk.spec3.weight_shape) * 0.4).astype(DTYPE)
        blk.w1 = (rng.standard_normal(blk.spec1.weight_shape) * 0.4).astype(DTYPE)
        blk.bn3 = rand_bn(rng, c)
        blk.bn1 = rand_bn(rng, c)
        if identity:
            blk.bn_id = rand_bn(rng, c)
        fused = blk.fuse()
        x = rand_input(rng, 2, c, 16, 16)
        diff = float(np.abs(blk.forward(x) - fused.forward(x)).max())
        worst = max(worst, diff)
        assert diff <= 1e-4, f"config {i}: diff {diff}"

    # full scale-N graph, stock initialization
    graph, _ = load_preset("N")
    store = init_weights(graph, 0)
    fused_graph, fused_store = reparam_graph(graph, store)
    base = Model(graph).bind(store)
    fused = Model(fused_graph).bind(fused_store)
    report = verify_equivalence(lambda x: base.stage_outputs(x),
                                lambda x: fused.stage_outputs(x),
                                trials=2, shape=(1, 3, 640, 640), tol=1e-3, seed=0)
    assert report.passed, f"full-graph diff {report.max_abs}"

    # same gate with randomized BN statistics injected into the store,
    # which makes the fold arithmetic nontrivial at every site
    gen = np.random.default_rng(77)
    for name, arr in store.items():
        if name.endswith(".mean"):
            arr[...] = gen.normal(0, 0.2, arr.shape).astype(DTYPE)
        elif name.endswith(".var"):
            arr[...] = gen.uniform(0.25, 1.5, arr.shape).astype(DTYPE)
        elif name.endswith(".gamma"):
            arr[...] = gen.uniform(0.8, 1.25, arr.shape).astype(DTYPE)
        elif name.endswith(".beta"):
            arr[...] = gen.normal(0, 0.1, arr.shape).astype(DTYPE)
    fused_graph2, fused_store2 = reparam_graph(graph, store)
    base2 = Model(graph).bind(store)
    fused2 = Model(fused_graph2).bind(fused_store2)
    report2 = verify_equivalence(lambda x: base2.stage_outputs(x),
                                 lambda x: fused2.stage_outputs(x),
                                 trials=5, shape=(2, 3, 320, 320), tol=1e-3, seed=1)
    assert report2.passed, f"randomized-stats diff {report2.max_abs}"
    # scale-free sanity: diff relative to the largest output magnitude
    x = np.random.default_rng(5).standard_normal((1, 3, 320, 320)).astype(DTYPE)
    a = base2.stage_outputs(x)
    b = fused2.stage_outputs(x)
    for tag in a:
        scale = max(float(np.abs(a[tag]).max()), 1e-12)
        assert float(np.abs(a[tag] - b[tag]).max()) / scale <= 1e-3

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s, budget is 2 minutes"
    _report(1, f"reparameterization equivalence (worst block diff {worst:.2e}, "
               f"graph diff {max(report.max_abs, report2.max_abs):.2e}, {elapsed:.0f}s)")


def test_criterion_2_adown_arithmetic():
    for c in range(32, 257, 32):
        for co in range(32, 257, 32):
            for hw in (16, 32, 64):
                ac = adown_cost(c, co, hw, hw)
                assert ac.ratio_vs_standard == Fraction(5, 18)
                assert Fraction(ac.params, ac.std_params) == Fraction(5, 18)
                assert 8 * ac.macs == 5 * hw * hw * c * co  # (5/8) H W C C_out exactly

    ratio = float(Fraction(5, 18))
    assert int(1000 * ratio) == 277          # the published 27.7% figure
    assert f"{100 * ratio:.1f}" == "27.8"    # and its rounded rendering

    rng = np.random.default_rng(3)
    blk = randomize(B.ADown(64, 128), rng)
    x = rand_input(rng, 1, 64, 32, 32)
    with oracle.reference() as ref:
        blk.forward(x)
    assert ref.macs == adown_cost(64, 128, 32, 32).macs == 5_242_880
    _report(2, "adown arithmetic: ratio 5/18 over 192 geometries, live counter 5,242,880")


def test_criterion_3_cost_oracle_equality():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = int(rng.choice([1, 2, 4]))
        c_in = g * int(rng.integers(1, 5))
        c_out = g * int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5, 7]))
        s = int(rng.choice([1, 2]))
        p = k // 2
        h = int(rng.integers(k, 13))
        w_ = int(rng.integers(k, 13))
        spec = ConvSpec(c_in, c_out, k, s, p, g)
        ref = oracle.ReferenceBackend()
        ref.conv2d(rand_input(rng, 1, c_in, h, w_), spec,
                   rng.standard_normal(spec.weight_shape).astype(DTYPE))
        macs, _ = conv_cost(spec, h, w_)
        assert ref.macs == macs, spec

    kinds = [
        B.ConvBNAct(8, 8, 3, 2),
        B.RepVGGBlock(8, 8, identity=True),
        B.RepCSP(8, 8, 2),
        B.MerudandaX(8, 8, 2),
        B.MerudandaDW(8, 7),
        B.SqueezeExcite(8),
        B.RepViTBlock(8, 3),
        B.MerudandaBhag15(8, 8, 2, "repvit"),
        B.SPPF(8, 8),
        B.AttentionV2(8, 2),
        B.AttentionBlockV2(8, 1),
        B.AttentionBhag6(16, 16, 1, 2),
        B.ADown(8, 8),
    ]
    for blk in kinds:
        randomize(blk, rng)
        x = rand_input(rng, 1, blk.c_in, 8, 8)
        with oracle.reference() as ref:
            blk.forward(x)
        tally, _, _ = block_tally(blk, 8, 8)
        assert ref.macs == tally.macs, type(blk).__name__
        learnable = sum(a.size for _, a, st in blk.named_arrays("t") if not st)
        assert tally.params == learnable, type(blk).__name__
    _report(3, "analytic MACs/params == instrumented counter (50 specs + 13 block kinds)")


def test_criterion_4_receptive_field_census():
    for n in (1, 2, 3):
        tally, _, _ = block_tally(B.MerudandaX(32, 32, n), 8, 8)
        assert tally.conv3x3 == 2 * n + 2
        graph, _ = parse_config(f"block m type=merudanda_x in=32 out=32 n={n} from=input")
        report = graph_cost(graph, (32, 8, 8))
        assert report.totals["conv3x3"] == 2 * n + 2
    _report(4, "merudanda_x census == 2n+2 for n in {1,2,3} (graph walk)")


def test_criterion_5_attention_properties():
    rng = np.random.default_rng(21)
    for i in range(100):
        heads = int(rng.choice([1, 2, 4]))
        c = heads * int(rng.choice([8, 16, 64]))
        h = int(rng.choice([3, 4, 6]))
        blk = randomize(B.AttentionV2(c, heads), rng)
        x = rand_input(rng, 1, c, h, h)
        y, attn = blk.forward(x, return_attn=True)
        assert y.shape == x.shape, f"instance {i}"
        assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6, f"instance {i}"

    # uniform-logit case: attention output equals the spatial mean of V per head
    blk = randomize(B.AttentionV2(32, 4), rng)
    blk.qk.w[...] = 0.0
    x = rand_input(rng, 2, 32, 4, 4)
    y, attn = blk.forward(x, return_attn=True)
    sites = 16
    assert np.abs(attn - 1.0 / sites).max() <= 1e-7
    v_seq = blk.v.forward(x).reshape(2, 4, 8, sites)
    mean_v = v_seq.mean(axis=3, dtype=DTYPE)
    from vajrakit.tensor import matmul_batched

    out_seq = matmul_batched(v_seq, attn.transpose(0, 1, 3, 2))
    assert np.abs(out_seq - mean_v[..., None]).max() <= 1e-6
    _report(5, "attention: 100 instances row-stochastic <=1e-6, uniform case == mean(V)")


def test_criterion_6_residual_identities():
    rng = np.random.default_rng(8)
    for blk in (B.MerudandaDW(16, 7), B.RepViTBlock(16, 3), B.AttentionBlockV2(16, 2)):
        x = rand_input(rng, 2, 16, 8, 8)
        y = blk.forward(x)
        assert np.array_equal(x, y), type(blk).__name__
        assert x.tobytes() == y.tobytes(), type(blk).__name__
    _report(6, "residual blocks with zeroed weights reproduce input bit-exactly")


def test_criterion_7_scale_placement_rules():
    for scale in SCALES:
        graph, scale_cfg = load_preset(scale)
        assert scale_cfg is not None and scale_cfg.scale == scale
        scale_cfg.validate(graph)
        want_n = 2 if scale in ("L", "X") else 1
        want_blocks = 2 if scale in ("L", "X") else 1
        for node in graph.nodes:
            if node.kind in ("merudanda_x", "merudanda_bhag15"):
                assert node.attrs["n"] == want_n
            if node.kind == "attention_bhag6":
                assert node.attrs["nblocks"] == want_blocks and node.stage == "S5"
        if scale == "X":
            assert sum(1 for n in graph.nodes if n.kind == "adown") == 6
        if scale in ("M", "L"):
            assert sorted(n.stage for n in graph.nodes if n.kind == "adown") == ["P5", "S5"]
        if scale in ("N", "S"):
            assert not any(n.kind == "adown" for n in graph.nodes)
    _report(7, "all five presets satisfy the scale invariants")


def test_criterion_8_persistence_and_determinism(tmp_path):
    graph, _ = load_preset("N")
    store = init_weights(graph, 0)

    path = tmp_path / "n.vjw"
    store.save(path)
    loaded = WeightStore.load(path)
    assert store.names() == loaded.names()
    for name, arr in store.items():
        assert arr.tobytes() == loaded[name].tobytes(), name

    # fixed-seed forward, byte-identical across two separate processes
    cfg_path = tmp_path / "n.cfg"
    cfg_path.write_text(preset_text("N"), "utf-8")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"fwd_{tag}.vjw"
        proc = subprocess.run(
            [sys.executable, "-m", "vajrakit.cli", "forward", "--config", str(cfg_path),
             "--seed", "9", "--shape", "1x3x128x128", "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    g1, s1 = reparam_graph(graph, store)
    g2, s2 = reparam_graph(g1, s1)
    assert s1.names() == s2.names()
    for name, arr in s1.items():
        assert arr.tobytes() == s2[name].tobytes(), name
    _report(8, "roundtrip bit-identical, two-process forward byte-identical, "
               "reparam idempotent")


def test_criterion_9_reporting_delta_nongating(capsys):
    for scale in ("N", "X"):
        graph, _ = load_preset(scale)
        report = graph_cost(graph, (3, 640, 640))
        tot = report.totals
        ref_params_m, ref_flops_b = REFERENCE_TOTALS[scale]
        delta_p = 100.0 * (tot["params"] / 1e6 - ref_params_m) / ref_params_m
        delta_f = 100.0 * (tot["flops"] / 1e9 - ref_flops_b) / ref_flops_b
        line = (f"  scale {scale}: computed {tot['params'] / 1e6:.2f}M / "
                f"{tot['flops'] / 1e9:.1f}B vs published {ref_params_m}M / {ref_flops_b}B "
                f"({delta_p:+.1f}% params, {delta_f:+.1f}% FLOPs)")
        # documented, never asserted: the deltas may be large
        with capsys.disabled():
            print(line)
    with capsys.disabled():
        _report(9, "computed totals printed beside published targets (non-gating)")
