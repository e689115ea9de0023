"""BN folding, kernel embedding, RepVGG fusion and the whole-graph pass."""
import numpy as np
import pytest

from conftest import U, gamma, identity_bn, rand_bn, rand_input, randomize
from vajrakit import blocks as B
from vajrakit.cost import block_tally, conv_cost
from vajrakit.graph import Model, parse_config
from vajrakit.oracle import conv2d_naive
from vajrakit.presets import SCALES, preset_text
from vajrakit.reparam import (
    embed_kernel,
    fuse_block,
    fuse_conv_bn,
    fuse_repvgg,
    identity_kernel,
    reparam_graph,
    verify_equivalence,
)
from vajrakit.tensor import DTYPE, BNParams, ConvSpec, batchnorm_infer, conv2d
from vajrakit.weights import WeightStore, init_weights

SMALL_CFG = """
block a type=conv_bn_act in=3 out=8 k=3 s=2 from=input
block b type=merudanda_x in=8 out=8 n=2 from=a
block c type=adown in=8 out=16 from=b
block d type=merudanda_bhag15 in=16 out=16 n=1 inner=repvit from=c
block e type=attention_bhag6 in=16 out=16 nblocks=1 heads=2 from=d
"""


class TestFuseConvBN:
    def test_identity_statistics_change_nothing(self, rng):
        spec = ConvSpec(4, 6, 3, 1, 1)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        fused_w, fused_b = fuse_conv_bn(spec, w, identity_bn(6))
        assert np.array_equal(fused_w, w)
        assert np.array_equal(fused_b, np.zeros(6, DTYPE))
        # the fused leaf keeps the train form's spec and gains a bias array
        conv, rep = B.ConvBNAct(4, 6, 3), B.RepVGGBlock(4, 6)
        for train, spec in ((conv, conv.spec), (rep, rep.spec3)):
            leaf = train.fuse()
            assert leaf.spec is spec and leaf.b is not None

    def test_zero_gain_folds_to_beta(self, rng):
        spec = ConvSpec(3, 4, 1)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        bn = BNParams(np.zeros(4, DTYPE), np.full(4, 2.5, DTYPE),
                      rng.standard_normal(4).astype(DTYPE), np.ones(4, DTYPE), 1e-3)
        fused_w, fused_b = fuse_conv_bn(spec, w, bn)
        assert np.all(fused_w == 0.0)
        assert np.array_equal(fused_b, bn.beta)

    def test_equivalence_on_random_instances(self, rng):
        # Both float32 paths, conv -> BN and the folded conv, are compared with
        # a float64 conv -> BN evaluated on the oracle's float64-accumulated
        # conv. With s = gamma / sqrt(var + eps) and K = k*k*c_in/groups, each
        # path is within gamma_{K+c} * (sum|w||x| |s| + |mean s| + |beta|).
        # c = 7 counts the roundings beyond the length-K dot product:
        #   folded: var + eps, sqrt, divide (s), w * s (fold), bias add;
        #   conv -> BN: the same three for s, x * s, + shift;
        # plus one for the oracle rounding its sum to float32 and one for the
        # float64 evaluation. The |mean s| and |beta| terms see at most
        # 3 (s) + 1 (mean * s) + 2 (shift, add) + 1 (float64) = 7 roundings.
        for _ in range(10):
            g = int(rng.choice([1, 2]))
            spec = ConvSpec(4 * g, 6 * g, 3, 1, 1, groups=g)
            w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
            bn = rand_bn(rng, spec.c_out)
            fused_w, fused_b = fuse_conv_bn(spec, w, bn)
            x = rand_input(rng, 2, spec.c_in, 7, 7)
            s = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.eps)
            mean, beta = (v.astype(np.float64)[None, :, None, None] for v in (bn.mean, bn.beta))
            s = s[None, :, None, None]
            ref = (conv2d_naive(x, spec, w).astype(np.float64) - mean) * s + beta
            # the oracle rounds sum|w||x| to float32 once, so divide by 1 - u
            acc = conv2d_naive(np.abs(x), spec, np.abs(w)).astype(np.float64) / (1.0 - U)
            k = spec.k * spec.k * (spec.c_in // spec.groups)
            bound = gamma(k + 7) * (acc * np.abs(s) + np.abs(mean * s) + np.abs(beta))
            for y in (batchnorm_infer(conv2d(x, spec, w), bn),
                      conv2d(x, spec, fused_w, fused_b)):
                assert np.all(np.abs(y - ref) <= bound)

    def test_nonpositive_denominator_rejected(self, rng):
        spec = ConvSpec(2, 2, 1)
        bn = BNParams(np.ones(2, DTYPE), np.zeros(2, DTYPE), np.zeros(2, DTYPE),
                      np.zeros(2, DTYPE), eps=0.0)
        with pytest.raises(ValueError):
            fuse_conv_bn(spec, np.zeros(spec.weight_shape, DTYPE), bn)

    def test_bias_is_the_batchnorm_shift_bit_for_bit(self, rng):
        # the fold's bias is the shift batchnorm_infer adds, read off it at
        # x = -0.0: with gamma > 0, -0.0 * scale + shift is shift, -0.0 too.
        # Channel 0 has mean +0.0 and beta -0.0, where the shift is -0.0.
        c = 6
        bn = BNParams(rng.uniform(0.5, 2.0, c), rng.standard_normal(c),
                      rng.standard_normal(c), rng.uniform(0.25, 1.5, c))
        bn.mean[0], bn.beta[0] = 0.0, -0.0
        spec = ConvSpec(3, c, 1)
        _, bias = fuse_conv_bn(spec, rng.standard_normal(spec.weight_shape).astype(DTYPE), bn)
        shift = batchnorm_infer(np.full((1, c, 1, 1), -0.0, DTYPE), bn).reshape(c)
        assert bias.tobytes() == shift.tobytes() and np.signbit(bias[0])

    def test_channel_mismatch_rejected(self):
        spec = ConvSpec(2, 4, 1)
        with pytest.raises(ValueError):
            fuse_conv_bn(spec, np.zeros(spec.weight_shape, DTYPE), BNParams.identity(3))


class TestEmbedKernel:
    def test_1x1_centers_into_3x3(self):
        w = np.array([[[[2.5]]]], DTYPE)
        out = embed_kernel(w, 3)
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 1, 1] == 2.5 and out.sum() == 2.5

    def test_3x3_unchanged(self, rng):
        w = rng.standard_normal((2, 2, 3, 3)).astype(DTYPE)
        assert np.array_equal(embed_kernel(w, 3), w)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            embed_kernel(rng.standard_normal((1, 1, 2, 2)).astype(DTYPE), 3)
        with pytest.raises(ValueError):
            embed_kernel(rng.standard_normal((1, 1, 1, 1)).astype(DTYPE), 4)
        with pytest.raises(ValueError):
            embed_kernel(rng.standard_normal((1, 1, 5, 5)).astype(DTYPE), 3)

    def test_delta_kernel_is_identity_conv(self, rng):
        x = rand_input(rng, 1, 4, 5, 5)
        spec = ConvSpec(4, 4, 3, 1, 1)
        assert np.array_equal(conv2d(x, spec, identity_kernel(4, 4, 3)), x)

    def test_padded_kernel_computes_same_map(self, rng):
        spec1 = ConvSpec(3, 5, 1, 1, 0)
        w1 = rng.standard_normal(spec1.weight_shape).astype(DTYPE)
        w3 = embed_kernel(w1, 3)
        spec3 = ConvSpec(3, 5, 3, 1, 1)
        x = rand_input(rng, 2, 3, 6, 6)
        diff = np.abs(conv2d(x, spec1, w1) - conv2d(x, spec3, w3))
        assert diff.max() <= 1e-6
        # Derived bound: the padded taps' products are exact zeros and adding
        # a zero is exact, so both paths sum the same three products, in
        # some order; each is within gamma_3 * sum|w||x| of the exact sum.
        # The float32 sum|w||x| is low by at most a factor 1 - gamma_3.
        acc = conv2d(np.abs(x), spec1, np.abs(w1)).astype(np.float64) / (1.0 - gamma(3))
        assert np.all(diff <= 2 * gamma(3) * acc)


class TestFuseRepVGG:
    def test_dead_1x1_branch_reduces_to_conv3_fold(self, rng):
        blk = B.RepVGGBlock(6, 6)
        blk.w3 = rng.standard_normal(blk.spec3.weight_shape).astype(DTYPE)
        blk.bn3 = rand_bn(rng, 6)
        fused_w, fused_b = fuse_repvgg(blk)
        alone_w, alone_b = fuse_conv_bn(blk.spec3, blk.w3, blk.bn3)
        assert np.array_equal(fused_w, alone_w)
        assert np.array_equal(fused_b, alone_b)

    @pytest.mark.parametrize("identity", [False, True])
    def test_equivalence_sweep(self, rng, identity):
        # Both paths compute z = sum over branches of conv_b(x) * s_b + beta_b
        # - mean_b * s_b, with s_b = gamma_b / sqrt(var_b + eps), then SiLU.
        # With K = 9c, each path's z is within gamma_{K+8} * M of the exact z,
        # M = sum_b (sum|w_b||x| |s_b| + |mean_b s_b| + |beta_b|); the identity
        # branch's sum|w||x| is |x|. 8 counts the roundings beyond the length-K
        # dot product:
        #   s_b: eps to float32, var + eps, sqrt, divide (4);
        #   unfused: x * s, + shift, two branch adds (4);
        #   fused: w * s, two adds at the centre tap, the bias add (4).
        # Each bias term sees at most 4 (s) + 1 (mean * s) + 1 (+ beta)
        # + 2 (branch sums) + 1 (applied) = 9 <= K + 8 roundings.
        # SiLU is Lipschitz with constant 1.1 (max |silu'| = 1.0998), and its
        # own float32 evaluation (tanh within 2 ulp, the + 0.5, the product)
        # adds at most 3u|z| per path, bounded here by gamma_4 * M.
        for _ in range(50):
            c = int(rng.choice([8, 16, 32]))
            stride = 1 if identity else int(rng.choice([1, 2]))
            blk = B.RepVGGBlock(c, c, stride, identity)
            blk.w3 = (rng.standard_normal(blk.spec3.weight_shape) * 0.4).astype(DTYPE)
            blk.w1 = (rng.standard_normal(blk.spec1.weight_shape) * 0.4).astype(DTYPE)
            blk.bn3 = rand_bn(rng, c)
            blk.bn1 = rand_bn(rng, c)
            if identity:
                blk.bnid = rand_bn(rng, c)
            # the in-place centre-tap fold is bitwise the padded-kernel sum
            w = fuse_repvgg(blk)[0]
            want = (fuse_conv_bn(blk.spec3, blk.w3, blk.bn3)[0]
                    + embed_kernel(fuse_conv_bn(blk.spec1, blk.w1, blk.bn1)[0], 3))
            if identity:
                spec_id = ConvSpec(c, c, 1, 1, 0)
                want = want + embed_kernel(fuse_conv_bn(spec_id, identity_kernel(c, c, 1), blk.bnid)[0], 3)
            assert w.tobytes() == want.tobytes()
            fused = fuse_block(blk)
            x = rand_input(rng, 2, c, 16, 16)
            diff = np.abs(blk.forward(x) - fused.forward(x))
            # a float32 sum of nonnegative terms is low by at most 1 - gamma_K
            accs = [conv2d(np.abs(x), spec, np.abs(w)).astype(np.float64) / (1.0 - gamma(9 * c))
                    for spec, w in ((blk.spec3, blk.w3), (blk.spec1, blk.w1))]
            branches = list(zip(accs, (blk.bn3, blk.bn1)))
            if identity:
                branches.append((np.abs(x).astype(np.float64), blk.bnid))
            m = 0.0
            for acc, bn in branches:
                s = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.eps)
                fold = np.abs(bn.mean * s) + np.abs(bn.beta.astype(np.float64))
                m = m + acc * np.abs(s)[None, :, None, None] + fold[None, :, None, None]
            bound = 2 * (1.1 * gamma(9 * c + 8) + gamma(4)) * m
            assert np.all(diff <= bound)
            assert diff.max() <= 1e-4

    def test_fused_macs_drop_to_single_conv3(self):
        blk = B.RepVGGBlock(16, 16)
        before, _, _ = block_tally(blk, 8, 8)
        after, _, _ = block_tally(blk.fuse(), 8, 8)
        conv3_macs, _ = conv_cost(blk.spec3, 8, 8)
        assert after.macs == conv3_macs
        assert after.macs < before.macs
        assert after.conv3x3 == 1

    def test_params_never_increase_under_fusion(self):
        for make in (lambda: B.RepVGGBlock(8, 8, identity=True),
                     lambda: B.ConvBNAct(8, 16, 3),
                     lambda: B.MerudandaX(8, 8, 2),
                     lambda: B.MerudandaBhag15(8, 8, 1, "repvit"),
                     lambda: B.AttentionBhag6(16, 16, 1, 2),
                     lambda: B.ADown(8, 8),
                     lambda: B.SPPF(8, 8)):
            blk = make()
            before, _, _ = block_tally(blk, 8, 8)
            after, _, _ = block_tally(blk.fuse(), 8, 8)
            assert after.params <= before.params, type(blk).__name__


class TestReparamGraph:
    def test_single_merudanda_x_fuses_all_3x3_sites(self, rng):
        cfg = "block m type=merudanda_x in=8 out=8 n=2 from=input"
        graph, _ = parse_config(cfg)
        store = init_weights(graph, 0)
        # training form: 2n RepVGG 3x3 branches, plus BN arrays everywhere
        w3_names = [n for n in store.names() if n.endswith(".w3")]
        assert len(w3_names) == 4
        assert any(".gamma" in n for n in store.names())
        fused_graph, fused_store = reparam_graph(graph, store)
        assert fused_graph.fused
        assert not any(".gamma" in n for n in fused_store.names())  # no BN left
        assert not any(n.endswith(".w3") for n in fused_store.names())  # no branches
        k3 = [n for n, a in fused_store.items() if a.ndim == 4 and a.shape[-1] == 3]
        assert len(k3) == 2 * 2 + 2  # 2n fused RepVGG + 2 stage convs

    def test_noop_on_already_fused(self, rng):
        graph, _ = parse_config(SMALL_CFG)
        store = init_weights(graph, 3)
        g1, s1 = reparam_graph(graph, store)
        g2, s2 = reparam_graph(g1, s1)
        assert s1.names() == s2.names()
        for name, arr in s1.items():
            assert np.array_equal(arr, s2[name]), name

    def test_end_to_end_equivalence_small_graph(self, rng):
        graph, _ = parse_config(SMALL_CFG)
        store = init_weights(graph, 9)
        # randomize BN statistics in the store to exercise the fold algebra
        gen = np.random.default_rng(10)
        randomized = WeightStore()
        for name, arr in store.items():
            if name.endswith(".mean"):
                arr = gen.normal(0, 0.2, arr.shape).astype(DTYPE)
            elif name.endswith(".var"):
                arr = gen.uniform(0.25, 1.5, arr.shape).astype(DTYPE)
            elif name.endswith(".gamma"):
                arr = gen.uniform(0.8, 1.25, arr.shape).astype(DTYPE)
            elif name.endswith(".beta"):
                arr = gen.normal(0, 0.1, arr.shape).astype(DTYPE)
            randomized.add(name, arr)
        store = randomized
        fused_graph, fused_store = reparam_graph(graph, store)
        base = Model(graph).bind(store)
        fused = Model(fused_graph).bind(fused_store)
        report = verify_equivalence(lambda x: base.stage_outputs(x),
                                    lambda x: fused.stage_outputs(x),
                                    trials=3, shape=(2, 3, 32, 32), tol=1e-3)
        assert report.passed, report.max_abs

    @pytest.mark.parametrize("scale", SCALES)
    def test_fused_arrays_float32_c_contiguous(self, scale):
        graph, _ = parse_config(preset_text(scale))
        fused_graph, store = reparam_graph(graph, init_weights(graph, 0))
        for name, arr in store.items():
            assert arr.dtype == DTYPE and arr.flags.c_contiguous, name
        for name, arr, _ in Model(fused_graph).bind(store).named_arrays():
            assert arr.dtype == DTYPE and arr.flags.c_contiguous, name

    def test_missing_weight_rejected(self):
        graph, _ = parse_config("block a type=conv_bn_act in=3 out=4 k=1 s=1 from=input")
        from vajrakit.weights import WeightStore

        with pytest.raises(KeyError):
            reparam_graph(graph, WeightStore())


class TestVerifyEquivalence:
    def test_reflexive(self):
        f = lambda x: x * DTYPE(2.0)
        report = verify_equivalence(f, f, trials=3, shape=(1, 2, 4, 4), tol=0.0)
        assert report.passed and report.max_abs == 0.0

    def test_constructed_failure(self):
        inputs = []
        f = lambda x: inputs.append(x) or x
        g = lambda x: x + DTYPE(1.0)
        report = verify_equivalence(f, g, trials=2, shape=(1, 1, 3, 3), tol=0.5)
        assert not report.passed
        assert abs(report.max_abs - 1.0) <= 1e-6
        # Derived bound: float32 x + 1 is within u * |x + 1| <= u * (|x| + 1)
        # of the exact sum, and the float64 difference of two float32 values
        # of these sizes is exact, so each |g(x) - f(x)| is within that of 1.
        assert abs(report.max_abs - 1.0) <= U * max(float(np.abs(x).max()) + 1.0 for x in inputs)

    def test_repvgg_primary_use(self, rng):
        blk = B.RepVGGBlock(8, 8)
        randomize(blk, rng, with_bn=True)
        fused = fuse_block(blk)
        report = verify_equivalence(blk.forward, fused.forward,
                                    trials=5, shape=(2, 8, 16, 16), tol=1e-4)
        assert report.passed

    def test_shape_mismatch_between_candidates(self):
        f = lambda x: x
        g = lambda x: x[:, :, :2, :2]
        with pytest.raises(Exception):
            verify_equivalence(f, g, trials=1, shape=(1, 1, 4, 4), tol=1.0)
