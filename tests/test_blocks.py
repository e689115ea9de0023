"""Block forwards: constructed identities, shape contracts, oracle composition."""
import numpy as np
import pytest

from conftest import EXP_ULPS, TANH_ULPS, U, gamma, identity_bn, rand_bn, rand_input, randomize
from vajrakit import blocks as B
from vajrakit import oracle
from vajrakit.reparam import identity_kernel
from vajrakit.tensor import (
    DTYPE,
    activation,
    concat_channels,
    conv2d,
    pool2d,
    split_channels,
)

# Bounds on a block's fast-vs-oracle gap, carried element by element through
# its ops as (mag, err) float64 arrays: mag bounds |value| on both sides and
# err bounds |fast - ref|. Under oracle.reference() only conv and pool differ
# from the fast path; every other op is the same code on both sides, so it
# adds its Lipschitz constant times err plus its own roundings on each side.
# Conv (TestConv2dDerivedBound): within gamma_{K+3} * sum|w||x| of the oracle
# at one input, plus sum|w| * err for inputs that differ by err.
# SiLU (test_silu_one): h * (tanh(h) + 1) with h = z/2 is within
# |h| * (TANH_ULPS * u + 4u) of silu(z), and silu's slope is at most 1.1.
SILU_ERR = (TANH_ULPS / 2 + 2) * U
TINY = float(np.finfo(DTYPE).smallest_subnormal)  # the absolute error of a rounding that underflows


def _windows(x, k, stride, padding):
    """The k x k windows of x, zero-padded, at each output site: (n, c, ho, wo, k, k)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def _conv(mag, err, spec, w):
    """(mag, err) after a conv, dense or grouped: per group, its sums of |w|
    times mag or err in float64, over K = k*k*c_in/groups products."""
    g, k = spec.groups, spec.k
    wg = np.abs(w.astype(np.float64)).reshape(g, spec.c_out // g, spec.c_in // g, k, k)

    def sums(a):
        win = _windows(a, k, spec.stride, spec.padding)
        n, _, ho, wo = win.shape[:4]
        win = win.reshape(n, g, spec.c_in // g, ho, wo, k, k)
        return np.einsum("ngchwij,gocij->ngohw", win, wg).reshape(n, spec.c_out, ho, wo)

    acc, spread = sums(mag), sums(err)
    slack = gamma(k * k * (spec.c_in // g) + 3)
    return acc * (1 + slack), spread + slack * acc


def _bn(mag, err, bn):
    """(mag, err) after batchnorm: x * scale + shift with the float32 scale
    and shift it computes, the same on both sides, so |scale|-Lipschitz plus
    two roundings of |x * scale| + |shift| on each side."""
    scale = bn.gamma / np.sqrt(bn.var + DTYPE(bn.eps))
    shift = bn.beta - bn.mean * scale
    s, t = (np.abs(v.astype(np.float64))[:, None, None] for v in (scale, shift))
    terms = s * mag + t
    return terms * (1 + gamma(2)), s * err + 2 * gamma(2) * terms


def _add(a, b):
    """(mag, err) of a sum: one rounding on each side."""
    mag = a[0] + b[0]
    return mag * (1 + U), a[1] + b[1] + 2 * U * mag


def _silu(mag, err):
    return mag * (1 + SILU_ERR), 1.1 * err + 2 * SILU_ERR * mag


def _leaf(mag, err, leaf):
    """(mag, err) after a train-form ConvBNAct with SiLU."""
    return _silu(*_bn(*_conv(mag, err, leaf.spec, leaf.w), leaf.bn))


def _fast_leaf(mag, err, leaf):
    """(mag, err) after an identity-activation ConvBNAct that runs the fast
    path on both sides: _conv's gamma_{K+3} term covers one side's
    roundings, the same share of its output bound the other side's."""
    spec = leaf.spec
    mag, err = _conv(mag, err, spec, leaf.w)
    return _bn(mag, err + gamma(spec.k * spec.k * spec.c_in // spec.groups + 3) * mag, leaf.bn)


def _softmax_err(logits, ref):
    """Bound on |softmax_lastdim(logits) - ref|, ref the exact softmax
    rounded to float32, derived as perfbench/gate.py does, to first order in
    u: the max shift is rounded once, which exp turns into a relative error
    of |m - max(m)| u; exp adds EXP_ULPS ulp (2 EXP_ULPS u relative); both
    count twice (numerator and row sum); the row sum adds gamma_{K-1}, the
    divide and ref's rounding u each; times 1.01 for the second-order terms,
    plus K + 3 subnormals for underflow."""
    m = logits.astype(np.float64)
    k = m.shape[-1]
    shift = (m.max(axis=-1, keepdims=True) - m.min(axis=-1, keepdims=True)) * U
    rel = 2 * (shift + 2 * EXP_ULPS * U) + gamma(k + 1)
    return 1.01 * rel * np.abs(ref.astype(np.float64)) + (k + 3) * TINY


def _repvgg(mag, err, blk):
    """(mag, err) after a RepVGGBlock without its identity branch: both
    branch convs differ, then batchnorm, the add and SiLU."""
    branches = [_bn(*_conv(mag, err, spec, w), bn) for spec, w, bn in
                ((blk.spec3, blk.w3, blk.bn3), (blk.spec1, blk.w1, blk.bn1))]
    return _silu(*_add(*branches))


def _repcsp(mag, err, blk):
    """(mag, err) after a RepCSP: cv1 and its RepVGG blocks, plus cv2, then cv3."""
    y = _leaf(mag, err, blk.cv1)
    for rep in blk.blocks:
        y = _repvgg(*y, rep)
    return _leaf(*_add(y, _leaf(mag, err, blk.cv2)), blk.cv3)


def _cat(*pairs):
    """(mag, err) of a channel concat: its parts' side by side, no rounding."""
    return tuple(np.concatenate(v, axis=1) for v in zip(*pairs))


def _max_pool(mag, err, k, stride, padding):
    """(mag, err) after a max pool: it rounds nothing and is 1-Lipschitz, so
    each bound is the window's largest (zero padding leaves a bound of |x|
    a bound)."""
    return tuple(_windows(v, k, stride, padding).max(axis=(-2, -1)) for v in (mag, err))


class TestRepVGGBlock:
    def test_constructed_identity_passes_activation_only(self, rng):
        blk = B.RepVGGBlock(8, 8)
        blk.bn3 = identity_bn(8)
        blk.w3 = identity_kernel(8, 8, 3)
        x = rand_input(rng, 2, 8, 6, 6)
        assert np.array_equal(blk.forward(x), activation(x, "silu"))

    def test_shape_contract_stride2(self, rng):
        blk = randomize(B.RepVGGBlock(8, 16, stride=2), rng)
        assert blk.forward(rand_input(rng, 1, 8, 16, 16)).shape == (1, 16, 8, 8)

    def test_identity_branch_rules(self):
        with pytest.raises(ValueError):
            B.RepVGGBlock(8, 16, identity=True)
        with pytest.raises(ValueError):
            B.RepVGGBlock(8, 8, stride=2, identity=True)
        B.RepVGGBlock(8, 8, identity=True)  # legal

    def test_matches_oracle_composition(self, rng):
        blk = randomize(B.RepVGGBlock(6, 6, identity=True), rng, with_bn=True)
        x = rand_input(rng, 1, 6, 8, 8)
        fast = blk.forward(x)
        with oracle.reference():
            ref = blk.forward(x)
        assert np.abs(fast - ref).max() <= 1e-5
        # both convs differ, then batchnorm, two adds (the identity branch is
        # the same on both sides) and SiLU
        mag, err = np.abs(x.astype(np.float64)), np.zeros(x.shape)
        branches = [_bn(*_conv(mag, err, spec, w), bn) for spec, w, bn in
                    ((blk.spec3, blk.w3, blk.bn3), (blk.spec1, blk.w1, blk.bn1))]
        bound = _silu(*_add(_add(*branches), _bn(mag, err, blk.bnid)))[1]
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= bound)


class TestRepCSP:
    def test_zero_weights_constant_output(self, rng):
        blk = B.RepCSP(8, 8, n=1)
        b = DTYPE(0.625)
        blk.cv3.bn.beta = np.full(8, b, DTYPE)  # identity statistics are shared, read-only
        y = blk.forward(rand_input(rng, 2, 8, 5, 5))
        expected = activation(np.full((1, 1, 1, 1), b, DTYPE), "silu")[0, 0, 0, 0]
        assert np.all(y == expected)

    def test_zeroed_main_branch_leaves_shortcut(self, rng):
        blk = B.RepCSP(8, 8, n=2)
        randomize(blk.cv2, rng)
        randomize(blk.cv3, rng)
        x = rand_input(rng, 1, 8, 6, 6)
        manual = blk.cv3.forward(blk.cv2.forward(x))
        assert np.array_equal(blk.forward(x), manual)

    def test_join_is_add_not_concat(self, rng):
        blk = randomize(B.RepCSP(8, 8, n=1), rng)
        x = rand_input(rng, 1, 8, 6, 6)
        y = blk.cv1.forward(x)
        for rep in blk.blocks:
            y = rep.forward(y)
        manual = blk.cv3.forward(y + blk.cv2.forward(x))
        assert np.array_equal(blk.forward(x), manual)


class TestMerudandaX:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_census_2n_plus_2_by_walk(self, n):
        from vajrakit.cost import block_tally

        tally, _, _ = block_tally(B.MerudandaX(32, 32, n), 8, 8)
        assert tally.conv3x3 == 2 * n + 2

    def test_shape_contract(self, rng):
        blk = randomize(B.MerudandaX(64, 64, 1), rng, scale=0.1)
        assert blk.forward(rand_input(rng, 2, 64, 32, 32)).shape == (2, 64, 32, 32)

    def test_zeroed_stages_pass_stem_halves_only(self, rng):
        blk = B.MerudandaX(16, 16, 1)
        randomize(blk.stem, rng)
        randomize(blk.final, rng)
        x = rand_input(rng, 1, 16, 8, 8)
        a, b = split_channels(blk.stem.forward(x), 2)
        zeros = np.zeros_like(a)
        manual = blk.final.forward(concat_channels([a, b, zeros, zeros]))
        assert np.array_equal(blk.forward(x), manual)

    def test_odd_stem_rejected(self):
        with pytest.raises(ValueError):
            B.MerudandaX(16, 16, 1, stem_width=15)

    def test_matches_oracle_composition(self, rng):
        blk = randomize(B.MerudandaX(8, 8, 1), rng, with_bn=True)
        x = rand_input(rng, 1, 8, 6, 6)
        fast = blk.forward(x)
        with oracle.reference():
            ref = blk.forward(x)
        assert np.abs(fast - ref).max() <= 1e-5
        # stem, split, the two RepCSP + 3x3 stages on the second half, and
        # the final 1x1, which reads the concat of the four parts as a view
        mag, err = np.abs(x.astype(np.float64)), np.zeros(x.shape)
        stem = _leaf(mag, err, blk.stem)
        half = blk.stem.spec.c_out // 2
        a, b = tuple(v[:, :half] for v in stem), tuple(v[:, half:] for v in stem)
        c = _leaf(*_repcsp(*b, blk.csp1), blk.conv1)
        d = _leaf(*_repcsp(*c, blk.csp2), blk.conv2)
        cat = _cat(a, b, c, d)
        bound = _silu(*_bn(*_conv(*cat, blk.final.spec, blk.final.w), blk.final.bn))[1]
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= bound)


class TestMerudandaDW:
    def test_residual_identity_bit_exact(self, rng):
        blk = B.MerudandaDW(16, 7)
        x = rand_input(rng, 1, 16, 8, 8)
        assert np.array_equal(blk.forward(x), x)

    def test_dw_kernel_domain(self):
        with pytest.raises(ValueError):
            B.MerudandaDW(16, 5)
        B.MerudandaDW(16, 3)
        B.MerudandaDW(16, 7)

    def test_channel_chain_widths(self):
        blk = B.MerudandaDW(16, 7)
        assert blk.chain.cv2.spec.c_out == 32  # c -> 2c
        assert blk.chain.cv3.spec.groups == 32  # depthwise at 2c
        assert blk.chain.cv3.spec.k == 7
        assert blk.chain.cv4.spec.c_out == 16  # back to c

    def test_matches_oracle_composition(self, rng):
        blk = randomize(B.MerudandaDW(16, 3), rng, with_bn=True)
        x = rand_input(rng, 1, 16, 8, 8)
        fast = blk.forward(x)
        assert fast.shape == x.shape
        with oracle.reference():
            ref = blk.forward(x)
        assert np.abs(fast - ref).max() <= 1e-5
        # the chain's five convs (depthwise 3x3, 1x1, depthwise 3x3, 1x1,
        # depthwise 3x3) differ, each followed by batchnorm and SiLU, then
        # the residual add of x, the same on both sides
        mag, err = np.abs(x.astype(np.float64)), np.zeros(x.shape)
        y = (mag, err)
        for _, leaf in blk.leaves(""):
            y = _leaf(*y, leaf)
        bound = _add((mag, err), y)[1]
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= bound)


class TestSqueezeExcite:
    def test_zero_gate_weights_halve_input(self, rng):
        blk = B.SqueezeExcite(8)
        randomize(blk.fc1, rng)
        blk.fc2.w = np.zeros(blk.fc2.spec.weight_shape, DTYPE)
        blk.fc2.b = np.zeros(8, DTYPE)
        x = rand_input(rng, 2, 8, 4, 4)
        assert np.array_equal(blk.forward(x), DTYPE(0.5) * x)

    def test_zero_input_stays_zero(self, rng):
        blk = randomize(B.SqueezeExcite(8), rng)
        x = np.zeros((1, 8, 4, 4), DTYPE)
        assert np.array_equal(blk.forward(x), x)

    def test_scales_strictly_inside_unit_interval(self, rng):
        for _ in range(100):
            blk = randomize(B.SqueezeExcite(8), rng, scale=0.8)
            x = rand_input(rng, 1, 8, 4, 4)
            gate = blk.fc2.forward(blk.fc1.forward(
                x.mean(axis=(2, 3), keepdims=True, dtype=DTYPE)))
            assert np.all(gate > 0.0) and np.all(gate < 1.0)

    def test_ratio_must_divide(self):
        with pytest.raises(ValueError):
            B.SqueezeExcite(6)


class TestRepViTBlock:
    def test_all_zero_weights_identity(self, rng):
        blk = B.RepViTBlock(16, 3)
        x = rand_input(rng, 2, 16, 6, 6)
        assert np.array_equal(blk.forward(x), x)

    def test_zero_mlp_leaves_token_mixer(self, rng):
        blk = B.RepViTBlock(16, 7)
        randomize(blk.chain, rng)
        randomize(blk.se, rng)
        x = rand_input(rng, 1, 16, 6, 6)
        manual = x + blk.se.forward(blk.chain.forward(x))
        assert np.array_equal(blk.forward(x), manual)

    def test_shape_contract(self, rng):
        blk = randomize(B.RepViTBlock(32, 3), rng)
        assert blk.forward(rand_input(rng, 1, 32, 8, 8)).shape == (1, 32, 8, 8)


class TestMerudandaBhag15:
    def test_zero_inner_appends_passthrough_partitions(self, rng):
        blk = B.MerudandaBhag15(16, 16, n=1, inner_kind="merudanda_dw")
        randomize(blk.stem, rng)
        randomize(blk.final, rng)
        x = rand_input(rng, 1, 16, 6, 6)
        a, b = split_channels(blk.stem.forward(x), 2)
        manual = blk.final.forward(concat_channels([a, b, b]))
        assert np.array_equal(blk.forward(x), manual)

    def test_repvit_inner_kind(self):
        blk = B.MerudandaBhag15(16, 16, n=2, inner_kind="repvit", dw_kernel=7)
        assert all(isinstance(i, B.RepViTBlock) for i in blk.inner)
        assert blk.inner[0].chain.cv3.spec.k == 7

    def test_unknown_inner_kind(self):
        with pytest.raises(ValueError):
            B.MerudandaBhag15(16, 16, inner_kind="bottleneck")

    def test_shape_contract(self, rng):
        blk = randomize(B.MerudandaBhag15(128, 128, n=2), rng, scale=0.1)
        assert blk.forward(rand_input(rng, 2, 128, 16, 16)).shape == (2, 128, 16, 16)

    def test_partition_count_grows_with_n(self):
        assert B.MerudandaBhag15(16, 16, n=3).final.spec.c_in == 5 * 8  # (2+n)*hidden


class TestSPPF:
    def test_constant_input_propagates(self, rng):
        blk = randomize(B.SPPF(8, 8), rng)
        x = np.full((1, 8, 6, 6), 1.5, DTYPE)
        y = blk.forward(x)
        manual = blk.cv2.forward(concat_channels([blk.cv1.forward(x)] * 4))
        assert np.array_equal(y, manual)
        assert np.ptp(y.reshape(1, 8, -1), axis=2).max() == 0.0  # constant per channel

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            B.SPPF(8, 8, k=4)

    def test_default_k_is_5(self):
        assert B.SPPF(8, 8).k == 5

    def test_shape_contract(self, rng):
        blk = randomize(B.SPPF(64, 64), rng, scale=0.1)
        assert blk.forward(rand_input(rng, 1, 64, 20, 20)).shape == (1, 64, 20, 20)

    def test_matches_oracle_composition(self, rng):
        blk = randomize(B.SPPF(8, 8), rng, with_bn=True)
        x = rand_input(rng, 1, 8, 7, 7)
        fast = blk.forward(x)
        with oracle.reference():
            ref = blk.forward(x)
        assert np.abs(fast - ref).max() <= 1e-5
        # cv1, three chained max pools, and cv2, which reads the concat of
        # the four maps as a view
        ys = [_leaf(np.abs(x.astype(np.float64)), np.zeros(x.shape), blk.cv1)]
        for _ in range(3):
            ys.append(_max_pool(*ys[-1], blk.k, 1, blk.k // 2))
        bound = _silu(*_bn(*_conv(*_cat(*ys), blk.cv2.spec, blk.cv2.w), blk.cv2.bn))[1]
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= bound)


class TestAttentionV2:
    def test_single_site_degenerate(self, rng):
        blk = randomize(B.AttentionV2(8, 2), rng, with_bn=True)
        x = rand_input(rng, 2, 8, 1, 1)
        y, attn = blk.forward(x, return_attn=True)
        assert attn.shape == (2, 2, 1, 1) and np.all(attn == 1.0)
        v_map = blk.v.forward(x)
        manual = blk.proj.forward(v_map + blk.pe.forward(v_map))
        assert np.abs(y - manual).max() <= 1e-6
        # the sides differ only in the attention matmul, one product by attn
        # = 1, within gamma_1 |v| of v; the add and proj run the same code on
        # both sides
        v, pe = (np.abs(a.astype(np.float64)) for a in (v_map, blk.pe.forward(v_map)))
        bound = _fast_leaf(*_add((v * (1 + gamma(1)), gamma(1) * v), (pe, np.zeros(pe.shape))), blk.proj)[1]
        assert np.all(np.abs(y.astype(np.float64) - manual) <= bound)

    def test_uniform_logits_average_v(self, rng):
        blk = randomize(B.AttentionV2(16, 2), rng)
        blk.qk.w[...] = 0.0  # logits all zero -> uniform rows
        x = rand_input(rng, 1, 16, 4, 4)
        y, attn = blk.forward(x, return_attn=True)
        assert np.abs(attn - 1.0 / 16).max() <= 1e-7
        assert not blk.qk.forward(x).any()  # so every logit is 0
        attn_err = _softmax_err(np.zeros(attn.shape), np.full(attn.shape, 1.0 / 16))
        assert np.all(np.abs(attn - 1.0 / 16) <= attn_err)
        v_seq = blk.v.forward(x).reshape(1, 2, 8, 16)
        mean_v = np.broadcast_to(v_seq.mean(axis=3, keepdims=True, dtype=DTYPE), v_seq.shape)
        mean_map = np.ascontiguousarray(mean_v).reshape(1, 16, 4, 4)
        manual = blk.proj.forward(mean_map + blk.pe.forward(blk.v.forward(x)))
        assert np.abs(y - manual).max() <= 1e-6
        # the sides differ in how they average v over the 16 sites: the
        # matmul by attn (each within e of 1/16) and v's float32 mean, each
        # within gamma_16 of its exact sum; the add and proj run the same
        # code on both sides
        e = attn_err.max()
        s = np.abs(v_seq.astype(np.float64)).sum(axis=3, keepdims=True)  # sum of |v| over the sites
        mag = s * (1 / 16 + e) * (1 + gamma(16))
        err = s * (e + gamma(16) * (1 / 16 + e) + gamma(16) / 16)
        avg = [np.broadcast_to(a, v_seq.shape).reshape(1, 16, 4, 4) for a in (mag, err)]
        pe = np.abs(blk.pe.forward(blk.v.forward(x)).astype(np.float64))
        bound = _fast_leaf(*_add(avg, (pe, np.zeros(pe.shape))), blk.proj)[1]
        assert np.all(np.abs(y.astype(np.float64) - manual) <= bound)

    def test_row_stochastic_64x64(self, rng):
        blk = randomize(B.AttentionV2(64, 1), rng)
        x = rand_input(rng, 1, 64, 8, 8)
        y, attn = blk.forward(x, return_attn=True)
        assert attn.shape == (1, 1, 64, 64)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6
        # attn = z / s with s the float32 sum of the K = 64 nonnegative z,
        # summed again in float32: K - 1 roundings in s, the divide and K - 1
        # in the sum, so each row sum is within gamma_{2K-1} of 1, plus K
        # subnormals for outputs that underflow
        assert np.all(np.abs(attn.sum(axis=-1) - 1.0) <= gamma(2 * 64 - 1) + 64 * TINY)
        # logits recomputed by hand, softmaxed by the naive oracle
        d = blk.d_head
        qk = blk.qk.forward(x).reshape(1, 1, 2 * d, 64)
        q, k = qk[:, :, :d, :], qk[:, :, d:, :]
        logits = np.matmul(q.transpose(0, 1, 3, 2), k) * DTYPE(1.0 / np.sqrt(d))
        assert np.abs(attn - oracle.softmax_naive(logits)).max() <= 1e-6
        ref = oracle.softmax_naive(logits)
        assert np.all(np.abs(attn.astype(np.float64) - ref) <= _softmax_err(logits, ref))

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            B.AttentionV2(30, 4)

    def test_shape_preserved(self, rng):
        blk = randomize(B.AttentionV2(32, 4), rng)
        assert blk.forward(rand_input(rng, 2, 32, 5, 5)).shape == (2, 32, 5, 5)


class TestAttentionBlockV2:
    def test_all_zero_weights_identity(self, rng):
        blk = B.AttentionBlockV2(16, 2)
        x = rand_input(rng, 2, 16, 4, 4)
        assert np.array_equal(blk.forward(x), x)

    def test_zero_ffn_leaves_attention_sublayer(self, rng):
        blk = B.AttentionBlockV2(16, 2)
        randomize(blk.attn, rng)
        x = rand_input(rng, 1, 16, 4, 4)
        manual = x + blk.attn.forward(x)
        assert np.array_equal(blk.forward(x), manual)


class TestAttentionBhag6:
    def test_zero_transformer_chain_degenerates(self, rng):
        blk = B.AttentionBhag6(16, 16, n_blocks=0)
        randomize(blk.sppf, rng)
        randomize(blk.cv1, rng)
        randomize(blk.cv2, rng)
        x = rand_input(rng, 1, 16, 6, 6)
        manual = blk.cv2.forward(blk.cv1.forward(blk.sppf.forward(x)))
        assert np.array_equal(blk.forward(x), manual)

    def test_zeroed_attention_first_half_bypasses(self, rng):
        blk = B.AttentionBhag6(16, 16, n_blocks=2, heads=2)
        randomize(blk.sppf, rng)
        randomize(blk.cv1, rng)
        randomize(blk.cv2, rng)
        # transformer blocks stay zero-initialized: residual identity
        x = rand_input(rng, 1, 16, 6, 6)
        manual = blk.cv2.forward(blk.cv1.forward(blk.sppf.forward(x)))
        assert np.array_equal(blk.forward(x), manual)

    def test_spec_shape_contract(self, rng):
        blk = randomize(B.AttentionBhag6(256, 256, n_blocks=2, heads=4), rng, scale=0.05)
        assert blk.forward(rand_input(rng, 1, 256, 20, 20)).shape == (1, 256, 20, 20)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            B.AttentionBhag6(15, 15)

    def test_default_heads_follow_64_rule(self):
        assert B.AttentionBhag6(256, 256).heads == 2   # half width 128 -> 2 heads
        assert B.AttentionBhag6(64, 64).heads == 1     # minimum 1


class TestADown:
    def test_shape_contract(self, rng):
        blk = randomize(B.ADown(64, 128), rng, scale=0.1)
        assert blk.forward(rand_input(rng, 1, 64, 32, 32)).shape == (1, 128, 16, 16)

    def test_constant_input_all_ones_kernel_interior(self):
        blk = B.ADown(2, 2)
        blk.cv1.bn = blk.cv2.bn = identity_bn(1)
        blk.cv1.w = np.ones(blk.cv1.spec.weight_shape, DTYPE)
        c = DTYPE(1.5)
        x = np.full((1, 2, 32, 32), c, DTYPE)
        pooled = pool2d(x, "avg", 2, 1, 0)  # constant survives averaging
        a = split_channels(pooled, 2)[0]
        branch = conv2d(a, blk.cv1.spec, blk.cv1.w)
        interior = branch[:, :, 1:15, 1:15]
        assert np.all(interior == 9 * c)
        ref = oracle.conv2d_naive(a, blk.cv1.spec, blk.cv1.w)
        assert np.array_equal(branch, ref)

    def test_odd_spatial_rejected(self, rng):
        blk = B.ADown(8, 8)
        with pytest.raises(ValueError):
            blk.forward(rand_input(rng, 1, 8, 7, 8))

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            B.ADown(7, 8)
        with pytest.raises(ValueError):
            B.ADown(8, 6 + 1)

    def test_matches_oracle_composition(self, rng):
        blk = randomize(B.ADown(8, 16), rng, with_bn=True)
        x = rand_input(rng, 1, 8, 8, 8)
        fast = np.asarray(blk.forward(x))  # ADown ends in a concat: its output is a view
        with oracle.reference():
            ref = np.asarray(blk.forward(x))
        assert np.abs(fast - ref).max() <= 1e-5
        # the 2x2 avg pool is within gamma_{K+3} * mean|x| of the oracle's
        # (test_avg_within_derived_bound), the max pool is exact and
        # 1-Lipschitz, and each half then runs a conv leaf
        mean_abs = _windows(np.abs(x.astype(np.float64)), 2, 1, 0).mean(axis=(-2, -1))
        mag, err = mean_abs * (1 + gamma(2 * 2 + 3)), gamma(2 * 2 + 3) * mean_abs
        half = blk.cv1.c_in
        a = _leaf(mag[:, :half], err[:, :half], blk.cv1)
        b = _leaf(*_max_pool(mag[:, half:], err[:, half:], 3, 2, 1), blk.cv2)
        bound = _cat(a, b)[1]
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= bound)


class TestShapeFuzz:
    def test_blocks_preserve_or_transform_shape_per_contract(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 3))
            c = 2 * int(rng.integers(2, 9))
            h = 2 * int(rng.integers(3, 9))
            w = 2 * int(rng.integers(3, 9))
            x = rand_input(rng, n, c, h, w)
            pick = int(rng.integers(0, 6))
            if pick == 0:
                c_out = 2 * int(rng.integers(2, 9))
                blk = B.MerudandaX(c, c_out, int(rng.integers(1, 3)))
                want = (n, c_out, h, w)
            elif pick == 1:
                inner = "repvit" if rng.integers(0, 2) else "merudanda_dw"
                # repvit's squeeze-excite needs the hidden width divisible by 4
                c_out = 8 * int(rng.integers(1, 5)) if inner == "repvit" \
                    else 2 * int(rng.integers(2, 9))
                blk = B.MerudandaBhag15(c, c_out, int(rng.integers(1, 3)),
                                        inner, 7 if rng.integers(0, 2) else 3)
                want = (n, c_out, h, w)
            elif pick == 2:
                c_out = 2 * int(rng.integers(2, 9))
                blk = B.ADown(c, c_out)
                want = (n, c_out, h // 2, w // 2)
            elif pick == 3:
                blk = B.SPPF(c, c, int(rng.choice([3, 5])))
                want = (n, c, h, w)
            elif pick == 4:
                blk = B.AttentionBhag6(c, c, int(rng.integers(0, 3)))
                want = (n, c, h, w)
            else:
                c_out = int(rng.integers(2, 17))
                stride = int(rng.choice([1, 2]))
                blk = B.RepVGGBlock(c, c_out, stride)
                want = (n, c_out, h // stride, w // stride)
            randomize(blk, rng, scale=0.1)
            assert blk.forward(x).shape == want, type(blk).__name__


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda: B.RepVGGBlock(8, 8, identity=True),
        lambda: B.MerudandaX(8, 8, 2),
        lambda: B.MerudandaBhag15(8, 8, 1, "repvit"),
        lambda: B.AttentionBhag6(16, 16, 1, 2),
        lambda: B.ADown(8, 8),
        lambda: B.SPPF(8, 8),
    ])
    def test_repeat_forward_bit_identical(self, make, rng):
        blk = randomize(make(), rng, with_bn=True)
        x = rand_input(rng, 2, blk.c_in, 8, 8)
        assert np.array_equal(blk.forward(x), blk.forward(x))


class TestComposite:
    @pytest.mark.parametrize("make", [
        lambda: B.MerudandaX(8, 8, 2),
        lambda: B.MerudandaBhag15(8, 8, 2, "repvit"),
        lambda: B.AttentionBhag6(16, 16, 2, 2),
        lambda: B.ADown(8, 8),
    ])
    def test_refusing_shares_every_array(self, make):
        fused = make().fuse()
        once = [(name, id(arr)) for name, arr, _ in fused.named_arrays("t")]
        twice = [(name, id(arr)) for name, arr, _ in fused.fuse().named_arrays("t")]
        assert once == twice
