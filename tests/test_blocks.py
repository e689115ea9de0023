"""Block forwards: constructed identities, shape contracts, oracle composition."""
import numpy as np
import pytest

from conftest import identity_bn, rand_bn, rand_input, randomize
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


class TestAttentionV2:
    def test_single_site_degenerate(self, rng):
        blk = randomize(B.AttentionV2(8, 2), rng, with_bn=True)
        x = rand_input(rng, 2, 8, 1, 1)
        y, attn = blk.forward(x, return_attn=True)
        assert attn.shape == (2, 2, 1, 1) and np.all(attn == 1.0)
        v_map = blk.v.forward(x)
        manual = blk.proj.forward(v_map + blk.pe.forward(v_map))
        assert np.abs(y - manual).max() <= 1e-6

    def test_uniform_logits_average_v(self, rng):
        blk = randomize(B.AttentionV2(16, 2), rng)
        blk.qk.w[...] = 0.0  # logits all zero -> uniform rows
        x = rand_input(rng, 1, 16, 4, 4)
        y, attn = blk.forward(x, return_attn=True)
        assert np.abs(attn - 1.0 / 16).max() <= 1e-7
        v_seq = blk.v.forward(x).reshape(1, 2, 8, 16)
        mean_v = np.broadcast_to(v_seq.mean(axis=3, keepdims=True, dtype=DTYPE), v_seq.shape)
        mean_map = np.ascontiguousarray(mean_v).reshape(1, 16, 4, 4)
        manual = blk.proj.forward(mean_map + blk.pe.forward(blk.v.forward(x)))
        assert np.abs(y - manual).max() <= 1e-6

    def test_row_stochastic_64x64(self, rng):
        blk = randomize(B.AttentionV2(64, 1), rng)
        x = rand_input(rng, 1, 64, 8, 8)
        y, attn = blk.forward(x, return_attn=True)
        assert attn.shape == (1, 1, 64, 64)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6
        # logits recomputed by hand, softmaxed by the naive oracle
        d = blk.d_head
        qk = blk.qk.forward(x).reshape(1, 1, 2 * d, 64)
        q, k = qk[:, :, :d, :], qk[:, :, d:, :]
        logits = np.matmul(q.transpose(0, 1, 3, 2), k) * DTYPE(1.0 / np.sqrt(d))
        assert np.abs(attn - oracle.softmax_naive(logits)).max() <= 1e-6

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
        fast = blk.forward(x)
        with oracle.reference():
            ref = blk.forward(x)
        assert np.abs(fast - ref).max() <= 1e-5


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
