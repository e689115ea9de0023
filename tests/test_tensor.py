"""Tensor-core ops: worked examples, oracle agreement, invariants."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import U, gamma, identity_bn, rand_bn, rand_input
from vajrakit import oracle, tensor
from vajrakit.tensor import (
    DTYPE,
    BNParams,
    ConvSpec,
    ShapeError,
    activation,
    add,
    batchnorm_infer,
    concat_channels,
    conv2d,
    conv_out_hw,
    global_avg_pool,
    matmul_batched,
    mul,
    override_backend,
    pool2d,
    sigmoid,
    softmax_lastdim,
    split_channels,
    tensor4,
    upsample_nearest,
    zero_view,
)


def _traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees during one call of fn, after a warm-up
    call so that lazily allocated state is not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_within_conv_bound(fast, ref, x, spec, w, b=None):
    """|fast - ref| <= gamma_{K+3} * (sum|w||x| + |b|) per output element,
    K = k*k*c_in/groups; TestConv2dDerivedBound derives it (the bias adds one
    rounding, within the three spare ones)."""
    acc = oracle.conv2d_naive(np.abs(x), spec, np.abs(w), None if b is None else np.abs(b))
    bound = gamma(spec.k * spec.k * (spec.c_in // spec.groups) + 3) * acc.astype(np.float64) / (1.0 - U)
    assert np.all(np.abs(fast.astype(np.float64) - ref) <= bound), spec


class TestConv2d:
    def test_all_ones_kernel_on_1_to_9(self):
        x = tensor4(np.arange(1, 10, dtype=DTYPE).reshape(1, 1, 3, 3))
        spec = ConvSpec(1, 1, 3, 1, 1)
        w = np.ones((1, 1, 3, 3), DTYPE)
        y = conv2d(x, spec, w)
        assert y[0, 0, 1, 1] == 45.0
        assert y[0, 0, 0, 0] == 12.0
        # full map against the naive loop nest
        assert np.array_equal(y, oracle.conv2d_naive(x, spec, w))

    def test_identity_1x1_mapping(self, rng):
        x = rand_input(rng, 2, 5, 6, 7)
        spec = ConvSpec(5, 5, 1)
        w = np.eye(5, dtype=DTYPE).reshape(5, 5, 1, 1)
        assert np.array_equal(conv2d(x, spec, w), x)

    def test_zero_weights_bias_only(self, rng):
        x = rand_input(rng, 1, 3, 4, 4)
        spec = ConvSpec(3, 2, 3, 1, 1, has_bias=True)
        b = np.array([1.5, -2.25], DTYPE)
        y = conv2d(x, spec, np.zeros(spec.weight_shape, DTYPE), b)
        assert np.all(y[0, 0] == 1.5) and np.all(y[0, 1] == -2.25)

    def test_agrees_with_loop_nest_on_random_specs(self, rng):
        for _ in range(25):
            g = int(rng.choice([1, 2, 3]))
            c_in = g * int(rng.integers(1, 5))
            c_out = g * int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5, 7]))
            s = int(rng.choice([1, 2]))
            p = int(rng.choice([0, k // 2, k // 2 + 1]))
            h = int(rng.integers(k, 14))
            w_ = int(rng.integers(k, 14))
            spec = ConvSpec(c_in, c_out, k, s, p, g, has_bias=True)
            x = rand_input(rng, 2, c_in, h, w_)
            w = (rng.standard_normal(spec.weight_shape) * 0.5).astype(DTYPE)
            b = rng.standard_normal(c_out).astype(DTYPE)
            fast = conv2d(x, spec, w, b)
            ref = oracle.conv2d_naive(x, spec, w, b)
            assert fast.shape == ref.shape
            assert np.abs(fast - ref).max() <= 1e-5, spec
            _assert_within_conv_bound(fast, ref, x, spec, w, b)

    def test_depthwise_agrees_with_loop_nest(self, rng):
        spec = ConvSpec(6, 6, 3, 1, 1, groups=6)
        x = rand_input(rng, 1, 6, 8, 8)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        fast, ref = conv2d(x, spec, w), oracle.conv2d_naive(x, spec, w)
        assert np.abs(fast - ref).max() <= 1e-5
        _assert_within_conv_bound(fast, ref, x, spec, w)

    def test_linearity(self, rng):
        spec = ConvSpec(4, 6, 3, 1, 1)
        w = (rng.standard_normal(spec.weight_shape) * 0.1).astype(DTYPE)
        x = rand_input(rng, 1, 4, 8, 8)
        y = rand_input(rng, 1, 4, 8, 8)
        a, b = DTYPE(1.5), DTYPE(-0.75)
        lhs = conv2d((a * x + b * y).astype(DTYPE), spec, w)
        rhs = a * conv2d(x, spec, w) + b * conv2d(y, spec, w)
        assert np.abs(lhs - rhs).max() <= 1e-5

    def test_channel_mismatch_raises(self, rng):
        spec = ConvSpec(4, 4, 1)
        with pytest.raises(ShapeError):
            conv2d(rand_input(rng, 1, 3, 4, 4), spec, np.zeros(spec.weight_shape, DTYPE))

    def test_kernel_larger_than_padded_input_raises(self, rng):
        spec = ConvSpec(1, 1, 5, 1, 0)
        with pytest.raises(ShapeError):
            conv2d(rand_input(rng, 1, 1, 3, 3), spec, np.zeros(spec.weight_shape, DTYPE))

    def test_group_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ConvSpec(6, 4, 3, groups=4)

    @pytest.mark.parametrize("k, s, g, bias", [(3, 1, 1, False), (3, 2, 1, True), (1, 1, 1, False),
                                               (1, 2, 1, True), (3, 1, 4, True), (7, 1, 8, False)])
    def test_split_part_input_matches_contiguous(self, rng, k, s, g, bias):
        # blocks pass split parts, which are channel views of a wider buffer
        spec = ConvSpec(8, 8, k, s, k // 2, g, has_bias=bias)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        b = rng.standard_normal(8).astype(DTYPE) if bias else None
        x = split_channels(rand_input(rng, 2, 16, 9, 11), 2)[1]
        assert np.array_equal(conv2d(x, spec, w, b), conv2d(np.ascontiguousarray(x), spec, w, b))

    def test_deterministic_repeat(self, rng):
        spec = ConvSpec(3, 8, 3, 2, 1)
        x = rand_input(rng, 2, 3, 16, 16)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        assert np.array_equal(conv2d(x, spec, w), conv2d(x, spec, w))


class TestConv2dDerivedBound:
    # The fast path sums each output's K = k*k*c_in/groups products in some
    # float32 order: within gamma_K * sum|w||x| of the exact value (Higham
    # eq. 3.5). The oracle accumulates in float64 and rounds once (u), and
    # sum|w||x| comes from it rounded to float32, hence the / (1 - u); three
    # spare roundings give gamma_{K+3}, the perfbench gate's bound.
    @staticmethod
    def _check(rng, spec, h, w_):
        x = rand_input(rng, 2, spec.c_in, h, w_)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        ref = oracle.conv2d_naive(x, spec, w)
        fast = conv2d(x, spec, w)
        assert fast.shape == ref.shape
        _assert_within_conv_bound(fast, ref, x, spec, w)

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise(self, rng, k, stride):
        self._check(rng, ConvSpec(5, 5, k, stride, k // 2, groups=5), 11, 9)

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("g", [2, 3])
    def test_general_groups(self, rng, k, stride, g):
        # c_in/g = 2 and c_out/g = 3: a real contraction per group
        self._check(rng, ConvSpec(2 * g, 3 * g, k, stride, k // 2, groups=g), 10, 12)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", ["none", "half"])
    def test_dense(self, rng, k, stride, pad):
        self._check(rng, ConvSpec(3, 4, k, stride, k // 2 if pad == "half" else 0), 11, 9)

    # (c_in, c_out, k, stride, padding, h, w): wide channels on small maps
    # keep the loop-nest oracle fast while the patch matrix spans several
    # tiles; the last one clamps a tile to a single output row.
    MULTI_TILE = [
        (512, 2, 3, 1, 1, 30, 28),
        (512, 2, 3, 2, 1, 61, 50),
        (256, 3, 5, 1, 2, 40, 24),
        (128, 2, 7, 1, 0, 9, 176),
    ]

    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w_", MULTI_TILE)
    def test_dense_patch_matrix_over_several_tiles(self, rng, c_in, c_out, k, stride, padding, h, w_):
        spec = ConvSpec(c_in, c_out, k, stride, padding)
        ho, wo = conv_out_hw(h, w_, k, stride, padding)
        row_bytes = c_in * k * k * wo * np.dtype(DTYPE).itemsize
        band = max(1, tensor.TILE_BYTES // row_bytes)
        assert ho * row_bytes >= 3 * tensor.TILE_BYTES
        assert -(-ho // band) >= 3 and (ho % band != 0 or band == 1)
        self._check(rng, spec, h, w_)

    def test_dense_peak_memory_under_half_the_patch_matrix(self, rng):
        spec = ConvSpec(32, 16, 3, 1, 1)
        x = rand_input(rng, 1, 32, 128, 128)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        patch_bytes = 32 * 3 * 3 * 128 * 128 * x.itemsize  # 18.9 MB
        assert _traced_peak(lambda: conv2d(x, spec, w)) < patch_bytes / 2

    def test_unpadded_grouped_with_bias_matches_oracle(self, rng):
        spec = ConvSpec(4, 6, 3, 2, 0, groups=2, has_bias=True)
        x = rand_input(rng, 1, 4, 9, 8)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        b = rng.standard_normal(6).astype(DTYPE)
        ref = oracle.conv2d_naive(x, spec, w, b).astype(np.float64)
        acc = oracle.conv2d_naive(np.abs(x), spec, np.abs(w), np.abs(b)).astype(np.float64) / (1.0 - U)
        # the bias add is one more rounding: gamma_{K+4}
        assert np.all(np.abs(conv2d(x, spec, w, b) - ref) <= gamma(3 * 3 * 2 + 4) * acc)


class TestShapeArithmetic:
    def test_fuzz_200_geometries(self, rng):
        for _ in range(200):
            k = int(rng.choice([1, 3, 5, 7]))
            s = int(rng.choice([1, 2]))
            p = int(rng.integers(0, 4))
            h = int(rng.integers(max(1, k - 2 * p), 24))
            w_ = int(rng.integers(max(1, k - 2 * p), 24))
            if h + 2 * p < k or w_ + 2 * p < k:
                with pytest.raises(ShapeError):
                    conv_out_hw(h, w_, k, s, p)
                continue
            ho, wo = conv_out_hw(h, w_, k, s, p)
            assert ho == (h + 2 * p - k) // s + 1
            assert wo == (w_ + 2 * p - k) // s + 1
            spec = ConvSpec(2, 3, k, s, p)
            out = conv2d(rand_input(rng, 1, 2, h, w_), spec,
                         np.zeros(spec.weight_shape, DTYPE))
            assert out.shape == (1, 3, ho, wo)
            pooled = pool2d(rand_input(rng, 1, 2, h, w_), "max", k, s, p)
            assert pooled.shape == (1, 2, ho, wo)


class TestPool2d:
    def test_avg_2x2(self):
        x = tensor4([[[[1.0, 2.0], [3.0, 4.0]]]])
        y = pool2d(x, "avg", 2, 1, 0)
        assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 2.5

    def test_max_constant_input(self, rng):
        x = np.full((2, 3, 5, 5), -4.25, DTYPE)
        for k, s, p in [(2, 1, 0), (3, 2, 1), (5, 1, 2)]:
            assert np.all(pool2d(x, "max", k, s, p) == -4.25)

    def test_max_3x3_s2_p1_on_1_to_16(self):
        x = tensor4(np.arange(1, 17, dtype=DTYPE).reshape(1, 1, 4, 4))
        y = pool2d(x, "max", 3, 2, 1)
        assert y[0, 0].tolist() == [[6.0, 8.0], [14.0, 16.0]]

    def test_agrees_with_loop_oracle(self, rng):
        x = rand_input(rng, 2, 3, 9, 9)
        for kind in ("avg", "max"):
            for include in (True, False):
                fast = pool2d(x, kind, 3, 2, 1, include_pad=include)
                ref = oracle.pool2d_naive(x, kind, 3, 2, 1, include_pad=include)
                assert np.abs(fast - ref).max() <= 1e-6

    def test_avg_divisor_counts_full_window_by_default(self):
        x = tensor4([[[[4.0]]]])
        y = pool2d(x, "avg", 3, 1, 1)  # 8 padded zeros + one 4.0
        assert abs(y[0, 0, 0, 0] - 4.0 / 9.0) <= 1e-7
        y_excl = pool2d(x, "avg", 3, 1, 1, include_pad=False)
        assert y_excl[0, 0, 0, 0] == 4.0

    def test_bad_geometry_raises(self, rng):
        with pytest.raises(ShapeError):
            pool2d(rand_input(rng, 1, 1, 2, 2), "max", 5, 1, 0)
        with pytest.raises(ValueError):
            pool2d(rand_input(rng, 1, 1, 4, 4), "median", 2, 1, 0)


    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("include_pad", [True, False])
    def test_avg_within_derived_bound(self, rng, k, stride, include_pad):
        # A float32 sum of the window's K = k*k entries in any order is within
        # gamma_{K-1} * sum|x|; the divide adds u and the oracle's rounding of
        # its float64 mean another: gamma_{K+1} * mean|x|, with mean|x| from
        # the oracle rounded to float32 (/ (1 - u)) and spare roundings up to
        # the perfbench gate's gamma_{K+3}.
        x = rand_input(rng, 2, 3, 11, 10)
        for p in range(k // 2 + 1):
            ref = oracle.pool2d_naive(x, "avg", k, stride, p, include_pad).astype(np.float64)
            mean_abs = oracle.pool2d_naive(np.abs(x), "avg", k, stride, p, include_pad)
            bound = gamma(k * k + 3) * mean_abs.astype(np.float64) / (1.0 - U)
            fast = pool2d(x, "avg", k, stride, p, include_pad)
            assert fast.shape == ref.shape and fast.dtype == DTYPE
            assert np.all(np.abs(fast - ref) <= bound), (k, stride, p)

    @pytest.mark.parametrize("k,stride,padding", [(5, 1, 2), (3, 2, 1), (2, 1, 0)])
    def test_max_preset_geometries_exact(self, rng, k, stride, padding):
        # SPPF 5/1/2, ADown 3/2/1; 2/1/0 is ADown's avg geometry run as max
        for x in (rand_input(rng, 2, 4, 13, 12), -np.abs(rand_input(rng, 2, 4, 13, 12)) - 1):
            assert np.array_equal(pool2d(x, "max", k, stride, padding),
                                  oracle.pool2d_naive(x, "max", k, stride, padding))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.sampled_from([2, 3, 5]), stride=st.sampled_from([1, 2]),
           negative=st.booleans())
    def test_max_equals_oracle_exactly(self, data, k, stride, negative):
        # a maximum rounds nothing, so no tolerance; with all-negative inputs
        # a -inf pad that won any window would show as -inf in the output
        padding = data.draw(st.integers(0, k // 2), label="padding")
        h = data.draw(st.integers(max(1, k - 2 * padding), 9), label="h")
        w_ = data.draw(st.integers(max(1, k - 2 * padding), 9), label="w")
        x = data.draw(arrays(DTYPE, (1, 2, h, w_),
                             elements=st.floats(-1e6, 1e6, width=32)), label="x")
        if negative:
            x = -np.abs(x) - DTYPE(1)
        fast = pool2d(x, "max", k, stride, padding)
        assert np.array_equal(fast, oracle.pool2d_naive(x, "max", k, stride, padding))
        assert np.isfinite(fast).all()


class TestBatchNorm:
    def test_identity_statistics(self, rng):
        x = rand_input(rng, 2, 4, 3, 3)
        bn = identity_bn(4)
        assert np.array_equal(batchnorm_infer(x, bn), x)

    def test_zero_gain(self, rng):
        x = rand_input(rng, 1, 3, 4, 4)
        bn = BNParams(np.zeros(3, DTYPE), np.full(3, 7.5, DTYPE),
                      np.zeros(3, DTYPE), np.ones(3, DTYPE), 1e-3)
        assert np.all(batchnorm_infer(x, bn) == 7.5)

    def test_hand_evaluated_formula(self):
        x = np.full((1, 1, 1, 1), 5.0, DTYPE)
        bn = BNParams([2.0], [1.0], [3.0], [4.0], eps=0.0)
        assert batchnorm_infer(x, bn)[0, 0, 0, 0] == 3.0  # 2*(5-3)/2 + 1

    def test_matches_literal_formula(self, rng):
        x = rand_input(rng, 2, 5, 4, 4)
        bn = rand_bn(rng, 5)
        assert np.abs(batchnorm_infer(x, bn) - oracle.batchnorm_naive(x, bn)).max() <= 1e-6

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            batchnorm_infer(rand_input(rng, 1, 3, 2, 2), BNParams.identity(4))

    def test_nonpositive_denominator_raises(self, rng):
        bn = BNParams(np.ones(2, DTYPE), np.zeros(2, DTYPE), np.zeros(2, DTYPE),
                      np.zeros(2, DTYPE), eps=0.0)
        with pytest.raises(ValueError):
            batchnorm_infer(rand_input(rng, 1, 2, 2, 2), bn)


class TestActivation:
    def test_silu_zero(self):
        x = np.zeros((1, 1, 1, 1), DTYPE)
        assert activation(x, "silu")[0, 0, 0, 0] == 0.0

    def test_sigmoid_zero(self):
        x = np.zeros((1, 1, 1, 1), DTYPE)
        assert activation(x, "sigmoid")[0, 0, 0, 0] == 0.5

    def test_silu_one(self):
        x = np.ones((1, 1, 1, 1), DTYPE)
        assert abs(float(activation(x, "silu")[0, 0, 0, 0]) - 0.731059) <= 1e-6

    def test_identity(self, rng):
        x = rand_input(rng, 1, 2, 3, 3)
        assert activation(x, "identity") is x

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            activation(rand_input(rng, 1, 1, 1, 1), "relu")

    def test_sigmoid_is_float32_and_matches_tanh_form(self, rng):
        old = lambda t: (DTYPE(0.5) * np.tanh(t * DTYPE(0.5)) + DTYPE(0.5)).astype(DTYPE)
        extremes = np.array([0.0, -0.0, 1e-45, -1e-45, 88.7, -88.7, 1e4, -1e4,
                             3.4e38, -3.4e38, np.inf, -np.inf], DTYPE).reshape(1, 1, 3, 4)
        for x in (rand_input(rng, 2, 3, 5, 5) * DTYPE(8), extremes):
            y = sigmoid(x)
            assert y.dtype == DTYPE
            assert np.array_equal(y, old(x))

    def test_silu_is_float32_equals_x_times_sigmoid_and_leaves_x(self, rng):
        extremes = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, -3.4e38,
                             1e-45, -1e-45, 1e-40, -1e-40, 88.7], DTYPE).reshape(1, 1, 3, 4)
        for x in (rand_input(rng, 2, 3, 5, 5) * DTYPE(8), extremes):
            before = x.copy()
            with np.errstate(invalid="ignore"):  # -inf * 0 is NaN
                y = activation(x, "silu")
                want = x * sigmoid(x)
            assert y.dtype == DTYPE
            assert np.array_equal(y, want, equal_nan=True)
            assert np.array_equal(x, before, equal_nan=True)

    def test_silu_allocates_only_its_output(self, rng):
        x = rand_input(rng, 1, 16, 128, 128)  # 1 MB
        assert _traced_peak(lambda: activation(x, "silu")) < 1.5 * x.nbytes

    def test_finite_on_extremes(self):
        x = np.array([[[[-1e4, 1e4]]]], DTYPE)
        for kind in ("silu", "sigmoid"):
            assert np.isfinite(activation(x, kind)).all()


class TestSoftmax:
    def test_uniform_row(self):
        m = np.zeros((3, 5), DTYPE)
        assert np.abs(softmax_lastdim(m) - 0.2).max() <= 1e-7

    def test_closed_form_quarter(self):
        m = np.array([[0.0, np.log(3.0)]], DTYPE)
        out = softmax_lastdim(m)
        assert np.abs(out - [0.25, 0.75]).max() <= 1e-6

    def test_shift_invariance(self, rng):
        m = rng.standard_normal((4, 7)).astype(DTYPE)
        shifted = (m + DTYPE(13.5)).astype(DTYPE)
        assert np.abs(softmax_lastdim(m) - softmax_lastdim(shifted)).max() <= 1e-6

    def test_rows_sum_to_one(self, rng):
        m = (rng.standard_normal((2, 3, 9)) * 10).astype(DTYPE)
        out = softmax_lastdim(m)
        assert np.all(out >= 0)
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-6

    def test_matches_naive_oracle(self, rng):
        m = (rng.standard_normal((5, 8)) * 3).astype(DTYPE)
        assert np.abs(softmax_lastdim(m) - oracle.softmax_naive(m)).max() <= 1e-6


class TestSmallOps:
    def test_split_concat_roundtrip_bit_exact(self, rng):
        x = rand_input(rng, 2, 8, 4, 4)
        assert np.array_equal(concat_channels(split_channels(x, 2)), x)
        assert np.array_equal(concat_channels(split_channels(x, 4)), x)

    def test_split_uneven_raises(self, rng):
        with pytest.raises(ShapeError):
            split_channels(rand_input(rng, 1, 6, 2, 2), 4)

    def test_add_identity(self, rng):
        x = rand_input(rng, 1, 3, 5, 5)
        assert np.array_equal(add(x, np.zeros_like(x)), x)

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            add(rand_input(rng, 1, 3, 5, 5), rand_input(rng, 1, 3, 5, 4))

    def test_matmul_scalar(self):
        a = np.array([[2.0]], DTYPE)
        b = np.array([[3.0]], DTYPE)
        assert matmul_batched(a, b)[0, 0] == 6.0

    def test_matmul_matches_oracle(self, rng):
        a = rng.standard_normal((2, 3, 4, 5)).astype(DTYPE)
        b = rng.standard_normal((2, 3, 5, 6)).astype(DTYPE)
        assert np.abs(matmul_batched(a, b) - oracle.ReferenceBackend().matmul_batched(a, b)).max() <= 1e-5

    def test_matmul_inner_dim_mismatch(self, rng):
        with pytest.raises(ShapeError):
            matmul_batched(np.zeros((2, 3), DTYPE), np.zeros((4, 2), DTYPE))

    def test_global_avg_pool(self, rng):
        x = rand_input(rng, 2, 3, 4, 5)
        gap = global_avg_pool(x)
        assert gap.shape == (2, 3, 1, 1)
        assert np.abs(gap[1, 2, 0, 0] - x[1, 2].mean()) <= 1e-6

    def test_upsample_nearest(self):
        x = tensor4([[[[1.0, 2.0], [3.0, 4.0]]]])
        y = upsample_nearest(x)
        assert y.shape == (1, 1, 4, 4)
        assert y[0, 0].tolist() == [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]

    def test_finite_outputs(self, rng):
        x = rand_input(rng, 1, 4, 6, 6)
        spec = ConvSpec(4, 4, 3, 1, 1)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        for out in (conv2d(x, spec, w), pool2d(x, "avg", 2, 2, 0),
                    batchnorm_infer(x, rand_bn(rng, 4)), activation(x, "silu")):
            assert np.isfinite(out).all()

    def test_tensor4_validation(self):
        with pytest.raises(ShapeError):
            tensor4(np.zeros((2, 3), DTYPE))

    def test_mul_broadcasts_the_second_operand(self, rng):
        x = rand_input(rng, 2, 3, 4, 4)
        gate = rand_input(rng, 2, 3, 1, 1)
        assert np.array_equal(mul(x, gate), x * gate)
        assert np.array_equal(mul(x, DTYPE(0.5)), x * DTYPE(0.5))


class TestZeroView:
    def test_read_only_zeros_of_any_shape(self):
        v = zero_view((2, 3, 4, 5))
        assert v.shape == (2, 3, 4, 5) and v.dtype == DTYPE
        assert not v.flags.writeable and not v.any()

    def test_allocates_nothing_however_large(self):
        tracemalloc.start()
        try:
            v = zero_view((1, 1024, 4096, 4096))  # 64 GB if it held storage
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.size == 1 << 34 and peak < 1 << 12


HOOKED = ("conv2d", "pool2d", "batchnorm_infer", "activation", "add", "mul", "split_channels",
          "concat_channels", "upsample_nearest", "global_avg_pool", "matmul_batched",
          "softmax_lastdim")


class Recorder:
    """A backend defining every hooked op: records its name and the keyword
    arguments it is passed, runs the fast path."""

    def __init__(self):
        self.seen = set()
        self.keywords = set()

    def __getattr__(self, name):
        if name not in HOOKED:
            raise AttributeError(name)

        def op(*args, **kwargs):
            self.seen.add(name)
            self.keywords.update(kwargs)
            with override_backend(None):
                return getattr(tensor, name)(*args, **kwargs)
        return op


class TestDispatch:
    @pytest.fixture(scope="class")
    def preset_n(self):
        from vajrakit.graph import Model
        from vajrakit.presets import load_preset
        from vajrakit.weights import init_weights

        graph, _ = load_preset("N")
        model = Model(graph).bind(init_weights(graph, 0))
        x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(DTYPE)
        return model, x, model.stage_outputs(x)

    def _assert_same(self, got, want):
        assert list(got) == list(want)
        for tag in want:
            assert np.array_equal(got[tag], want[tag]), tag

    def test_backend_without_ops_falls_through_to_fast_path(self, preset_n):
        model, x, plain = preset_n
        with override_backend(object()):
            self._assert_same(model.stage_outputs(x), plain)

    def test_backend_defining_every_op_sees_every_op(self, preset_n):
        model, x, plain = preset_n
        rec = Recorder()
        with override_backend(rec):
            self._assert_same(model.stage_outputs(x), plain)
        assert rec.seen == set(HOOKED)

    def test_backend_is_never_passed_out(self, preset_n):
        # blocks pass out= to three ops; the dispatch point keeps it from every
        # backend, whose result the block then uses instead
        model, x, plain = preset_n
        rec = Recorder()
        with override_backend(rec):
            self._assert_same(model.stage_outputs(x), plain)
        assert "out" not in rec.keywords


def _slot(shape):
    """A NaN-filled channel slice of a buffer 3 channels wider: for n > 1 not
    contiguous, so every write has to land through the view's strides."""
    n, c, h, w = shape
    return np.full((n, c + 3, h, w), np.nan, DTYPE)[:, 1:1 + c]


class TestOutContract:
    """batchnorm_infer, add and activation give the same bits with or
    without out=, into a slice of a wider buffer, or onto an input; they
    write there and return it."""

    def test_batchnorm_infer(self, rng):
        x, bn = rand_input(rng, 2, 5, 4, 6) * DTYPE(4), rand_bn(rng, 5)
        scale = bn.gamma / np.sqrt(bn.var + DTYPE(bn.eps))
        shift = bn.beta - bn.mean * scale
        want = x * scale[None, :, None, None] + shift[None, :, None, None]  # two roundings
        assert np.array_equal(batchnorm_infer(x, bn), want)
        slot, onto = _slot(x.shape), x.copy()
        assert batchnorm_infer(x, bn, out=slot) is slot and np.array_equal(slot, want)
        assert batchnorm_infer(onto, bn, out=onto) is onto and np.array_equal(onto, want)

    def test_add(self, rng):
        x, y = rand_input(rng, 2, 3, 4, 5), rand_input(rng, 2, 3, 4, 5)
        want = x + y
        slot = _slot(x.shape)
        assert add(x, y, out=slot) is slot and np.array_equal(slot, want)
        for i in range(2):
            args = [x.copy(), y.copy()]
            assert add(*args, out=args[i]) is args[i] and np.array_equal(args[i], want)

    @pytest.mark.parametrize("kind", ["silu", "sigmoid", "identity"])
    def test_activation(self, rng, kind):
        x = rand_input(rng, 2, 3, 4, 5) * DTYPE(8)
        want = activation(x, kind)
        slot, onto = _slot(x.shape), x.copy()
        assert activation(x, kind, out=slot) is slot and np.array_equal(slot, want)
        assert activation(onto, kind, out=onto) is onto and np.array_equal(onto, want)

    def test_silu_across_band_edges(self, rng):
        # 67500 elements per image. Contiguous, both images are banded as one
        # array, so bands start at 65536 and at 131072 (63572 into image 1);
        # a slot is banded per image, so bands start at 65536 in each
        band, per_image = tensor.SILU_BAND, 3 * 150 * 150
        x = rand_input(rng, 2, 3, 150, 150) * DTYPE(8)
        flat = x.reshape(2, -1)
        extremes = np.array([np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 0.0, -0.0,
                             1e-45, -1e-45, 88.7, -88.7, np.nan], DTYPE)
        for at in (0, band - 6, 2 * band - per_image - 6, per_image - 12):
            flat[:, at:at + 12] = extremes
        with np.errstate(invalid="ignore"):  # -inf * 0 is NaN
            want = x * sigmoid(x)  # the whole-array form
            fresh = activation(x, "silu")
            slot, onto = _slot(x.shape), x.copy()
            activation(x, "silu", out=slot)
            activation(onto, "silu", out=onto)
        for got in (fresh, slot, onto):
            assert np.array_equal(got, want, equal_nan=True)

    def test_out_of_the_wrong_shape_raises(self, rng):
        x = rand_input(rng, 1, 2, 3, 3)
        with pytest.raises(ShapeError):
            add(x, x, out=np.empty((1, 2, 3, 4), DTYPE))
