"""Tensor-core ops: worked examples, oracle agreement, invariants."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import TANH_ULPS, U, gamma, identity_bn, rand_bn, rand_input
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


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


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
        spec = ConvSpec(3, 2, 3, 1, 1)
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
            spec = ConvSpec(c_in, c_out, k, s, p, g)
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
        # With S = sum|w|(|a||x| + |b||y|) and K = k*k*c_in: the input
        # a*x + b*y takes two roundings and the conv sums K products, so lhs
        # is within gamma_{K+2} * S of a*conv(x) + b*conv(y) exactly; each
        # conv on rhs is within gamma_K of its own, and the scale and the sum
        # add two more, so rhs is too. Each sum|w||x| comes from the oracle
        # rounded to float32, hence the / (1 - u).
        k_terms = spec.k * spec.k * spec.c_in
        s = sum(abs(float(c)) * oracle.conv2d_naive(np.abs(v), spec, np.abs(w)).astype(np.float64)
                for c, v in ((a, x), (b, y))) / (1.0 - U)
        assert np.all(np.abs(lhs.astype(np.float64) - rhs) <= 2 * gamma(k_terms + 2) * s)

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
        spec = ConvSpec(8, 8, k, s, k // 2, g)
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

    @staticmethod
    def _band(c_in, k, ho, wo):
        """Output rows per tile: the fewest equal bands of at most TILE_BYTES
        (one row if a row alone is larger), capped at the rows a GEMM of
        MIN_SITES output sites needs."""
        rows_fit = max(1, tensor.TILE_BYTES // (c_in * k * k * wo * np.dtype(DTYPE).itemsize))
        return min(-(-tensor.MIN_SITES // wo), -(-ho // -(-ho // rows_fit)))

    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w_", MULTI_TILE)
    def test_dense_patch_matrix_over_several_tiles(self, rng, c_in, c_out, k, stride, padding, h, w_):
        spec = ConvSpec(c_in, c_out, k, stride, padding)
        ho, wo = conv_out_hw(h, w_, k, stride, padding)
        row_bytes = c_in * k * k * wo * np.dtype(DTYPE).itemsize
        band = self._band(c_in, k, ho, wo)
        assert ho * row_bytes >= 3 * tensor.TILE_BYTES
        assert -(-ho // band) >= 3 and (ho % band != 0 or band == 1)
        self._check(rng, spec, h, w_)

    def test_dense_bands_capped_by_gemm_width(self, rng):
        # a small patch matrix on a wide map: one tile would hold it all, but
        # each band stops at the rows a MIN_SITES-wide GEMM needs
        spec = ConvSpec(8, 2, 3, 1, 1)
        ho, wo = 13, 200
        band = self._band(8, 3, ho, wo)
        assert band == -(-tensor.MIN_SITES // wo) < ho
        assert -(-ho // band) >= 3 and ho % band != 0
        self._check(rng, spec, ho, wo)

    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w_", MULTI_TILE + [
        (8, 2, 3, 1, 1, 13, 200), (3, 16, 3, 2, 1, 160, 160), (2500, 2, 3, 1, 1, 3, 28)])
    def test_every_tile_at_most_tile_bytes(self, rng, monkeypatch, c_in, c_out, k, stride, padding, h, w_):
        # Each GEMM's patch operand, and the buffer it is cut from, holds at
        # most TILE_BYTES, or one output row where a row alone is larger; the
        # bands cover every output row of both images. The last geometry's
        # 3 rows of 0.6 TILE_BYTES each take three tiles, not two.
        spec = ConvSpec(c_in, c_out, k, stride, padding)
        ho, wo = conv_out_hw(h, w_, k, stride, padding)
        row_bytes = c_in * k * k * wo * np.dtype(DTYPE).itemsize
        x = rand_input(rng, 2, c_in, h, w_)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        tiles, matmul = [], np.matmul

        def spy(a, b, **kwargs):
            tiles.append((b.shape[1], b.nbytes, _root(b).nbytes))
            return matmul(a, b, **kwargs)
        monkeypatch.setattr(np, "matmul", spy)
        conv2d(x, spec, w)
        limit = max(tensor.TILE_BYTES, row_bytes)
        assert all(nbytes <= limit and buf <= limit for _, nbytes, buf in tiles)
        assert sum(sites for sites, _, _ in tiles) == 2 * ho * wo
        assert len(tiles) == 2 * -(-ho // self._band(c_in, k, ho, wo))

    @pytest.mark.parametrize("runs", [2, 3])
    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,h,w_", MULTI_TILE + [
        (8, 2, 3, 1, 1, 13, 200), (3, 64, 3, 2, 1, 40, 40)])
    def test_dense_bands_shared_by_runs(self, rng, monkeypatch, runs, c_in, c_out, k, stride, padding, h, w_):
        # a batched pass's image runs each keep one run's band and split the
        # contraction instead: per band, runs parts of ceil(c_in / runs) whole
        # input channels, each GEMM reading its block of the weights in place,
        # the parts covering c_in*k*k once, in order. The tile holds one part.
        # The first part's GEMM writes the output band; each later part's
        # product goes one slice of ceil(c_out / runs) output channels at a
        # time through a partial buffer of that many rows, added in. A conv
        # whose split would save fewer tile rows than the buffer holds (the
        # last case, M's 3-channel stem) keeps one part. Still within the
        # derived bound.
        spec = ConvSpec(c_in, c_out, k, stride, padding)
        ho, wo = conv_out_hw(h, w_, k, stride, padding)
        band, kk = self._band(c_in, k, ho, wo), k * k
        part, chunk = -(-c_in // runs), -(-c_out // runs)
        split = (c_in - part) * kk > chunk
        assert split == (c_in != 3)
        part = part if split else c_in
        itemsize = np.dtype(DTYPE).itemsize
        gemms, matmul = [], np.matmul

        def spy(a, b, out):
            wts = _root(a)
            assert a.strides == (c_in * kk * itemsize, itemsize)  # a view of the weights
            gemms.append((divmod((a.ctypes.data - wts.ctypes.data) // itemsize, c_in * kk), a.shape,
                          b.shape[1], _root(b).nbytes, _root(out).nbytes))
            return matmul(a, b, out=out)
        monkeypatch.setattr(np, "matmul", spy)
        token = tensor.RUNS.set(runs)
        try:
            self._check(rng, spec, h, w_)
        finally:
            tensor.RUNS.reset(token)
        tile = part * kk * band * wo * itemsize
        want = []
        for sites in 2 * [min(band, ho - r0) * wo for r0 in range(0, ho, band)]:
            for c0 in range(0, c_in, part):
                cols = (min(c0 + part, c_in) - c0) * kk
                if c0 == 0:
                    want.append(((0, 0), (c_out, cols), sites, tile, 2 * c_out * ho * wo * itemsize))
                else:
                    want += [((o0, c0 * kk), (min(chunk, c_out - o0), cols), sites, tile,
                              chunk * band * wo * itemsize) for o0 in range(0, c_out, chunk)]
        assert -(-c_in // part) == (runs if split else 1)
        assert gemms == want

    def test_dense_peak_memory_under_half_the_patch_matrix(self, rng):
        spec = ConvSpec(32, 16, 3, 1, 1)
        x = rand_input(rng, 1, 32, 128, 128)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        patch_bytes = 32 * 3 * 3 * 128 * 128 * x.itemsize  # 18.9 MB
        assert _traced_peak(lambda: conv2d(x, spec, w)) < patch_bytes / 2

    def test_unpadded_grouped_with_bias_matches_oracle(self, rng):
        spec = ConvSpec(4, 6, 3, 2, 0, groups=2)
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
        # max rounds nothing, so it is exact; avg is within the bound that
        # test_avg_within_derived_bound derives, gamma_{K+3} * mean|x|
        x = rand_input(rng, 2, 3, 9, 9)
        for kind in ("avg", "max"):
            for include in (True, False):
                fast = pool2d(x, kind, 3, 2, 1, include_pad=include)
                ref = oracle.pool2d_naive(x, kind, 3, 2, 1, include_pad=include)
                assert np.abs(fast - ref).max() <= 1e-6
                if kind == "max":
                    assert np.array_equal(fast, ref)
                else:
                    mean_abs = oracle.pool2d_naive(np.abs(x), "avg", 3, 2, 1, include_pad=include)
                    bound = gamma(3 * 3 + 3) * mean_abs.astype(np.float64) / (1.0 - U)
                    assert np.all(np.abs(fast - ref.astype(np.float64)) <= bound)

    def test_avg_divisor_counts_full_window_by_default(self):
        # the sum of 8 padded zeros and one 4.0 is exact, so fl(4/9) rounds
        # once, in the divide: within u * 4/9 of the exact quotient, and
        # 4.0 / 9.0 in float64 within 2^-53 * 4/9 of it
        x = tensor4([[[[4.0]]]])
        y = pool2d(x, "avg", 3, 1, 1)  # 8 padded zeros + one 4.0
        assert abs(y[0, 0, 0, 0] - 4.0 / 9.0) <= 1e-7
        assert abs(float(y[0, 0, 0, 0]) - 4.0 / 9.0) <= (gamma(1) + 2.0 ** -53) * 4.0 / 9.0
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
        fast, ref = batchnorm_infer(x, bn), oracle.batchnorm_naive(x, bn)
        assert np.abs(fast - ref).max() <= 1e-6
        # scale = gamma / sqrt(var + eps): eps cast to float32, the add, the
        # sqrt and the divide give it a relative error within gamma_4; then
        # x * scale + (beta - mean * scale) takes at most three more on each
        # term: within gamma_7 * (|x s| + |beta| + |mean s|) of the exact
        # value, which the oracle rounds once more (gamma_8).
        s = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.eps)
        per_channel = (np.abs(bn.beta) + np.abs(bn.mean * s))[:, None, None]
        terms = np.abs(x * s[:, None, None]) + per_channel
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= gamma(8) * terms)

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
        # silu(z) = h * (tanh(h) + 1) with h = z/2 exact. With tanh within
        # TANH_ULPS ulp of T = tanh(h), the add and the multiply each rounding
        # once: |error| <= |h| * (TANH_ULPS * ulp(T) + 2u * (1 + T)). The
        # literal 0.731059 is silu(1) rounded to 6 decimals, within 5e-7.
        x = np.ones((1, 1, 1, 1), DTYPE)
        got = float(activation(x, "silu")[0, 0, 0, 0])
        assert abs(got - 0.731059) <= 1e-6
        t = math.tanh(0.5)
        assert abs(0.731059 - 1 / (1 + math.exp(-1))) <= 5e-7
        bound = 0.5 * (TANH_ULPS * float(np.spacing(DTYPE(t))) + 2 * U * (1 + t))
        assert abs(got - 1 / (1 + math.exp(-1))) <= bound
        assert abs(got - 0.731059) <= bound + 5e-7

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
        # and one scratch band, of SILU_BAND / runs elements when image runs
        # share a batched pass (4 KB covers the array headers)
        x = rand_input(rng, 1, 16, 128, 128)  # 1 MB
        assert _traced_peak(lambda: activation(x, "silu")) < 1.5 * x.nbytes
        for runs in (1, 2, 3):
            token = tensor.RUNS.set(runs)
            try:
                peak = _traced_peak(lambda: activation(x, "silu"))
            finally:
                tensor.RUNS.reset(token)
            assert peak <= x.nbytes + x.itemsize * -(-tensor.SILU_BAND // runs) + 4096, runs

    def test_finite_on_extremes(self):
        x = np.array([[[[-1e4, 1e4]]]], DTYPE)
        for kind in ("silu", "sigmoid"):
            assert np.isfinite(activation(x, kind)).all()


EXP_ULPS = 4  # numpy's float32 exp, assumed accurate to 4 ulp
TINY = float(np.finfo(DTYPE).smallest_subnormal)


def _softmax64(m):
    """Softmax of float64 rows: within a few float64 roundings of exact."""
    z = np.exp(m - m.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def softmax_bound(m, p):
    """The derived bound on |softmax_lastdim(m) - p| per output, for p the
    exact softmax of the float32 rows m, as perfbench/gate.py derives it
    (first order in u): m - max(m), rounded once, costs exp a relative
    |m - max(m)|*u, and exp itself 2*EXP_ULPS*u; summing K terms adds
    gamma_{K-1} and dividing u (one u to spare against an exact p, which
    pays for a p rounded once to float32, as the oracle's is). So twice the
    row's worst exp error (numerator and sum) plus gamma_{K+1}, relative to
    p, times 1.01 for the second-order terms, plus (K + 3) subnormals for
    gradual underflow."""
    k = m.shape[-1]
    m64 = np.asarray(m, np.float64)
    shift = (m64.max(axis=-1, keepdims=True) - m64.min(axis=-1, keepdims=True)) * U
    return 1.01 * (2 * (shift + 2 * EXP_ULPS * U) + gamma(k + 1)) * np.abs(p) + (k + 3) * TINY


class TestSoftmax:
    def test_uniform_row(self):
        m = np.zeros((3, 5), DTYPE)
        out = softmax_lastdim(m)
        assert np.abs(out - 0.2).max() <= 1e-7
        # the float64 constant 0.2 is within 2**-53 * 0.2 of 1/5
        assert np.all(np.abs(out.astype(np.float64) - 0.2) <= softmax_bound(m, 0.2) + 2.0 ** -53 * 0.2)

    def test_closed_form_quarter(self):
        m = np.array([[0.0, np.log(3.0)]], DTYPE)
        out = softmax_lastdim(m)
        assert np.abs(out - [0.25, 0.75]).max() <= 1e-6
        # fl(log 3) is within u*log 3 of log 3 (first order; 1.01 covers the
        # float64 rounding before it), and moving the second logit by d moves
        # each output of the exact softmax [1/4, 3/4] by p1*p2*|d| = 3/16*|d|;
        # 0.25 and 0.75 are exact
        want = np.array([[0.25, 0.75]])
        moved = 1.01 * 3 / 16 * U * np.log(3.0)
        assert np.all(np.abs(out.astype(np.float64) - want) <= softmax_bound(m, want) + moved)

    def test_shift_invariance(self, rng):
        m = rng.standard_normal((4, 7)).astype(DTYPE)
        shifted = (m + DTYPE(13.5)).astype(DTYPE)
        a, b = softmax_lastdim(m), softmax_lastdim(shifted)
        assert np.abs(a - b).max() <= 1e-6
        # fl(m + 13.5) moves each logit by d_j, |d_j| <= u*|m_j + 13.5|, which
        # moves output i of the exact softmax p by p_i*(d_i - sum_j p_j d_j),
        # at most 2*p_i*max|d| (first order)
        m64 = m.astype(np.float64)
        p = _softmax64(m64)
        moved = 1.01 * 2 * U * np.abs(m64 + 13.5).max(axis=-1, keepdims=True) * p
        bound = softmax_bound(m, p) + softmax_bound(shifted, p) + moved
        assert np.all(np.abs(a.astype(np.float64) - b) <= bound)

    def test_rows_sum_to_one(self, rng):
        m = (rng.standard_normal((2, 3, 9)) * 10).astype(DTYPE)
        out = softmax_lastdim(m)
        assert np.all(out >= 0)
        sums = out.sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-6
        # the exact softmax sums to 1; the K float32 outputs are each within
        # softmax_bound of it, their float32 sum adds gamma_{K-1} of itself,
        # and subtracting 1 from a sum in [1/2, 2] is exact
        err = softmax_bound(m, _softmax64(m.astype(np.float64))).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= err + gamma(m.shape[-1] - 1) * (1 + err))

    def test_matches_naive_oracle(self, rng):
        m = (rng.standard_normal((5, 8)) * 3).astype(DTYPE)
        fast, ref = softmax_lastdim(m), oracle.softmax_naive(m)
        assert np.abs(fast - ref).max() <= 1e-6
        # the oracle rounds a float64 softmax to float32 once
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= softmax_bound(m, ref))


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
        fast, ref = matmul_batched(a, b), oracle.ReferenceBackend().matmul_batched(a, b)
        assert np.abs(fast - ref).max() <= 1e-5
        # a float32 dot product of K = 5 terms in any order is within
        # gamma_K * sum|a||b| of the exact value; the oracle rounds it once
        # more from float64: gamma_{K+1}
        acc = np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64))
        assert np.all(np.abs(fast.astype(np.float64) - ref) <= gamma(a.shape[-1] + 1) * acc)

    def test_matmul_inner_dim_mismatch(self, rng):
        with pytest.raises(ShapeError):
            matmul_batched(np.zeros((2, 3), DTYPE), np.zeros((4, 2), DTYPE))

    def test_global_avg_pool(self, rng):
        x = rand_input(rng, 2, 3, 4, 5)
        gap = global_avg_pool(x)
        assert gap.shape == (2, 3, 1, 1)
        assert np.abs(gap[1, 2, 0, 0] - x[1, 2].mean()) <= 1e-6
        # a float32 sum of N = h*w entries in any order is within
        # gamma_{N-1} * sum|x| and the divide adds u: gamma_N * mean|x| of the
        # exact mean; one more u covers the float64 reference's own error
        x64 = x.astype(np.float64)
        n = x.shape[2] * x.shape[3]
        bound = gamma(n + 1) * np.abs(x64).mean(axis=(2, 3), keepdims=True)
        assert np.all(np.abs(gap - x64.mean(axis=(2, 3), keepdims=True)) <= bound)

    def test_upsample_nearest(self):
        x = tensor4([[[[1.0, 2.0], [3.0, 4.0]]]])
        y = upsample_nearest(x)
        assert y.shape == (1, 1, 4, 4)
        assert y[0, 0].tolist() == [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("source", ["contiguous", "channel slice"])
    def test_upsample_nearest_equals_repeat(self, rng, n, source):
        x = rand_input(rng, n, 14, 5, 6) * DTYPE(8)
        x = split_channels(x, 2)[1] if source == "channel slice" else x[:, :7].copy()
        assert x.flags.c_contiguous == (source == "contiguous" or n == 1)
        x[0, 0, 0, :3] = [np.nan, -0.0, np.inf]
        want = x.repeat(2, axis=2).repeat(2, axis=3)
        got = upsample_nearest(x)
        assert got.flags.c_contiguous and got.dtype == DTYPE
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

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


def _view_band(c_in, ho, wo, runs=1):
    """Output rows per band of a 1x1 conv reading a concat view: the fewest
    equal bands of whole rows that each hold a VIEW_BANDS-th of the map or
    MIN_SITES // 4 sites, whichever is more, cut by the run count."""
    rows = min(ho, -(-max(-(-ho * wo // tensor.VIEW_BANDS), tensor.MIN_SITES // 4) // wo))
    rows = -(-rows // runs)
    return -(-ho // -(-ho // rows))


def _parts(rng, n, h, w):
    """Four parts of 19 channels: the two channel halves of one map (views,
    not contiguous for n > 1), a map of its own and an upsampled one."""
    a, b = split_channels(rand_input(rng, n, 12, h, w), 2)
    return [a, b, rand_input(rng, n, 5, h, w), upsample_nearest(rand_input(rng, n, 2, h // 2, w // 2))]


class TestConcatView:
    def test_holds_its_inputs_uncopied(self, rng):
        parts = _parts(rng, 2, 8, 6)
        view = concat_channels(parts)
        assert type(view) is tensor.ConcatView and view.shape == (2, 19, 8, 6) and view.dtype == DTYPE
        assert all(p is q for p, q in zip(view.parts, parts))
        nested = concat_channels([parts[2], view])  # a view among the inputs hands over its parts
        assert [id(p) for p in nested.parts] == [id(parts[2])] + [id(p) for p in parts]
        copy = np.asarray(view)
        assert copy.flags.c_contiguous and np.array_equal(copy, np.concatenate(parts, axis=1))
        with pytest.raises(ValueError):
            np.asarray(view, copy=False)
        with pytest.raises(TypeError):
            view[0] = 0
        big = [rand_input(rng, 1, 64, 64, 64)] * 2
        assert _traced_peak(lambda: concat_channels(big)) < 1 << 10

    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("n,h,w_,c_out", [(1, 40, 24, 7), (2, 16, 16, 3), (1, 6, 4, 5), (2, 64, 10, 4)])
    def test_1x1_reads_bands_of_gathered_parts(self, rng, monkeypatch, runs, n, h, w_, c_out):
        # one GEMM per band of equal whole rows, its patch operand every
        # channel of the band gathered from the parts into one tile: no
        # contraction split, whatever the run count. The result is the conv
        # of the copy bit for bit, its bias added after, and within the
        # derived bound of the oracle.
        parts = _parts(rng, n, h, w_)
        view = concat_channels(parts)
        spec = ConvSpec(19, c_out, 1)
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        b = rng.standard_normal(c_out).astype(DTYPE)
        gemms, matmul = [], np.matmul

        def spy(a, m, out):
            gemms.append((a.shape, m.shape[1], _root(m).nbytes))
            return matmul(a, m, out=out)
        monkeypatch.setattr(np, "matmul", spy)
        token = tensor.RUNS.set(runs)
        try:
            got = conv2d(view, spec, w, b)
        finally:
            tensor.RUNS.reset(token)
        monkeypatch.setattr(np, "matmul", matmul)
        band = _view_band(19, h, w_, runs)
        tile = 19 * band * w_ * np.dtype(DTYPE).itemsize
        assert gemms == n * [((c_out, 19), min(band, h - r0) * w_, tile) for r0 in range(0, h, band)]
        want = conv2d(np.asarray(view), spec, w, b)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        _assert_within_conv_bound(got, oracle.conv2d_naive(np.asarray(view), spec, w, b), np.asarray(view), spec, w, b)

    def test_band_is_a_fraction_of_the_view(self):
        # N's P3 stem at 640 (192 channels at 80x80) reads 16 bands of 5
        # rows, a 307 KB tile against the 4.9 MB the copy held; a map of at
        # most MIN_SITES // 4 sites is one band
        assert _view_band(192, 80, 80) == 5
        assert _view_band(960, 32, 32) == 8  # X's P3 stem at 256: 4 bands of 256 sites
        assert _view_band(384, 20, 20) == 10 and _view_band(64, 16, 16) == 16
        assert _view_band(960, 32, 32, runs=2) == 4

    @pytest.mark.parametrize("spec", [ConvSpec(19, 4, 3, 1, 1), ConvSpec(19, 4, 1, 2, 0),
                                      ConvSpec(19, 4, 3, 2, 1), ConvSpec(19, 19, 1, 1, 0, groups=19)])
    def test_any_other_conv_reads_the_copy(self, rng, spec):
        view = concat_channels(_parts(rng, 2, 8, 6))
        w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
        got, want = conv2d(view, spec, w), conv2d(np.asarray(view), spec, w)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_every_other_op_is_handed_the_copy(self, rng):
        parts = _parts(rng, 1, 8, 6)
        view, copy = concat_channels(parts), np.asarray(concat_channels(parts))
        assert np.array_equal(add(view, copy), copy + copy)
        assert np.array_equal(activation(view, "silu"), activation(copy, "silu"))
        assert np.array_equal(pool2d(view, "max", 3, 1, 1), pool2d(copy, "max", 3, 1, 1))
        assert np.array_equal(upsample_nearest(view), upsample_nearest(copy))
        handed = []

        class Backend:
            def conv2d(self, x, spec, weights, bias=None):
                handed.append(("conv2d", type(x)))
                with override_backend(None):
                    return conv2d(x, spec, weights, bias)

            def add(self, x, y):
                handed.append(("add", type(x)))
                return x + y

        spec = ConvSpec(19, 2, 1)
        with override_backend(Backend()):
            conv2d(view, spec, np.ones(spec.weight_shape, DTYPE))
            add(view, copy)
        assert handed == [("conv2d", tensor.ConcatView), ("add", np.ndarray)]


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
        # array, so with one run bands start at 65536 and at 131072 (63572
        # into image 1); a slot is banded per image, so bands start at 65536
        # in each. Runs sharing a batched pass band SILU_BAND / runs.
        per_image = 3 * 150 * 150
        extremes = np.array([np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 0.0, -0.0,
                             1e-45, -1e-45, 88.7, -88.7, np.nan], DTYPE)
        for runs in (1, 2, 3):
            band = -(-tensor.SILU_BAND // runs)
            x = rand_input(rng, 2, 3, 150, 150) * DTYPE(8)
            flat = x.reshape(2, -1)
            for at in (0, band - 6, -(-per_image // band) * band - per_image - 6, per_image - 12):
                flat[:, at:at + 12] = extremes
            token = tensor.RUNS.set(runs)
            try:
                with np.errstate(invalid="ignore"):  # -inf * 0 is NaN
                    want = x * sigmoid(x)  # the whole-array form
                    fresh = activation(x, "silu")
                    slot, onto = _slot(x.shape), x.copy()
                    activation(x, "silu", out=slot)
                    activation(onto, "silu", out=onto)
            finally:
                tensor.RUNS.reset(token)
            for got in (fresh, slot, onto):
                assert np.array_equal(got, want, equal_nan=True)

    def test_out_of_the_wrong_shape_raises(self, rng):
        x = rand_input(rng, 1, 2, 3, 3)
        with pytest.raises(ShapeError):
            add(x, x, out=np.empty((1, 2, 3, 4), DTYPE))
