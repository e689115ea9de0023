"""Analytic cost formulas against the instrumented brute-force counter."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import rand_input, randomize
from test_config_text import valid_config
from vajrakit import blocks as B
from vajrakit import oracle, tensor
from vajrakit.cost import (
    COST_REPORT_SCHEMA,
    COUNTS,
    CostReport,
    adown_cost,
    block_tally,
    conv_cost,
    graph_cost,
)
from vajrakit.graph import ConfigError, parse_config
from vajrakit.tensor import DTYPE, ConvSpec, ShapeError, conv2d
from vajrakit.weights import init_weights


class TestConvCost:
    def test_strided_3x3_example(self):
        macs, params = conv_cost(ConvSpec(64, 128, 3, 2, 1), 32, 32)
        assert macs == 18_874_368
        assert params == 9 * 64 * 128

    def test_unit_case(self):
        macs, params = conv_cost(ConvSpec(1, 1, 1), 1, 1)
        assert (macs, params) == (1, 1)

    def test_depthwise_formula(self):
        c = 48
        macs, params = conv_cost(ConvSpec(c, c, 3, 1, 1, groups=c), 10, 12)
        assert macs == 10 * 12 * 9 * c
        assert params == 9 * c

    def test_counter_equality_on_random_specs(self, rng):
        for _ in range(50):
            g = int(rng.choice([1, 2, 4]))
            c_in = g * int(rng.integers(1, 5))
            c_out = g * int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5, 7]))
            s = int(rng.choice([1, 2]))
            p = int(rng.choice([0, k // 2]))
            h = int(rng.integers(k, 14))
            w_ = int(rng.integers(k, 14))
            if h + 2 * p < k or w_ + 2 * p < k:
                continue
            spec = ConvSpec(c_in, c_out, k, s, p, g)
            x = rand_input(rng, 1, c_in, h, w_)
            w = rng.standard_normal(spec.weight_shape).astype(DTYPE)
            ref = oracle.ReferenceBackend()
            ref.conv2d(x, spec, w)
            macs, _ = conv_cost(spec, h, w_)
            assert ref.macs == macs, spec


class TestADownCost:
    def test_worked_example(self):
        ac = adown_cost(64, 128, 32, 32)
        assert ac.macs == 5_242_880
        assert ac.ratio_vs_standard == Fraction(5, 18)
        assert ac.macs * 8 == 5 * 32 * 32 * 64 * 128  # (5/8) H W C C_out

    def test_params_ratio_is_also_5_18(self):
        ac = adown_cost(96, 192, 16, 16)
        assert Fraction(ac.params, ac.std_params) == Fraction(5, 18)

    def test_ratio_invariant_over_sweep(self):
        for c in (32, 64, 96):
            for co in (32, 128):
                for hw in (16, 64):
                    ac = adown_cost(c, co, hw, hw)
                    assert ac.ratio_vs_standard == Fraction(5, 18)

    def test_decimal_renders_to_published_percentage(self):
        r = float(Fraction(5, 18))
        assert f"{100 * r:.1f}" == "27.8"          # rounded
        assert int(1000 * r) == 277                # truncation: the 27.7% claim

    def test_odd_inputs_rejected(self):
        for bad in [(63, 128, 32, 32), (64, 127, 32, 32), (64, 128, 31, 32), (64, 128, 32, 31)]:
            with pytest.raises(ValueError):
                adown_cost(*bad)

    def test_live_forward_counter_matches(self, rng):
        blk = randomize(B.ADown(64, 128), rng)
        x = rand_input(rng, 1, 64, 32, 32)
        with oracle.reference() as ref:
            blk.forward(x)
        assert ref.macs == adown_cost(64, 128, 32, 32).macs == 5_242_880


def attention_macs(c, h, w, heads):
    tally, _, _ = block_tally(B.AttentionV2(c, heads), h, w)
    return tally.macs


class TestAttentionCost:
    def test_single_site_degenerate(self):
        c, heads = 16, 2
        macs = attention_macs(c, 1, 1, heads)
        conv_part = c * 2 * c + c * c + 9 * c + c * c
        assert macs - conv_part == 2 * c  # matmul terms collapse to 2c

    def test_matmul_term_example(self):
        macs = attention_macs(64, 8, 8, 1)
        conv_part = 64 * 64 * (2 * 64 + 64 + 64) + 64 * 9 * 64
        assert macs - conv_part == 524_288  # 2 * 64^2 * 64

    def test_quadratic_scaling_in_sites(self):
        def matmul_part(h, w):
            macs = attention_macs(32, h, w, 2)
            conv = h * w * (32 * 64 + 32 * 32 + 9 * 32 + 32 * 32)
            return macs - conv

        assert matmul_part(8, 8) == 16 * matmul_part(4, 4)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            attention_macs(30, 4, 4, 4)

    def test_counter_equality_on_live_attention(self, rng):
        blk = randomize(B.AttentionV2(16, 2), rng)
        x = rand_input(rng, 1, 16, 4, 4)
        with oracle.reference() as ref:
            blk.forward(x)
        tally, _, _ = block_tally(blk, 4, 4)
        assert ref.macs == tally.macs == attention_macs(16, 4, 4, 2)


class TestBlockCounterEquality:
    @pytest.mark.parametrize("make", [
        lambda: B.ConvBNAct(8, 8, 3, 2),
        lambda: B.ConvBNAct(8, 8, 3, 1).fuse(),
        lambda: B.RepVGGBlock(8, 8, identity=True),
        lambda: B.RepCSP(8, 8, 2),
        lambda: B.MerudandaX(8, 8, 2),
        lambda: B.DWChain(8, 7),
        lambda: B.MerudandaDW(8, 3),
        lambda: B.SqueezeExcite(8),
        lambda: B.RepViTBlock(8, 7),
        lambda: B.MerudandaBhag15(8, 8, 2, "repvit"),
        lambda: B.MerudandaBhag15(8, 8, 1, "merudanda_dw", 7),
        lambda: B.SPPF(8, 8),
        lambda: B.AttentionV2(8, 1),
        lambda: B.AttentionBlockV2(8, 2),
        lambda: B.AttentionBhag6(16, 16, 2, 2),
        lambda: B.ADown(8, 8),
    ])
    def test_analytic_equals_counter(self, make, rng):
        blk = randomize(make(), rng)
        x = rand_input(rng, 1, blk.c_in, 8, 8)
        with oracle.reference() as ref:
            blk.forward(x)
        tally, _, _ = block_tally(blk, 8, 8)
        assert ref.macs == tally.macs, type(blk).__name__

    def test_fused_forms_too(self, rng):
        for make in (lambda: B.RepVGGBlock(8, 8), lambda: B.MerudandaX(8, 8, 1),
                     lambda: B.ADown(8, 8)):
            blk = randomize(make(), rng).fuse()
            x = rand_input(rng, 1, blk.c_in, 8, 8)
            with oracle.reference() as ref:
                blk.forward(x)
            tally, _, _ = block_tally(blk, 8, 8)
            assert ref.macs == tally.macs

    def test_params_equal_learnable_array_enumeration(self, rng):
        for make in (lambda: B.RepVGGBlock(8, 8, identity=True),
                     lambda: B.MerudandaX(8, 8, 2),
                     lambda: B.MerudandaBhag15(8, 8, 1, "repvit"),
                     lambda: B.AttentionBhag6(16, 16, 1, 2),
                     lambda: B.ADown(8, 8),
                     lambda: B.SPPF(8, 8)):
            blk = make()
            tally, _, _ = block_tally(blk, 8, 8)
            enumerated = sum(arr.size for _, arr, is_stat in blk.named_arrays("t") if not is_stat)
            assert tally.params == enumerated, type(blk).__name__

    def test_odd_adown_input_is_rejected(self):
        # runtime and the static walk reject it alike; the tally must not price it
        with pytest.raises(ShapeError, match="adown needs even spatial dims, got 33x32"):
            block_tally(B.ADown(8, 8), 33, 32)

    def test_batch_scaling_is_linear(self, rng):
        blk = randomize(B.ConvBNAct(4, 4, 3), rng)
        tally, _, _ = block_tally(blk, 6, 6)
        for n in (1, 3):
            with oracle.reference() as ref:
                blk.forward(rand_input(rng, n, 4, 6, 6))
            assert ref.macs == n * tally.macs


class TestGraphCost:
    def test_empty_report_is_zero(self):
        report = CostReport([])
        assert report.totals == {"macs": 0, "flops": 0, "params": 0, "conv3x3": 0, "other_ops": 0}

    def test_census_4_vs_6(self):
        for n, want in ((1, 4), (2, 6)):
            graph, _ = parse_config(f"block m type=merudanda_x in=16 out=16 n={n} from=input")
            report = graph_cost(graph, (16, 8, 8))
            assert report.totals["conv3x3"] == want

    def test_totals_equal_node_sum(self, rng):
        graph, _ = parse_config("""
block a type=conv_bn_act in=3 out=8 k=3 s=2 from=input
block b type=sppf in=8 out=8 from=a
block c type=adown in=8 out=16 from=b
""")
        report = graph_cost(graph, (3, 16, 16))
        t = report.totals
        assert t["macs"] == sum(n.macs for n in report.nodes)
        assert t["params"] == sum(n.params for n in report.nodes)
        assert t["flops"] == 2 * t["macs"]
        assert all(isinstance(n.macs, int) and n.macs >= 0 for n in report.nodes)

    def test_totals_equal_instrumented_counter_small_graph(self, rng):
        graph, _ = parse_config("""
block a type=conv_bn_act in=3 out=8 k=3 s=2 from=input
block b type=merudanda_x in=8 out=8 n=1 from=a
block d5 type=adown in=8 out=16 from=b
block up type=upsample from=d5
block cat type=concat from=up,b
block c type=merudanda_bhag15 in=24 out=16 n=1 inner=merudanda_dw from=cat
""")
        from vajrakit.graph import Model

        store = init_weights(graph, 5)
        model = Model(graph).bind(store)
        x = rand_input(rng, 1, 3, 32, 32)
        with oracle.reference() as ref:
            model.forward(x)
        report = graph_cost(graph, (3, 32, 32))
        assert report.totals["macs"] == ref.macs

    def test_json_schema_validation(self):
        import jsonschema

        graph, _ = parse_config("block a type=adown in=64 out=128 from=input")
        obj = graph_cost(graph, (64, 32, 32)).to_json_obj()
        jsonschema.validate(obj, COST_REPORT_SCHEMA)
        assert obj["nodes"][0]["macs"] == 5_242_880

    def test_text_table_contains_totals(self):
        graph, _ = parse_config("block a type=adown in=64 out=128 from=input")
        text = graph_cost(graph, (64, 32, 32)).to_text()
        assert "5,242,880" in text and "TOTAL" in text and "FLOPs" in text

    def test_meta_backend_is_uninstalled_after_a_shape_error(self):
        graph, _ = parse_config("block d type=adown in=8 out=16 from=input")
        with pytest.raises(ShapeError, match="node 'd'"):
            graph_cost(graph, (8, 33, 32))
        assert tensor._BACKEND.get() is None

    def test_cost_never_runs_forward(self, rng):
        # the cost walk runs on its own backend; no op reaches the caller's
        graph, _ = parse_config("block a type=merudanda_x in=8 out=8 n=1 from=input")

        class Exploder:
            def __getattr__(self, name):
                raise AssertionError("cost model executed a tensor op")

        from vajrakit.tensor import override_backend

        with override_backend(Exploder()):
            report = graph_cost(graph, (8, 8, 8))
        assert report.totals["macs"] > 0


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_config())
def test_report_on_random_graphs_fits_schema_and_its_columns(text):
    # every drawn graph in both forms: train, and fused=1 built from config
    import jsonschema

    body = "\n".join(line for line in text.splitlines() if line != "fused=1")
    for header in ("", "fused=1\n"):
        try:
            graph, _ = parse_config(header + body)
            report = graph_cost(graph, (graph.input_channels or 3, 16, 16))
        except (ConfigError, ShapeError):
            assume(False)
        obj = report.to_json_obj()
        jsonschema.validate(obj, COST_REPORT_SCHEMA)
        tot = obj["totals"]
        for key in COUNTS:
            assert tot[key] == sum(node[key] for node in obj["nodes"]), key
        assert tot["flops"] == 2 * tot["macs"]
        lines = report.to_text().splitlines()
        assert lines[0].split() == ["node", "kind", "macs", "params", "3x3", "other_ops"]
        assert lines[-2].split() == ["TOTAL", f"{tot['macs']:,}", f"{tot['params']:,}",
                                     str(tot["conv3x3"]), f"{tot['other_ops']:,}"]
        assert lines[-1] == f"FLOPs (2*MACs): {tot['flops']:,}"


class TestSchemaRejects:
    @staticmethod
    def _rejects(edit):
        import jsonschema

        graph, _ = parse_config("block a type=adown in=8 out=16 from=input")
        obj = graph_cost(graph, (8, 8, 8)).to_json_obj()
        jsonschema.validate(obj, COST_REPORT_SCHEMA)
        edit(obj["nodes"][0])
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, COST_REPORT_SCHEMA)

    @pytest.mark.parametrize("key", COUNTS)
    def test_node_lacking_a_count(self, key):
        self._rejects(lambda node: node.pop(key))

    def test_node_with_an_extra_key(self):
        self._rejects(lambda node: node.update(live_bytes=0))

    @pytest.mark.parametrize("key", COUNTS)
    def test_negative_count(self, key):
        self._rejects(lambda node: node.update({key: -1}))
