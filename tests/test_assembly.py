"""Config parsing, scale invariants, weight persistence, graph execution."""
import struct

import numpy as np
import pytest

from conftest import rand_input
from vajrakit.graph import (
    ConfigError,
    Model,
    ScaleConfig,
    forward_graph,
    parse_config,
    propagate_shapes,
    serialize_config,
)
from vajrakit.presets import REFERENCE_TOTALS, SCALES, load_preset, preset_text
from vajrakit.tensor import DTYPE, ShapeError
from vajrakit.weights import WeightFormatError, WeightStore, init_weights


class TestParseConfig:
    def test_minimal_single_node(self):
        graph, scale = parse_config("block b1 type=adown in=64 out=128 from=input")
        assert scale is None
        assert len(graph.nodes) == 1
        node = graph.nodes[0]
        assert node.kind == "adown" and node.attrs == {"in": 64, "out": 128}
        assert graph.input_channels == 64

    def test_comments_and_blank_lines(self):
        graph, _ = parse_config("""
# a comment
block a type=sppf in=8 out=8 from=input  # trailing comment

""")
        assert len(graph.nodes) == 1

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="no nodes"):
            parse_config("# nothing here\n")

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ConfigError) as e:
            parse_config("block a type=sppf in=8 out=8 from=input\nnode b\n")
        assert e.value.line == 2 and e.value.col == 1

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config("block a type=c3k2 in=8 out=8 from=input")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("block a type=sppf in=8 out=8 color=red from=input")

    def test_key_not_valid_for_kind(self):
        with pytest.raises(ConfigError, match="not valid"):
            parse_config("block a type=adown in=8 out=8 heads=2 from=input")

    def test_non_integer_value(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("block a type=sppf in=8 out=eight from=input")

    def test_duplicate_id(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("block a type=sppf in=8 out=8 from=input\n"
                         "block a type=sppf in=8 out=8 from=a")

    def test_forward_reference_rejected(self):
        with pytest.raises(ConfigError, match="undefined node"):
            parse_config("block a type=sppf in=8 out=8 from=b\n"
                         "block b type=sppf in=8 out=8 from=input")

    @pytest.mark.parametrize("kind", ["conv_bn_act k=1 s=1", "upsample"])
    def test_fan_in_on_single_input_kind_rejected(self, kind):
        attrs = "in=16 out=8 " if kind != "upsample" else ""
        with pytest.raises(ConfigError, match="takes one input") as e:
            parse_config("block a type=conv_bn_act in=3 out=8 k=1 s=1 from=input\n"
                         f"block b type={kind} {attrs}from=a,a")
        assert e.value.line == 2

    def test_channel_mismatch_diagnostic(self):
        with pytest.raises(ConfigError, match="carry"):
            parse_config("block a type=conv_bn_act in=3 out=8 k=1 s=1 from=input\n"
                         "block b type=sppf in=16 out=16 from=a")

    def test_concat_channels_derived(self):
        graph, _ = parse_config("""
block a type=conv_bn_act in=3 out=8 k=1 s=1 from=input
block b type=conv_bn_act in=8 out=4 k=1 s=1 from=a
block cat type=concat from=a,b
block c type=sppf in=12 out=12 from=cat
""")
        assert graph.nodes[-1].attrs["in"] == 12

    def test_block_level_error_is_wrapped(self):
        with pytest.raises(ConfigError, match="adown needs even"):
            parse_config("block a type=adown in=7 out=8 from=input")

    def test_serialize_roundtrip(self):
        graph, _ = load_preset("N")
        text = serialize_config(graph)
        graph2, scale2 = parse_config(text)
        assert scale2.scale == "N"
        assert [n.id for n in graph2.nodes] == [n.id for n in graph.nodes]
        assert [n.attrs for n in graph2.nodes] == [n.attrs for n in graph.nodes]

    def test_fused_header(self):
        graph, _ = parse_config("fused=1\nblock a type=sppf in=8 out=8 from=input")
        assert graph.fused


class TestScaleRules:
    def test_scale_l_with_n1_rejected(self):
        cfg = "scale=L\nblock m type=merudanda_x in=8 out=8 n=1 stage=S2 from=input"
        with pytest.raises(ConfigError, match="must use n=2"):
            parse_config(cfg)

    def test_scale_n_bhag15_needs_7x7_at_p5(self):
        cfg = ("scale=N\n"
               "block m type=merudanda_bhag15 in=8 out=8 n=1 inner=merudanda_dw dw=3 "
               "stage=P5 from=input")
        with pytest.raises(ConfigError, match="dw_kernel=7"):
            parse_config(cfg)

    def test_scale_s_needs_7x7_at_s5_and_p5(self):
        ok = ("scale=S\n"
              "block m type=merudanda_bhag15 in=8 out=8 n=1 inner=repvit dw=7 "
              "stage=S5 from=input")
        parse_config(ok)
        bad = ok.replace("dw=7", "dw=3")
        with pytest.raises(ConfigError, match="dw_kernel=7"):
            parse_config(bad)

    def test_s5_inner_must_be_repvit(self):
        cfg = ("scale=M\n"
               "block m type=merudanda_bhag15 in=8 out=8 n=1 inner=merudanda_dw dw=3 "
               "stage=S5 from=input")
        with pytest.raises(ConfigError, match="repvit"):
            parse_config(cfg)

    def test_neck_inner_must_be_merudanda_dw(self):
        cfg = ("scale=M\n"
               "block m type=merudanda_bhag15 in=8 out=8 n=1 inner=repvit dw=3 "
               "stage=P5 from=input")
        with pytest.raises(ConfigError, match="merudanda_dw"):
            parse_config(cfg)

    def test_attention_only_at_s5(self):
        cfg = ("scale=N\n"
               "block a type=attention_bhag6 in=128 out=128 nblocks=1 stage=S4 from=input")
        with pytest.raises(ConfigError, match="S5"):
            parse_config(cfg)

    def test_transformer_count_per_scale(self):
        cfg = ("scale=L\n"
               "block a type=attention_bhag6 in=128 out=128 nblocks=1 stage=S5 from=input")
        with pytest.raises(ConfigError, match="2 transformer"):
            parse_config(cfg)

    def test_x_downsamples_must_be_adown(self):
        cfg = ("scale=X\n"
               "block d type=conv_bn_act in=8 out=16 k=3 s=2 stage=S2 from=input")
        with pytest.raises(ConfigError, match="must be adown"):
            parse_config(cfg)

    def test_x_stem_exempt(self):
        parse_config("scale=X\nblock stem type=conv_bn_act in=3 out=8 k=3 s=2 stage=S1 from=input")

    def test_m_adown_only_at_s5_p5(self):
        bad = "scale=M\nblock d type=adown in=8 out=16 stage=S2 from=input"
        with pytest.raises(ConfigError, match="not placed"):
            parse_config(bad)
        good = "scale=M\nblock d type=adown in=8 out=16 stage=S5 from=input"
        parse_config(good)

    def test_m_s5_downsample_must_be_adown(self):
        cfg = "scale=M\nblock d type=conv_bn_act in=8 out=16 k=3 s=2 stage=S5 from=input"
        with pytest.raises(ConfigError, match="must be adown"):
            parse_config(cfg)


class TestPresets:
    @pytest.mark.parametrize("scale", SCALES)
    def test_parses_and_validates(self, scale):
        graph, scale_cfg = load_preset(scale)
        assert scale_cfg.scale == scale
        scale_cfg.validate(graph)  # explicit re-check
        assert scale in REFERENCE_TOTALS

    def test_n_depth_and_kernels(self):
        graph, cfg = load_preset("N")
        assert cfg.n == 1
        p5 = [n for n in graph.nodes if n.kind == "merudanda_bhag15" and n.stage == "P5"]
        assert p5 and p5[0].attrs["dw"] == 7
        s5 = [n for n in graph.nodes if n.kind == "merudanda_bhag15" and n.stage == "S5"]
        assert s5 and s5[0].attrs["inner"] == "repvit" and s5[0].attrs["dw"] == 3

    def test_s_7x7_at_s5_and_p5(self):
        graph, _ = load_preset("S")
        tagged = {n.stage: n for n in graph.nodes if n.kind == "merudanda_bhag15"}
        assert tagged["S5"].attrs["dw"] == 7 and tagged["P5"].attrs["dw"] == 7

    @pytest.mark.parametrize("scale,n,blocks", [("N", 1, 1), ("S", 1, 1), ("M", 1, 1),
                                                ("L", 2, 2), ("X", 2, 2)])
    def test_depth_and_transformer_count(self, scale, n, blocks):
        graph, _ = load_preset(scale)
        for node in graph.nodes:
            if node.kind in ("merudanda_x", "merudanda_bhag15"):
                assert node.attrs["n"] == n
            if node.kind == "attention_bhag6":
                assert node.attrs["nblocks"] == blocks

    def test_x_every_downsample_is_adown(self):
        graph, _ = load_preset("X")
        for node in graph.nodes:
            if node.kind == "conv_bn_act" and node.attrs.get("s") == 2:
                assert node.attrs["in"] == 3  # only the stem
        assert sum(1 for n in graph.nodes if n.kind == "adown") == 6

    @pytest.mark.parametrize("scale", ["M", "L"])
    def test_ml_adown_exactly_at_s5_p5(self, scale):
        graph, _ = load_preset(scale)
        adown_stages = sorted(n.stage for n in graph.nodes if n.kind == "adown")
        assert adown_stages == ["P5", "S5"]

    def test_exactly_one_attention_at_s5(self):
        for scale in SCALES:
            graph, _ = load_preset(scale)
            attn = [n for n in graph.nodes if n.kind == "attention_bhag6"]
            assert len(attn) == 1 and attn[0].stage == "S5"

    def test_preset_text_unknown_scale(self):
        with pytest.raises(ValueError):
            preset_text("Q")


class TestShapePropagation:
    def test_static_matches_runtime_per_node(self, rng):
        graph, _ = parse_config("""
block a type=conv_bn_act in=3 out=8 k=3 s=2 from=input
block b type=merudanda_x in=8 out=8 n=1 from=a
block c type=adown in=8 out=16 from=b
block up type=upsample from=c
block cat type=concat from=up,b
block d type=sppf in=24 out=24 from=cat
""")
        store = init_weights(graph, 0)
        model = Model(graph).bind(store)
        x = rand_input(rng, 2, 3, 32, 32)
        outs = model.forward(x)
        shapes = propagate_shapes(graph, 3, 32, 32)
        for node in graph.nodes:
            c, h, w = shapes[node.id]
            assert outs[node.id].shape == (2, c, h, w), node.id

    def test_preset_strides_at_640(self):
        graph, _ = load_preset("N")
        shapes = propagate_shapes(graph, 3, 640, 640)
        assert shapes["n3"] == (64, 80, 80)    # stride 8
        assert shapes["n4b"] == (128, 40, 40)  # stride 16
        assert shapes["n5"] == (256, 20, 20)   # stride 32

    def test_wrong_input_channels_names_stem(self):
        graph, _ = load_preset("N")
        with pytest.raises(ShapeError, match="stem"):
            propagate_shapes(graph, 4, 64, 64)

    def test_odd_spatial_into_adown_flagged_with_node_id(self):
        graph, _ = parse_config("block d type=adown in=8 out=16 from=input")
        with pytest.raises(ShapeError, match="node 'd'"):
            propagate_shapes(graph, 8, 33, 32)


class TestInitWeights:
    def test_same_seed_bit_identical(self):
        graph, _ = parse_config("block b type=merudanda_x in=8 out=8 n=1 from=input")
        s1 = init_weights(graph, 7)
        s2 = init_weights(graph, 7)
        assert s1.names() == s2.names()
        for name, arr in s1.items():
            assert np.array_equal(arr, s2[name])

    def test_different_seeds_differ(self):
        graph, _ = parse_config("block b type=merudanda_x in=8 out=8 n=1 from=input")
        s1 = init_weights(graph, 7)
        s2 = init_weights(graph, 8)
        assert any(not np.array_equal(arr, s2[name]) for name, arr in s1.items())

    def test_store_covers_every_site_exactly(self):
        graph, _ = load_preset("N")
        store = init_weights(graph, 0)
        names = [name for name, _, _ in Model(graph).named_arrays()]
        assert store.names() == names
        assert len(set(names)) == len(names)

    def test_bn_left_at_identity_and_biases_zero(self):
        graph, _ = parse_config("block a type=conv_bn_act in=3 out=4 k=3 s=1 from=input")
        store = init_weights(graph, 0)
        assert np.all(store["a.bn.gamma"] == 1.0)
        assert np.all(store["a.bn.beta"] == 0.0)
        assert np.all(store["a.bn.mean"] == 0.0)
        assert np.all(store["a.bn.var"] == 1.0)
        assert not np.all(store["a.w"] == 0.0)

    def test_fan_in_bound_respected(self):
        graph, _ = parse_config("block a type=conv_bn_act in=8 out=4 k=3 s=1 from=input")
        store = init_weights(graph, 0)
        bound = 1.0 / np.sqrt(8 * 9)
        w = store["a.w"]
        assert np.all(np.abs(w) <= bound)
        assert w.std() > 0


class TestWeightStoreIO:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        store = WeightStore()
        store.add("a.w", rng.standard_normal((4, 3, 3, 3)).astype(DTYPE))
        store.add("b.bias", rng.standard_normal(7).astype(DTYPE))
        store.add("scalar", np.array(2.5, DTYPE))
        path = tmp_path / "w.vjw"
        store.save(path)
        loaded = WeightStore.load(path)
        assert loaded.names() == store.names()
        for name, arr in store.items():
            got = loaded[name]
            assert got.shape == arr.shape and got.dtype == arr.dtype
            assert arr.tobytes() == got.tobytes()

    def test_empty_store_is_8_byte_header(self, tmp_path):
        store = WeightStore()
        path = tmp_path / "empty.vjw"
        store.save(path)
        assert path.stat().st_size == 8
        assert len(WeightStore.load(path)) == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vjw"
        path.write_bytes(b"NOPE" + struct.pack("<I", 0))
        with pytest.raises(WeightFormatError, match="magic"):
            WeightStore.load(path)

    def test_truncated_file_rejected(self, tmp_path, rng):
        store = WeightStore()
        store.add("x", rng.standard_normal((8, 8)).astype(DTYPE))
        path = tmp_path / "t.vjw"
        store.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(WeightFormatError, match="truncated"):
            WeightStore.load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.vjw"
        WeightStore().save(path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(WeightFormatError, match="trailing"):
            WeightStore.load(path)

    def test_duplicate_names_rejected(self, tmp_path):
        entry = struct.pack("<H", 1) + b"x" + struct.pack("<B", 1) + struct.pack("<I", 1) + struct.pack("<f", 0.0)
        path = tmp_path / "d.vjw"
        path.write_bytes(b"VJW1" + struct.pack("<I", 2) + entry + entry)
        with pytest.raises(WeightFormatError, match="duplicate"):
            WeightStore.load(path)

    def test_duplicate_add_rejected(self):
        store = WeightStore()
        store.add("x", np.zeros(1, DTYPE))
        with pytest.raises(WeightFormatError, match="duplicate"):
            store.add("x", np.zeros(1, DTYPE))

    def test_oversized_name_rejected_at_save(self, tmp_path):
        store = WeightStore()
        store.add("n" * 70_000, np.zeros(1, DTYPE))
        with pytest.raises(WeightFormatError, match="name too long"):
            store.save(tmp_path / "x.vjw")


class TestForwardGraph:
    def test_preset_stage_outputs_at_640(self, rng):
        graph, _ = load_preset("N")
        store = init_weights(graph, 0)
        outs = forward_graph(graph, store, rand_input(rng, 1, 3, 640, 640))
        assert outs["P3"].shape == (1, 64, 80, 80)
        assert outs["P4"].shape == (1, 128, 40, 40)
        assert outs["P5"].shape == (1, 256, 20, 20)
        assert all(np.isfinite(v).all() for v in outs.values())

    def test_fixed_seed_bit_identical_rebuilds(self, rng):
        graph, _ = parse_config("block b type=merudanda_x in=8 out=8 n=1 from=input")
        store = init_weights(graph, 1)
        x = rand_input(rng, 1, 8, 16, 16)
        a = forward_graph(graph, store, x)["b"]
        b = forward_graph(graph, store, x)["b"]
        assert np.array_equal(a, b)

    def test_wrong_channels_diagnostic_names_stem(self, rng):
        graph, _ = load_preset("N")
        store = init_weights(graph, 0)
        with pytest.raises(ShapeError, match="'stem'"):
            forward_graph(graph, store, rand_input(rng, 1, 4, 64, 64))

    def test_missing_weight_named(self, rng):
        graph, _ = parse_config("block a type=sppf in=8 out=8 from=input")
        store = init_weights(graph, 0)
        partial = WeightStore()
        for name, arr in list(store.items())[:-1]:
            partial.add(name, arr)
        with pytest.raises(KeyError, match="a.cv2"):
            Model(graph).bind(partial)

    def test_extra_weight_rejected(self):
        graph, _ = parse_config("block a type=sppf in=8 out=8 from=input")
        store = init_weights(graph, 0)
        store.add("stray.w", np.zeros((1, 1, 1, 1), DTYPE))
        with pytest.raises(KeyError, match="stray"):
            Model(graph).bind(store)

    def test_untagged_graph_returns_last_node(self, rng):
        graph, _ = parse_config("block a type=adown in=8 out=16 from=input")
        store = init_weights(graph, 0)
        outs = forward_graph(graph, store, rand_input(rng, 1, 8, 8, 8))
        assert list(outs) == ["a"] and outs["a"].shape == (1, 16, 4, 4)

    def test_topological_order_independence(self, rng):
        base = """
block a type=conv_bn_act in=3 out=8 k=1 s=1 from=input
block b type=conv_bn_act in=8 out=4 k=3 s=1 from=a
block c type=sppf in=8 out=4 from=a
block cat type=concat from=b,c
block d type=conv_bn_act in=8 out=8 k=1 s=1 from=cat
"""
        swapped = """
block a type=conv_bn_act in=3 out=8 k=1 s=1 from=input
block c type=sppf in=8 out=4 from=a
block b type=conv_bn_act in=8 out=4 k=3 s=1 from=a
block cat type=concat from=b,c
block d type=conv_bn_act in=8 out=8 k=1 s=1 from=cat
"""
        g1, _ = parse_config(base)
        g2, _ = parse_config(swapped)
        s1 = init_weights(g1, 5)
        # same sites, different collection order: rebuild for g2 by name
        s2 = WeightStore()
        for name, _, _ in Model(g2).named_arrays():
            s2.add(name, s1[name])
        x = rand_input(rng, 1, 3, 16, 16)
        out1 = forward_graph(g1, s1, x)["d"]
        out2 = forward_graph(g2, s2, x)["d"]
        assert np.array_equal(out1, out2)

    def test_model_input_validation(self, rng):
        graph, _ = parse_config("block a type=sppf in=8 out=8 from=input")
        model = Model(graph).bind(init_weights(graph, 0))
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((8, 8)).astype(DTYPE))
