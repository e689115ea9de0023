"""Config parsing, scale invariants, weight persistence, graph execution."""
import math
import re
import struct
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import rand_input
from test_config_text import valid_config
from vajrakit import blocks as B
from vajrakit import graph as graph_module
from vajrakit import tensor
from vajrakit import weights as weights_module
from vajrakit.cost import MetaBackend, graph_cost
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
from vajrakit.reparam import reparam_graph
from vajrakit.tensor import DTYPE, ShapeError, override_backend
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

    def test_omitted_keys_read_constructor_defaults(self):
        graph, _ = parse_config("block a type=conv_bn_act in=3 out=8 from=input\n"
                                "block b type=merudanda_bhag15 in=8 out=8 from=a")
        a, b = graph.nodes
        assert (a.attr("k"), a.attr("s"), a.attr("out")) == (1, 1, 8)
        assert (b.attr("n"), b.attr("inner"), b.attr("dw"), b.attr("hidden")) == (
            1, "merudanda_dw", 3, None)


# one line per width key, each otherwise valid, the key's value left as {v}
_WIDTH_LINES = {
    "in": "block a type=conv_bn_act in={v} out=8 from=input",
    "out": "block a type=conv_bn_act in=3 out={v} from=input",
    "stem": "block a type=merudanda_x in=8 out=8 stem={v} from=input",
    "mid": "block a type=merudanda_x in=8 out=8 mid={v} from=input",
    "hidden": "block a type=merudanda_bhag15 in=8 out=8 hidden={v} from=input",
    "heads": "block a type=attention_bhag6 in=8 out=8 heads={v} from=input",
}


class TestRejectAtParse:
    """Bad values are ConfigErrors carrying their line, never later failures."""

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", sorted(_WIDTH_LINES))
    def test_non_positive_width(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}= must be positive") as e:
            parse_config("# widths\n" + _WIDTH_LINES[key].format(v=value))
        assert e.value.line == 2

    @pytest.mark.parametrize("value", ["yes", "true", "false", "", "2"])
    def test_fused_wants_0_or_1(self, value):
        with pytest.raises(ConfigError, match="fused= wants 0 or 1") as e:
            parse_config(f"fused={value}\nblock a type=sppf in=8 out=8 from=input")
        assert e.value.line == 1

    @pytest.mark.parametrize("line, match", [
        pytest.param("block a type=sppf in=8 out=8 k=-1 from=input", "pool size", id="sppf k=-1"),
        pytest.param("block a type=attention_bhag6 in=8 out=8 k=-1 from=input", "pool size",
                     id="attention_bhag6 k=-1"),
        pytest.param("block a type=merudanda_x in=8 out=8 n=-1 from=input", "count cannot be negative",
                     id="merudanda_x n=-1"),
        pytest.param("block a type=merudanda_bhag15 in=8 out=8 n=-2 from=input", "count cannot be negative",
                     id="merudanda_bhag15 n=-2"),
        pytest.param("block a type=attention_bhag6 in=8 out=8 nblocks=-1 from=input", "count cannot be negative",
                     id="attention_bhag6 nblocks=-1"),
        *(pytest.param(f"block a type=merudanda_x in=8 out=8 identity={v} from=input", "identity= wants 0 or 1",
                       id=f"identity={v}") for v in ("5", "-1", "01", "true")),
    ])
    def test_values_that_used_to_run(self, line, match):
        with pytest.raises(ConfigError, match=match) as e:
            parse_config(f"# values\n{line}")
        assert e.value.line == 2

    @pytest.mark.parametrize("attrs", ["type=merudanda_x identity=0 n=0", "type=merudanda_x identity=1",
                                       "type=attention_bhag6 nblocks=0 k=1"])
    def test_boundary_values_parse(self, attrs):
        parse_config(f"block a {attrs} in=8 out=8 from=input")

    def test_fused_0_parses_unfused(self):
        graph, _ = parse_config("fused=0\nblock a type=sppf in=8 out=8 from=input")
        assert not graph.fused

    @pytest.mark.parametrize("repeat", ["out=8", "k=3", "from=input", "type=sppf", "stage=S2"])
    def test_key_given_twice(self, repeat):
        with pytest.raises(ConfigError, match="given twice") as e:
            parse_config("# repeats\n"
                         f"block a type=sppf in=8 out=8 k=3 stage=S2 {repeat} from=input")
        assert e.value.line == 2

    @pytest.mark.parametrize("header", ["scale=N", "fused=1"])
    def test_header_given_twice(self, header):
        with pytest.raises(ConfigError, match="second") as e:
            parse_config(f"{header}\n{header}\nblock a type=sppf in=8 out=8 from=input")
        assert e.value.line == 2

    def test_unknown_scale_carries_line(self):
        with pytest.raises(ConfigError, match="unknown scale") as e:
            parse_config("# header\nscale=Q\nblock a type=sppf in=8 out=8 from=input")
        assert e.value.line == 2


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

    def test_wrong_input_channels_names_the_node_declaring_in(self):
        graph, _ = parse_config("""
block u type=upsample from=input
block a type=conv_bn_act in=3 out=8 k=3 s=1 from=input
block c type=concat from=u,a
""")
        with pytest.raises(ShapeError, match="node 'a' expects 3"):
            propagate_shapes(graph, 4, 8, 8)

    def test_odd_spatial_into_adown_flagged_with_node_id(self):
        graph, _ = parse_config("block d type=adown in=8 out=16 from=input")
        with pytest.raises(ShapeError, match="node 'd'"):
            propagate_shapes(graph, 8, 33, 32)


def _outcome(fn):
    """(result, None), or (None, the node id a ShapeError names)."""
    try:
        return fn(), None
    except ShapeError as e:
        return None, re.match(r"node '([^']*)'", str(e)).group(1)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_config())
def test_static_shapes_match_runtime_on_random_graphs(text):
    # every drawn graph in both forms: train, and fused=1 built from config
    body = "\n".join(line for line in text.splitlines() if line != "fused=1")
    for header in ("", "fused=1\n"):
        try:
            graph, _ = parse_config(header + body)
        except ConfigError:
            assume(False)
        c = graph.input_channels or 3
        static, static_node = _outcome(lambda: propagate_shapes(graph, c, 16, 16))
        report, cost_node = _outcome(lambda: graph_cost(graph, (c, 16, 16)))
        outs, runtime_node = _outcome(
            lambda: Model(graph).forward(np.zeros((1, c, 16, 16), DTYPE)))
        assert static_node == cost_node == runtime_node
        if report is not None:
            assert [n.name for n in report.nodes] == [n.id for n in graph.nodes]
        if static is not None:
            for node in graph.nodes:
                assert outs[node.id].shape == (1, *static[node.id]), node.id


def _kernel_sites(graph):
    """(shape, fan-in bound) of each conv kernel, in parameter-site order."""
    return [(arr.shape, 1.0 / np.sqrt(math.prod(arr.shape[1:])))
            for _, arr, is_stat in Model(graph).named_arrays() if not is_stat and arr.ndim == 4]


def _sequential_kernels(graph, seed):
    """Each kernel drawn whole from one generator, in site order, then cast."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-bound, bound, size=shape).astype(DTYPE) for shape, bound in _kernel_sites(graph)]


class TestInitWeights:
    # preset N, and one block whose kernels are all shorter than one chunk
    SPLIT_GRAPHS = {"N": lambda: load_preset("N")[0],
                    "one_block": lambda: parse_config("block b type=merudanda_x in=8 out=8 n=1 from=input")[0]}

    @pytest.mark.parametrize("label", sorted(SPLIT_GRAPHS))
    def test_span_filler_equals_sequential_draws_for_any_split(self, label, monkeypatch):
        graph = self.SPLIT_GRAPHS[label]()
        want = _sequential_kernels(graph, 5)
        n = len(want)
        for parts in (1, 2, 3, 5, 7):
            kernels = [np.empty(shape, DTYPE) for shape, _ in _kernel_sites(graph)]
            cuts = [n * p // parts for p in range(parts + 1)]
            for i, j in reversed(list(zip(cuts, cuts[1:]))):  # last run first: each starts from its own advance
                weights_module._fill_span(kernels, 5, i, j)
            for arr, w in zip(kernels, want, strict=True):
                assert arr.tobytes() == w.tobytes(), parts
        # and through init_weights, its runs forced by the usable CPUs
        monkeypatch.setattr(weights_module, "_MIN_SPAN", 1 << 6)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(weights_module, "_usable_cpus", lambda: cpus)
            store = init_weights(graph, 5)
            got = [arr for _, arr in store.items() if arr.ndim == 4]
            for arr, w in zip(got, want, strict=True):
                assert arr.tobytes() == w.tobytes(), cpus

    def test_worker_error_propagates_and_no_worker_outlives_init(self, monkeypatch):
        graph = load_preset("N")[0]  # 2.45M draws: two spans of at least 2^20
        fillers = []

        def failing(kernels, seed, start, stop):
            fillers.append(threading.current_thread())
            raise RuntimeError(f"span at {start} failed")

        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(weights_module, "_fill_span", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="span at"):
            init_weights(graph, 0)
        assert len(fillers) == 2 and threading.main_thread() not in fillers
        assert not any(t.is_alive() for t in fillers)
        assert threading.active_count() == before

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


# Hand-built graphs for the liveness walk, one case each.
LIVENESS_GRAPHS = {
    "input fanned out": """
block a type=conv_bn_act in=3 out=4 k=3 s=1 from=input
block b type=conv_bn_act in=3 out=4 k=1 s=1 from=input
block c type=sppf in=3 out=4 from=input
block cat type=concat stage=P3 from=a,b,c
""",
    "concat names one source twice": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=4 out=4 k=1 s=1 from=a
block cat type=concat from=b,a,b
block c type=conv_bn_act in=12 out=4 k=1 s=1 stage=P3 from=cat
""",
    "tagged node consumed later": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 stage=S1 from=input
block b type=conv_bn_act in=4 out=4 k=3 s=1 from=a
block up type=upsample from=b
block c type=adown in=4 out=8 stage=S2 from=up
block d type=conv_bn_act in=4 out=4 k=1 s=1 stage=S3 from=a
""",
    "two nodes share a stage tag": """
block a type=conv_bn_act in=3 out=4 k=3 s=1 stage=P3 from=input
block b type=conv_bn_act in=3 out=4 k=1 s=1 from=input
block c type=conv_bn_act in=4 out=4 k=3 s=1 stage=P3 from=b
block d type=conv_bn_act in=4 out=4 k=1 s=1 stage=P4 from=c
""",
    "output nobody reads": """
block a type=conv_bn_act in=3 out=4 k=3 s=1 from=input
block b type=conv_bn_act in=3 out=4 k=1 s=1 from=input
block c type=conv_bn_act in=4 out=4 k=3 s=1 stage=P3 from=a
block d type=conv_bn_act in=4 out=4 k=1 s=1 stage=P4 from=c
""",
    "untagged": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=sppf in=4 out=4 from=a
block c type=concat from=a,b
block d type=conv_bn_act in=8 out=4 k=1 s=1 from=c
""",
}

# Hand-built graphs around an upsample and its concat: the upsample first,
# middle or last among the concat's sources, with a node between the two,
# returned as a stage output, untagged, read by a second node, named twice by
# the concat, or made before another of the concat's sources.
UPSAMPLE_GRAPHS = {
    "upsample first in its concat": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 stage=S1 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample stage=P3 from=a
block cat type=concat stage=P3 from=up,b
block c type=conv_bn_act in=10 out=4 k=1 s=1 stage=P4 from=cat
""",
    "upsample middle in its concat": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample stage=P3 from=a
block cat type=concat stage=P3 from=b,up,input
block c type=conv_bn_act in=13 out=4 k=1 s=1 stage=P4 from=cat
""",
    "upsample last in its concat": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample stage=P3 from=a
block cat type=concat stage=P3 from=b,input,up
block c type=conv_bn_act in=13 out=4 k=1 s=1 stage=P4 from=cat
""",
    "node between upsample and concat": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample from=a
block d type=conv_bn_act in=4 out=4 k=3 s=1 stage=S2 from=a
block cat type=concat stage=P3 from=b,up
block c type=conv_bn_act in=10 out=4 k=1 s=1 stage=P4 from=cat
""",
    "upsample returned as a stage output": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample stage=P3 from=a
block cat type=concat from=up,b
block c type=conv_bn_act in=10 out=4 k=1 s=1 stage=P4 from=cat
""",
    "untagged upsample into concat": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample from=a
block cat type=concat from=b,up
block c type=conv_bn_act in=10 out=4 k=1 s=1 from=cat
""",
    "upsample read by two nodes": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample from=a
block cat type=concat stage=P3 from=up,b
block c type=conv_bn_act in=4 out=4 k=1 s=1 stage=P4 from=up
""",
    "concat names the upsample twice": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block up type=upsample from=a
block cat type=concat stage=P3 from=up,b,up
block c type=conv_bn_act in=14 out=4 k=1 s=1 stage=P4 from=cat
""",
    "concat source after the upsample": """
block a type=conv_bn_act in=3 out=4 k=3 s=2 from=input
block up type=upsample from=a
block b type=conv_bn_act in=3 out=6 k=1 s=1 from=input
block cat type=concat stage=P3 from=up,b
block c type=conv_bn_act in=10 out=4 k=1 s=1 stage=P4 from=cat
""",
}
LIVENESS_GRAPHS.update(UPSAMPLE_GRAPHS)

LIVENESS_CASES = [f"{scale} {form}" for scale in SCALES for form in ("train", "fused")] + list(LIVENESS_GRAPHS)


def _liveness_case(label):
    """(bound model, input): a preset in train or fused form at 1x3x64x64,
    or a hand-built graph at 1x3x16x16."""
    if label in LIVENESS_GRAPHS:
        graph, _ = parse_config(LIVENESS_GRAPHS[label])
        x = np.random.default_rng(4).standard_normal((1, 3, 16, 16)).astype(DTYPE)
        return Model(graph).bind(init_weights(graph, 0)), x
    scale, form = label.split()
    graph, _ = load_preset(scale)
    store = init_weights(graph, 0)
    if form == "fused":
        graph, store = reparam_graph(graph, store)
    x = np.random.default_rng(3).standard_normal((1, 3, 64, 64)).astype(DTYPE)
    return Model(graph).bind(store), x


def _tagged_from_forward(model, x):
    """stage_outputs' contract, restated over forward()'s every-node dict."""
    outs = model.forward(x)
    want = {}
    for node in model.graph.nodes:
        if node.stage is not None:
            want[node.stage] = outs[node.id]
    final = model.graph.nodes[-1].id
    return want or {final: outs[final]}


def _views(model, x) -> set:
    """Indices of the nodes whose output is a concat view: each concat node,
    and each block whose forward ends in a concat (ADown)."""
    return {j for j, (_, y) in enumerate(model.walk(x)) if type(y) is tensor.ConcatView}


def _parts(nodes, j) -> set:
    """Indices of the nodes whose outputs the view of concat node j holds as
    parts: its sources, each concat among them replaced by that concat's
    parts (a view concatenated into another hands over its parts)."""
    index = {node.id: k for k, node in enumerate(nodes)}
    out = set()
    for s in nodes[j].inputs:
        if s != "input":
            k = index[s]
            out |= _parts(nodes, k) if nodes[k].kind == "concat" else {k}
    return out


def _needed(nodes, i, views) -> tuple[set, set]:
    """(held, parts) at the start of node i. Held: the nodes before i whose
    outputs a node >= i still reads, and the last node of each stage tag once
    it has run (an earlier node of the tag is superseded by it), unless its
    output is a view, of which the pass keeps a copy. Parts: those of each
    held concat, which live as long as it does; a concat holds no buffer of
    its own."""
    last_use = {s: k for k, node in enumerate(nodes) for s in node.inputs}
    kept = {node.stage: j for j, node in enumerate(nodes) if node.stage is not None}
    held = {j for j in range(i) if last_use.get(nodes[j].id, -1) >= i
            or (kept.get(nodes[j].stage) == j and j not in views)}
    return held, {k for j in held if nodes[j].kind == "concat" for k in _parts(nodes, j)}


def _buffers(nodes, i, views) -> set:
    """Indices of the nodes whose buffers are alive at the start of node i:
    the held ones and their parts, but no concat node."""
    held, parts = _needed(nodes, i, views)
    return {j for j in held | parts if nodes[j].kind != "concat"}


def _nbytes(outs, nodes, indices) -> int:
    """Bytes of the buffers the outputs of `indices` live in, each counted once."""
    return sum({id(r): r.nbytes for r in (_root(outs[nodes[j].id]) for j in indices)}.values())


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns the buffer `a` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _run_node(model, node, srcs):
    """Run one node as Model.walk does: a block or upsample takes its one
    input off the list, so the list no longer holds it."""
    if node.kind == "concat":
        return graph_module.concat_channels(srcs)
    if node.kind == "upsample":
        return graph_module.upsample_nearest(srcs.pop())
    return model.blocks[node.id].forward(srcs.pop())


def _run_handed_over(model, node, outs, dying):
    """Run a node on its inputs from outs, those named in dying as copies made
    here and held by nothing but the node, so the traced call owns them and
    they are freed where the pass frees them. A concat input is handed over
    as the pass hands it: a view of its parts."""
    nodes = {n.id: n for n in model.graph.nodes}

    def arg(s):
        if s in nodes and nodes[s].kind == "concat":
            return graph_module.concat_channels([arg(p) for p in nodes[s].inputs])
        return outs[s].copy() if s in dying else outs[s]

    srcs = [arg(s) for s in node.inputs]
    return _run_node(model, node, srcs)


def _unfused_outputs(model, x) -> dict:
    """Every node's output, each node run on its own on arrays and each
    result copied into an array: a concat view and its reader restated
    without a view."""
    outs = {"input": x}
    for node in model.graph.nodes:
        outs[node.id] = np.asarray(_run_node(model, node, [outs[s] for s in node.inputs]))
    return outs


# Each block that drops its input after its one reader, with the child that runs last.
_RELEASING = {B.MerudandaX: "final", B.MerudandaBhag15: "final", B.SPPF: "cv2",
              B.AttentionBhag6: "cv2", B.ADown: "cv2"}


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLiveness:
    @pytest.mark.parametrize("label", LIVENESS_CASES)
    def test_stage_outputs_equal_forward_tagged(self, label):
        model, x = _liveness_case(label)
        got = model.stage_outputs(x)
        want = _tagged_from_forward(model, x)
        assert list(got) == list(want)
        for tag in want:
            assert got[tag].dtype == want[tag].dtype
            assert np.array_equal(got[tag], want[tag]), tag

    @pytest.mark.parametrize("label", LIVENESS_CASES)
    def test_only_needed_outputs_alive(self, label, monkeypatch):
        # Every node output is recorded by weakref: block outputs through a
        # stand-in for each Model.blocks entry, concat and upsample outputs
        # through the graph module's own names, one call per node. At the
        # start of node i the outputs alive must be exactly those the pass
        # holds (_needed) and the parts of each concat view it holds, but no
        # view among those parts (a view concatenated into another hands over
        # its parts and dies); once the pass returns, exactly the outputs it
        # returned.
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        views = _views(model, x)
        refs = []
        mismatches = []

        def alive():
            return {j for j, ref in enumerate(refs) if ref() is not None}

        def needed(i):
            held, parts = _needed(nodes, i, views)
            return held | (parts - views)

        def recorded(fn):
            def run(*args, **kwargs):
                i = len(refs)
                if alive() != needed(i):
                    mismatches.append((nodes[i].id, sorted(nodes[j].id for j in alive() ^ needed(i))))
                y = fn(*args, **kwargs)
                refs.append(weakref.ref(y))
                return y
            return run

        class Recorded:
            def __init__(self, block):
                self.forward = recorded(block.forward)

        model.blocks = {nid: (Recorded(b) if b is not None else None)
                        for nid, b in model.blocks.items()}
        monkeypatch.setattr(graph_module, "concat_channels", recorded(graph_module.concat_channels))
        monkeypatch.setattr(graph_module, "upsample_nearest", recorded(graph_module.upsample_nearest))
        outs = model.stage_outputs(x)
        assert len(refs) == len(nodes)
        assert mismatches == []
        assert alive() == {j for j, ref in enumerate(refs) if any(ref() is y for y in outs.values())}

    @pytest.mark.parametrize("as_slice", [False, True], ids=["own", "slice"])
    @pytest.mark.parametrize("label", LIVENESS_CASES)
    def test_only_needed_buffers_alive(self, label, as_slice, monkeypatch):
        # As above, by the buffers outputs live in rather than the output
        # objects: blocks write into buffers they own and may return a view of
        # one; a concat view holds the buffers of its parts and none of its
        # own; a block that ends in a concat (ADown) makes the buffers of its
        # view's parts. With as_slice every op that returns an array returns
        # it as the leading channel slice of a buffer twice as wide, so output
        # and buffer differ. At the start of node i the buffers alive must be
        # exactly those of the nodes _buffers names; once the pass returns,
        # exactly those of the outputs it returned (a view's is a copy).
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        views = _views(model, x)
        bufs = []
        mismatches = []

        def alive():
            return {j for j, made in enumerate(bufs) if any(ref() is not None for ref in made)}

        def recorded(fn):
            def run(*args, **kwargs):
                i = len(bufs)
                if alive() != _buffers(nodes, i, views):
                    mismatches.append((nodes[i].id, sorted(nodes[j].id for j in alive() ^ _buffers(nodes, i, views))))
                y = fn(*args, **kwargs)
                if type(y) is tensor.ConcatView:
                    made = [] if nodes[i].kind == "concat" else [_root(part) for part in y.parts]
                else:
                    if as_slice:
                        y = np.concatenate([y, y], axis=1)[:, :y.shape[1]]
                    made = [_root(y)]
                bufs.append([weakref.ref(b) for b in made])
                return y
            return run

        class Recorded:
            def __init__(self, block):
                self.forward = recorded(block.forward)

        model.blocks = {nid: (Recorded(b) if b is not None else None)
                        for nid, b in model.blocks.items()}
        monkeypatch.setattr(graph_module, "concat_channels", recorded(graph_module.concat_channels))
        monkeypatch.setattr(graph_module, "upsample_nearest", recorded(graph_module.upsample_nearest))
        outs = model.stage_outputs(x)
        assert len(bufs) == len(nodes)
        assert mismatches == []
        kept = {node.stage: j for j, node in enumerate(nodes) if node.stage is not None} or {nodes[-1].id: len(nodes) - 1}
        assert {id(ref()) for j in alive() for ref in bufs[j] if ref() is not None} == \
            {id(_root(outs[tag])) for tag, j in kept.items() if j not in views}

    @pytest.mark.parametrize("label", ["N train", "M train"])
    def test_peak_within_live_plus_transient_table(self, label):
        # Per node: the bytes of the buffers alive at its start (_buffers)
        # that outlive it, plus its transient, the traced peak of running it
        # alone (its output, scratch and temporaries). A buffer alive at its
        # start and not after it dies inside it (a block drops its input
        # after its last reader, and a concat view's parts die with it), so
        # it is allocated inside the traced call and handed over as
        # Model.walk hands it, a concat input as a view of its parts; the
        # other inputs are allocated beforehand and counted as live. A concat
        # node allocates only its view. The pass holds nothing else, so its
        # traced peak is the largest row, give or take the walk's own
        # bookkeeping: dict and list entries, view objects and the array
        # headers of views, a few KB on the presets' 22-24 nodes.
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        views = _views(model, x)
        kept = {node.stage: j for j, node in enumerate(nodes) if node.stage is not None}
        assert views and not views & set(kept.values())  # the pass keeps each returned output itself
        outs = model.forward(x)  # every output as an array, a view as its copy
        rows = []
        for i, node in enumerate(nodes):
            now, after = _buffers(nodes, i, views), _buffers(nodes, i + 1, views)
            dying = {nodes[j].id for j in now - after}
            rows.append(_nbytes(outs, nodes, now & after) + _traced_peak(lambda: _run_handed_over(model, node, outs, dying)))
        del outs
        model.stage_outputs(x)  # warm: caches filled on first use are not the pass's
        peak = _traced_peak(lambda: model.stage_outputs(x))
        assert max(rows) - (16 << 10) <= peak <= max(rows) + (16 << 10)

    @pytest.mark.parametrize("label", [f"{scale} {form}" for scale in SCALES for form in ("train", "fused")])
    def test_single_reader_blocks_release_their_input(self, label):
        # Driven through Model.walk, which hands each block its input: when
        # the last child of a block in _RELEASING starts, the block's input
        # (its source's output, read by no other node) must be dead. The
        # presets place SPPF only inside AttentionBhag6, whose frame holds
        # SPPF's input, so an sppf node reading the final node is appended.
        scale, form = label.split()
        final = load_preset(scale)[0].nodes[-1]
        c = final.attrs["out"]
        graph, _ = parse_config(preset_text(scale) + f"block probe type=sppf in={c} out={c} from={final.id}\n")
        store = init_weights(graph, 0)
        if form == "fused":
            graph, store = reparam_graph(graph, store)
        model = Model(graph).bind(store)
        readers = Counter(s for node in graph.nodes for s in node.inputs)
        refs, seen = {}, []
        for node in graph.nodes:
            kind, src = type(model.blocks[node.id]), node.inputs[0]
            if kind in _RELEASING and readers[src] == 1 and src != "input":
                child = getattr(model.blocks[node.id], _RELEASING[kind])

                def starts(y, run=child.forward, name=kind.__name__, src=src):
                    seen.append((name, refs[src]() is None))
                    return run(y)
                child.forward = starts
        x = np.random.default_rng(3).standard_normal((1, 3, 64, 64)).astype(DTYPE)
        for node, y in model.walk(x):
            refs[node.id] = weakref.ref(y)
            del y
        assert [name for name, dead in seen if not dead] == []
        kinds = {name for name, _ in seen}
        assert kinds == {"MerudandaX", "MerudandaBhag15", "SPPF", "AttentionBhag6"} | (
            {"ADown"} if any(node.kind == "adown" for node in graph.nodes) else set())


def _assert_same_outputs(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].shape == want[key].shape and got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key].view(np.uint32), want[key].view(np.uint32)), key


class OwnUpsample:
    """A backend defining only upsample_nearest, which returns a new array."""

    def upsample_nearest(self, x):
        with override_backend(None):
            return tensor.upsample_nearest(x)


class OwnConcat:
    """A backend defining only concat_channels, which returns the fast path's view."""

    def concat_channels(self, xs):
        with override_backend(None):
            return tensor.concat_channels(xs)


class RecordingMeta(MetaBackend):
    """MetaBackend recording its concat and upsample calls, in order; a
    concat is handed a list of arrays, never a view."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def concat_channels(self, xs):
        assert not any(type(x) is tensor.ConcatView for x in xs)
        self.calls.append("concat_channels")
        return super().concat_channels(xs)

    def upsample_nearest(self, x):
        self.calls.append("upsample_nearest")
        return super().upsample_nearest(x)


class TestUpsampleIntoConcat:
    """An upsample read by a concat goes into the concat's view as a part, so
    no upsampled map is copied; outputs, shapes and costs are those of making
    each node's result as an array of its own."""

    CASES = list(UPSAMPLE_GRAPHS) + [f"{scale} {form}" for scale in SCALES for form in ("train", "fused")]

    @pytest.mark.parametrize("label", CASES)
    def test_outputs_equal_upsample_then_concat(self, label):
        # forward() and stage_outputs bit for bit as when every node's result
        # is copied into an array of its own (so each 1x1 conv reading a
        # concat reads an array, not a view), and each concat's view holds
        # each of its upsample sources itself
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        _assert_same_outputs(model.forward(x), _unfused_outputs(model, x))
        _assert_same_outputs(model.stage_outputs(x), _tagged_from_forward(model, x))
        made = {"input": x}
        for node, y in model.walk(x):
            made[node.id] = y
        ups = [(s, node.id) for node in nodes if node.kind == "concat" for s in node.inputs
               if s != "input" and next(n for n in nodes if n.id == s).kind == "upsample"]
        assert ups
        for up, cat in ups:
            assert any(part is made[up] for part in made[cat].parts), (up, cat)

    @pytest.mark.parametrize("label", list(UPSAMPLE_GRAPHS) + ["N train", "X fused"])
    def test_static_walk_unchanged(self, label):
        # propagate_shapes and graph_cost read the shapes the run makes, and
        # MetaBackend, which defines concat_channels, makes its own zero view
        # for each concat, so upsample and concat nodes cost nothing
        model, x = _liveness_case(label)
        graph, chw = model.graph, x.shape[1:]
        assert propagate_shapes(graph, *chw) == {nid: y.shape[1:] for nid, y in _unfused_outputs(model, x).items()}
        report = graph_cost(graph, chw)
        assert [n.name for n in report.nodes] == [node.id for node in graph.nodes]
        assert all(n.macs == n.params == n.other_ops == 0 for n in report.nodes if n.kind in ("upsample", "concat"))

    def test_misfit_concat_error_names_the_concat(self):
        # an upsample whose concat's other sources do not fit it: the static
        # walk and the run both name the concat node
        graph, _ = parse_config(UPSAMPLE_GRAPHS["upsample first in its concat"])
        with pytest.raises(ShapeError, match="node 'cat'"):
            propagate_shapes(graph, 3, 15, 15)
        model = Model(graph).bind(init_weights(graph, 0))
        with pytest.raises(ShapeError, match="node 'cat'"):
            model.stage_outputs(np.zeros((1, 3, 15, 15), DTYPE))

    @pytest.mark.parametrize("backend", [OwnUpsample, OwnConcat])
    @pytest.mark.parametrize("label", ["upsample middle in its concat", "N fused"])
    def test_backend_defining_one_of_the_two_ops(self, label, backend):
        # a backend that defines either op is handed each op as the graph
        # states it, with the same outputs; no upsample output shares memory
        # with the copy forward() keeps of its concat
        model, x = _liveness_case(label)
        want = _unfused_outputs(model, x)
        with override_backend(backend()):
            got = model.forward(x)
        _assert_same_outputs(got, want)
        ups = [node for node in model.graph.nodes if node.kind == "upsample"]
        cats = {node.id: next(n.id for n in model.graph.nodes if node.id in n.inputs) for node in ups}
        assert not any(np.shares_memory(got[u], got[c]) for u, c in cats.items())

    @pytest.mark.parametrize("label", [f"{scale} {form}" for scale in SCALES for form in ("train", "fused")])
    def test_backend_sees_each_op_once(self, label):
        # a backend defining both ops sees one upsample per upsample node and
        # a concat per concat node, each handed a list of arrays, and the
        # walk yields the backend's own result for each concat node
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        meta = RecordingMeta()
        with override_backend(meta):
            kinds = [(node.kind, type(y)) for node, y in model.walk(x)]
        assert meta.calls.count("upsample_nearest") == sum(node.kind == "upsample" for node in nodes)
        assert meta.calls.count("concat_channels") >= sum(node.kind == "concat" for node in nodes)
        assert not any(t is tensor.ConcatView for _, t in kinds)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("label", [f"{scale} {form}" for scale in SCALES for form in ("train", "fused")])
def test_a_pass_copies_no_concat_view_but_the_returned_ones(label, n, monkeypatch):
    # every concat of the presets is read by 1x1 convs alone, which read the
    # view band by band: a block that read a concat any other way would copy
    # the view and give the peak back. Only a returned view is copied (into
    # its output array), and the presets return none.
    model, _ = _liveness_case(label)
    x = np.random.default_rng(3).standard_normal((n, 3, 64, 64)).astype(DTYPE)
    nodes = model.graph.nodes
    kept = {node.stage: j for j, node in enumerate(nodes) if node.stage is not None}
    views = _views(model, x[:1])
    assert views and not views & set(kept.values())
    copied, real = [], tensor.ConcatView.__array__

    def counted(self, *args, **kwargs):
        copied.append(self.shape)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(tensor.ConcatView, "__array__", counted)
    model.stage_outputs(x)
    assert copied == []


_BLAS = weights_module._openblas()
# What run_spans allocates for each run it starts: a Thread with its locks and
# started Event, a Future with its Condition, a work item and a context copy.
# Traced on Python 3.11: 9.5-11.3 KB for 2 runs, 14.2-14.5 KB for 3, 15.5-16.2
# KB for 4 (30 repeats each), at most 5.7 KB a run; so 8 KB a run.
RUN_MACHINERY = 8 << 10


class OpLog:
    """A backend defining every hooked op: logs each op's name and runs the
    fast path."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        fast = getattr(tensor, name)

        def op(*args, **kwargs):
            self.names.append(name)
            with override_backend(None):
                return fast(*args, **kwargs)
        return op


def _batch(label, n, seed=6):
    """(bound model, n x 3 x 64 x 64 input) for a preset case of _liveness_case."""
    model, _ = _liveness_case(label)
    return model, np.random.default_rng(seed).standard_normal((n, 3, 64, 64)).astype(DTYPE)


@pytest.mark.skipif(_BLAS is None, reason="the loaded BLAS has no thread setter")
class TestBatchedPass:
    LABELS = ["N fused", "M train"]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("label", LABELS)
    def test_stage_outputs_equal_forward_tagged(self, label, n, cpus, monkeypatch):
        # min(n, cpus) image runs: both methods write each output they return
        # into one whole (n, c, h, w) array, bit for bit the same
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: cpus)
        model, x = _batch(label, n)
        got = model.stage_outputs(x)
        _assert_same_outputs(got, _tagged_from_forward(model, x))
        assert all(y.shape[0] == n and y.flags.c_contiguous for y in got.values())

    @pytest.mark.parametrize("label", LABELS)
    def test_image_bytes_depend_only_on_the_run_count(self, label, monkeypatch):
        # two runs of two images, then two runs of one: each image's bytes
        # are the same, whichever images share its run
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        model, x = _batch(label, 4)
        got = model.stage_outputs(x)
        for b in range(4):
            alone = model.stage_outputs(x[[b, b]])
            for tag, y in alone.items():
                assert np.array_equal(y[0].view(np.uint32), got[tag][b].view(np.uint32)), (b, tag)

    def test_one_walk_without_a_blas_thread_setter(self, monkeypatch):
        # no setter: one walk on the caller, bit for bit as under a backend
        # that defines no op, and no runs started (run_spans only counts
        # them, so it starts no thread)
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        model, x = _batch("N fused", 2)
        with override_backend(object()):
            want = model.stage_outputs(x)
        monkeypatch.setattr(weights_module, "_openblas", lambda: None)
        monkeypatch.setattr(weights_module, "ThreadPoolExecutor", None)
        _assert_same_outputs(model.stage_outputs(x), want)

    @pytest.mark.parametrize("label", LABELS)
    def test_backend_pass_bytes_equal_the_runs(self, label, monkeypatch):
        # under a backend the batch is one walk on the caller, with the run
        # count the runs would have, so each image's bytes are theirs
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        model, x = _batch(label, 4)
        with override_backend(object()):
            want = model.stage_outputs(x)
        _assert_same_outputs(model.stage_outputs(x), want)

    def test_blas_count_restored_after_a_pass_and_after_a_failed_run(self, monkeypatch):
        get, _ = _BLAS
        before = get()
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        model, x = _batch("N fused", 2)
        model.stage_outputs(x)
        assert get() == before
        graph, _ = parse_config(UPSAMPLE_GRAPHS["upsample first in its concat"])
        model = Model(graph).bind(init_weights(graph, 0))
        with pytest.raises(ShapeError, match="node 'cat'"):
            model.stage_outputs(np.zeros((2, 3, 15, 15), DTYPE))
        assert get() == before

    def test_a_failed_run_stops_the_others(self, monkeypatch):
        # the runs meet at each returned node before its array is made; a run
        # that fails breaks the meeting, so the others stop there instead of
        # waiting for it, and the pass raises the failing run's error
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        graph, _ = parse_config("block a type=conv_bn_act in=3 out=4 k=3 s=1 stage=S1 from=input\n"
                                "block b type=conv_bn_act in=4 out=4 k=1 s=1 stage=S2 from=a\n")
        model = Model(graph).bind(init_weights(graph, 0))
        block, lock, calls, made = model.blocks["a"], threading.Lock(), [], threading.Event()

        class FailsInTheFirstRun:
            def forward(self, y):
                with lock:
                    calls.append(y.shape[0])
                    first = len(calls) == 1
                if not first:
                    out = block.forward(y)
                    made.set()
                    return out
                made.wait(10)
                time.sleep(0.1)  # the other run waits at the meeting by now
                raise ShapeError("first run")

        model.blocks["a"] = FailsInTheFirstRun()
        errors = []

        def run():
            try:
                model.stage_outputs(np.zeros((2, 3, 8, 8), DTYPE))
            except ShapeError as e:
                errors.append(str(e))
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive() and calls == [1, 1] and errors == ["node 'a': first run"]

    @pytest.mark.parametrize("at", ["a", "b"])
    def test_a_run_that_fails_before_the_other_meets_it(self, at, monkeypatch):
        # the first run to reach node `at` fails there before the other run
        # has made its part: at "a" before any meeting, at "b" after both
        # runs passed the meeting at "a". The other run then stops at the
        # meeting instead of waiting for it, and the pass raises the error.
        # At "b" it may stop at "a" already: a thread still waking from a
        # barrier's last cycle sees an abort made since, and raises.
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        graph, _ = parse_config("block a type=conv_bn_act in=3 out=4 k=3 s=1 stage=S1 from=input\n"
                                "block b type=conv_bn_act in=4 out=4 k=1 s=1 stage=S2 from=a\n")
        model = Model(graph).bind(init_weights(graph, 0))
        block, lock, calls, raised = model.blocks[at], threading.Lock(), [], threading.Event()

        class FailsBeforeTheOtherRun:
            def forward(self, y):
                with lock:
                    calls.append(y.shape[0])
                    first = len(calls) == 1
                if first:
                    raised.set()
                    raise ShapeError("first run")
                raised.wait(10)
                time.sleep(0.1)  # the failing run has aborted the meeting by now
                return block.forward(y)

        model.blocks[at] = FailsBeforeTheOtherRun()
        errors = []

        def run():
            try:
                model.stage_outputs(np.zeros((2, 3, 8, 8), DTYPE))
            except ShapeError as e:
                errors.append(str(e))
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive() and errors == [f"node '{at}': first run"]
        assert calls == [1, 1] or (at == "b" and calls == [1])

    @pytest.mark.parametrize("method", ["stage_outputs", "forward"])
    def test_one_barrier_per_pass_and_none_for_one_run(self, method, monkeypatch):
        # the runs of a pass meet at one barrier at every returned node; a
        # pass of one image has no one to meet
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        made = []

        class Counted(threading.Barrier):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Barrier", Counted)
        for n, want in ((1, 0), (4, 1)):
            model, x = _batch("M train", n)
            made.clear()
            getattr(model, method)(x)
            assert len(made) == want, n

    def test_four_runs_share_one_barrier_under_fast_switching(self, monkeypatch):
        # four runs on fewer cores, the interpreter switching threads every
        # microsecond: runs that each made a barrier of their own would count
        # two, or hang at a meeting no other run comes to
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 4)
        made = []

        class Counted(threading.Barrier):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        model, x = _batch("M train", 4)
        want = model.stage_outputs(x)
        monkeypatch.setattr(threading, "Barrier", Counted)
        got = []
        thread = threading.Thread(target=lambda: got.extend(model.stage_outputs(x) for _ in range(5)),
                                  daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and made == [(4,)] * 5
        for outs in got:
            _assert_same_outputs(outs, want)

    def test_runs_read_returned_outputs_back_from_their_slices(self, monkeypatch):
        # a node that reads an output the pass returns is handed its run's
        # slice of the returned array, so no run holds a copy of its own
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        model, x = _batch("M train", 4)
        nodes = model.graph.nodes
        tag = {node.id: stage for stage, node in {n.stage: n for n in nodes if n.stage is not None}.items()}
        seen = []

        class Recorded:
            def __init__(self, block, src):
                self.block, self.src = block, src

            def forward(self, y):
                seen.append((self.src, y))
                return self.block.forward(y)

        readers = [node for node in nodes if node.kind not in ("concat", "upsample") and node.inputs[0] in tag]
        for node in readers:
            model.blocks[node.id] = Recorded(model.blocks[node.id], node.inputs[0])
        outs = model.stage_outputs(x)
        assert len(seen) == 2 * len(readers) > 0
        for src, y in seen:
            assert y.shape[0] == 2 and np.shares_memory(y, outs[tag[src]]), src

    @pytest.mark.parametrize("label", LABELS)
    def test_backend_sees_the_op_sequence_of_one_walk(self, label, monkeypatch):
        # a backend is installed: the batch is not split into runs
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 2)
        logs = []
        for n in (1, 2):
            model, x = _batch(label, n)
            log = OpLog()
            with override_backend(log):
                model.stage_outputs(x)
            logs.append(log.names)
        assert logs[0] == logs[1] and len(logs[0]) > 0

    def test_two_runs_peak_within_one_run(self, monkeypatch):
        # The runs share one run's transients, so 2, 3 or 4 of them running
        # side by side peak no higher than one run of the whole batch, plus
        # what each run past the first costs of its own:
        # - run_spans' thread machinery (threads, futures, contexts), counted
        #   as the traced peak of the same runs doing nothing, and under
        #   RUN_MACHINERY a run;
        # - that run's walk bookkeeping (dict and list entries, view
        #   headers), within the 16 KB test_peak_within_live_plus_transient_table
        #   allows one walk;
        # - inside a dense conv, each run's own transient (its tile part and
        #   partial buffer), larger than its share of one walk's. This counts
        #   only if the peak falls inside such a conv, and it does not: with
        #   the runs in lockstep, the one walk's traced peak inside each conv,
        #   less that walk's transient there, plus `runs` times one run's,
        #   stays within the pass peak. One run's transient is measured in a
        #   walk under a backend, which reads the runs' count.
        model, x = _batch("M train", 4)

        def peak(cpus, fn):
            monkeypatch.setattr(weights_module, "_usable_cpus", lambda: cpus)
            fn()  # warm
            return _traced_peak(fn)
        one = peak(1, lambda: model.stage_outputs(x))
        for runs in (2, 3, 4):
            machinery = peak(runs, lambda: weights_module.run_spans(
                lambda i, j: None, [weights_module._MIN_SPAN] * len(x)))
            assert machinery <= runs * RUN_MACHINERY, runs
            assert peak(runs, lambda: model.stage_outputs(x)) <= one + machinery + (runs - 1) * (16 << 10), runs

        dense = tensor._dense_conv

        def inside(runs):
            # (traced peak, own transient) inside each im2col conv of one walk
            seen = []

            def spy(x, spec, weights, out):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                dense(x, spec, weights, out)
                if (spec.k, spec.stride, spec.padding) != (1, 1, 0):
                    at = tracemalloc.get_traced_memory()[1]
                    seen.append((at, at - before))
            monkeypatch.setattr(weights_module, "_usable_cpus", lambda: runs)
            monkeypatch.setattr(tensor, "_dense_conv", spy)
            with override_backend(object()):
                _traced_peak(lambda: model.stage_outputs(x))
            monkeypatch.setattr(tensor, "_dense_conv", dense)
            return seen
        lone = inside(1)
        assert lone
        for runs in (2, 3, 4):
            each = inside(runs)
            assert len(each) == len(lone)
            assert all(at - own + runs * run <= one for (at, own), (_, run) in zip(lone, each)), runs
