"""Config parsing, scale invariants, weight persistence, graph execution."""
import math
import re
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import rand_input
from test_config_text import valid_config
from vajrakit import graph as graph_module
from vajrakit import weights as weights_module
from vajrakit.cost import graph_cost
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


def _needed(nodes, i) -> set:
    """Indices of the nodes before i whose outputs a pass must hold at the start
    of node i: those a node >= i still reads, and the latest of each stage tag."""
    last_use = {s: k for k, node in enumerate(nodes) for s in node.inputs}
    latest = {}
    for j in range(i):
        if nodes[j].stage is not None:
            latest[nodes[j].stage] = j
    return {j for j in range(i) if last_use.get(nodes[j].id, -1) >= i} | set(latest.values())


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns the buffer `a` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _run_node(model, node, srcs):
    if node.kind == "concat":
        return graph_module.concat_channels(srcs)
    if node.kind == "upsample":
        return graph_module.upsample_nearest(srcs[0])
    return model.blocks[node.id].forward(srcs[0])


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
        # through the graph module's own names. At the start of node i the
        # earlier outputs alive must be exactly those a node >= i still
        # reads, plus the latest node of each stage tag so far; once the
        # pass returns, exactly the outputs it returned.
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        refs = []
        mismatches = []

        def needed(i):
            return _needed(nodes, i)

        def alive():
            return {j for j, ref in enumerate(refs) if ref() is not None}

        def recorded(fn):
            def run(*args):
                i = len(refs)
                if alive() != needed(i):
                    extra = sorted(nodes[j].id for j in alive() - needed(i))
                    mismatches.append((nodes[i].id, extra))
                y = fn(*args)
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
        assert alive() == {j for j, ref in enumerate(refs)
                           if any(ref() is y for y in outs.values())}

    @pytest.mark.parametrize("as_slice", [False, True], ids=["own", "slice"])
    @pytest.mark.parametrize("label", LIVENESS_CASES)
    def test_only_needed_buffers_alive(self, label, as_slice, monkeypatch):
        # As above, by the buffer each output lives in rather than the output
        # array itself: blocks write into buffers they own and may return a
        # view of one. With as_slice every node returns its output as the
        # leading channel slice of a buffer twice as wide, so output and
        # buffer differ. At the start of node i the buffers alive must be
        # exactly those of the outputs a node >= i reads or a stage tag holds.
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        bufs = []
        mismatches = []

        def alive():
            return {j for j, ref in enumerate(bufs) if ref() is not None}

        def recorded(fn):
            def run(*args):
                i = len(bufs)
                if alive() != _needed(nodes, i):
                    mismatches.append((nodes[i].id, sorted(alive() ^ _needed(nodes, i))))
                y = fn(*args)
                if as_slice:
                    y = np.concatenate([y, y], axis=1)[:, :y.shape[1]]
                bufs.append(weakref.ref(_root(y)))
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
        assert {id(ref()) for j, ref in enumerate(bufs) if j in alive()} == \
            {id(_root(y)) for y in outs.values()}

    @pytest.mark.parametrize("label", ["N train", "M train"])
    def test_peak_within_live_plus_transient_table(self, label):
        # Per node: the bytes of the outputs alive at its start (_needed),
        # plus its transient, the traced peak of running it alone on inputs
        # allocated beforehand (its output, scratch and temporaries). The
        # pass holds nothing else, so its traced peak is the largest row,
        # give or take the walk's own bookkeeping: dict and list entries and
        # the array headers of views, a few KB on the presets' 22-24 nodes.
        model, x = _liveness_case(label)
        nodes = model.graph.nodes
        outs = model.forward(x)
        rows = []
        for i, node in enumerate(nodes):
            live = sum(outs[nodes[j].id].nbytes for j in _needed(nodes, i))
            srcs = [outs[s] for s in node.inputs]
            rows.append(live + _traced_peak(lambda: _run_node(model, node, srcs)))
        del outs
        model.stage_outputs(x)  # warm: caches filled on first use are not the pass's
        peak = _traced_peak(lambda: model.stage_outputs(x))
        assert max(rows) - (16 << 10) <= peak <= max(rows) + (16 << 10)
