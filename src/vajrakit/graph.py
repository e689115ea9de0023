"""Config-driven model graphs: parsing, validation, scale rules, execution.

Config format (line-oriented UTF-8, ``#`` comments):

    scale=N                  # optional; enables scale-invariant checks
    fused=1                  # optional; graph carries fused (BN-free) blocks
    block <id> type=<kind> key=value ... from=<id[,id]>

Kinds: conv_bn_act | merudanda_x | merudanda_bhag15 | attention_bhag6 |
adown | sppf | upsample | concat. ``from=input`` reads the graph input;
only ``concat`` takes more than one source.
Every referenced id must be defined on an earlier line, which keeps the
graph a DAG by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blocks as B
from .tensor import DTYPE, ShapeError, check_tensor4, concat_channels, conv_out_hw, upsample_nearest

KINDS = (
    "conv_bn_act",
    "merudanda_x",
    "merudanda_bhag15",
    "attention_bhag6",
    "adown",
    "sppf",
    "upsample",
    "concat",
)

BACKBONE_STAGES = ("S1", "S2", "S3", "S4", "S5")
NECK_STAGES = ("P3", "P4", "P5")
STAGES = BACKBONE_STAGES + NECK_STAGES

# keys each kind accepts beyond the universal type/from/stage
_KIND_KEYS = {
    "conv_bn_act": {"in", "out", "k", "s"},
    "merudanda_x": {"in", "out", "n", "stem", "mid", "identity"},
    "merudanda_bhag15": {"in", "out", "n", "inner", "dw", "hidden"},
    "attention_bhag6": {"in", "out", "nblocks", "heads", "k"},
    "adown": {"in", "out"},
    "sppf": {"in", "out", "k"},
    "upsample": set(),
    "concat": set(),
}
_INT_KEYS = {"in", "out", "k", "s", "n", "stem", "mid", "identity", "dw", "hidden", "nblocks", "heads"}


class ConfigError(ValueError):
    """Config rejected; carries the offending line number when known."""

    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(loc + msg)


@dataclass
class BlockNode:
    id: str
    kind: str
    inputs: list
    stage: str | None = None
    attrs: dict = field(default_factory=dict)
    line: int | None = None

    def attr(self, key, default=None):
        return self.attrs.get(key, default)


@dataclass
class ModelGraph:
    nodes: list
    scale: str | None = None
    fused: bool = False

    def __post_init__(self):
        self.by_id = {n.id: n for n in self.nodes}

    @property
    def input_channels(self) -> int | None:
        for n in self.nodes:
            if n.inputs == ["input"] and "in" in n.attrs:
                return n.attrs["in"]
        return None

    def input_consumers(self):
        return [n for n in self.nodes if "input" in n.inputs]


@dataclass(frozen=True)
class ScaleConfig:
    """Per-scale placement rules: block depth, 7x7 kernel stages, downsample
    kinds and transformer counts. Widths are the shipped-preset ladder and are
    informational only (reconstructed, not enforced)."""

    scale: str
    n: int
    dw7_stages: frozenset
    adown_stages: frozenset | None  # None: every downsample (beyond the stem)
    attn_blocks: int
    widths: tuple

    @classmethod
    def for_scale(cls, scale: str) -> "ScaleConfig":
        table = {
            "N": (1, frozenset({"P5"}), frozenset(), 1, (16, 32, 64, 128, 256)),
            "S": (1, frozenset({"S5", "P5"}), frozenset(), 1, (32, 64, 128, 256, 512)),
            "M": (1, frozenset(), frozenset({"S5", "P5"}), 1, (64, 128, 256, 512, 512)),
            "L": (2, frozenset(), frozenset({"S5", "P5"}), 2, (64, 128, 256, 512, 512)),
            "X": (2, frozenset(), None, 2, (80, 160, 320, 640, 640)),
        }
        if scale not in table:
            raise ConfigError(f"unknown scale {scale!r} (want N|S|M|L|X)")
        n, dw7, adown, attn, widths = table[scale]
        return cls(scale, n, dw7, adown, attn, widths)

    def validate(self, graph: ModelGraph) -> None:
        for node in graph.nodes:
            self._validate_node(node)

    def _validate_node(self, node: BlockNode) -> None:
        def fail(msg):
            raise ConfigError(f"node '{node.id}': scale-{self.scale} invariant: {msg}", node.line)

        if node.kind in ("merudanda_x", "merudanda_bhag15"):
            n = node.attr("n", 1)
            if n != self.n:
                fail(f"{node.kind} must use n={self.n}, got n={n}")
        if node.kind == "merudanda_bhag15":
            stage = node.stage
            if stage is None:
                fail("stage tag required for merudanda_bhag15 under a scale header")
            inner = node.attr("inner", "merudanda_dw")
            if stage == "S5" and inner != "repvit":
                fail("backbone-S5 inner block must be repvit")
            if stage in NECK_STAGES and inner != "merudanda_dw":
                fail(f"neck-{stage} inner block must be merudanda_dw")
            dw = node.attr("dw", 3)
            want = 7 if stage in self.dw7_stages else 3
            if dw != want:
                fail(f"stage {stage} needs dw_kernel={want}, got {dw}")
        if node.kind == "attention_bhag6":
            if node.stage != "S5":
                fail("attention aggregation is only placed at stage S5")
            nb = node.attr("nblocks", 1)
            if nb != self.attn_blocks:
                fail(f"needs {self.attn_blocks} transformer block(s), got {nb}")
        if _is_downsample(node):
            if node.attr("in") == 3:
                return  # stem: 3 input channels cannot split in half
            if node.stage is None:
                fail("stage tag required for downsample nodes under a scale header")
            if self.adown_stages is None:
                if node.kind != "adown":
                    fail("every downsample must be adown")
            elif node.stage in self.adown_stages:
                if node.kind != "adown":
                    fail(f"downsample into {node.stage} must be adown")
            elif node.kind == "adown":
                fail(f"adown is not placed at stage {node.stage}")


def _is_downsample(node: BlockNode) -> bool:
    if node.kind == "adown":
        return True
    return node.kind == "conv_bn_act" and node.attr("s", 1) == 2


def parse_config(text: str):
    """Parse config text into a validated (ModelGraph, ScaleConfig | None)."""
    nodes = []
    seen = {}
    scale = None
    fused = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("scale="):
            scale = line.split("=", 1)[1].strip()
            continue
        if line.startswith("fused="):
            fused = line.split("=", 1)[1].strip() not in ("0", "", "false")
            continue
        tokens = line.split()
        if tokens[0] != "block":
            raise ConfigError(f"expected 'block', 'scale=' or 'fused=', got {tokens[0]!r}",
                              lineno, raw.index(tokens[0]) + 1)
        if len(tokens) < 2 or "=" in tokens[1]:
            raise ConfigError("block id missing", lineno)
        node_id = tokens[1]
        if node_id in seen or node_id == "input":
            raise ConfigError(f"duplicate or reserved node id {node_id!r}", lineno)
        kind = None
        inputs = None
        stage = None
        attrs = {}
        for tok in tokens[2:]:
            if "=" not in tok:
                raise ConfigError(f"expected key=value, got {tok!r}", lineno, raw.index(tok) + 1)
            key, value = tok.split("=", 1)
            if key == "type":
                kind = value
            elif key == "from":
                inputs = value.split(",")
            elif key == "stage":
                if value not in STAGES:
                    raise ConfigError(f"unknown stage tag {value!r}", lineno)
                stage = value
            elif key in _INT_KEYS:
                try:
                    attrs[key] = int(value)
                except ValueError:
                    raise ConfigError(f"key {key}= wants an integer, got {value!r}", lineno) from None
            elif key == "inner":
                if value not in B.INNER_KINDS:
                    raise ConfigError(f"unknown inner kind {value!r}", lineno)
                attrs[key] = value
            else:
                raise ConfigError(f"unknown key {key!r}", lineno, raw.index(tok) + 1)
        if kind is None:
            raise ConfigError("missing type=", lineno)
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}", lineno)
        bad = set(attrs) - _KIND_KEYS[kind]
        if bad:
            raise ConfigError(f"key(s) {sorted(bad)} not valid for {kind}", lineno)
        if inputs is None:
            raise ConfigError("missing from=", lineno)
        if kind != "concat" and len(inputs) > 1:
            raise ConfigError(f"{kind} takes one input, got {len(inputs)} in from=", lineno)
        for src in inputs:
            if src != "input" and src not in seen:
                raise ConfigError(
                    f"references undefined node {src!r} (inputs must be defined on earlier "
                    "lines; cycles are not expressible)", lineno)
        node = BlockNode(node_id, kind, inputs, stage, attrs, lineno)
        seen[node_id] = node
        nodes.append(node)

    if not nodes:
        raise ConfigError("no nodes")
    graph = ModelGraph(nodes, scale, fused)
    _validate_channels(graph)
    scale_cfg = None
    if scale is not None:
        scale_cfg = ScaleConfig.for_scale(scale)
        scale_cfg.validate(graph)
    return graph, scale_cfg


def serialize_config(graph: ModelGraph) -> str:
    """Inverse of parse_config for graphs built or transformed in memory."""
    lines = []
    if graph.scale:
        lines.append(f"scale={graph.scale}")
    if graph.fused:
        lines.append("fused=1")
    for n in graph.nodes:
        parts = [f"block {n.id} type={n.kind}"]
        for k, v in n.attrs.items():
            parts.append(f"{k}={v}")
        if n.stage:
            parts.append(f"stage={n.stage}")
        parts.append("from=" + ",".join(n.inputs))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def node_out_channels(graph: ModelGraph, node: BlockNode) -> int:
    if node.kind == "upsample":
        return _source_channels(graph, node, node.inputs[0])
    if node.kind == "concat":
        return sum(_source_channels(graph, node, s) for s in node.inputs)
    out = node.attr("out")
    if out is None:
        raise ConfigError(f"node '{node.id}' needs out=", node.line)
    return out


def _source_channels(graph: ModelGraph, node: BlockNode, src: str) -> int:
    if src == "input":
        c = graph.input_channels
        if c is None:
            raise ConfigError(
                f"node '{node.id}' reads the graph input but no node declares in= on it",
                node.line)
        return c
    return node_out_channels(graph, graph.by_id[src])


def _validate_channels(graph: ModelGraph) -> None:
    for node in graph.nodes:
        if node.kind not in ("upsample", "concat"):
            if "in" not in node.attrs or "out" not in node.attrs:
                raise ConfigError(f"node '{node.id}' needs in= and out=", node.line)
        if "in" in node.attrs:
            have = sum(_source_channels(graph, node, s) for s in node.inputs)
            if have != node.attrs["in"]:
                raise ConfigError(
                    f"node '{node.id}' declares in={node.attrs['in']} but its inputs carry "
                    f"{have} channels", node.line)
        # constructing the block surfaces width/divisibility errors early
        if node.kind not in ("upsample", "concat"):
            try:
                build_block(node)
            except (ValueError, ShapeError) as e:
                raise ConfigError(f"node '{node.id}': {e}", node.line) from None


def build_block(node: BlockNode, fused: bool = False):
    """Construct the zero-initialized block for a graph node (None for the
    parameter-free upsample/concat kinds)."""
    a = node.attr
    if node.kind == "conv_bn_act":
        blk = B.ConvBNAct(a("in"), a("out"), a("k", 1), a("s", 1))
    elif node.kind == "merudanda_x":
        blk = B.MerudandaX(a("in"), a("out"), a("n", 1), a("stem"), a("mid"),
                           bool(a("identity", 0)))
    elif node.kind == "merudanda_bhag15":
        blk = B.MerudandaBhag15(a("in"), a("out"), a("n", 1), a("inner", "merudanda_dw"),
                                a("dw", 3), a("hidden"))
    elif node.kind == "attention_bhag6":
        blk = B.AttentionBhag6(a("in"), a("out"), a("nblocks", 1), a("heads"), a("k", 5))
    elif node.kind == "adown":
        blk = B.ADown(a("in"), a("out"))
    elif node.kind == "sppf":
        blk = B.SPPF(a("in"), a("out"), a("k", 5))
    elif node.kind in ("upsample", "concat"):
        return None
    else:
        raise ConfigError(f"unknown kind {node.kind!r}", node.line)
    return blk.fuse() if fused else blk


def propagate_shapes(graph: ModelGraph, c: int, h: int, w: int) -> dict:
    """Static (c, h, w) propagation through every node; raises ShapeError with
    the offending node id. Matches runtime shapes by contract."""
    if graph.input_channels is not None and graph.input_channels != c:
        stem = graph.input_consumers()[0]
        raise ShapeError(
            f"input has {c} channels but node '{stem.id}' expects {graph.input_channels}")
    shapes = {"input": (c, h, w)}
    for node in graph.nodes:
        srcs = [shapes[s] for s in node.inputs]
        try:
            shapes[node.id] = _node_out_shape(node, srcs)
        except (ValueError, ShapeError) as e:
            raise ShapeError(f"node '{node.id}': {e}") from None
    return shapes


def _node_out_shape(node: BlockNode, srcs: list) -> tuple:
    a = node.attr
    if node.kind == "concat":
        hw = {(s[1], s[2]) for s in srcs}
        if len(hw) != 1:
            raise ShapeError(f"concat inputs disagree on spatial dims: {sorted(hw)}")
        return (sum(s[0] for s in srcs), srcs[0][1], srcs[0][2])
    (c, h, w), = srcs
    if node.kind == "upsample":
        return (c, 2 * h, 2 * w)
    if node.kind == "conv_bn_act":
        k, s = a("k", 1), a("s", 1)
        ho, wo = conv_out_hw(h, w, k, s, k // 2)
        return (a("out"), ho, wo)
    if node.kind == "adown":
        if h % 2 or w % 2:
            raise ShapeError(f"adown needs even spatial dims, got {h}x{w}")
        return (a("out"), h // 2, w // 2)
    # sppf, attention_bhag6, merudanda_x, merudanda_bhag15 preserve h, w
    return (a("out"), h, w)


class Model:
    """A graph bound to concrete blocks; executes the DAG in node order."""

    def __init__(self, graph: ModelGraph):
        self.graph = graph
        self.blocks = {n.id: build_block(n, graph.fused) for n in graph.nodes}

    def named_arrays(self):
        for node in self.graph.nodes:
            blk = self.blocks[node.id]
            if blk is not None:
                yield from blk.named_arrays(node.id)

    def bind(self, store) -> "Model":
        """Copy weights from a store into this model's arrays, in place."""
        names = set()
        for name, arr, _ in self.named_arrays():
            if name not in store:
                raise KeyError(f"weight store is missing {name!r}")
            src = store[name]
            if src.shape != arr.shape:
                raise ShapeError(f"{name}: store shape {src.shape} != site shape {arr.shape}")
            arr[...] = src
            names.add(name)
        extra = set(store.names()) - names
        if extra:
            raise KeyError(f"weight store has {len(extra)} entries with no parameter site, "
                           f"e.g. {sorted(extra)[0]!r}")
        return self

    def forward(self, x: np.ndarray) -> dict:
        """Run the graph; returns node id -> output for every node."""
        check_tensor4(x, "model input")
        expect = self.graph.input_channels
        if expect is not None and x.shape[1] != expect:
            stem = self.graph.input_consumers()[0]
            raise ShapeError(
                f"input has {x.shape[1]} channels but node '{stem.id}' expects {expect}")
        outs = {"input": x}
        for node in self.graph.nodes:
            srcs = [outs[s] for s in node.inputs]
            try:
                if node.kind == "concat":
                    outs[node.id] = concat_channels(srcs)
                elif node.kind == "upsample":
                    outs[node.id] = upsample_nearest(srcs[0])
                else:
                    outs[node.id] = self.blocks[node.id].forward(srcs[0])
            except (ValueError, ShapeError) as e:
                raise ShapeError(f"node '{node.id}': {e}") from None
        return outs

    def stage_outputs(self, x: np.ndarray) -> dict:
        """Map stage tag -> output of the last node carrying that tag; for an
        untagged graph, the final node's output under its id."""
        outs = self.forward(x)
        tagged = {}
        for node in self.graph.nodes:
            if node.stage is not None:
                tagged[node.stage] = outs[node.id]
        if not tagged:
            last = self.graph.nodes[-1]
            return {last.id: outs[last.id]}
        return tagged

    def fuse(self) -> "Model":
        fused_graph = ModelGraph(self.graph.nodes, self.graph.scale, fused=True)
        out = object.__new__(Model)
        out.graph = fused_graph
        out.blocks = {
            nid: (blk.fuse() if blk is not None else None)
            for nid, blk in self.blocks.items()
        }
        return out


def forward_graph(graph: ModelGraph, store, x: np.ndarray) -> dict:
    """Bind weights and emit the stage-tagged feature maps (P3/P4/P5 on the
    shipped presets, at strides 8/16/32)."""
    return Model(graph).bind(store).stage_outputs(x)
