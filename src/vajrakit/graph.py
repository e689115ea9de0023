"""Config-driven model graphs: parsing, validation, scale rules, execution.

Config format (line-oriented UTF-8, ``#`` comments):

    scale=N                  # optional, once; enables scale-invariant checks
    fused=1                  # optional, once, 0|1; graph carries fused (BN-free) blocks
    block <id> type=<kind> key=value ... from=<id[,id]>

Each kind is stated once, in ``_KINDS``: the block class it builds (``None``
for ``upsample`` and ``concat``) and its config keys, each mapped to a
constructor argument. The valid keys, ``build_block`` and every default
(``BlockNode.attr`` reads an omitted key's default off the constructor) come
from that table. The width and divisibility rules are the constructors' own,
so ``parse_config`` validates a node by building it. Widths must be positive,
``identity=`` is 0 or 1 as ``fused=`` is, a key may appear once per line and
each header once per config.

``from=input`` reads the graph input; only ``concat`` takes more than one
source. Every referenced id must be defined on an earlier line, which keeps
the graph a DAG by construction and lets channel counts be checked in one
forward pass.

``static_walk`` is the one static pass over a graph at a concrete input: the
graph's own ``Model.walk`` over a zero view on ``cost.MetaBackend``, which
gives each node's output (c, h, w) and cost ``Tally`` with no storage.
``propagate_shapes`` and ``cost.graph_cost`` are views of it.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import blocks as B
from .cost import MetaBackend
from .tensor import (ShapeError, check_tensor4, concat_channels, override_backend,
                     upsample_nearest, zero_view)

_IO = {"in": "c_in", "out": "c_out"}
# kind -> (block class, or None for the parameter-free kinds;
#          {config key: constructor argument})
_KINDS = {
    "conv_bn_act": (B.ConvBNAct, {**_IO, "k": "k", "s": "stride"}),
    "merudanda_x": (B.MerudandaX, {**_IO, "n": "n", "stem": "stem_width", "mid": "mid_width",
                                   "identity": "identity"}),
    "merudanda_bhag15": (B.MerudandaBhag15, {**_IO, "n": "n", "inner": "inner_kind",
                                             "dw": "dw_kernel", "hidden": "hidden"}),
    "attention_bhag6": (B.AttentionBhag6, {**_IO, "nblocks": "n_blocks", "heads": "heads",
                                           "k": "sppf_k"}),
    "adown": (B.ADown, _IO),
    "sppf": (B.SPPF, {**_IO, "k": "k"}),
    "upsample": (None, {}),
    "concat": (None, {}),
}
_KEYS = {key for _, keys in _KINDS.values() for key in keys}
_WIDTH_KEYS = {"in", "out", "stem", "mid", "hidden", "heads"}  # must be positive

BACKBONE_STAGES = ("S1", "S2", "S3", "S4", "S5")
NECK_STAGES = ("P3", "P4", "P5")
STAGES = BACKBONE_STAGES + NECK_STAGES


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

    def attr(self, key):
        """The node's value for a config key, else its block constructor's default."""
        if key in self.attrs:
            return self.attrs[key]
        cls, args = _KINDS[self.kind]
        return inspect.signature(cls).parameters[args[key]].default


@dataclass
class ModelGraph:
    nodes: list
    scale: str | None = None
    fused: bool = False

    @property
    def input_node(self) -> BlockNode | None:
        """The first node that reads the graph input alone and declares in=."""
        return next((n for n in self.nodes if n.inputs == ["input"] and "in" in n.attrs), None)

    @property
    def input_channels(self) -> int | None:
        node = self.input_node
        return None if node is None else node.attrs["in"]

    def check_input_channels(self, c: int) -> None:
        """Raise ShapeError naming the input node unless c matches its in=."""
        node = self.input_node
        if node is not None and c != node.attrs["in"]:
            raise ShapeError(f"input has {c} channels but node '{node.id}' expects {node.attrs['in']}")


@dataclass(frozen=True)
class ScaleConfig:
    """Per-scale placement rules: block depth, 7x7 kernel stages, downsample
    kinds and transformer counts."""

    scale: str
    n: int
    dw7_stages: frozenset
    adown_stages: frozenset | None  # None: every downsample (beyond the stem)
    attn_blocks: int

    @classmethod
    def for_scale(cls, scale: str, line: int | None = None) -> "ScaleConfig":
        table = {
            "N": (1, frozenset({"P5"}), frozenset(), 1),
            "S": (1, frozenset({"S5", "P5"}), frozenset(), 1),
            "M": (1, frozenset(), frozenset({"S5", "P5"}), 1),
            "L": (2, frozenset(), frozenset({"S5", "P5"}), 2),
            "X": (2, frozenset(), None, 2),
        }
        if scale not in table:
            raise ConfigError(f"unknown scale {scale!r} (want N|S|M|L|X)", line)
        return cls(scale, *table[scale])

    def validate(self, graph: ModelGraph) -> None:
        for node in graph.nodes:
            self._validate_node(node)

    def _validate_node(self, node: BlockNode) -> None:
        def fail(msg):
            raise ConfigError(f"node '{node.id}': scale-{self.scale} invariant: {msg}", node.line)

        if node.kind in ("merudanda_x", "merudanda_bhag15"):
            n = node.attr("n")
            if n != self.n:
                fail(f"{node.kind} must use n={self.n}, got n={n}")
        if node.kind == "merudanda_bhag15":
            stage = node.stage
            if stage is None:
                fail("stage tag required for merudanda_bhag15 under a scale header")
            inner = node.attr("inner")
            if stage == "S5" and inner != "repvit":
                fail("backbone-S5 inner block must be repvit")
            if stage in NECK_STAGES and inner != "merudanda_dw":
                fail(f"neck-{stage} inner block must be merudanda_dw")
            dw = node.attr("dw")
            want = 7 if stage in self.dw7_stages else 3
            if dw != want:
                fail(f"stage {stage} needs dw_kernel={want}, got {dw}")
        if node.kind == "attention_bhag6":
            if node.stage != "S5":
                fail("attention aggregation is only placed at stage S5")
            nb = node.attr("nblocks")
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
    return node.kind == "conv_bn_act" and node.attr("s") == 2


def parse_config(text: str):
    """Parse config text into a validated (ModelGraph, ScaleConfig | None)."""
    nodes = []
    seen = {}
    headers = {}
    scale_cfg = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header, _, value = line.partition("=")
        if header in ("scale", "fused"):
            if header in headers:
                raise ConfigError(f"second {header}= header", lineno)
            headers[header] = value = value.strip()
            if header == "scale":
                scale_cfg = ScaleConfig.for_scale(value, lineno)
            elif value not in ("0", "1"):
                raise ConfigError(f"fused= wants 0 or 1, got {value!r}", lineno)
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
        given = set()
        for tok in tokens[2:]:
            if "=" not in tok:
                raise ConfigError(f"expected key=value, got {tok!r}", lineno, raw.index(tok) + 1)
            key, value = tok.split("=", 1)
            if key in given:
                raise ConfigError(f"key {key}= given twice", lineno)
            given.add(key)
            if key == "type":
                kind = value
            elif key == "from":
                inputs = value.split(",")
            elif key == "stage":
                if value not in STAGES:
                    raise ConfigError(f"unknown stage tag {value!r}", lineno)
                stage = value
            elif key == "inner":
                if value not in B.INNER_KINDS:
                    raise ConfigError(f"unknown inner kind {value!r}", lineno)
                attrs[key] = value
            elif key == "identity" and value not in ("0", "1"):
                raise ConfigError(f"identity= wants 0 or 1, got {value!r}", lineno)
            elif key in _KEYS:
                try:
                    attrs[key] = int(value)
                except ValueError:
                    raise ConfigError(f"key {key}= wants an integer, got {value!r}", lineno) from None
                if key in _WIDTH_KEYS and attrs[key] <= 0:
                    raise ConfigError(f"key {key}= must be positive, got {value}", lineno)
            else:
                raise ConfigError(f"unknown key {key!r}", lineno, raw.index(tok) + 1)
        if kind is None:
            raise ConfigError("missing type=", lineno)
        if kind not in _KINDS:
            raise ConfigError(f"unknown kind {kind!r}", lineno)
        bad = set(attrs) - set(_KINDS[kind][1])
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
    graph = ModelGraph(nodes, headers.get("scale"), headers.get("fused") == "1")
    _validate_channels(graph)
    if scale_cfg is not None:
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


def _validate_channels(graph: ModelGraph) -> None:
    """One forward pass: each node's in= against the channels its sources
    carry, then its construction, which applies the block's own width rules."""
    channels = {"input": graph.input_channels}  # None while no node declares it
    for node in graph.nodes:
        have = [channels[s] for s in node.inputs]
        if _KINDS[node.kind][0] is None:
            channels[node.id] = None if None in have else sum(have)
            continue
        if "in" not in node.attrs or "out" not in node.attrs:
            raise ConfigError(f"node '{node.id}' needs in= and out=", node.line)
        if None in have:
            raise ConfigError(
                f"node '{node.id}' reads the graph input but no node declares in= on it",
                node.line)
        if sum(have) != node.attrs["in"]:
            raise ConfigError(
                f"node '{node.id}' declares in={node.attrs['in']} but its inputs carry "
                f"{sum(have)} channels", node.line)
        channels[node.id] = node.attrs["out"]
        try:
            build_block(node)
        except (ValueError, ShapeError) as e:
            raise ConfigError(f"node '{node.id}': {e}", node.line) from None


def build_block(node: BlockNode, fused: bool = False):
    """Construct the unbound block for a graph node from the keys it carries,
    or its fuse() structure when fused (None for upsample/concat)."""
    cls, args = _KINDS[node.kind]
    if cls is None:
        return None
    blk = cls(**{args[key]: value for key, value in node.attrs.items()})
    return blk.fuse() if fused else blk


def static_walk(graph: ModelGraph, c: int, h: int, w: int) -> list:
    """(node, output (c, h, w), Tally) per node, from one forward on ``MetaBackend``; a
    ShapeError names the offending node. A list: no backend is left set for the caller."""
    model, meta = Model(graph), MetaBackend()
    with override_backend(meta):
        return [(node, y.shape[1:], meta.take(model.blocks[node.id]))
                for node, y in model.walk(zero_view((1, c, h, w)))]


def propagate_shapes(graph: ModelGraph, c: int, h: int, w: int) -> dict:
    """Static (c, h, w) of the input and every node, read off ``static_walk``;
    matches runtime shapes by contract."""
    return {"input": (c, h, w), **{node.id: out for node, out, _ in static_walk(graph, c, h, w)}}


class Model:
    """A graph bound to concrete blocks; executes the DAG in node order."""

    def __init__(self, graph: ModelGraph):
        self.graph = graph
        self.blocks = {n.id: build_block(n, graph.fused) for n in graph.nodes}

    def slots(self):
        for node in self.graph.nodes:
            blk = self.blocks[node.id]
            if blk is not None:
                yield from blk.slots(node.id)

    def named_arrays(self):
        for name, owner, attr, is_stat in self.slots():
            yield name, getattr(owner, attr), is_stat

    def bind(self, store) -> "Model":
        """Point every array slot at the store's array: the model shares the
        store's read-only arrays and copies none."""
        names = set()
        for name, owner, attr, _ in self.slots():
            if name not in store:
                raise KeyError(f"weight store is missing {name!r}")
            src, site = store[name], getattr(owner, attr)
            if src.shape != site.shape:
                raise ShapeError(f"{name}: store shape {src.shape} != site shape {site.shape}")
            setattr(owner, attr, src)
            names.add(name)
        extra = set(store.names()) - names
        if extra:
            raise KeyError(f"weight store has {len(extra)} entries with no parameter site, "
                           f"e.g. {sorted(extra)[0]!r}")
        return self

    def walk(self, x: np.ndarray):
        """Run the graph in node order, yielding (node, output) per node.

        The walk itself holds an output only until its last consumer has
        collected its inputs; a caller that needs one longer keeps its own
        reference, and should drop the ones it does not before resuming."""
        check_tensor4(x, "model input")
        self.graph.check_input_channels(x.shape[1])
        last_use = {s: i for i, node in enumerate(self.graph.nodes) for s in node.inputs}
        live = {"input": x}
        for i, node in enumerate(self.graph.nodes):
            srcs = [live[s] for s in node.inputs]
            for s in node.inputs:
                if last_use[s] == i:
                    live.pop(s, None)  # a concat may name one source twice
            try:
                if node.kind == "concat":
                    y = concat_channels(srcs)
                elif node.kind == "upsample":
                    y = upsample_nearest(srcs[0])
                else:
                    y = self.blocks[node.id].forward(srcs[0])
            except (ValueError, ShapeError) as e:
                raise ShapeError(f"node '{node.id}': {e}") from None
            if node.id in last_use:
                live[node.id] = y
            yield node, y
            del y

    def forward(self, x: np.ndarray) -> dict:
        """Run the graph; returns node id -> output for every node, all of
        them held until the pass ends (see stage_outputs for the lean run)."""
        outs = {"input": x}
        for node, y in self.walk(x):
            outs[node.id] = y
        return outs

    def stage_outputs(self, x: np.ndarray) -> dict:
        """Map stage tag -> output of the last node carrying that tag; for an
        untagged graph, the final node's output under its id. Each
        intermediate is dropped once its last consumer has collected its
        inputs, so only those still needed and the tagged ones are alive."""
        final = self.graph.nodes[-1]
        tagged, last = {}, {}
        for node, y in self.walk(x):
            if node.stage is not None:
                tagged[node.stage] = y
            if node is final:
                last[node.id] = y
            del y
        return tagged or last


def forward_graph(graph: ModelGraph, store, x: np.ndarray) -> dict:
    """Bind weights and emit the stage-tagged feature maps (P3/P4/P5 on the
    shipped presets, at strides 8/16/32)."""
    return Model(graph).bind(store).stage_outputs(x)
