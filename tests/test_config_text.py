"""Config text is untrusted: parse_config must reject bad text with a
ConfigError, never another exception, and must stay fast on deep graphs."""
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vajrakit.blocks import INNER_KINDS
from vajrakit.graph import _KINDS, STAGES, ConfigError, parse_config, serialize_config

KEYS = sorted({key for _, keys in _KINDS.values() for key in keys})
# integers stay small so that a config that parses builds only small blocks
INTS = st.integers(-2, 64)


WIDTHS = st.sampled_from([8, 16, 32])


@st.composite
def valid_config(draw):
    """Graphs whose in= follow the channels their sources carry."""
    lines = ["fused=1"] if draw(st.booleans()) else []
    channels = {"input": draw(st.sampled_from([3, 8]))}
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(sorted(_KINDS)))
        srcs = [draw(st.sampled_from(sorted(channels)))]
        if kind == "concat":
            srcs.append(draw(st.sampled_from(sorted(channels))))
        c = sum(channels[s] for s in srcs)
        attrs = {}
        if _KINDS[kind][0] is not None:
            attrs = {"in": c, "out": draw(WIDTHS)}
            if kind == "conv_bn_act":
                attrs.update(k=draw(st.sampled_from([1, 3])), s=draw(st.sampled_from([1, 2])))
            elif kind == "merudanda_bhag15":
                attrs.update(inner=draw(st.sampled_from(INNER_KINDS)), hidden=draw(WIDTHS))
            elif kind == "attention_bhag6":
                attrs.update(heads=draw(st.sampled_from([1, 2])))
        parts = [f"block n{i} type={kind}", *(f"{k}={v}" for k, v in attrs.items())]
        if draw(st.booleans()):
            parts.append("stage=" + draw(st.sampled_from(STAGES)))
        lines.append(" ".join(parts + ["from=" + ",".join(srcs)]))
        channels[f"n{i}"] = attrs.get("out", c)
    return "\n".join(lines)


# replacement values: small integers, kind/inner/stage names, ids and junk
VALUES = st.one_of(INTS.map(str), st.sampled_from(
    sorted(_KINDS) + list(INNER_KINDS) + list(STAGES) + ["input", "n0", "n0,n0", "x", ""]))


@st.composite
def mutated_config(draw):
    """A valid config with one to three edits: a key set to a new value (or
    added), a token dropped, a header or a line of arbitrary text inserted."""
    lines = draw(valid_config()).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["set", "set", "drop", "header", "text"]))
        tokens = lines[i].split()
        if op == "set":
            own = [t.split("=", 1)[0] for t in tokens if "=" in t]
            key = draw(st.sampled_from(own + KEYS + ["type", "from", "stage", "color"]))
            tok = f"{key}={draw(VALUES)}"
            at = next((j for j, t in enumerate(tokens) if t.startswith(key + "=")), None)
            if at is None:
                tokens.append(tok)
            else:
                tokens[at] = tok
            lines[i] = " ".join(tokens)
        elif op == "drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            lines[i] = " ".join(tokens)
        elif op == "header":
            lines.insert(i, draw(st.sampled_from(["scale=", "fused="])) + draw(VALUES))
        elif op == "text":
            lines.insert(i, draw(st.text(max_size=24)))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_config())
def test_parse_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_config())
def test_serialize_parse_is_a_fixpoint(text):
    try:
        graph, _ = parse_config(text)
    except ConfigError:
        assume(False)
    once = serialize_config(graph)
    assert serialize_config(parse_config(once)[0]) == once


def _concat_chain(depth):
    lines = ["block c0 type=conv_bn_act in=3 out=8 from=input"]
    lines += [f"block c{i} type=concat from=c{i - 1},c{i - 1}" for i in range(1, depth + 1)]
    return lines


def test_concat_doubling_chain_parses_fast():
    # ends on a concat: a block reading 8 * 2**40 channels would be built
    start = time.perf_counter()
    graph, _ = parse_config("\n".join(_concat_chain(40)))
    assert time.perf_counter() - start < 1.0
    assert len(graph.nodes) == 41


def test_wrong_in_after_concat_chain_rejected_fast():
    # the check is one pass over the nodes, not a walk per path to the input
    text = "\n".join(_concat_chain(24) + ["block t type=sppf in=8 out=8 from=c24"])
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"carry {8 * 2**24} channels") as e:
        parse_config(text)
    assert e.value.line == 26
    assert time.perf_counter() - start < 1.0


def test_long_upsample_chain_parses():
    lines = ["block u0 type=conv_bn_act in=3 out=8 from=input"]
    lines += [f"block u{i} type=upsample from=u{i - 1}" for i in range(1, 1001)]
    lines.append("block t type=sppf in=8 out=8 from=u1000")
    graph, _ = parse_config("\n".join(lines))
    assert len(graph.nodes) == 1002
