"""Byte-identity of every shipped preset against a committed fixture.

For each scale the fixture holds sha256 digests of the weight-name order,
the VJW1 bytes of ``init_weights(graph, 0)`` and of its ``reparam_graph``
output, and the cost report JSON at 3x640x640, each in train and fused form.
Stage outputs are left out: BLAS summation order makes them machine-dependent.

Regenerate (only when a change is meant to alter these bytes):
    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import pathlib
import tempfile

import pytest

from vajrakit.cost import graph_cost
from vajrakit.presets import SCALES, load_preset
from vajrakit.reparam import reparam_graph
from vajrakit.weights import init_weights

FIXTURE = pathlib.Path(__file__).with_name("golden_presets.json")
COST_SHAPE = (3, 640, 640)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _vjw_bytes(store) -> bytes:
    with tempfile.TemporaryDirectory() as td:
        path = pathlib.Path(td) / "w.vjw"
        store.save(path)
        return path.read_bytes()


def preset_digests(scale: str) -> dict:
    graph, _ = load_preset(scale)
    store = init_weights(graph, 0)
    fused_graph, fused_store = reparam_graph(graph, store)
    out = {}
    for form, g, s in (("train", graph, store), ("fused", fused_graph, fused_store)):
        cost = json.dumps(graph_cost(g, COST_SHAPE).to_json_obj(), indent=2, sort_keys=True)
        out[f"names_{form}"] = _sha("\n".join(s.names()).encode())
        out[f"vjw_{form}"] = _sha(_vjw_bytes(s))
        out[f"cost_{form}"] = _sha(cost.encode())
    return out


@pytest.mark.parametrize("scale", SCALES)
def test_preset_bytes_match_fixture(scale):
    want = json.loads(FIXTURE.read_text())[scale]
    assert preset_digests(scale) == want


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({s: preset_digests(s) for s in SCALES}, indent=2) + "\n")
