"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They use small inputs (preset N at 64x64) except the end-to-end run of
run.py, which measures for one second.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from vajrakit import graph_cost, oracle  # noqa: E402
from vajrakit import tensor as T  # noqa: E402

SMALL = harness.Forward("N", (1, 3, 64, 64), True)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.fixture(scope="module")
def small():
    model, _, _ = harness.setup_model(SMALL, seed=5)
    x, x_gate = harness.make_inputs(SMALL, 5)
    return model, x, x_gate


def traced_forward(model, x):
    tracer = spans.Tracer()
    tracer.op = 0
    with T.override_backend(spans.ObserverBackend(tracer)), tracer.span("graph.forward"):
        out = spans.traced_model(model, tracer).stage_outputs(x)
    return out, tracer


def test_observer_outputs_are_bitwise_identical(small):
    model, x, _ = small
    plain = model.stage_outputs(x)
    traced, tracer = traced_forward(model, x)
    assert harness.bitwise_diff(plain, traced) == []
    assert any(name.startswith("tensor.conv2d.") for name, *_ in tracer.spans)


def test_call_counts_repeat_exactly_and_peak_memory_closely(small):
    model, x, _ = small
    node_macs = {c.name: c.macs for c in graph_cost(model.graph, SMALL.shape[1:]).nodes}
    runs = [harness.forward_layers(traced_forward(model, x)[1], node_macs) for _ in range(2)]
    counts = [{k: v for k, v in r.items() if k.endswith((".calls", ".mb_computed"))} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["tensor.conv2d.k1.calls"] > 0
    # tracemalloc also sees small Python objects and numpy's small-buffer
    # cache, whose state drifts by a few hundred bytes between calls
    model.stage_outputs(x)
    peaks = [harness.peak_mb(lambda: model.stage_outputs(x))[0] for _ in range(2)]
    assert peaks[0] > 0 and abs(peaks[0] - peaks[1]) <= 4096 / 1e6


def test_span_macs_match_graph_cost(small):
    model, x, _ = small
    _, tracer = traced_forward(model, x)
    macs = sum(attrs["macs"] for name, *_, attrs in tracer.spans if name.startswith("tensor."))
    assert macs == graph_cost(model.graph, SMALL.shape[1:]).totals["macs"]


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (_, s0, e0, *_), (_, s1, e1, *_) = tracer.spans
    assert tracer.self_times_ns() == [(e0 - s0) - (e1 - s1), e1 - s1]


def test_inputs_are_deterministic_per_seed():
    for wl in harness.WORKLOADS.values():
        if not isinstance(wl, harness.Forward):
            continue
        a, b, c = (harness.make_inputs(wl, s) for s in (7, 7, 8))
        assert all(np.array_equal(p, q) for p, q in zip(a, b))
        assert not np.array_equal(a[0], c[0])
        assert a[0].shape == wl.shape and a[0].dtype == np.float32


def test_gate_passes_fast_path_and_counts_macs(small):
    model, _, x_gate = small
    g = gate.run_gate(model, x_gate)
    assert g["ok"], g["failures"]
    assert g["oracle_macs"] == g["cost_macs"] > 0
    assert 0 < g["max_err_over_bound"] <= 1


def test_gate_rejects_errors_beyond_the_bound():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
    spec = T.ConvSpec(4, 8, 3, 1, 1)
    w = rng.standard_normal(spec.weight_shape).astype(np.float32)
    g = gate.GateBackend(oracle.ReferenceBackend())
    ref = g.conv2d(x, spec, w)
    assert g.failures == [] and g.worst <= 1
    bound = np.full(ref.shape, 1e-6)
    g._compare("conv", ref + np.float32(2e-6), ref, bound)
    assert len(g.failures) == 1
    ref = g.pool2d(x, "max", 3, 2, 1)
    g._compare("max", np.nextafter(ref, np.inf), ref, np.zeros(ref.shape))
    assert len(g.failures) == 2


def test_failed_gate_fails_every_operation(monkeypatch, tmp_path):
    real = gate.run_gate

    def failing(model, x):
        return {**real(model, x), "ok": False, "failures": ["injected"]}

    monkeypatch.setattr(gate, "run_gate", failing)
    res = harness.run_forward(SMALL, 5, 0.2, False, tmp_path)
    # the gate and every timed operation fail; the warm-up and the
    # peak-memory pass are checked on their own
    assert res.tally.failed == res.tally.attempted - 2 >= harness.MIN_OPS + 1
    assert res.metrics["success_rate"] < 0.1


def test_tail_keeps_ten_samples_beyond():
    assert harness.tail(list(range(1, 21))) == (10, 50.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_declared_metrics_match_the_harness():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in decl["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in decl["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in decl["workloads"]] == list(harness.WORKLOADS)
    names = [*harness.END_TO_END, *harness.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_run_prints_result_line():
    # an inherited thread count is overridden: BLAS gets one thread per core
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n640_fused", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert info["machine"]["blas_threads"] in (None, len(os.sched_getaffinity(0)))
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    assert result["metrics"]["tensor.conv2d.k3s1.calls"]["value"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n640_fused", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
