"""Workloads, set-up, closed-loop timing and metric assembly for run.py.

One process, one caller: each operation starts only after the previous one
returned. Every call goes through vajrakit's public functions; outputs are
checked between operations, outside the timed interval.
"""
from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vajrakit import Model, WeightStore, graph_cost, init_weights, parse_config, reparam_graph
from vajrakit import tensor as T
from vajrakit.presets import preset_text

import gate
import spans


@dataclass(frozen=True)
class Forward:
    """`Model.stage_outputs` on one preset, form and input shape."""

    scale: str
    shape: tuple
    fused: bool
    gate_shape: tuple = (1, 3, 64, 64)  # input of the oracle correctness gate


@dataclass(frozen=True)
class Compile:
    """One preset from config text to fused, saved, reloaded, bound weights
    and a cost report."""

    scale: str


WORKLOADS = {
    "n640_fused": Forward("N", (1, 3, 640, 640), True),
    # the oracle pass of X fused and of M unfused takes 16 s and 10 s at
    # 64x64, 4 s and 3 s at 32x32; every primitive still runs at 32x32
    "x256_fused": Forward("X", (1, 3, 256, 256), True, gate_shape=(1, 3, 32, 32)),
    "m160b4_trainform": Forward("M", (4, 3, 160, 160), False, gate_shape=(1, 3, 32, 32)),
    "compile_x": Compile("X"),
}
COST_SHAPE = (3, 640, 640)  # input at which each compile runs the cost walk
# set-up is repeated until both hold; setup_s is the median
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 4.0
TAIL_BEYOND = 10
# a run measures for at least --seconds and at least this many operations,
# so that an untraced run's tail percentile (TAIL_BEYOND samples beyond it)
# is never below its median
MIN_OPS = 2 * TAIL_BEYOND + 1
BLOCK_KINDS = ("conv_bn_act", "merudanda_x", "merudanda_bhag15", "attention_bhag6", "adown")
STEPS = ("graph.parse", "weights.init", "reparam.fuse", "weights.save", "weights.load",
         "graph.bind", "cost.graph_cost")
# what a failing vajrakit call raises: ShapeError, ConfigError and
# WeightFormatError are ValueErrors; bind raises KeyError on a missing name
OP_ERRORS = (ValueError, ArithmeticError, KeyError)

END_TO_END = {
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "success_rate": "ratio",
}


def _per_layer_units() -> dict:
    units = {}
    for b in spans.CONV_BUCKETS:
        p = f"tensor.conv2d.{b}"
        units.update({f"{p}.ms": "ms", f"{p}.calls": "count", f"{p}.gmac_per_s": "GMAC/s",
                      f"{p}.mb_computed": "MB"})
    for b in spans.POOL_BUCKETS:
        p = f"tensor.pool2d.{b}"
        units.update({f"{p}.ms": "ms", f"{p}.calls": "count", f"{p}.mb_computed": "MB"})
    units.update({"tensor.matmul_batched.ms": "ms", "tensor.matmul_batched.calls": "count",
                  "tensor.matmul_batched.gmac_per_s": "GMAC/s",
                  "tensor.softmax_lastdim.ms": "ms", "tensor.softmax_lastdim.calls": "count",
                  "tensor.other.ms": "ms"})
    for kind in BLOCK_KINDS:
        units.update({f"blocks.{kind}.ms": "ms", f"blocks.{kind}.self_ms": "ms",
                      f"blocks.{kind}.gmac_per_s": "GMAC/s"})
    units.update({"graph.glue_ms": "ms", "graph.retained_mb": "MB"})
    units.update({f"{step}_ms": "ms" for step in STEPS})
    units.update({"weights.mb": "MB", "reparam.arrays_before": "count",
                  "reparam.arrays_after": "count",
                  "oracle.gate_ms": "ms", "oracle.macs": "count", "oracle.ops_checked": "count",
                  "oracle.max_err_over_bound": "ratio", "trace.overhead_pct": "%"})
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Tally:
    """Operations attempted and failed; the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 8:
                self.messages.append(failures[0])


@dataclass
class Result:
    metrics: dict
    tally: Tally
    info: dict
    spans: list


# ---------------------------------------------------------------------------
# Inputs: all of them come from the workload seed.
# ---------------------------------------------------------------------------

def make_inputs(wl: Forward, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(timed input, correctness-gate input) for a forward workload."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(wl.shape).astype(np.float32)
    return x, rng.standard_normal(wl.gate_shape).astype(np.float32)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _step(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def peak_mb(fn):
    """(tracemalloc peak in MB over one call of fn, its result)."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1] / 1e6, out
    finally:
        tracemalloc.stop()


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def closed_loop(ops: list, seconds: float, min_ops: int, check, tally: Tally) -> list:
    """Call ops[i % len(ops)](i) back to back until `seconds` have passed, at
    least `min_ops` calls were made and a whole cycle has completed. Returns
    per-slot latencies (s) of the operations that returned; check(slot, out)
    decides whether each of them counts as failed."""
    lat = [[] for _ in ops]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        slot = i % len(ops)
        t0 = time.perf_counter()
        try:
            out = ops[slot](i)
            failures = None
        except OP_ERRORS as e:
            failures = [f"{type(e).__name__}: {e}"]
        t1 = time.perf_counter()
        if failures is None:
            lat[slot].append(t1 - t0)
            failures = check(slot, out)
        tally.record(failures)
        i += 1
        if slot == len(ops) - 1 and t1 >= deadline and i >= min_ops:
            if not all(lat):
                raise RuntimeError(f"no operation returned: {tally.messages[:1]}")
            return lat


def bitwise_diff(a: dict, b: dict) -> list:
    """Failure messages unless two output dicts hold bit-identical arrays."""
    if list(a) != list(b):
        return [f"keys {list(a)} != {list(b)}"]
    return [f"{k}: outputs differ between calls" for k in a
            if a[k].shape != b[k].shape or a[k].tobytes() != b[k].tobytes()]


def store_diff(a: WeightStore, b: WeightStore) -> list:
    """Failure messages unless two stores match in names, order and bits."""
    if a.names() != b.names():
        return ["VJW1 roundtrip changed the tensor names or their order"]
    return [f"VJW1 roundtrip changed {name}" for name, arr in a.items()
            if arr.shape != b[name].shape or arr.tobytes() != b[name].tobytes()][:1]


def e2e_metrics(lat_s: list, items_per_op: int, setup_s: list, peak: float,
                tally: Tally) -> dict:
    ms = [t * 1e3 for t in lat_s]
    p50 = statistics.median(ms)
    return {
        "latency_ms.p50": p50,
        "latency_ms.tail": tail(ms)[0],
        # at the median operation time, not the mean: on a shared machine a
        # burst of slow operations caused by other tenants moved the mean
        # throughput of a run by up to 25%
        "items_per_s": items_per_op * 1e3 / p50,
        "setup_s": statistics.median(setup_s),
        "peak_mem_mb": peak,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }


def step_layers(tracer: spans.Tracer) -> dict:
    """`<step>_ms`: median duration of every span named after a step."""
    durations = {step: [] for step in STEPS}
    for name, s, e, *_ in tracer.spans:
        if name in durations:
            durations[name].append((e - s) / 1e6)
    return {f"{step}_ms": statistics.median(d) if d else 0.0 for step, d in durations.items()}


def overhead_pct(untraced: list, traced: list) -> float:
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


# ---------------------------------------------------------------------------
# Forward workloads
# ---------------------------------------------------------------------------

def setup_model(wl: Forward, seed: int, tracer=None):
    """Config text -> bound, ready model: the unit `setup_s` times.
    Returns (model, its weight store, number of arrays before fusion)."""
    text = preset_text(wl.scale)
    with _step(tracer, "graph.parse"):
        graph, _ = parse_config(text)
    with _step(tracer, "weights.init"):
        store = init_weights(graph, seed)
    before = len(store)
    if wl.fused:
        with _step(tracer, "reparam.fuse"):
            graph, store = reparam_graph(graph, store)
    with _step(tracer, "graph.bind"):
        model = Model(graph).bind(store)
    return model, store, before


def forward_layers(tracer: spans.Tracer, node_macs: dict) -> dict:
    """Per-layer metrics of the traced forward operations (integer op ids),
    each the median over operations of its per-operation value."""
    own = tracer.self_times_ns()
    per_op = {}
    for idx, (name, s, e, _, op, attrs) in enumerate(tracer.spans):
        if not isinstance(op, int):
            continue
        d = per_op.setdefault(op, {})
        dur, self_ms = (e - s) / 1e6, own[idx] / 1e6

        def add(key, value):
            d[key] = d.get(key, 0.0) + value

        if name == "graph.forward":
            add("forward_ms", dur)
            add("graph.glue_ms", self_ms)
        elif name.startswith("blocks."):
            add(f"{name}.ms", dur)
            add(f"{name}.self_ms", self_ms)
            add(f"{name}.macs", node_macs[attrs["node"]])
        elif name.startswith("tensor."):
            add(f"{name}.ms", dur)
            add(f"{name}.calls", 1)
            add(f"{name}.macs", attrs["macs"])
            add(f"{name}.bytes", attrs["bytes"])
            add("hooked_ms", dur)

    def med(key):
        return statistics.median(d.get(key, 0.0) for d in per_op.values()) if per_op else 0.0

    def rate(prefix):
        ms = med(f"{prefix}.ms")
        return med(f"{prefix}.macs") / (ms * 1e6) if ms else 0.0

    out = {}
    for name in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        if prefix.startswith(("tensor.", "blocks.")):
            if key == "gmac_per_s":
                out[name] = rate(prefix)
            elif key == "mb_computed":
                out[name] = med(f"{prefix}.bytes") / 1e6
            else:
                out[name] = med(name)
    out["tensor.other.ms"] = med("forward_ms") - med("hooked_ms")
    out["graph.glue_ms"] = med("graph.glue_ms")
    return out


def run_forward(wl: Forward, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    tally = Tally()
    tracer = spans.Tracer() if trace else None
    x, x_gate = make_inputs(wl, seed)
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_SECONDS:
        if tracer is not None:
            tracer.op = f"setup{len(setup_s)}"
        t0 = time.perf_counter()
        model, store, arrays_before = setup_model(wl, seed, tracer)
        setup_s.append(time.perf_counter() - t0)
    layers = {"reparam.arrays_before": arrays_before, "reparam.arrays_after": len(store)}
    if tracer is not None:
        tracer.op = "side"
        layers.update(_side_pass(wl, model, store, tracer, tally, out_dir))

    g = gate.run_gate(model, x_gate)
    tally.record(g["failures"])
    shapes = gate.expected_shapes(model.graph, wl.shape)
    ref = model.stage_outputs(x)  # warm-up, and the reference for repeats
    tally.record(gate.check_outputs(ref, shapes))
    peak, again = peak_mb(lambda: model.stage_outputs(x))
    tally.record(bitwise_diff(again, ref))
    del again

    def check(slot, out):
        # a failed gate fails every timed operation, so that success_rate
        # cannot stay within its bound on a numerical regression
        return (g["failures"] or gate.check_outputs(out, shapes)
                or bitwise_diff(out, ref))

    ops = [lambda i: model.stage_outputs(x)]
    if tracer is not None:
        observer = spans.ObserverBackend(tracer)
        tmodel = spans.traced_model(model, tracer)

        def traced(i):
            tracer.op = i
            with T.override_backend(observer), tracer.span("graph.forward"):
                return tmodel.stage_outputs(x)

        ops.append(traced)
    lat = closed_loop(ops, seconds, MIN_OPS, check, tally)

    info = {"items": "images", "samples": len(lat[0]), "gate": g}
    if tracer is None:
        metrics = e2e_metrics(lat[0], wl.shape[0], setup_s, peak, tally)
    else:
        n = wl.shape[0]
        node_macs = {c.name: c.macs * n for c in graph_cost(model.graph, wl.shape[1:]).nodes}
        layers.update(forward_layers(tracer, node_macs))
        layers.update(step_layers(tracer))
        layers["graph.retained_mb"] = sum(a.nbytes for a in model.forward(x).values()) / 1e6
        layers.update({"oracle.gate_ms": g["seconds"] * 1e3, "oracle.macs": g["oracle_macs"],
                       "oracle.ops_checked": g["ops_checked"],
                       "oracle.max_err_over_bound": g["max_err_over_bound"],
                       "trace.overhead_pct": overhead_pct(lat[0], lat[1])})
        metrics = layers
        info["traced_samples"] = len(lat[1])
    info["tail_percentile"] = tail(lat[0])[1]
    return Result(metrics, tally, info, tracer.records() if tracer else [])


def _side_pass(wl, model, store, tracer, tally, out_dir: Path) -> dict:
    """Traced runs only: time the weight roundtrip, the cost walk and, for a
    train-form workload, the fusion that `reparam-check` would run."""
    path = out_dir / f"weights-{os.getpid()}.vjw"
    try:
        with tracer.span("weights.save"):
            store.save(path)
        mb = path.stat().st_size / 1e6
        with tracer.span("weights.load"):
            loaded = WeightStore.load(path)
    finally:
        path.unlink(missing_ok=True)
    tally.record(store_diff(store, loaded))
    with tracer.span("cost.graph_cost"):
        graph_cost(model.graph, wl.shape[1:])
    out = {"weights.mb": mb}
    if not wl.fused:
        with tracer.span("reparam.fuse"):
            _, fused = reparam_graph(model.graph, store)
        out["reparam.arrays_after"] = len(fused)
    return out


# ---------------------------------------------------------------------------
# compile_x
# ---------------------------------------------------------------------------

def expected_totals(wl: Compile) -> dict:
    """Validate the preset text and derive the cost totals of its declared
    fused form: the unit `setup_s` times for a compile workload."""
    graph, _ = parse_config("fused=1\n" + preset_text(wl.scale))
    return graph_cost(graph, COST_SHAPE).totals


def compile_once(scale: str, seed: int, path: Path, tracer=None) -> dict:
    """parse -> init -> fuse -> VJW1 save -> load -> bind -> cost walk."""
    text = preset_text(scale)
    with _step(tracer, "graph.parse"):
        graph, _ = parse_config(text)
    with _step(tracer, "weights.init"):
        store = init_weights(graph, seed)
    with _step(tracer, "reparam.fuse"):
        fused_graph, fused = reparam_graph(graph, store)
    with _step(tracer, "weights.save"):
        fused.save(path)
    with _step(tracer, "weights.load"):
        loaded = WeightStore.load(path)
    with _step(tracer, "graph.bind"):
        Model(fused_graph).bind(loaded)
    with _step(tracer, "cost.graph_cost"):
        totals = graph_cost(fused_graph, COST_SHAPE).totals
    return {"fused": fused, "loaded": loaded, "totals": totals, "arrays": (len(store), len(fused))}


def run_compile(wl: Compile, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    tally = Tally()
    tracer = spans.Tracer() if trace else None
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        expected = expected_totals(wl)
        setup_s.append(time.perf_counter() - t0)
    path = out_dir / f"compile-{os.getpid()}.vjw"
    sizes = []

    def check(slot, res):
        sizes.append(path.stat().st_size / 1e6)
        path.unlink()
        loaded = res["loaded"]
        fails = store_diff(res["fused"], loaded)
        if res["totals"] != expected:
            fails.append(f"cost totals {res['totals']} != {expected}")
        # a fused store holds conv kernels and biases only, all learnable
        if sum(a.size for _, a in loaded.items()) != res["totals"]["params"]:
            fails.append("fused store size != cost params")
        return fails

    def traced(i):
        tracer.op = i
        with tracer.span("compile"):
            return compile_once(wl.scale, seed, path, tracer)

    try:
        # untimed: peak memory, and the warm-up compile
        peak, res = peak_mb(lambda: compile_once(wl.scale, seed, path))
        tally.record(check(0, res))
        arrays = res["arrays"]
        del res
        ops = [lambda i: compile_once(wl.scale, seed, path)]
        if tracer is not None:
            ops.append(traced)
        lat = closed_loop(ops, seconds, MIN_OPS, check, tally)
    finally:
        path.unlink(missing_ok=True)
    info = {"items": "compiles", "samples": len(lat[0]),
            "tail_percentile": tail([t * 1e3 for t in lat[0]])[1]}
    if tracer is None:
        return Result(e2e_metrics(lat[0], 1, setup_s, peak, tally), tally, info, [])
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(step_layers(tracer))
    layers.update({"weights.mb": statistics.median(sizes),
                   "reparam.arrays_before": arrays[0], "reparam.arrays_after": arrays[1],
                   "trace.overhead_pct": overhead_pct(lat[0], lat[1])})
    info["traced_samples"] = len(lat[1])
    return Result(layers, tally, info, tracer.records())


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    wl = WORKLOADS[workload]
    if isinstance(wl, Compile):
        res = run_compile(wl, seed, seconds, trace, out_dir)
    else:
        res = run_forward(wl, seed, seconds, trace, out_dir)
    names = PER_LAYER if trace else END_TO_END
    res.metrics = {k: res.metrics[k] for k in names}
    res.info["error_rate"] = res.tally.failed / res.tally.attempted
    return res


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }
