"""Command-line front end: describe | cost | reparam-check | forward | selftest.

Exit codes: 0 success, 1 validation or tolerance failure (or memory
exhausted), 2 usage error.
All output is reproducible byte-for-byte for fixed flags and seed. Forward
output for one image also needs a fixed BLAS thread count, since a GEMM's
summation order follows how the BLAS splits it across threads. A batch runs
with the BLAS at one thread, as one image run per usable CPU, so its bytes
need a fixed number of runs instead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .cost import RATIO_LINE, graph_cost
from .graph import ConfigError, Model, parse_config, propagate_shapes
from .presets import REFERENCE_TOTALS
from .reparam import reparam_graph, verify_equivalence
from .tensor import DTYPE, ShapeError
from .weights import WeightFormatError, WeightStore, init_weights


def _checked(convert, ok, want: str):
    """An argparse type: ``convert`` the text, then require ``ok`` of the value."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"wants {want}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"wants {want}, got {text!r}")
        return value
    return parse


_parse_shape = _checked(lambda text: tuple(int(p) for p in text.lower().split("x")),
                        lambda dims: len(dims) == 4 and min(dims) >= 1,
                        "four positive dims NxCxHxW")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite non-negative number")


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def cmd_describe(args) -> int:
    graph, scale_cfg = _load_config(args.config)
    n, c, h, w = args.shape
    shapes = propagate_shapes(graph, c, h, w)
    print(f"# {len(graph.nodes)} nodes"
          + (f", scale {graph.scale}" if graph.scale else "")
          + (", fused" if graph.fused else "")
          + f", input {c}x{h}x{w}")
    header = f"{'node':<10} {'kind':<18} {'stage':<6} {'output':<16} from"
    print(header)
    print("-" * len(header))
    for node in graph.nodes:
        oc, oh, ow = shapes[node.id]
        print(f"{node.id:<10} {node.kind:<18} {node.stage or '-':<6} "
              f"{f'{oc}x{oh}x{ow}':<16} {','.join(node.inputs)}")
    return 0


def cmd_cost(args) -> int:
    graph, _ = _load_config(args.config)
    n, c, h, w = args.shape
    report = graph_cost(graph, (c, h, w))
    if args.format == "json":
        payload = json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
        _emit(args.out, payload + "\n")
        return 0
    lines = [report.to_text(), RATIO_LINE]
    if graph.scale in REFERENCE_TOTALS:
        ref_params_m, ref_flops_b = REFERENCE_TOTALS[graph.scale]
        tot = report.totals
        params_m = tot["params"] / 1e6
        flops_b = tot["flops"] / 1e9
        dp = 100.0 * (params_m - ref_params_m) / ref_params_m
        df = 100.0 * (flops_b - ref_flops_b) / ref_flops_b
        lines.append(
            f"published {graph.scale} totals (full model): {ref_params_m}M params / {ref_flops_b}B FLOPs")
        lines.append(
            f"computed (backbone+neck only):  {params_m:.2f}M params ({dp:+.1f}%) / "
            f"{flops_b:.1f}B FLOPs ({df:+.1f}%)")
        lines.append("deltas are documentation, not a gate: stage widths are reconstructed "
                     "and detection heads are out of scope")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_reparam_check(args) -> int:
    graph, _ = _load_config(args.config)
    store = WeightStore.load(args.weights) if args.weights else init_weights(graph, args.seed)
    fused_graph, fused_store = reparam_graph(graph, store)
    if args.out:
        fused_store.save(args.out)
        print(f"fused weights written to {args.out}")

    n, c, h, w = args.shape
    base = Model(graph).bind(store)
    fused = Model(fused_graph).bind(fused_store)
    report = verify_equivalence(base.stage_outputs, fused.stage_outputs, args.trials,
                                (n, c, h, w), args.tol, seed=args.seed)
    worst = max(report.trials, key=lambda t: t.max_abs)
    print(f"trials: {len(report.trials)}  shape: {n}x{c}x{h}x{w}")
    print(f"max abs diff: {report.max_abs:.3e}  (worst trial rel: {worst.max_rel:.3e})")
    print(f"tolerance: {args.tol:.3e}  ->  {'PASS' if report.passed else 'FAIL'}")
    if not report.passed:
        offender = _worst_node(base, fused, (n, c, h, w), args.seed)
        print(f"worst offending node: {offender}", file=sys.stderr)
        return 1
    return 0


def _worst_node(base: Model, fused: Model, shape, seed) -> str:
    """Per-node max diff on one random input, for the failure diagnostic; the
    two models run in lockstep, so only the current node's outputs (a concat
    view copied) are held."""
    x = np.random.default_rng(seed).standard_normal(shape).astype(DTYPE)
    worst, worst_d = "?", -1.0
    for (node, a), (_, b) in zip(base.walk(x), fused.walk(x), strict=True):
        d = float(np.abs(np.asarray(a) - np.asarray(b)).max())
        del a, b
        if d > worst_d:
            worst, worst_d = node.id, d
    return f"{worst} (max abs diff {worst_d:.3e})"


def cmd_forward(args) -> int:
    graph, _ = _load_config(args.config)
    store = WeightStore.load(args.weights) if args.weights else init_weights(graph, args.seed)
    if args.input:
        tensors = WeightStore.load(args.input)
        names = tensors.names()
        if not names:
            raise ShapeError("input tensor file is empty")
        name = "input" if "input" in tensors else names[0]
        x = tensors[name]
        if x.ndim != 4:
            raise ShapeError(f"input tensor {name!r} must be rank 4, got rank {x.ndim}")
    else:
        n, c, h, w = args.shape
        x = np.random.default_rng(args.seed).standard_normal((n, c, h, w)).astype(DTYPE)
    outs = Model(graph).bind(store).stage_outputs(x)
    out_store = WeightStore()
    for tag in sorted(outs):
        out_store.add(tag, outs[tag])
    out_store.save(args.out)
    print(f"wrote {len(out_store)} tensor(s) to {args.out}: {', '.join(sorted(outs))}")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    failures = selftest.run(print_line=print)
    return 1 if failures else 0


def _emit(out_path, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vajrakit",
        description="VajraV1 block engine: graph inspection, cost model, "
                    "reparameterization check, forward execution, selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, shape_default, with_weights=False, with_seed=False):
        p.add_argument("--config", required=True, help="model config file")
        p.add_argument("--shape", type=_parse_shape, default=_parse_shape(shape_default),
                       metavar="NxCxHxW", help=f"input shape (default {shape_default})")
        if with_weights:
            p.add_argument("--weights", help="weight file (VJW1); omit to init from --seed")
        if with_seed:
            p.add_argument("--seed", type=int, default=0, help="weight/init seed (default 0)")

    p = sub.add_parser("describe", help="topologically ordered node table")
    add_common(p, "1x3x640x640")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("cost", help="per-node MAC/parameter report")
    add_common(p, "1x3x640x640")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("reparam-check", help="fuse the graph and verify equivalence")
    add_common(p, "1x3x320x320", with_weights=True, with_seed=True)
    p.add_argument("--tol", type=_tolerance, default=1e-3, help="max abs diff gate (default 1e-3)")
    p.add_argument("--trials", type=_positive_int, default=3,
                   help="random inputs to compare (default 3)")
    p.add_argument("--out", help="write fused weights here (VJW1)")
    p.set_defaults(fn=cmd_reparam_check)

    p = sub.add_parser("forward", help="run the graph, write stage outputs as VJW1 tensors "
                                       "(bytes reproducible at a fixed BLAS thread count for one "
                                       "image, at a fixed usable CPU count for a batch)")
    add_common(p, "1x3x640x640", with_weights=True, with_seed=True)
    p.add_argument("--input", help="VJW1 file holding the input tensor (overrides --shape)")
    p.add_argument("--out", default="forward_out.vjw", help="output tensor file")
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("selftest", help="run the property suites of all modules")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            open(out, "w").close()  # raises its OSError now, before any work, creating nothing
        return args.fn(args)
    except (ConfigError, ShapeError, WeightFormatError, KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
