"""vajrakit benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when --trace 0 and the per-layer metrics when --trace 1. The line
before it holds the machine facts and run details. Traced runs also write
their spans to ``perfbench/out/``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads() -> None:
    """One BLAS thread per usable core, whatever the caller's environment
    says; must run before numpy loads."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = nproc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "vajrakit" / "__init__.py").is_file():
        print(f"run.py: no vajrakit sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    set_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": harness.machine_facts(), **res.info,
            "failures": res.tally.messages,
            "mb_computed": "derived from tensor shapes (incl. im2col expansion), not measured"}
    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as f:
            json.dump({"info": info, "metrics": res.metrics, "spans": res.spans}, f)
        info["trace_file"] = str(trace_path.relative_to(HERE.parent))
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": res.tally.failed == 0,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
