"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads n640_fused,compile_x --seeds 1-10 \
        --seconds 20 [--trace 0] [--out perfbench/baseline.json]

Runs are made one after another, never in parallel: BLAS threads of two
runs would compete for the same cores. For every workload and metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            info, result = run_once(workload, seed, args.seconds, args.trace)
            report["machine"] = info["machine"]
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "samples": info["samples"], "tail_percentile": info["tail_percentile"],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
        report["workloads"][workload] = {
            "runs": runs, "metrics": {name: summarise(v) for name, v in values.items()}}
        for name, s in report["workloads"][workload]["metrics"].items():
            print(f"{workload:18s} {name:34s} median {s['median']:<12.6g} spread {s['spread']:.4f}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
