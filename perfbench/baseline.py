"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --runs 10 --out .perfbench_out/baseline.json

Runs every workload of BENCHMARK.json once per seed 1..RUNS, cycling
through the workloads seed by seed so that slow drift of the machine hits
all of them alike, then makes three traced runs per workload (seeds 1, 1
and 2) and checks that the two seed-1 runs give identical work counts.
Writes the median, quartiles and spread (quartile distance over median)
of every end-to-end metric, the traced per-layer values and the
environment to --out, and prints the same as Markdown tables.  Exits
non-zero when any run fails its correctness check or the counts differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEEDS = [1, 1, 2]


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            results[w].append(run_once(spec["command"], w, seed, seconds, 0))
            print(f"{w} seed {seed} done", file=sys.stderr)
    traced = {w: [run_once(spec["command"], w, seed, seconds, 1) for seed in TRACE_SEEDS]
              for w in workloads}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio", "B")]
    repeat = {w: all(traced[w][0]["metrics"][n] == traced[w][1]["metrics"][n] for n in counts)
              for w in workloads}

    summary = {
        "environment": {
            "python": platform.python_version(),
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": seconds,
            "runs": args.runs,
        },
        "end_to_end": {
            w: {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results[w]])
                for m in spec["end_to_end"]}
            for w in workloads
        },
        "failed": {w: sum(r["failed"] for r in results[w]) for w in workloads},
        "fail_ratio": {w: sum(r["failed"] for r in results[w]) / sum(r["attempted"] for r in results[w])
                       for w in workloads},
        "trace_seeds": TRACE_SEEDS,
        "counts_repeat": repeat,
        "per_layer": {
            w: {m["name"]: [r["metrics"][m["name"]]["value"] for r in traced[w]]
                for m in spec["per_layer"]}
            for w in workloads
        },
    }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")

    env = summary["environment"]
    print(f"Python {env['python']}, commit {env['commit']}, nproc {env['nproc']}, "
          f"{env['runs']} runs of {seconds} s per workload\n")
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in spec["end_to_end"]:
            s = summary["end_to_end"][w][m["name"]]
            print(f"| {w} | {m['name']} ({m['unit']}) | {s['median']:.4g} | {s['q1']:.4g} "
                  f"| {s['q3']:.4g} | {s['spread']:.3f} | {m['bound']} |")
        print(f"| {w} | fail_ratio (ratio) | {summary['fail_ratio'][w]:.4g} | | | | |")
    print(f"\nwork counts repeat across the two seed-1 traced runs: {repeat}")
    print("\n| metric | unit | " + " | ".join(f"{w} (seeds 1, 1, 2)" for w in workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in spec["per_layer"]:
        cells = []
        for w in workloads:
            cells.append(", ".join(f"{v}" if isinstance(v, int) else f"{v:.4g}"
                                   for v in summary["per_layer"][w][m["name"]]))
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0 if all(repeat.values()) and not any(summary["failed"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
