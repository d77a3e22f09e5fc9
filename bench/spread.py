#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workload sweep-d3 ...] [--trace 1]

For every workload and metric it prints the median of the runs, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the first and third quartile as a share of the median. This is the
steadiness measure the end-to-end bounds in BENCHMARK.json are set against,
and the before/after table a performance change cites. The raw results go
to .bench_out/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("nan"),
            "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    results = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, *config["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            run = json.loads(last)
            run["elapsed_s"] = elapsed
            runs.append(run)
            shown = {k: round(v["value"], 6) for k, v in list(run["metrics"].items())[:4]}
            print(f"{workload} seed {seed} ({elapsed:.1f} s): correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} {shown}", flush=True)
        names = runs[0]["metrics"]
        results[workload] = {
            "runs": runs,
            "summary": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
        }
        for name, s in results[workload]["summary"].items():
            print(f"  {workload:10s} {name:50s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
