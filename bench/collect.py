#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the runs.

Run from the repository root:

    python3 bench/collect.py --seeds 1-10 --trace 0 [--workload fuzz_cold ...] [--out PATH]

Each (workload, seed) pair is one fresh ``bench/run.py`` process, run one
at a time with ``run_seconds`` from ``BENCHMARK.json``.  For every metric the
summary gives the median, the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread: the distance between the quartiles as a
share of the median.  Runs that exit non-zero or print no result stop the
collection.  The summary is printed and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, type=seed_list, help="e.g. 1-10 or 1,4,9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", nargs="*", default=names, choices=names)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    seconds = SPEC["run_seconds"]
    doc = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            info, result = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "ops": info["ops"], "stamp": info["stamp"],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": result["metrics"]})
            print(f"{workload} seed {seed}: ops {info['ops']} failed {result['failed']}/"
                  f"{result['attempted']} load {info['stamp']['load_avg_at_start'][0]:.2f} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        summary = summarise(runs)
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            if args.trace == 0:
                print(f"  {name:14s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
