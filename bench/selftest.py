#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of the traced run.

Run from the repository root:

    python3 bench/selftest.py [--seed 7] [--workload cli_alllog ...]

For each workload it runs ``bench/run.py --trace 1`` twice on one seed, each
in a fresh process, and requires identical trace counts (calls per wrapped
function, curve and valuation calls per layer) and bit-identical outputs
(digests of the traced operations' results).  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys

from collect import SPEC, run_once

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = p.parse_args(argv)
    problems = []
    for workload in args.workload:
        (info_a, res_a), (info_b, _) = (run_once(workload, args.seed, 1, 1) for _ in range(2))
        for key in ("trace_counts", "output_digest"):
            if info_a[key] != info_b[key]:
                problems.append(f"{workload}: {key} differs between two traced runs")
        spans = sum(info_a["trace_counts"]["spans"].values())
        print(f"{workload}: traced ops {info_a['traced_ops']}, spans {spans}, "
              f"digest {info_a['output_digest'][:12]}, failed {res_a['failed']}/{res_a['attempted']}")
    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
