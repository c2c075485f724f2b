#!/usr/bin/env python3
"""Benchmark of the usvcg engine, driven from outside through its public
functions and the ``usvcg`` CLI entry point.

Run from the repository root:

    python3 bench/run.py --workload cli_alllog --seed 1 --seconds 20 --trace 0

``--trace 0`` times operations for ``--seconds`` seconds with tracing off
and prints the end-to-end metrics, with times in reference seconds
(``speed.py``).  ``--trace 1`` does the same untraced
pass, then repeats the workload's first operations with every layer
boundary wrapped (see ``tracing.py``) and prints the per-layer metrics.
Every output is checked outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit), the metrics that
``BENCHMARK.json`` declares for the mode.  The line before it stamps the
machine and the run.  See ``bench/README.md`` for what each metric means.
"""

import os

# Single-threaded numeric libraries: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_alllog", "variants_mixed", "fuzz_cold", "nonpos_cli")
SETUP_REPS = 15
FRESH = ("usvcg", "workloads", "reference")  # modules each set-up imports afresh
clock = time.perf_counter


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quantile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(values, n=100)`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def timed_ops(wl, seconds: float):
    """Run operations until ``seconds`` have passed (at least ``min_ops``);
    returns each op's wall interval and output record (None where it raised)."""
    intervals, records = [], []
    deadline = clock() + seconds
    k = 0
    while k < wl.min_ops or clock() < deadline:
        t0 = clock()
        try:
            result = wl.op(k)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            result = None
        intervals.append((t0, clock()))
        records.append(None if result is None else wl.record(k, result))
        k += 1
    return intervals, records


def traced_ops(wl, records, tracer):
    """Repeat the first ``traced_ops`` operations under the tracer; returns
    their wall intervals and how many outputs differ from the untraced ones."""
    intervals, mismatches = [], 0
    tracer.install()
    try:
        for k in range(wl.traced_ops):
            tracer.op = k
            t0 = clock()
            result = wl.op(k)
            intervals.append((t0, clock()))
            record = wl.record(k, result)
            mismatches += records[k] is None or record["digest"] != records[k]["digest"]
    finally:
        tracer.uninstall()
    return intervals, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "usvcg" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    load_avg = os.getloadavg()
    import numpy
    import speed
    import usvcg

    if not Path(usvcg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported usvcg from {usvcg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    probe = speed.Probe()
    probe.start()
    try:
        work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            out = measure(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass
    finally:
        probe.stop()
    info, attempted, failed, metrics = finish(out, probe)
    info.update(
        workload=args.workload,
        seed=args.seed,
        stamp={
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu": cpu_model(),
            "load_avg_at_start": load_avg,
            "probe_kernel_us": 1e6 * probe.kernel_s(),
        },
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def set_up(args, work):
    """One set-up: a fresh import of the engine and of the workload module,
    the inputs from the seed and a warm-up op.  numpy stays imported."""
    for name in [k for k in sys.modules if k in FRESH or k.startswith("usvcg.")]:
        del sys.modules[name]
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup(work)
    wl.warm()
    return workloads, wl


def measure(args, work) -> dict:
    """Set-up, the timed loop, the gate and, with --trace 1, the traced ops;
    returns wall intervals and outputs, converted to metrics by ``finish``."""
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()  # frees the previous set-up's modules before timing the next
        t0 = clock()
        workloads, wl = set_up(args, work)
        setups.append((t0, clock()))
    intervals, records = timed_ops(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    good = [r for r in records if r is not None]
    attempted, failed, max_residual = wl.check(good) if good else (0, 0, 0.0)
    exceptions = (len(records) - len(good)) * wl.checks_per_op
    out = {
        "wl": wl, "setups": setups, "intervals": intervals, "peak_rss_mb": peak_rss_mb,
        "attempted": int(attempted) + exceptions, "failed": int(failed) + exceptions,
        "max_residual": float(max_residual), "trace": args.trace,
        "output_digest": workloads.digest(*(r and r["digest"] for r in records[: wl.traced_ops])),
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        out["traced"], mismatches = traced_ops(wl, records, tracer)
        out["failed"] += mismatches * wl.checks_per_op
        out["attempted"] += wl.traced_ops * wl.checks_per_op
        out["tracer"] = tracer
        out["result_bytes"] = wl.result_bytes()
    return out


def finish(out, probe):
    """Metrics from the recorded intervals, in reference seconds (speed.py)."""
    wl = out["wl"]
    ref = [probe.reference_s(a, b) for a, b in out["intervals"]]
    attempted, failed = out["attempted"], out["failed"]
    info = {
        "ops": len(ref),
        "setup_reps": SETUP_REPS,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "raw_wall_s": statistics.median(b - a for a, b in out["intervals"]),
        "output_digest": out["output_digest"],
    }
    if not out["trace"]:
        metrics = {
            "setup_s": statistics.median(probe.reference_s(a, b) for a, b in out["setups"]),
            "wall_s": statistics.median(ref),
            "agents_per_s": wl.agents_per_op * wl.chunk_ops / statistics.median(
                sum(ref[i : i + wl.chunk_ops]) for i in range(0, len(ref) - wl.chunk_ops + 1, wl.chunk_ops)),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return info, attempted, failed, metrics
    tracer = out["tracer"]
    traced = [probe.reference_s(a, b) for a, b in out["traced"]]
    metrics = tracer.metrics()
    solves = metrics["solver.solves"]
    fuzz_calls = metrics["experiments.sdsic_fuzz_calls"]
    metrics.update({
        "mechanism.solves_per_agent": solves / (wl.agents_per_op * wl.traced_ops),
        "mechanism.max_identity_residual": out["max_residual"],
        "experiments.solves_per_trial": solves / fuzz_calls if fuzz_calls else 0.0,
        "experiments.trial_p50_ms": 1e3 * statistics.median(ref) if fuzz_calls else 0.0,
        "experiments.trial_p99_ms": 1e3 * quantile(ref, 99) if fuzz_calls else 0.0,
        "files.result_bytes": out["result_bytes"],
        "trace.overhead_ratio": sum(traced) / sum(ref[: wl.traced_ops]),
    })
    info["traced_ops"] = wl.traced_ops
    info["trace_counts"] = tracer.count_digest()
    return info, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
