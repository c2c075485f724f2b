"""The benchmark's traced run: its tracer must still find every function
and curve method it wraps (``bench/tracing.py``'s SPANS and COUNTERS)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import usvcg.cli  # noqa: F401  -- Tracer.install looks up every traced module, usvcg.files too
from conftest import RUNNING_PROFILE, make_running_instance
from usvcg import MoneyCurve, mechanism

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_counts_and_uninstalls():
    tracer = _load_tracing().Tracer()
    run, value = mechanism.run_us_vcg, MoneyCurve.__dict__["value"]
    tracer.install()
    try:
        mechanism.run_us_vcg(RUNNING_PROFILE, make_running_instance())
    finally:
        tracer.uninstall()
    # the decision and one pivot solve per agent
    assert tracer.metrics()["solver.solves"] == 4
    assert mechanism.run_us_vcg is run and MoneyCurve.__dict__["value"] is value
