"""The benchmark's traced run: its tracer must still find every function
and curve method it wraps (``bench/tracing.py``'s SPANS and COUNTERS), and
every solve of a mechanism run must go through a public solver it counts."""

from __future__ import annotations

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

import usvcg.cli  # noqa: F401  -- Tracer.install looks up every traced module, usvcg.files too
from conftest import RUNNING_PROFILE, make_running_instance, make_water_fill_kt_instance
from usvcg import BiasSpec, EquitableTarget, MoneyCurve, mechanism
from usvcg.model import excluded_means

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


@pytest.mark.parametrize("variant", ["biased", "hetero"])
def test_bench_tracer_counts_every_solve_of_the_variants(variant):
    # the decision and one pivot solve per agent, each through the public
    # solver the tracer wraps (a private entry point would hide it)
    instance = make_running_instance()
    if variant == "biased":
        bias = BiasSpec(lam=0.5, target=EquitableTarget())

        def run():
            return mechanism.run_bus_vcg(RUNNING_PROFILE, bias, instance)
    else:
        instance = dataclasses.replace(instance, tax_weights=(1.5, 1.0, 0.5))

        def run():
            return mechanism.run_us_vcg_hetero(RUNNING_PROFILE, instance)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    assert tracer.metrics()["solver.solves"] == len(RUNNING_PROFILE) + 1


def _traced_solves(call) -> int:
    """The solves the tracer counts while ``call()`` runs."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer.metrics()["solver.solves"]


@pytest.mark.parametrize("variant", ["plain", "biased", "hetero"])
def test_bench_tracer_counts_every_solve_of_an_audit(variant):
    # identity_residuals runs the variant afresh: the decision and one pivot
    # per agent, each through the public solver the tracer wraps
    instance, keywords = make_running_instance(), {}
    if variant == "biased":
        keywords = {"bias": BiasSpec(lam=0.5, target=EquitableTarget())}
        outcome = mechanism.run_bus_vcg(RUNNING_PROFILE, keywords["bias"], instance)
    elif variant == "hetero":
        instance = dataclasses.replace(instance, tax_weights=(1.5, 1.0, 0.5))
        keywords = {"hetero": True}
        outcome = mechanism.run_us_vcg_hetero(RUNNING_PROFILE, instance)
    else:
        outcome = mechanism.run_us_vcg(RUNNING_PROFILE, instance)

    def audit():
        return mechanism.identity_residuals(RUNNING_PROFILE, outcome, instance, **keywords)

    assert _traced_solves(audit) == len(RUNNING_PROFILE) + 1


def test_bench_tracer_counts_every_solve_of_the_non_positive_scheme():
    # the whole scheme is one run: the decision, then per agent its pivot
    # solve and two central differences along m directions (m - 1 tangent,
    # one money weight) at the step and at half of it, 1 + n + 4 m n = 79
    # solves at m = 3, n = 6
    instance = make_water_fill_kt_instance(6)
    profile = instance.types
    gamma = max(
        math.dist((*t.alloc_weights, t.money_weight), (*e.alloc_weights, e.money_weight))
        for t, e in zip(profile, excluded_means(profile))
    )
    config = mechanism.NonPositiveConfig(gamma=gamma)

    def rebated():
        return mechanism.non_positive_payments(profile, instance, config)

    n = len(profile)
    assert _traced_solves(rebated) == 1 + n + 4 * instance.m * n == 79
