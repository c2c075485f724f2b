"""Shared fixtures: the running log/sqrt instance, the kt branch-switch,
boundary and water-filling non-positive instances, and random-instance
helpers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from usvcg import AgentType, BudgetInstance, GainCurve, MoneyCurve, experiments, optimize
from usvcg.errors import TaxDivergence
from usvcg.mechanism import _Plain

RUNNING_PROFILE = (
    AgentType((0.7, 0.3), 0.8),
    AgentType((0.0, 1.0), 1.3),
    AgentType((0.5, 0.5), 1.0),
)

PRINTED_BALLOTS = (
    ((0.7, 0.3), 69.4),
    ((0.0, 1.0), 26.3),
    ((0.5, 0.5), 44.4),
)


def make_running_instance(convention: str = "n_scaled", semantics: str = "nominal") -> BudgetInstance:
    return BudgetInstance(
        m=2,
        n=3,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics=semantics,
        mrs_convention=convention,
        types=RUNNING_PROFILE,
    )


@pytest.fixture
def running_instance() -> BudgetInstance:
    return make_running_instance()


@pytest.fixture
def running_instance_nfree() -> BudgetInstance:
    return make_running_instance(convention="n_free")


BOUNDARY_PROFILE = (
    AgentType((0.1, 0.9), 1.0),
    AgentType((0.0, 1.0), 1.3),
    AgentType((0.0, 1.0), 0.7),
)


def make_boundary_instance(gains, money) -> BudgetInstance:
    """Agents 1 and 2 weight good 0 at 0, so agent 0's excluded mean does."""
    return BudgetInstance(
        m=2,
        n=3,
        external_budget=0.0,
        gain_curves=gains,
        money_curve=money,
        semantics="per_capita",
        types=BOUNDARY_PROFILE,
    )


BOUNDARY_CATALOGS = [
    # used to return nan for agent 0: a zero step, 0/0 in the difference
    ((GainCurve.power(5.0, 0.5), GainCurve.log(10.0)), MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5)),
    # used to fail inside the Jacobian, on a log curve at zero spend
    ((GainCurve.log(10.0), GainCurve.log(10.0)), MoneyCurve.power(0.5)),
]


def make_water_fill_kt_instance(n: int) -> BudgetInstance:
    """Per-capita log/power/log1p with a two-sided money curve and a random
    profile (``default_rng(301)``): its non-positive payments water-fill."""
    return BudgetInstance(
        m=3,
        n=n,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0)),
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
        semantics="per_capita",
        types=random_profile(np.random.default_rng(301), n, 3),
    )


def make_kt_branch_instance(profile=None) -> BudgetInstance:
    """Per-capita log/log with a two-sided money curve and an external
    budget: the conditional value is bimodal, a cash-back branch at t < 0
    against a funding branch at t > 0."""
    return BudgetInstance(
        m=2,
        n=4,
        external_budget=200.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.6, 1.0),
        semantics="per_capita",
        types=profile,
    )


@pytest.fixture(scope="session")
def kt_branch_switch() -> float:
    """The largest money weight w at which the type ((0.5, 0.5), w) still
    takes the funding branch on ``make_kt_branch_instance``, by bisection on
    the sign of its optimal tax: one float above it, the optimum jumps to
    the cash-back branch."""
    instance = make_kt_branch_instance()
    lo, hi = 0.6, 0.7
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if optimize(AgentType((0.5, 0.5), mid), instance).tax > 0.0:
            lo = mid
        else:
            hi = mid


def random_money_curve(rng: np.random.Generator) -> MoneyCurve:
    if rng.random() < 0.5:
        return MoneyCurve.power(float(rng.uniform(0.45, 0.7)))
    return MoneyCurve.kahneman_tversky(
        float(rng.uniform(0.55, 0.95)),
        float(rng.uniform(0.55, 0.95)),
        float(rng.uniform(1.0, 2.5)),
    )


def random_gain_curve(
    rng: np.random.Generator, money: MoneyCurve, diverging_only: bool = True
) -> GainCurve:
    kinds = ["log", "power"] if diverging_only else ["log", "power", "log1p"]
    kind = kinds[int(rng.integers(len(kinds)))]
    scale = float(rng.uniform(2.0, 15.0))
    if kind == "log":
        return GainCurve.log(scale)
    if kind == "log1p":
        return GainCurve.log1p(scale)
    # keep the marginal-gain decay strictly faster than the money curve's
    # large-argument tail so the preferred tax stays finite and moderate
    tail = money.q if money.kind == "power" else min(money.q, money.r)
    return GainCurve.power(scale, float(rng.uniform(0.1, tail - 0.25)))


def variants_catalog(n: int = 150):
    """The variants_mixed benchmark's catalog and population (n = 150 there):
    the types, the instance, and the instance with seeded tax weights."""
    rng = np.random.default_rng([1, 2])
    alloc = rng.dirichlet(np.full(3, 2.0), size=n)
    money = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), size=n))
    types = tuple(AgentType.normalized(a, float(w)) for a, w in zip(alloc, money))
    weights = rng.uniform(0.5, 1.5, size=n)
    weights *= n / weights.sum()
    base = dict(
        m=3,
        n=n,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
        types=types,
    )
    return types, BudgetInstance(**base), BudgetInstance(**base, tax_weights=tuple(weights))


def random_profile(rng: np.random.Generator, n: int, m: int, mu: float = 3.0):
    types = []
    for _ in range(n):
        weights = rng.dirichlet(np.ones(m))
        money = math.exp(rng.uniform(math.log(1.0 / mu), math.log(mu)))
        types.append(AgentType.normalized(weights, money))
    return tuple(types)


def random_instance(
    rng: np.random.Generator,
    m: int,
    n: int,
    semantics: str = "nominal",
    diverging_only: bool = True,
    with_types: bool = True,
) -> BudgetInstance:
    money = random_money_curve(rng)
    # only the two-sided curve admits negative taxes, so an external budget
    # is only interesting there
    b0 = float(rng.choice([0.0, 20.0])) if money.kind == "kt" else 0.0
    return BudgetInstance(
        m=m,
        n=n,
        external_budget=b0,
        gain_curves=tuple(random_gain_curve(rng, money, diverging_only) for _ in range(m)),
        money_curve=money,
        semantics=semantics,
        types=random_profile(rng, n, m) if with_types else None,
    )


def with_convention(instance: BudgetInstance, convention: str) -> BudgetInstance:
    return dataclasses.replace(instance, mrs_convention=convention)


def diverging_plain(monkeypatch, diverges):
    """Make every mechanism the fuzzers build raise TaxDivergence at its
    decision where ``diverges(profile)``."""

    class Diverging(_Plain):
        def others_optimum(self, excl):
            if excl is None and diverges(self.profile):
                raise TaxDivergence("planted")
            return super().others_optimum(excl)

    monkeypatch.setattr(experiments, "_Plain", Diverging)


def diverging_lies(monkeypatch):
    """Make every misreported profile the fuzzers draw raise TaxDivergence
    at its decision, and no drawn profile."""
    lies = set()
    diverging_plain(monkeypatch, lambda profile: not lies.isdisjoint(profile))
    draw = experiments._draw_misreport

    def drawing(*args):
        lie = draw(*args)
        lies.add(lie)
        return lie

    monkeypatch.setattr(experiments, "_draw_misreport", drawing)
