"""Gain/money curve calculus and the assumption validator."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_running_instance
from usvcg import (
    AgentType,
    BudgetInstance,
    DomainError,
    GainCurve,
    MoneyCurve,
    RangeError,
    validate_assumptions,
)

ALL_GAINS = [
    GainCurve.log(10.0),
    GainCurve.log(0.5),
    GainCurve.power(1.0, 0.5),
    GainCurve.power(7.0, 0.25),
    GainCurve.log1p(0.4),
    GainCurve.log1p(12.0),
]

ALL_MONEY = [
    MoneyCurve.power(0.5),
    MoneyCurve.power(0.31),
    MoneyCurve.kahneman_tversky(0.88, 0.88, 2.25),
    MoneyCurve.kahneman_tversky(0.6, 0.8, 1.0),
]


# =============================================================================
# Point examples
# =============================================================================


def test_log_values():
    curve = GainCurve.log(10.0)
    assert curve.value(78.9) == pytest.approx(43.68, abs=5e-3)
    assert curve.value(1.0) == 0.0
    assert curve.deriv(20.0) == pytest.approx(0.5)
    assert curve.deriv(66.6) == pytest.approx(0.1502, abs=1e-4)
    assert curve.inverse_deriv(0.5) == pytest.approx(20.0)


def test_power_values():
    curve = GainCurve.power(1.0, 0.5)
    assert curve.value(0.0) == 0.0
    assert curve.deriv(4.0) == pytest.approx(0.25)
    assert curve.inverse_deriv(0.25) == pytest.approx(4.0)


def test_money_values():
    sqrt = MoneyCurve.power(0.5)
    assert sqrt.value(377.0) == pytest.approx(19.416, abs=1e-3)
    kt = MoneyCurve.kahneman_tversky(0.88, 0.88, 1.0)
    assert kt.value(-1.0) == -1.0
    for curve in ALL_MONEY:
        assert curve.value(0.0) == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        GainCurve.log(10.0).value(0.0)
    with pytest.raises(DomainError):
        GainCurve.power(1.0, 0.5).value(-1.0)
    with pytest.raises(DomainError):
        GainCurve.log(10.0).deriv(0.0)
    with pytest.raises(DomainError):
        GainCurve.log(10.0).inverse_deriv(-1.0)
    with pytest.raises(DomainError):
        MoneyCurve.power(0.5).value(-0.1)
    with pytest.raises(RangeError):
        MoneyCurve.power(0.5).inverse(-1.0)
    with pytest.raises(RangeError):
        GainCurve.power(1.0, 0.5).inverse(-0.3)
    with pytest.raises(RangeError):
        GainCurve.log1p(2.0).inverse_deriv(3.0)  # marginal tops out at the scale


def test_constructor_validation():
    with pytest.raises(DomainError):
        GainCurve.power(1.0, 1.2)
    with pytest.raises(DomainError):
        GainCurve.log(-1.0)
    with pytest.raises(DomainError):
        GainCurve("nope", 1.0)
    with pytest.raises(DomainError):
        MoneyCurve.power(1.5)
    with pytest.raises(DomainError):
        MoneyCurve.kahneman_tversky(0.5, 0.5, -1.0)


# =============================================================================
# Calculus invariants
# =============================================================================


# below x ~ 0.05 the central-difference truncation error (~ scale * h^2 / x^3)
# itself exceeds the tolerance, so that is the honest verification range
@pytest.mark.parametrize("curve", ALL_GAINS)
@given(x=st.floats(min_value=0.05, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(curve, x):
    h = 1e-6 * max(1.0, x)
    fd = (curve.value(x + h) - curve.value(x - h)) / (2.0 * h)
    assert curve.deriv(x) == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("curve", ALL_GAINS)
def test_inverse_deriv_identity(curve):
    rng = np.random.default_rng(0)
    for x in [1.0, 37.2, 500.0] + list(rng.uniform(1e-2, 1e4, size=100)):
        marginal = curve.deriv(x)
        assert curve.inverse_deriv(marginal) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("curve", ALL_GAINS)
def test_level_inverse_identity(curve):
    rng = np.random.default_rng(1)
    for x in rng.uniform(1e-2, 1e4, size=100):
        assert curve.inverse(curve.value(x)) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("curve", ALL_GAINS)
@pytest.mark.parametrize("sigma", [1.0, 1.0001, 1.07, 2.0, 30.0])
def test_level_shift_bounds_the_level_move(curve, sigma):
    # moving the marginal y by any factor r in [1/sigma, sigma] moves the
    # level theta(theta'^-1(y r)) by at most level_shift; the bound is met at
    # an end of the range wherever neither marginal tops log1p's marginal at
    # zero spend (where its spend is clipped at 0)
    cap = curve.deriv_at_zero()

    def level(y):
        return curve.value(curve.inverse_deriv(y) if y < cap else 0.0)

    marginals = [curve.deriv(s) for s in (1e-3, 0.1, 1.0, 10.0, 1e3)]
    if curve.kind == "log1p":
        marginals += [0.5 * cap, 0.99 * cap, 2.0 * cap]
    for y in marginals:
        base = level(y)
        bound = curve.level_shift(base, sigma)
        moves = [abs(level(y * r) - base) for r in np.geomspace(1.0 / sigma, sigma, 41)]
        assert max(moves) <= bound + 1e-12 * max(1.0, abs(base))
        if y * sigma < cap:
            assert max(moves) == pytest.approx(bound, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("curve", ALL_MONEY)
def test_money_inverse_identity(curve):
    rng = np.random.default_rng(2)
    lo = 1e-3 if curve.domain_min == 0.0 else -1e3
    for d in rng.uniform(lo, 1e3, size=100):
        y = curve.value(float(d))
        back = curve.inverse(y)
        assert abs(curve.value(back) - y) <= 1e-10 * max(1.0, abs(y))


def _exact_money(curve, delta, mpmath):
    d = mpmath.mpf(delta)
    if curve.kind == "power":
        return d ** mpmath.mpf(curve.q)
    if d > 0:
        return mpmath.mpf(curve.loss_weight) * d ** mpmath.mpf(curve.r)
    return -((-d) ** mpmath.mpf(curve.q))


@pytest.mark.parametrize("curve", ALL_MONEY)
@given(
    a=st.floats(1e-6, 1e6),
    spread=st.floats(-6.0, 6.0),
    close=st.booleans(),
    negative=st.booleans(),
)
@example(a=205003.125, spread=5.01441, close=False, negative=False)  # 8.1 ulps by expm1
@settings(max_examples=100, deadline=None)
def test_money_difference_is_accurate_to_itself(curve, a, spread, close, negative):
    # f(b) - f(a) on one side of zero, for b from an ulp to a factor of 2
    # away from a (close) or up to 1e6 times a or 1e-6 of it, is within a
    # few ulps of its 50-digit value, however much of f(a) cancels
    mpmath = pytest.importorskip("mpmath")
    if negative and curve.domain_min == 0.0:
        return
    if close:
        b = a * (1.0 + math.copysign(10.0 ** (-16.0 * abs(spread) / 6.0), spread))
    else:
        b = a * 10.0**spread
    if negative:
        a, b = -a, -b
    with mpmath.workdps(50):
        exact = _exact_money(curve, b, mpmath) - _exact_money(curve, a, mpmath)
    got = curve.difference(b, a)
    if exact == 0:
        assert got == 0.0
    else:
        assert abs(got - float(exact)) <= 8 * 2.0**-52 * abs(float(exact))


@pytest.mark.parametrize("curve", ALL_MONEY)
def test_money_difference_across_zero_is_the_plain_difference(curve):
    for b, a in ((3.0, 0.0), (0.0, 2.0), (1.5, 1.5)):
        assert curve.difference(b, a) == curve.value(b) - curve.value(a)
    if curve.domain_min < 0.0:
        assert curve.difference(2.0, -1.0) == curve.value(2.0) - curve.value(-1.0)
    else:
        with pytest.raises(DomainError):
            curve.difference(-1.0, 2.0)


@pytest.mark.parametrize("curve", ALL_GAINS)
def test_concavity_sampled(curve):
    xs = np.geomspace(1e-4, 1e5, 40)
    vals = [curve.value(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for i in range(len(xs) - 2):
        s01 = (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])
        s12 = (vals[i + 2] - vals[i + 1]) / (xs[i + 2] - xs[i + 1])
        assert s01 > s12
    assert curve.value_limit_at_zero() <= 0.0


@pytest.mark.parametrize("curve", ALL_MONEY)
def test_money_curvature_sign_pattern(curve):
    xs = np.geomspace(1e-3, 1e4, 30)
    pos = [curve.value(float(x)) for x in xs]
    for i in range(len(xs) - 2):
        s01 = (pos[i + 1] - pos[i]) / (xs[i + 1] - xs[i])
        s12 = (pos[i + 2] - pos[i + 1]) / (xs[i + 2] - xs[i + 1])
        assert s01 > s12  # concave on the positive side
    if curve.domain_min < 0.0:
        neg = [-float(x) for x in xs[::-1]]
        nvals = [curve.value(x) for x in neg]
        for i in range(len(neg) - 2):
            s01 = (nvals[i + 1] - nvals[i]) / (neg[i + 1] - neg[i])
            s12 = (nvals[i + 2] - nvals[i + 1]) / (neg[i + 2] - neg[i + 1])
            assert s01 < s12  # convex on the negative side


@pytest.mark.parametrize("curve", ALL_GAINS)
def test_vectorised_matches_scalar(curve):
    xs = np.geomspace(1e-3, 1e4, 17)
    np.testing.assert_allclose(
        curve.value_array(xs), [curve.value(float(x)) for x in xs], rtol=1e-12
    )


def test_money_deriv_diverges_at_origin():
    assert math.isinf(MoneyCurve.power(0.5).deriv(0.0))
    assert math.isinf(MoneyCurve.kahneman_tversky(0.88, 0.88, 2.25).deriv(0.0))


# =============================================================================
# Assumption validator
# =============================================================================


def test_running_instance_passes():
    report = validate_assumptions(make_running_instance())
    assert report.passed
    assert not report.flags
    interior = [c for c in report.checks if c.name == "interior-optima"]
    assert interior and "diverging" in interior[0].detail


def test_equal_order_marginals_fail():
    # money curve of the same power order as the gain curve: the marginal
    # ratio does not vanish and the preferred tax is unbounded
    inst = BudgetInstance(
        m=1,
        n=3,
        external_budget=0.0,
        gain_curves=(GainCurve.power(1.0, 0.5),),
        money_curve=MoneyCurve.power(0.5),
        types=(AgentType((1.0,), 1.0),) * 3,
    )
    report = validate_assumptions(inst)
    assert any(c.name.startswith("marginal-outpaced") and not c.passed for c in report.checks)


def test_power_power_instance_flagged_divergent():
    inst = BudgetInstance(
        m=1,
        n=100,
        external_budget=0.0,
        gain_curves=(GainCurve.power(1.0, 0.3),),
        money_curve=MoneyCurve.power(0.5),
        types=(AgentType((1.0,), 1.0),) * 100,
    )
    report = validate_assumptions(inst)
    assert all(c.passed for c in report.checks if c.name.startswith("marginal-outpaced"))
    assert all(c.passed for c in report.checks if c.name.startswith("positive-spending"))
    assert any("tax-divergent" in f for f in report.flags)


def test_positive_spending_is_one_entry_naming_the_failing_agents():
    # an agent weighting only the finite-marginal log1p good cannot beat
    # the diverging money slope at the lowest tax; one entry names them all
    types = (
        AgentType((0.5, 0.5), 1.0),
        AgentType((0.0, 1.0), 1.0),
        AgentType((0.5, 0.5), 1.0),
        AgentType((0.0, 1.0), 2.0),
    )
    inst = BudgetInstance(
        m=2,
        n=4,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log1p(0.4)),
        money_curve=MoneyCurve.power(0.5),
        types=types,
    )
    entries = [c for c in validate_assumptions(inst).checks if "positive-spending" in c.name]
    assert [(c.name, c.passed, c.witness) for c in entries] == [
        ("positive-spending", False, "agents 1, 3")
    ]
    passing = dataclasses.replace(inst, types=(types[0], types[2]) * 2)
    entries = [c for c in validate_assumptions(passing).checks if "positive-spending" in c.name]
    assert [(c.name, c.passed, c.witness) for c in entries] == [("positive-spending", True, None)]


def test_finite_marginal_catalog_fails_interior_optima():
    # log1p has a finite marginal at zero while the money slope diverges
    # there, so neither interior-optima condition can hold
    inst = BudgetInstance(
        m=2,
        n=2,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log1p(0.4)),
        money_curve=MoneyCurve.power(0.5),
        types=(AgentType((0.5, 0.5), 1.0),) * 2,
    )
    report = validate_assumptions(inst)
    interior = [c for c in report.checks if c.name == "interior-optima"]
    assert interior and not interior[0].passed


def test_report_serialises():
    report = validate_assumptions(make_running_instance())
    doc = report.as_dict()
    assert doc["passed"] is True
    assert all(isinstance(c["passed"], bool) for c in doc["checks"])
