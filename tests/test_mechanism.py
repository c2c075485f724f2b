"""Mechanism runs: pivots, payments, accounting identity, variants."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import statistics
import warnings

import numpy as np
import pytest

from conftest import (
    BOUNDARY_CATALOGS,
    BOUNDARY_PROFILE,
    RUNNING_PROFILE,
    make_boundary_instance,
    make_kt_branch_instance,
    make_running_instance,
    make_water_fill_kt_instance,
    random_instance,
    random_profile,
    variants_catalog,
)
from usvcg import (
    AgentType,
    BiasSpec,
    BudgetInstance,
    ConstantTarget,
    DomainError,
    EquitableTarget,
    GainCurve,
    MoneyCurve,
    NonPositiveConfig,
    PivotUndefined,
    RangeError,
    RegularityWarning,
    clarke_pivot,
    coalition_probe,
    corresponding_type,
    excluded_means,
    mean_excluding,
    mean_type,
    mechanism,
    non_positive_payments,
    optimize,
    raw_vcg_payment,
    realized_utility,
    run_bus_vcg,
    run_us_vcg,
    run_us_vcg_hetero,
    sdsic_fuzz,
    sensitive_payment,
    social_welfare,
    solver,
    valuation,
)
from usvcg.mechanism import _decision_map_jacobian, identity_residuals, tangent_basis
from usvcg.solver import _TargetSides, bias_value, optimize_biased, optimize_hetero


def _per_capita_log_instance(n: int, profile) -> BudgetInstance:
    return BudgetInstance(
        m=2,
        n=n,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
        types=tuple(profile),
    )


# =============================================================================
# Pivots and raw payments
# =============================================================================


def test_homogeneous_pivot(running_instance):
    agent = AgentType((0.5, 0.5), 1.0)
    profile = (agent, agent, agent)
    h = clarke_pivot(profile, 0, running_instance)
    d = optimize(agent, running_instance)
    assert h == pytest.approx(2.0 * valuation(agent, d, running_instance), rel=1e-9)


def test_pivot_example_excluding_first(running_instance):
    h = clarke_pivot(RUNNING_PROFILE, 0, running_instance)
    excl = AgentType((0.25, 0.75), 1.15)
    d = optimize(excl, running_instance)
    assert h == pytest.approx(2.0 * valuation(excl, d, running_instance), rel=1e-9)


def test_pivot_needs_two_agents(running_instance):
    with pytest.raises(PivotUndefined):
        clarke_pivot((RUNNING_PROFILE[0],), 0, running_instance)
    with pytest.raises(PivotUndefined):
        raw_vcg_payment((RUNNING_PROFILE[0],), 0, running_instance)


def test_pivot_functions_refuse_designer_tax_weights(running_instance):
    # both would price agent i as if every agent paid t; run_us_vcg_hetero
    # gives agent 0 a raw pivot of about 0.998 here, not the plain 1.234
    inst = dataclasses.replace(running_instance, tax_weights=(1.5, 1.0, 0.5))
    for pivot in (clarke_pivot, raw_vcg_payment):
        with pytest.raises(DomainError, match="run_us_vcg_hetero"):
            pivot(RUNNING_PROFILE, 0, inst)


def test_homogeneous_raw_payment_is_zero(running_instance):
    agent = AgentType((0.5, 0.5), 1.0)
    assert raw_vcg_payment((agent,) * 3, 1, running_instance) == pytest.approx(0.0, abs=1e-9)


def test_running_profile_raw_payments_regression(running_instance):
    # frozen from two independent solver evaluations per agent
    expected = (1.234379, 1.986584, 0.110983)
    for i, value in enumerate(expected):
        assert raw_vcg_payment(RUNNING_PROFILE, i, running_instance) == pytest.approx(
            value, abs=1e-4
        )
        assert raw_vcg_payment(RUNNING_PROFILE, i, running_instance) >= -1e-9


def test_opposite_extremes_pay(running_instance):
    inst = dataclasses.replace(running_instance, n=2, types=None, tax_weights=None)
    profile = (AgentType((0.9, 0.1), 0.5), AgentType((0.1, 0.9), 2.5))
    for i in (0, 1):
        assert raw_vcg_payment(profile, i, inst) > 1e-3


def test_raw_payments_nonnegative_on_random_instances():
    rng = np.random.default_rng(43)
    for _ in range(10):
        inst = random_instance(rng, m=2, n=4)
        out = run_us_vcg(inst.types, inst)
        assert min(out.raw_vcg) >= -1e-9


# =============================================================================
# Sensitive payments
# =============================================================================


def test_sensitive_payment_examples():
    sqrt = MoneyCurve.power(0.5)
    assert sensitive_payment(0.0, 377.0, 1.3, sqrt) == 0.0
    expected = -377.0 + (math.sqrt(377.0) + 0.1) ** 2
    assert sensitive_payment(0.13, 377.0, 1.3, sqrt) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(3.894, abs=1e-3)


def test_sensitive_payment_monotonicity():
    sqrt = MoneyCurve.power(0.5)
    pays = [sensitive_payment(p, 100.0, 1.0, sqrt) for p in (0.1, 0.5, 1.0, 5.0)]
    assert all(b > a for a, b in zip(pays, pays[1:]))
    fades = [sensitive_payment(1.0, 100.0, w, sqrt) for w in (0.5, 1.0, 4.0, 100.0)]
    assert all(b < a for a, b in zip(fades, fades[1:]))
    assert fades[-1] > 0.0  # positive pivot keeps a positive charge


# =============================================================================
# Full runs and the accounting identity
# =============================================================================


def test_run_us_vcg_running_profile(running_instance):
    out = run_us_vcg(RUNNING_PROFILE, running_instance)
    assert np.allclose(out.decision.allocation, [0.4, 0.6], atol=1e-9)
    assert out.decision.tax == pytest.approx(374.61, abs=0.05)
    assert out.welfare == pytest.approx(
        social_welfare(RUNNING_PROFILE, out.decision, running_instance), rel=1e-12
    )
    residuals = identity_residuals(RUNNING_PROFILE, out, running_instance)
    assert max(abs(r) for r in residuals) <= 1e-8


def test_homogeneous_profile_pays_nothing(running_instance):
    profile = (AgentType((0.3, 0.7), 1.2),) * 3
    out = run_us_vcg(profile, running_instance)
    assert max(abs(p) for p in out.payments) <= 1e-7


def test_single_agent_run(running_instance):
    inst = dataclasses.replace(running_instance, n=1, types=None, tax_weights=None)
    out = run_us_vcg((RUNNING_PROFILE[2],), inst)
    assert out.payments == (0.0,)
    assert out.raw_vcg == (0.0,)


def test_identity_on_random_instances():
    rng = np.random.default_rng(47)
    for _ in range(10):
        inst = random_instance(rng, m=int(rng.integers(2, 4)), n=int(rng.integers(3, 6)))
        out = run_us_vcg(inst.types, inst)
        residuals = identity_residuals(inst.types, out, inst)
        assert max(abs(r) for r in residuals) <= 1e-8


def _excluded_slice_mean(profile, i):
    return mean_type(profile[:i] + profile[i + 1 :])


def _mixed_instance(profile, money, tax_weights=None) -> BudgetInstance:
    return BudgetInstance(
        m=3,
        n=len(profile),
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.power(5.0, 0.2), GainCurve.log1p(4.0)),
        money_curve=money,
        semantics="per_capita",
        tax_weights=tax_weights,
        types=tuple(profile),
    )


def _bus_reference(profile, bias, inst):
    # the biased pivot loop written out: bias differences shift only the
    # payment argument, never the raw pivot
    n = len(profile)
    decision = optimize_biased(mean_type(profile), bias, inst)
    c_at_decision = bias_value(bias, decision, inst)
    raw, payments = [], []
    for i, agent in enumerate(profile):
        excl = _excluded_slice_mean(profile, i)
        best = optimize_biased(excl, bias, inst)
        p = (n - 1) * (valuation(excl, best, inst) - valuation(excl, decision, inst))
        raw.append(p)
        arg = p + n * (bias_value(bias, best, inst) - c_at_decision)
        payments.append(sensitive_payment(arg, decision.tax, agent.money_weight, inst.money_curve))
    return decision, tuple(raw), tuple(payments)


def _hetero_others(profile, inst, i, decision):
    # the others' welfare agent by agent: fsum of their own weighted valuations
    weights = inst.tax_weights
    return math.fsum(
        valuation(a, decision, inst, tax_weight=weights[k])
        for k, a in enumerate(profile)
        if k != i
    )


def _hetero_reference(profile, inst):
    # the heterogeneous pivot loop written out: the others' welfare summed
    # agent by agent, inverted on top of each agent's weighted tax
    decision = optimize_hetero(profile, inst)
    weights, money = inst.tax_weights, inst.money_curve
    raw, payments = [], []
    for i, agent in enumerate(profile):
        best = optimize_hetero(profile, inst, exclude=i)
        p = _hetero_others(profile, inst, i, best) - _hetero_others(profile, inst, i, decision)
        raw.append(p)
        own_tax = weights[i] * decision.tax
        payments.append(-own_tax + money.inverse(money.value(own_tax) + p / agent.money_weight))
    return decision, tuple(raw), tuple(payments)


# The engine takes the others' welfare from the profile's totals and the
# reference agent by agent, so their pivots round differently; each loses
# about n^2 eps relative to the pivot.  Against a 50-digit reference at the
# same decisions, the worst raw-pivot error on the n = 40 profile below
# (rng 305) is 5.2e-11 for the engine and 6.8e-11 for the reference, so the
# two can differ by 1.2e-10 relative; 1e-9 leaves 8x to spare.  A payment
# carries its pivot's relative error (there 1.6e-11 apart in pivots and
# 1.7e-11 in payments).
_HETERO_RTOL = 1e-9

# The run takes a US-VCG or biased raw pivot good by good, a reference as
# the difference of two valuations of the excluded mean, which cancels: it
# rounds at about (n-1) eps |v|, up to 1.3e-8 relative on the smallest pivot
# of the n = 300 profile below (2.0e-4; the median is 6.4e-11), so 1e-7
# leaves 8x to spare.  A payment carries its pivot's relative error.
_VALUATION_DIFFERENCE_RTOL = 1e-7


def _assert_matches_hetero_reference(out, profile, inst):
    decision, raw, payments = _hetero_reference(profile, inst)
    assert out.decision == decision
    # the welfare from the profile's totals, the reference summed per agent
    assert out.welfare == pytest.approx(social_welfare(profile, decision, inst), rel=1e-12)
    np.testing.assert_allclose(out.raw_vcg, raw, rtol=_HETERO_RTOL, atol=0.0)
    np.testing.assert_allclose(out.payments, payments, rtol=_HETERO_RTOL, atol=0.0)


def test_pivot_loop_matches_slice_mean_reference():
    # reference: the O(n^2) loop that re-averaged the other n-1 types afresh
    # for every agent, written out inline with a fresh valuation per term;
    # the run reads the decision's levels once, summed in the same order,
    # so the decision, the welfare and every residual have the reference's
    # bits.  The run takes each raw pivot good by good and the reference as
    # a difference of two valuations, so those agree within
    # _VALUATION_DIFFERENCE_RTOL, and so do the payments
    n = 300
    profile = random_profile(np.random.default_rng(300), n, 2)
    inst = _per_capita_log_instance(n, profile)
    out = run_us_vcg(profile, inst)
    decision = optimize(mean_type(profile), inst)
    total = social_welfare(profile, decision, inst)
    raw, payments, residuals = [], [], []
    for i, agent in enumerate(profile):
        excl = _excluded_slice_mean(profile, i)
        v_own = valuation(excl, optimize(excl, inst), inst)
        p = (n - 1) * (v_own - valuation(excl, decision, inst))
        raw.append(p)
        payments.append(sensitive_payment(p, decision.tax, agent.money_weight, inst.money_curve))
        residuals.append(realized_utility(profile, i, out, inst) - (total - (n - 1) * v_own))
    assert out.decision == decision
    np.testing.assert_allclose(out.raw_vcg, raw, rtol=_VALUATION_DIFFERENCE_RTOL, atol=0.0)
    np.testing.assert_allclose(out.payments, payments, rtol=_VALUATION_DIFFERENCE_RTOL, atol=0.0)
    assert out.welfare == total
    assert identity_residuals(profile, out, inst) == residuals

    # the variants on a water-filling log/power/log1p catalog: the decision
    # bit for bit, the pivots and payments as above
    mixed = random_profile(np.random.default_rng(301), 6, 3)
    inst = _mixed_instance(mixed, MoneyCurve.power(0.5))
    for target in (ConstantTarget((0.3, 0.3, 0.4)), EquitableTarget()):
        bias = BiasSpec(lam=0.5, target=target)
        out = run_bus_vcg(mixed, bias, inst)
        decision, raw, payments = _bus_reference(mixed, bias, inst)
        assert out.decision == decision
        np.testing.assert_allclose(out.raw_vcg, raw, rtol=_VALUATION_DIFFERENCE_RTOL, atol=0.0)
        np.testing.assert_allclose(out.payments, payments, rtol=_VALUATION_DIFFERENCE_RTOL, atol=0.0)
    kt = MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5)
    inst = _mixed_instance(mixed, kt, tax_weights=(1.6, 0.6, 1.2, 0.9, 0.7, 1.0))
    out = run_us_vcg_hetero(mixed, inst)
    _assert_matches_hetero_reference(out, mixed, inst)


def test_identity_when_one_agent_funds_a_log_good(running_instance):
    # without agent 0 nobody weights good 0: its excluded weight must be
    # exactly zero, or the others' optimum would need log(0) spend
    profile = (AgentType((0.1, 0.9), 1.0), AgentType((0.0, 1.0), 1.3), AgentType((0.0, 1.0), 0.7))
    assert excluded_means(profile)[0].alloc_weights[0] == 0.0
    out = run_us_vcg(profile, running_instance)
    assert all(math.isfinite(p) for p in out.payments)
    residuals = identity_residuals(profile, out, running_instance)
    assert max(abs(r) for r in residuals) <= 1e-8


def test_realized_utility_refuses_agent_indices_out_of_range(running_instance):
    # -1 would index the last agent and 3 the end of the profile
    out = run_us_vcg(RUNNING_PROFILE, running_instance)
    for i in (-1, 3):
        with pytest.raises(DomainError, match=f"agent index {i} out of range for n=3"):
            realized_utility(RUNNING_PROFILE, i, out, running_instance)


def test_realized_utility_without_payment_is_valuation(running_instance):
    out = run_us_vcg(RUNNING_PROFILE, running_instance)
    zeroed = dataclasses.replace(out, payments=(0.0, 0.0, 0.0))
    for i, agent in enumerate(RUNNING_PROFILE):
        assert realized_utility(RUNNING_PROFILE, i, zeroed, running_instance) == pytest.approx(
            valuation(agent, out.decision, running_instance), rel=1e-12
        )


# =============================================================================
# Non-positive payments
# =============================================================================


def test_pure_rebate_for_homogeneous_profile():
    profile = (AgentType((0.4, 0.6), 1.0),) * 4
    inst = _per_capita_log_instance(4, profile)
    payments = non_positive_payments(profile, inst, NonPositiveConfig(gamma=1.0))
    assert all(p < 0.0 for p in payments)


def test_jacobian_matches_closed_form():
    # per-capita log/sqrt with n_free: x = weights, t = (20/w_money)^2, so
    # V(g(a)) = (10 ln(w_j t), ..., -20/w_money) has an explicit Jacobian
    profile = random_profile(np.random.default_rng(3), 6, 2)
    inst = _per_capita_log_instance(6, profile)
    base = mean_excluding(profile, 0)
    J = _decision_map_jacobian(base, inst, 1e-5)
    a = 10.0
    w = np.array(base.alloc_weights)
    wm = base.money_weight
    basis = tangent_basis(2)
    expected = np.zeros((3, 2))
    for k, direction in enumerate(basis):
        expected[0, k] = a * direction[0] / w[0]
        expected[1, k] = a * direction[1] / w[1]
        expected[2, k] = 0.0
    expected[0, 1] = expected[1, 1] = a * (-2.0 / wm)
    expected[2, 1] = 2.0 * a / wm**2
    assert np.max(np.abs(J - expected)) <= 1e-4


def test_nonpositive_rebate_the_money_curve_cannot_carry_names_its_agent():
    # on the one-sided power money curve the profile's spread (1.594) asks
    # for a rebate of 19.8 at gamma 1.6, which no payment can carry: the
    # error names the agent, its raw pivot and the rebate
    profile = random_profile(np.random.default_rng(8), 5, 2)
    inst = _per_capita_log_instance(5, profile)
    with pytest.raises(RangeError, match=r"agent 0: raw pivot 0\.58\d* minus rebate 19\.8\d*"):
        non_positive_payments(profile, inst, NonPositiveConfig(gamma=1.6))


def test_nonpositive_needs_per_capita(running_instance):
    with pytest.raises(DomainError):
        non_positive_payments(RUNNING_PROFILE, running_instance, NonPositiveConfig(gamma=1.0))


def test_regularity_warning_at_branch_switch(kt_branch_switch):
    # at the switch the global optimum jumps between the cash-back and the
    # funding branch, so the decision map of the others' mean is genuinely
    # not differentiable there and step halving disagrees
    at = AgentType((0.5, 0.5), kt_branch_switch)
    profile = (AgentType((0.5, 0.5), 0.9),) + (at,) * 3
    inst = make_kt_branch_instance(profile)
    with pytest.warns(RegularityWarning) as caught:
        non_positive_payments(profile, inst, NonPositiveConfig(gamma=1.0))
    assert {w.filename for w in caught} == {__file__}  # it points at the caller


def test_no_regularity_warning_off_branch_switch(kt_branch_switch):
    # 1e-4 above the switch every perturbed solve stays on one branch
    above = AgentType((0.5, 0.5), kt_branch_switch + 1e-4)
    profile = (AgentType((0.5, 0.5), 0.9),) + (above,) * 3
    inst = make_kt_branch_instance(profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegularityWarning)
        non_positive_payments(profile, inst, NonPositiveConfig(gamma=1.0))


def _no_jacobian(*args):
    raise AssertionError("a Jacobian was differenced")


@pytest.mark.parametrize("n", [6, 12])
def test_nonpositive_on_a_water_fill_catalog(n):
    # the only path where the inner stage's tolerance reaches the Jacobian;
    # gamma is the profile's own largest type-to-excluded-mean distance
    inst = make_water_fill_kt_instance(n)
    profile = inst.types
    gamma = max(
        math.dist((*t.alloc_weights, t.money_weight), (*e.alloc_weights, e.money_weight))
        for t, e in zip(profile, excluded_means(profile))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegularityWarning)
        payments = non_positive_payments(profile, inst, NonPositiveConfig(gamma=gamma))
    assert max(payments) <= 0.0


@pytest.mark.parametrize("gains, money", BOUNDARY_CATALOGS)
def test_nonpositive_refuses_a_boundary_excluded_mean(monkeypatch, gains, money):
    monkeypatch.setattr(mechanism, "_decision_map_jacobian", _no_jacobian)
    inst = make_boundary_instance(gains, money)
    with pytest.raises(DomainError, match="agent 0: every other agent weights good 0 at 0"):
        non_positive_payments(BOUNDARY_PROFILE, inst, NonPositiveConfig(gamma=0.1))


def test_nonpositive_refuses_a_gamma_below_the_profile_spread(monkeypatch):
    # gamma over the allocation weights alone (0.6126) leaves out the money
    # weight, and the profile's own spread is 1.797: the rebate would not
    # cover the pivots (the largest payment came out +0.221)
    monkeypatch.setattr(mechanism, "_decision_map_jacobian", _no_jacobian)
    inst = make_water_fill_kt_instance(6)
    profile = inst.types
    gamma = max(
        math.dist(t.alloc_weights, e.alloc_weights)
        for t, e in zip(profile, excluded_means(profile))
    )
    assert gamma == pytest.approx(0.6126, abs=1e-4)
    refusal = r"agent \d+: distance 1\.79\d* to the others' mean exceeds gamma 0\.6126"
    with pytest.raises(DomainError, match=refusal):
        non_positive_payments(profile, inst, NonPositiveConfig(gamma=gamma))


def test_nonpositive_rebate_takes_the_exact_spectral_norm(monkeypatch):
    # both Jacobians have spectral norm 1.1, but the first one's top right
    # singular vector (1, -1)/sqrt(2) is orthogonal to the vector of ones a
    # power iteration would start from, which would find 1.0 instead
    root = math.sqrt(0.5)
    hidden = np.array([[1.1 * root, -1.1 * root], [root, root], [0.0, 0.0]])
    plain = np.array([[1.1, 0.0], [0.0, 1.0], [0.0, 0.0]])
    profile = (AgentType((0.4, 0.6), 1.0),) * 4
    inst = _per_capita_log_instance(4, profile)
    npc = NonPositiveConfig(gamma=1.0)
    payments = []
    for J in (hidden, plain):
        monkeypatch.setattr(mechanism, "_decision_map_jacobian", lambda *args, J=J: J)
        payments.append(non_positive_payments(profile, inst, npc))
    np.testing.assert_allclose(payments[0], payments[1], rtol=1e-12, atol=0.0)


def _nonpositive_and_warnings(profile, inst, npc):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RegularityWarning)
        payments = non_positive_payments(profile, inst, npc)
    return payments, [str(w.message) for w in caught]


def test_nonpositive_jacobian_solves_are_certified_bit_for_bit(monkeypatch, kt_branch_switch):
    # the Jacobian's perturbed solves are certified against the decision's
    # slope record and return their cold searches' bits: the payments and
    # the warnings are those of uncertified solves, at a branch switch too
    water = make_water_fill_kt_instance(6)
    gamma = max(
        math.dist((*t.alloc_weights, t.money_weight), (*e.alloc_weights, e.money_weight))
        for t, e in zip(water.types, excluded_means(water.types))
    )
    switch = (AgentType((0.5, 0.5), 0.9),) + (AgentType((0.5, 0.5), kt_branch_switch),) * 3
    cases = [
        (water.types, water, NonPositiveConfig(gamma=gamma)),
        (switch, make_kt_branch_instance(switch), NonPositiveConfig(gamma=1.0)),
    ]
    solves, searches = [], []  # every solve; for each run against a record, whether it certifies it
    solve, samples = solver._solve, solver._SlopeRecord.samples

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    def keeping(record, other, probe):
        kept = samples(record, other, probe)
        searches.append(kept is not None)
        return kept

    monkeypatch.setattr(solver, "_solve", counted)
    monkeypatch.setattr(solver._SlopeRecord, "samples", keeping)
    certified = [_nonpositive_and_warnings(*case) for case in cases]
    assert sum(searches) > len(solves) // 2
    assert certified[1][1]  # the switch warns
    monkeypatch.setattr(mechanism, "_Run", lambda *_: None)  # every solve without a run
    del searches[:]
    assert [_nonpositive_and_warnings(*case) for case in cases] == certified
    assert not searches


def test_no_warning_on_smooth_family():
    profile = random_profile(np.random.default_rng(6), 4, 2)
    inst = _per_capita_log_instance(4, profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegularityWarning)
        non_positive_payments(profile, inst, NonPositiveConfig(gamma=1.0))


@pytest.mark.parametrize("gamma, r", [(1e308, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_non_positive_config_refuses_a_rebate_that_is_not_finite(gamma, r):
    # the rebate is (gamma^2 / n)(||D|| + 1) + r / n: gamma = 1e308 used to
    # overflow in gamma**2 after every Jacobian solve, and a nan or infinite
    # gamma or r was accepted
    with pytest.raises(DomainError, match="finite"):
        NonPositiveConfig(gamma=gamma, r=r)


def test_band_cover_constructor():
    npc = NonPositiveConfig.for_band(2.0, r=1.0)
    assert npc.gamma == pytest.approx(6.0)
    assert npc.r == 1.0


# =============================================================================
# Biased mechanism
# =============================================================================


def test_bus_vcg_zero_bias_identical(running_instance):
    # a null bias runs the biased engine, whose solves are the plain kind's
    # and whose bias terms are 0.0: US-VCG's outcome, bit for bit, on the
    # running example and on a water-filling catalog under power and kt
    # money, with and without an external budget
    bias = BiasSpec(lam=0.0, target=EquitableTarget())
    assert run_bus_vcg(RUNNING_PROFILE, bias, running_instance) == run_us_vcg(
        RUNNING_PROFILE, running_instance
    )
    monies = (MoneyCurve.power(0.5), MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5))
    for seed, money, b0 in itertools.product(range(4), monies, (0.0, 3.0)):
        profile = random_profile(np.random.default_rng([seed, 554]), 7, 3)
        inst = dataclasses.replace(_mixed_instance(profile, money), external_budget=b0)
        plain = run_us_vcg(profile, inst)
        for target in (EquitableTarget(), ConstantTarget((0.3, 0.3, 0.4))):
            assert run_bus_vcg(profile, BiasSpec(lam=0.0, target=target), inst) == plain


def test_bus_vcg_equitable_shifts_allocation(running_instance):
    bias = BiasSpec(lam=1.0, target=EquitableTarget())
    out = run_bus_vcg(RUNNING_PROFILE, bias, running_instance)
    plain = run_us_vcg(RUNNING_PROFILE, running_instance)
    # strictly between the mean weights and the uniform target
    assert 0.4 < out.decision.allocation[0] < 0.5
    assert 0.5 < out.decision.allocation[1] < 0.6
    assert out.decision.tax == pytest.approx(plain.decision.tax, rel=1e-6)
    residuals = identity_residuals(RUNNING_PROFILE, out, running_instance, bias=bias)
    assert max(abs(r) for r in residuals) <= 1e-8


def test_phantom_type_for_log_curves(running_instance):
    ahat = corresponding_type((0.25, 0.75), 120.0, running_instance)
    assert np.allclose(ahat, [0.25, 0.75], atol=1e-12)


class _CountingTarget(EquitableTarget):
    """The equitable target, counting the taxes its target side is asked
    for (``side_at``, the one pass a target-side entry takes)."""

    def __init__(self):
        object.__setattr__(self, "asked", collections.Counter())

    def side_at(self, t, instance):
        self.asked[t] += 1
        return super().side_at(t, instance)


def test_bus_shares_one_target_side_per_tax():
    # one run's n+1 solves share a table keyed by the exact tax: the target
    # is computed once per distinct tax, and the outcome is the one the
    # plain equitable target gives; the decision's 45 taxes are shared
    # across solves, each pivot's proven samples and bracket ends among
    # them, and each pivot's root takes 3-4 more of its own, so 12 agents
    # ask for 93 distinct taxes
    mixed = random_profile(np.random.default_rng(303), 12, 3)
    inst = _mixed_instance(mixed, MoneyCurve.power(0.5))
    counting = _CountingTarget()
    out = run_bus_vcg(mixed, BiasSpec(lam=0.5, target=counting), inst)
    assert len(counting.asked) > 90
    assert set(counting.asked.values()) == {1}
    bias = BiasSpec(lam=0.5, target=EquitableTarget())
    assert out == run_bus_vcg(mixed, bias, inst)
    residuals = identity_residuals(mixed, out, inst, bias=bias)
    assert max(abs(r) for r in residuals) <= 1e-8


def test_bus_outcome_independent_of_solve_order():
    # the reversed profile solves the same agents in the opposite order
    # against the shared table: pivots and payments come back reversed, bit
    # for bit
    mixed = random_profile(np.random.default_rng(304), 7, 3)
    inst = _mixed_instance(mixed, MoneyCurve.power(0.5))
    bias = BiasSpec(lam=0.5, target=EquitableTarget())
    out = run_bus_vcg(mixed, bias, inst)
    rev = run_bus_vcg(mixed[::-1], bias, inst)
    assert rev.decision == out.decision
    assert rev.raw_vcg == out.raw_vcg[::-1]
    assert rev.payments == out.payments[::-1]


def _outcome_bits(out):
    return (
        [x.hex() for x in out.decision.allocation],
        out.decision.tax.hex(),
        [p.hex() for p in out.raw_vcg],
        [p.hex() for p in out.payments],
        out.welfare.hex(),
    )


def test_bus_outcome_independent_of_a_filled_table(monkeypatch):
    # a run against a table another run already filled (every tax a hit),
    # and the reversed profile's run against it, give the fresh run's
    # outcome bit for bit, the reversed one with pivots and payments
    # reversed: each entry is a pure function of its tax
    types, inst, _ = variants_catalog(30)
    bias = BiasSpec(lam=0.5, target=EquitableTarget())
    fresh = _outcome_bits(run_bus_vcg(types, bias, inst))
    shared = _TargetSides(bias, inst)
    monkeypatch.setattr(mechanism, "_TargetSides", lambda *_: shared)
    assert _outcome_bits(run_bus_vcg(types, bias, inst)) == fresh
    filled = len(shared._table)
    assert _outcome_bits(run_bus_vcg(types, bias, inst)) == fresh
    assert len(shared._table) == filled
    *decision, raw, payments, welfare = _outcome_bits(run_bus_vcg(types[::-1], bias, inst))
    assert (*decision, raw[::-1], payments[::-1], welfare) == fresh


@pytest.mark.parametrize("variant", ["us", "hetero"])
def test_outcome_independent_of_profile_order(variant):
    # the reversed profile, with its tax weights reversed alongside it,
    # gives the same decision and welfare and the pivots and payments
    # reversed, bit for bit: every total is an exact sum
    types, inst, weighted = variants_catalog(30)
    if variant == "hetero":
        flipped = dataclasses.replace(weighted, tax_weights=weighted.tax_weights[::-1])
        fresh = _outcome_bits(run_us_vcg_hetero(types, weighted))
        reversed_run = run_us_vcg_hetero(types[::-1], flipped)
    else:
        fresh = _outcome_bits(run_us_vcg(types, inst))
        reversed_run = run_us_vcg(types[::-1], inst)
    *decision, raw, payments, welfare = _outcome_bits(reversed_run)
    assert (*decision, raw[::-1], payments[::-1], welfare) == fresh


def test_target_side_table_must_match_its_solve():
    inst = make_running_instance()
    bias = BiasSpec(lam=0.5, target=EquitableTarget())
    run = solver._Run(inst, _TargetSides(bias, inst))
    mean = mean_type(RUNNING_PROFILE)
    assert optimize_biased(mean, bias, inst, run=run) == optimize_biased(mean, bias, inst)
    other = BiasSpec(lam=0.7, target=EquitableTarget())
    with pytest.raises(DomainError):
        optimize_biased(mean, other, inst, run=run)


def test_profile_totals_must_match_their_solve():
    # like the target-side table: a run's totals give every solve its own
    # bits, and totals of another profile or instance are refused
    inst = dataclasses.replace(make_running_instance(), tax_weights=(1.5, 1.0, 0.5))
    run = solver._Run(inst, solver._HeteroTotals(RUNNING_PROFILE, inst))
    for exclude in (None, 0, 2):
        shared = optimize_hetero(RUNNING_PROFILE, inst, exclude, run=run)
        assert shared == optimize_hetero(RUNNING_PROFILE, inst, exclude)
    with pytest.raises(DomainError):
        optimize_hetero(RUNNING_PROFILE[::-1], inst, run=run)
    with pytest.raises(DomainError):
        optimize_hetero(RUNNING_PROFILE, dataclasses.replace(inst), run=run)


def test_bus_identity_with_constant_target():
    rng = np.random.default_rng(53)
    inst = random_instance(rng, m=2, n=4)
    bias = BiasSpec(lam=0.7, target=ConstantTarget((0.35, 0.65)))
    out = run_bus_vcg(inst.types, bias, inst)
    residuals = identity_residuals(inst.types, out, inst, bias=bias)
    assert max(abs(r) for r in residuals) <= 1e-8


# =============================================================================
# Heterogeneous tax weights
# =============================================================================


def test_hetero_uniform_equals_plain(running_instance):
    out_h = run_us_vcg_hetero(RUNNING_PROFILE, running_instance)
    out_p = run_us_vcg(RUNNING_PROFILE, running_instance)
    assert out_h.decision.tax == pytest.approx(out_p.decision.tax, rel=1e-6)
    assert np.allclose(out_h.payments, out_p.payments, atol=1e-6)


def test_hetero_power_money_equals_absorbed(running_instance):
    weights = (2.0, 0.5, 0.5)
    inst = dataclasses.replace(running_instance, tax_weights=weights, types=None)
    out_h = run_us_vcg_hetero(RUNNING_PROFILE, inst)
    absorbed = tuple(
        AgentType(a.alloc_weights, a.money_weight * math.sqrt(w))
        for a, w in zip(RUNNING_PROFILE, weights)
    )
    out_a = run_us_vcg(absorbed, running_instance)
    assert out_h.decision.tax == pytest.approx(out_a.decision.tax, rel=1e-7)
    np.testing.assert_allclose(out_h.raw_vcg, out_a.raw_vcg, atol=1e-6)


def test_hetero_identity_with_kt_money(running_instance):
    inst = dataclasses.replace(
        running_instance,
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
        tax_weights=(1.5, 1.0, 0.5),
        types=None,
    )
    out = run_us_vcg_hetero(RUNNING_PROFILE, inst)
    residuals = identity_residuals(RUNNING_PROFILE, out, inst, hetero=True)
    assert max(abs(r) for r in residuals) <= 1e-8


def test_hetero_pivot_splits_the_money_term_at_the_kink():
    # without agent 0 the others take the cash-back branch (t < 0) while
    # the decision funds (t > 0); with q != r the two sides' money
    # coefficients differ, so the pivot prices f at each tax with its own
    profile = tuple(AgentType((0.5, 0.5), w) for w in (0.58, 0.6, 0.6, 0.62))
    inst = dataclasses.replace(
        make_kt_branch_instance(profile),
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.62, 1.0),
        tax_weights=(0.5, 1.0, 1.0, 1.5),
    )
    _, (below, above) = solver._HeteroTotals(profile, inst).without(0)
    assert below != above
    out = run_us_vcg_hetero(profile, inst)
    assert optimize_hetero(profile, inst, exclude=0).tax < 0.0 < out.decision.tax
    _assert_matches_hetero_reference(out, profile, inst)
    assert max(map(abs, identity_residuals(profile, out, inst, hetero=True))) <= 1e-8


def test_identity_residuals_refuses_a_bias_with_hetero():
    # the audit used to drop the bias and audit the heterogeneous run; the
    # CLI refuses --bias with --hetero, and so does the audit
    profile, _, weighted = variants_catalog(6)
    out = run_us_vcg_hetero(profile, weighted)
    for lam in (0.5, 0.0):
        bias = BiasSpec(lam=lam, target=EquitableTarget())
        with pytest.raises(DomainError, match="cannot be audited together"):
            identity_residuals(profile, out, weighted, bias=bias, hetero=True)


def test_plain_and_biased_runs_refuse_designer_tax_weights():
    # they charge every agent t, so on a weighted instance their decision
    # and payments would ignore the weights that realized_utility charges;
    # the fuzzers build US-VCG and refuse them as it does
    profile = random_profile(np.random.default_rng(301), 6, 3)
    weights = np.random.default_rng(302).uniform(0.5, 1.5, 6)
    weights *= 6 / weights.sum()
    inst = _mixed_instance(profile, MoneyCurve.power(0.5), tax_weights=tuple(weights))
    out = run_us_vcg_hetero(profile, inst)
    assert max(map(abs, identity_residuals(profile, out, inst, hetero=True))) <= 1e-8
    bias = BiasSpec(lam=0.5, target=EquitableTarget())
    refused = [
        lambda: run_us_vcg(profile, inst),
        lambda: run_bus_vcg(profile, bias, inst),
        lambda: identity_residuals(profile, out, inst),
        lambda: identity_residuals(profile, out, inst, bias=bias),
        lambda: non_positive_payments(profile, inst, NonPositiveConfig(gamma=10.0)),
        lambda: sdsic_fuzz(inst, 1, 0),
        lambda: coalition_probe(inst, 2, 1, 0),
    ]
    for call in refused:
        with pytest.raises(DomainError, match="run_us_vcg_hetero"):
            call()


def test_hetero_pivots_match_reference_at_larger_n():
    # the decision bit for bit; the pivots, taken from the profile's
    # totals, within _HETERO_RTOL of the per-agent sums
    profile = random_profile(np.random.default_rng(305), 40, 3)
    weights = np.random.default_rng(306).uniform(0.5, 1.5, 40)
    weights *= 40 / weights.sum()
    inst = _mixed_instance(profile, MoneyCurve.power(0.5), tax_weights=tuple(weights))
    out = run_us_vcg_hetero(profile, inst)
    _assert_matches_hetero_reference(out, profile, inst)


def _exact_pivots(inst, decision, bests, others, mpmath):
    # count * (welfare(best_i) - welfare(decision)) of each agent's others at
    # 50 digits, at the engine's own decisions; ``others(mpf)`` gives, per
    # agent, its others' exact weights, their power money curve's
    # coefficient and how many agents they stand for
    mp = mpmath.mpf
    curves, q = inst.gain_curves, mp(inst.money_curve.q)
    assert inst.money_curve.kind == "power" and inst.semantics == "per_capita"

    def theta(curve, spend):
        if curve.kind == "log":
            return curve.scale * mpmath.log(spend)
        if curve.kind == "power":
            return curve.scale * spend ** mp(curve.exponent)
        return curve.scale * mpmath.log1p(spend)

    def welfare(weights, coefficient, d):
        pool = mp(inst.external_budget) / inst.n + mp(d.tax)
        gains = [w * theta(c, mp(x) * pool) for w, x, c in zip(weights, d.allocation, curves) if w]
        return mpmath.fsum(gains) - coefficient * mp(d.tax) ** q

    with mpmath.workdps(50):
        return [
            float(count * (welfare(weights, c, best) - welfare(weights, c, decision)))
            for (weights, c, count), best in zip(others(mp), bests)
        ]


def _assert_as_accurate(pivots, reference, exact):
    # the engine's raw pivots are about as accurate as ``reference`` against
    # the 50-digit values, none falls to 0 or below
    def errors(values):
        return [abs(p - e) / e for p, e in zip(values, exact)]

    engine, reference = errors(pivots), errors(reference)
    assert statistics.median(engine) <= 4.0 * statistics.median(reference)
    assert max(engine) <= 4.0 * max(reference)
    assert min(pivots) > 0.0


@pytest.mark.parametrize("n", [40, 150])
def test_hetero_pivots_against_a_50_digit_reference(n):
    # the pivots from the profile's totals are about as accurate as the
    # per-agent sums (both lose about n^2 eps through the shared rounding of
    # theta_j and f), and the audit closes
    mpmath = pytest.importorskip("mpmath")
    profile, _, inst = variants_catalog(n)
    out = run_us_vcg_hetero(profile, inst)
    bests = [optimize_hetero(profile, inst, exclude=i) for i in range(n)]

    def others(mp):
        # exact weight totals and the exact coefficient sum_k w_k omega_k^q
        totals = [mpmath.fsum(mp(a.alloc_weights[j]) for a in profile) for j in range(inst.m)]
        q = mp(inst.money_curve.q)
        terms = [mp(a.money_weight) * mp(w) ** q for a, w in zip(profile, inst.tax_weights)]
        money = mpmath.fsum(terms)
        return [
            ([t - mp(w) for t, w in zip(totals, a.alloc_weights)], money - term, 1)
            for a, term in zip(profile, terms)
        ]

    exact = _exact_pivots(inst, out.decision, bests, others, mpmath)
    per_agent = [
        _hetero_others(profile, inst, i, best) - _hetero_others(profile, inst, i, out.decision)
        for i, best in enumerate(bests)
    ]
    _assert_as_accurate(out.raw_vcg, per_agent, exact)
    residuals = identity_residuals(profile, out, inst, hetero=True)
    assert max(abs(r) for r in residuals) <= 1e-8


@pytest.mark.parametrize("n", [40, 150])
def test_us_pivots_against_a_50_digit_reference(n):
    # US-VCG's pivots, taken good by good, are about as accurate as the
    # difference of two valuations of each excluded mean, written out here
    # (its cancellation loses about n^2 eps), and the audit closes
    mpmath = pytest.importorskip("mpmath")
    profile, inst, _ = variants_catalog(n)
    out = run_us_vcg(profile, inst)
    excl = excluded_means(profile)
    bests = [optimize(e, inst) for e in excl]

    def others(mp):
        # the engine's excluded means, n-1 strong
        return [([mp(w) for w in e.alloc_weights], mp(e.money_weight), n - 1) for e in excl]

    exact = _exact_pivots(inst, out.decision, bests, others, mpmath)
    differences = [
        (n - 1) * (valuation(e, best, inst) - valuation(e, out.decision, inst))
        for e, best in zip(excl, bests)
    ]
    _assert_as_accurate(out.raw_vcg, differences, exact)
    residuals = identity_residuals(profile, out, inst)
    assert max(abs(r) for r in residuals) <= 1e-8


def test_hetero_money_term_against_a_50_digit_reference():
    # on the variants_mixed catalog each hetero pivot's money term, its
    # coefficient times f(t_best) - f(t_d), is within a few ulps of its
    # 50-digit value at the same coefficient and taxes, which is under
    # 1e-12 of the pivot; the difference of the two rounded values of f,
    # which it replaces, was off by up to 7e-10 of the pivot, the most of
    # the worst pivot's error
    mpmath = pytest.importorskip("mpmath")
    profile, _, inst = variants_catalog(150)
    totals = solver._HeteroTotals(profile, inst)
    out = run_us_vcg_hetero(profile, inst)
    money, t_d = inst.money_curve, out.decision.tax
    errors, plain = [], []
    for i, pivot in enumerate(out.raw_vcg):
        (coefficient, _), t_best = totals.without(i)[1], optimize_hetero(profile, inst, i).tax
        with mpmath.workdps(50):
            q = mpmath.mpf(money.q)
            exact = coefficient * (mpmath.mpf(t_best) ** q - mpmath.mpf(t_d) ** q)
        term = coefficient * money.difference(t_best, t_d)
        assert abs(term - exact) <= 8 * 2.0**-52 * abs(exact)
        errors.append(float(abs(term - exact)) / pivot)
        plain.append(float(abs(coefficient * (money.value(t_best) - money.value(t_d)) - exact)) / pivot)
    assert max(errors) <= 1e-12
    assert max(plain) > 1e-10


def test_nonpositive_rebate_overflow_names_gamma_and_the_norm():
    # gamma = 1e154 has a finite square, so the config accepts it, but the
    # rebate (gamma^2/n)(||D|| + 1) overflows once the norm is known: the
    # error names gamma, the norm and the overflow, not the money curve
    inst = make_running_instance(semantics="per_capita")
    with pytest.raises(RangeError, match=r"agent 0: the rebate .* overflows at gamma 1e\+154 and \|\|D\|\| \d"):
        non_positive_payments(RUNNING_PROFILE, inst, NonPositiveConfig(gamma=1e154))


def test_hetero_gain_calls_per_agent_do_not_grow_with_n(monkeypatch):
    # a run and its audit price each agent from the profile's totals: the
    # gain-curve calls per agent stay flat from n = 20 to n = 80, where a
    # per-agent sum over the others would grow with n
    calls = []
    original = GainCurve.value

    def counted(self, spend):
        calls.append(1)
        return original(self, spend)

    monkeypatch.setattr(GainCurve, "value", counted)
    per_agent = []
    for n in (20, 80):
        profile, _, inst = variants_catalog(n)
        calls.clear()
        out = run_us_vcg_hetero(profile, inst)
        identity_residuals(profile, out, inst, hetero=True)
        per_agent.append(len(calls) / n)
    assert per_agent[1] <= 1.25 * per_agent[0]
