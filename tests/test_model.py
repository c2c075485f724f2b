"""Data-model evaluation: valuations, feature vectors, means, welfare."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    RUNNING_PROFILE,
    make_running_instance,
    random_instance,
    random_profile,
)
from usvcg import (
    AgentType,
    BudgetDecision,
    BudgetInstance,
    CharacteristicTriplet,
    DomainError,
    EmptyProfile,
    GainCurve,
    MoneyCurve,
    excluded_means,
    feature_vector,
    mean_excluding,
    mean_type,
    social_welfare,
    valuation,
)


# =============================================================================
# Construction and invariants
# =============================================================================


def test_type_validation():
    with pytest.raises(DomainError):
        AgentType((0.5, 0.6), 1.0)  # does not sum to 1
    with pytest.raises(DomainError):
        AgentType((1.2, -0.2), 1.0)
    with pytest.raises(DomainError):
        AgentType((0.5, 0.5), 0.0)
    snapped = AgentType.normalized((0.5, -1e-10, 0.6), 2.0)
    assert min(snapped.alloc_weights) == 0.0
    assert math.fsum(snapped.alloc_weights) == pytest.approx(1.0, abs=1e-12)


def test_decision_validation():
    with pytest.raises(DomainError):
        BudgetDecision((0.5, 0.6), 10.0)
    with pytest.raises(DomainError):
        BudgetDecision((1.5, -0.5), 10.0)
    d = BudgetDecision((0.25, 0.75), 3.0)
    assert d.allocation_array().tolist() == [0.25, 0.75]


def test_instance_validation():
    with pytest.raises(DomainError):
        make_running_instance(convention="bogus")
    with pytest.raises(DomainError):
        BudgetInstance(
            m=2,
            n=3,
            external_budget=0.0,
            gain_curves=(GainCurve.log(10.0),),
            money_curve=MoneyCurve.power(0.5),
        )
    with pytest.raises(DomainError):
        dataclasses.replace(make_running_instance(), tax_weights=(2.0, 2.0, 2.0))


def test_convention_defaults():
    nominal = dataclasses.replace(make_running_instance(), mrs_convention=None)
    assert nominal.mrs_convention == "n_scaled"
    pc = dataclasses.replace(
        make_running_instance(semantics="per_capita"), mrs_convention=None
    )
    assert pc.mrs_convention == "n_free"


def test_triplet_validation():
    mean = AgentType((0.4, 0.6), 31.0 / 30.0)
    sigma = CharacteristicTriplet(0.0, 2.0, mean)
    assert sigma.admits(RUNNING_PROFILE)
    with pytest.raises(DomainError):
        CharacteristicTriplet(0.0, 0.9, mean)
    with pytest.raises(DomainError):
        CharacteristicTriplet(0.0, 1.01, mean)  # mean money weight outside band


# =============================================================================
# Valuation
# =============================================================================


def test_paper_decision_dominates_perturbations():
    # with the rounded mean the chosen decision sits at tax 377
    inst = make_running_instance()
    agent = AgentType((0.4, 0.6), 1.03)
    base = valuation(agent, BudgetDecision((0.4, 0.6), 377.0), inst)
    for dx in (-0.05, 0.05):
        moved = BudgetDecision((0.4 + dx, 0.6 - dx), 377.0)
        assert valuation(agent, moved, inst) < base
    for factor in (0.9, 1.1):
        moved = BudgetDecision((0.4, 0.6), 377.0 * factor)
        assert valuation(agent, moved, inst) < base


def test_zero_weight_convention():
    inst = make_running_instance()
    agent = AgentType((0.0, 1.0), 1.3)
    d = BudgetDecision((0.0, 1.0), 26.3)
    v = valuation(agent, d, inst)
    assert v == pytest.approx(10 * math.log(78.9) - 1.3 * math.sqrt(26.3), rel=1e-9)
    # a positive weight on a zero-spend log good is a domain violation
    with pytest.raises(DomainError):
        valuation(AgentType((0.5, 0.5), 1.0), d, inst)


def test_tax_floor_enforced():
    inst = make_running_instance()
    with pytest.raises(DomainError):
        valuation(RUNNING_PROFILE[0], BudgetDecision((0.5, 0.5), -1.0), inst)


def test_known_optimum_of_first_voter():
    # log/sqrt family: the voter's own optimum is ((weights), (20/money)^2)
    inst = make_running_instance()
    agent = RUNNING_PROFILE[0]
    best = BudgetDecision((0.7, 0.3), (20.0 / 0.8) ** 2)
    v_best = valuation(agent, best, inst)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x1 = rng.uniform(0.01, 0.99)
        t = rng.uniform(1.0, 2000.0)
        assert valuation(agent, BudgetDecision((x1, 1.0 - x1), t), inst) <= v_best + 1e-9


# =============================================================================
# Feature vector
# =============================================================================


@given(
    w1=st.floats(min_value=0.01, max_value=0.99),
    money=st.floats(min_value=0.2, max_value=5.0),
    x1=st.floats(min_value=0.05, max_value=0.95),
    tax=st.floats(min_value=1.0, max_value=500.0),
)
@settings(max_examples=100, deadline=None)
def test_dot_product_identity(w1, money, x1, tax):
    inst = make_running_instance()
    agent = AgentType((w1, 1.0 - w1), money)
    decision = BudgetDecision((x1, 1.0 - x1), tax)
    V = feature_vector(decision, inst)
    assert float(np.dot(agent.as_vector(), V)) == pytest.approx(
        valuation(agent, decision, inst), abs=1e-12 * 100
    )


def test_feature_vector_shape_and_money_coordinate():
    inst = make_running_instance(semantics="per_capita")
    d = BudgetDecision((0.5, 0.5), 49.0)
    V = feature_vector(d, inst)
    assert V.shape == (3,)
    assert V[-1] == pytest.approx(-7.0)
    assert V[0] == pytest.approx(V[1])  # identical curves, symmetric split


# =============================================================================
# Means
# =============================================================================


def test_paper_mean():
    mean = mean_type(RUNNING_PROFILE)
    assert mean.alloc_weights == pytest.approx((0.4, 0.6), abs=1e-12)
    assert mean.money_weight == pytest.approx(31.0 / 30.0, abs=1e-12)


def test_mean_of_identical_types():
    t = AgentType((0.3, 0.7), 1.5)
    assert mean_type((t, t, t, t)) == t


def test_mean_excluding_example():
    excl = mean_excluding(RUNNING_PROFILE, 0)
    assert excl.alloc_weights == pytest.approx((0.25, 0.75), abs=1e-12)
    assert excl.money_weight == pytest.approx(1.15, abs=1e-12)


def test_mean_recombination_identity():
    rng = np.random.default_rng(7)
    profile = random_profile(rng, 6, 3)
    mean = mean_type(profile)
    for i in range(6):
        excl = mean_excluding(profile, i)
        rebuilt = [
            (5.0 / 6.0) * e + (1.0 / 6.0) * a
            for e, a in zip(excl.as_vector(), profile[i].as_vector())
        ]
        assert np.allclose(rebuilt, mean.as_vector(), atol=1e-12)


def test_mean_errors():
    with pytest.raises(EmptyProfile):
        mean_type(())
    with pytest.raises(EmptyProfile):
        mean_excluding((RUNNING_PROFILE[0],), 0)
    with pytest.raises(EmptyProfile):
        excluded_means((RUNNING_PROFILE[0],))
    for i in (-1, 3):
        with pytest.raises(DomainError):
            mean_excluding(RUNNING_PROFILE, i)


def _bits(agent: AgentType) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in agent.as_vector())


def _slice_mean(profile, i: int) -> AgentType:
    """The O(n^2) reference: average the n-1 remaining types afresh."""
    return mean_type(profile[:i] + profile[i + 1 :])


def _excluded_means_cases():
    rng = np.random.default_rng(2024)
    for n, m in ((2, 1), (3, 2), (17, 3), (64, 4), (301, 2)):
        yield random_profile(rng, n, m, mu=50.0)
    # one agent holds nearly all of good 0 while the others hold weights
    # far below its ulp: a total-minus-own difference cancels completely
    tiny = tuple(AgentType((1e-18 * k, 1.0), 1.0 + k) for k in range(1, 6))
    yield (AgentType((0.3, 0.7), 2.0),) + tiny


@pytest.mark.parametrize("profile", list(_excluded_means_cases()))
def test_excluded_means_bit_identical_to_slice_average(profile):
    batch = excluded_means(profile)
    assert len(batch) == len(profile)
    for i, excl in enumerate(batch):
        assert _bits(excl) == _bits(_slice_mean(profile, i))
        assert _bits(excl) == _bits(mean_excluding(profile, i))
    picked = (len(profile) - 1, 0)
    assert excluded_means(profile, picked) == (batch[-1], batch[0])


@pytest.mark.parametrize("profile", list(_excluded_means_cases()))
def test_excluded_means_permutation_invariant(profile):
    batch = excluded_means(profile)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(profile))
        permuted = excluded_means(tuple(profile[k] for k in order))
        for pos, k in enumerate(order):
            assert _bits(permuted[pos]) == _bits(batch[k])


def test_excluded_means_exact_support():
    # only agent 0 funds good 0: without it that weight is exactly zero
    alone = (AgentType((0.1, 0.9), 1.0), AgentType((0.0, 1.0), 1.3), AgentType((0.0, 1.0), 0.7))
    batch = excluded_means(alone)
    assert batch[0].alloc_weights == (0.0, 1.0)
    assert all(excl.alloc_weights[0] > 0.0 for excl in batch[1:])
    # the others' weights vanish next to agent 0's but are not zero
    tiny = (AgentType((0.3, 0.7), 1.0), AgentType((1e-18, 1.0), 1.0), AgentType((3e-18, 1.0), 1.0))
    assert excluded_means(tiny)[0].alloc_weights[0] == 2e-18


# =============================================================================
# Social welfare
# =============================================================================


def test_welfare_equals_sum_of_valuations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_instance(rng, m=2, n=4)
        d = BudgetDecision(tuple(rng.dirichlet(np.ones(2))), float(rng.uniform(1.0, 50.0)))
        try:
            total = math.fsum(valuation(a, d, inst) for a in inst.types)
        except DomainError:
            continue
        w = social_welfare(inst.types, d, inst)
        assert w == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert w == pytest.approx(
            inst.n * valuation(mean_type(inst.types), d, inst), rel=1e-9, abs=1e-9
        )


def test_single_agent_welfare():
    inst = dataclasses.replace(
        make_running_instance(), n=1, types=(RUNNING_PROFILE[2],), tax_weights=None
    )
    d = BudgetDecision((0.5, 0.5), 44.4)
    assert social_welfare(inst.types, d, inst) == pytest.approx(
        valuation(RUNNING_PROFILE[2], d, inst)
    )


def test_heterogeneous_welfare_matches_direct_sum():
    inst = dataclasses.replace(
        make_running_instance(),
        money_curve=MoneyCurve.kahneman_tversky(0.6, 0.7, 1.5),
        tax_weights=(2.0, 0.5, 0.5),
    )
    d = BudgetDecision((0.3, 0.7), 25.0)
    direct = math.fsum(
        valuation(a, d, inst, tax_weight=w)
        for a, w in zip(RUNNING_PROFILE, inst.tax_weights)
    )
    assert social_welfare(RUNNING_PROFILE, d, inst) == pytest.approx(direct, rel=1e-12)


def test_per_capita_scale_invariance():
    d = BudgetDecision((0.45, 0.55), 80.0)
    agent = AgentType((0.45, 0.55), 1.2)
    values = []
    for k in (1, 4, 25):
        inst = BudgetInstance(
            m=2,
            n=3 * k,
            external_budget=60.0 * k,
            gain_curves=(GainCurve.log(10.0), GainCurve.power(2.0, 0.4)),
            money_curve=MoneyCurve.power(0.5),
            semantics="per_capita",
        )
        values.append(valuation(agent, d, inst))
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    assert values[0] == pytest.approx(values[2], abs=1e-12)
