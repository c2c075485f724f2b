"""Empirical harness: fuzzing, convergence, divergence, continuity."""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np
import pytest

from conftest import RUNNING_PROFILE, diverging_lies, diverging_plain, make_running_instance
from usvcg import (
    AgentType,
    BudgetInstance,
    CharacteristicTriplet,
    DomainError,
    GainCurve,
    MoneyCurve,
    coalition_probe,
    continuity_probe,
    convergence_study,
    excluded_means,
    mean_type,
    optimize,
    realized_utility,
    run_us_vcg,
    sdsic_fuzz,
    sigma_population,
    tax_divergence_demo,
)
from usvcg.experiments import population_spread

SIGMA = CharacteristicTriplet(
    b0=0.0, mu=2.0, mean_type=AgentType((0.4, 0.6), 31.0 / 30.0)
)


def _per_capita_template() -> BudgetInstance:
    return BudgetInstance(
        m=2,
        n=2,
        external_budget=0.0,
        gain_curves=(GainCurve.log(10.0), GainCurve.log(10.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
    )


# =============================================================================
# Misreport fuzzing
# =============================================================================


def test_fuzz_is_deterministic(running_instance):
    a = sdsic_fuzz(running_instance, 60, seed=21, misreport_space="allocation")
    b = sdsic_fuzz(running_instance, 60, seed=21, misreport_space="allocation")
    assert a == b
    c = sdsic_fuzz(running_instance, 60, seed=22, misreport_space="allocation")
    assert a.gains != c.gains


def test_allocation_space_has_no_profitable_misreport(running_instance):
    report = sdsic_fuzz(running_instance, 400, seed=5, misreport_space="allocation")
    assert report.mode == "sdsic"
    assert report.passed
    assert report.max_gain <= 1e-9


def test_full_space_exposes_the_money_weight_channel(running_instance):
    # shading the reported money weight shrinks the payment's disutility by
    # a first-order p_i/w_money at the truth, so real gains must appear
    report = sdsic_fuzz(running_instance, 400, seed=5, misreport_space="full")
    assert not report.passed
    assert report.max_gain > 1e-3
    assert report.worst_case is not None


def test_truthful_report_gains_nothing(running_instance):
    # the fuzzer's truthful-report utility is the mechanism's realised utility
    from usvcg.experiments import _report_utility
    from usvcg.mechanism import _Plain

    profile = RUNNING_PROFILE
    outcome = run_us_vcg(profile, running_instance)
    truth = _Plain(profile, running_instance)
    for i, excl in enumerate(excluded_means(profile)):
        u = _report_utility(
            truth, i, profile[i], truth.others_optimum(None), excl, truth.others_optimum(excl)
        )
        assert u == realized_utility(profile, i, outcome, running_instance)


def test_dsic_mode_for_finite_marginal_catalog():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.log1p(0.4)),
        types=None,
    )
    report = sdsic_fuzz(inst, 50, seed=9, misreport_space="allocation")
    assert report.mode == "dsic"
    assert report.passed


def test_zero_trials_is_vacuous(running_instance):
    report = sdsic_fuzz(running_instance, 0, seed=1)
    assert report.max_gain == 0.0
    assert report.passed


# =============================================================================
# Coalitions
# =============================================================================


def test_full_coalition_steers_the_outcome(running_instance):
    beta = AgentType((0.2, 0.8), 0.6)
    out = run_us_vcg((beta, beta, beta), running_instance)
    d = optimize(beta, running_instance)
    assert np.allclose(out.decision.allocation, d.allocation, atol=1e-12)
    assert out.decision.tax == pytest.approx(d.tax, rel=1e-9)


def test_coalition_probe_allocation_space(running_instance):
    report = coalition_probe(
        running_instance, 2, 60, seed=31, misreport_space="allocation"
    )
    assert report.passed
    assert report.manipulations_found == report.unstable
    assert len(report.per_trial) == 60
    assert report.as_dict()["misreport_space"] == "allocation"


def test_fuzzers_count_diverging_trials_and_go_on(running_instance):
    # a band of mu = 1e12 draws money weights whose optimum lies past the
    # tax cap: such a trial raised TaxDivergence out of the whole fuzz; it
    # is counted, with a nan gain, and the other trials run
    report = sdsic_fuzz(running_instance, 50, seed=2, mu=1e12)
    assert report.diverged == 1 and report.as_dict()["diverged"] == 1
    assert report.misreports_diverged == 0
    assert [k for k, gain in enumerate(report.gains) if math.isnan(gain)] == [11]
    assert math.isfinite(report.max_gain)
    coalitions = coalition_probe(running_instance, 1, 20, seed=2, mu=1e12)
    assert coalitions.diverged == 1 and coalitions.as_dict()["diverged"] == 1
    assert coalitions.misreports_diverged == 0
    assert len(coalitions.per_trial) == 19


def test_a_diverging_misreport_keeps_what_its_trial_found(monkeypatch, running_instance):
    # a misreported profile whose solve diverges is skipped and counted in
    # misreports_diverged, not as a diverging drawn profile, and its trial
    # keeps what it has found.  In the coalition probe, each manipulation
    # found has its member's truth probed as a deviation, which puts back
    # the true profile: that second solve of the profile diverges, after
    # the manipulation was found, and every stable case is still reported
    plain = coalition_probe(running_instance, 1, 20, seed=1)
    assert plain.manipulations_found == len(plain.stable_cases) == 6
    seen = collections.Counter()

    def again(profile):
        seen[profile] += 1
        return seen[profile] > 1

    diverging_plain(monkeypatch, again)
    probed = coalition_probe(running_instance, 1, 20, seed=1)
    assert probed.stable_cases == plain.stable_cases
    assert probed.per_trial == plain.per_trial and probed.diverged == 0
    assert probed.misreports_diverged == probed.as_dict()["misreports_diverged"] == 6
    # in the unilateral fuzz every lie diverges: no gain is measured
    diverging_lies(monkeypatch)
    report = sdsic_fuzz(running_instance, 5, seed=1)
    assert report.diverged == 0 and report.misreports_diverged == 5
    assert all(math.isnan(gain) for gain in report.gains) and report.max_gain == 0.0


def test_coalition_size_must_be_partial(running_instance):
    with pytest.raises(DomainError):
        coalition_probe(running_instance, 3, 5, seed=1)


# =============================================================================
# Convergence studies
# =============================================================================


def test_population_preserves_mean_exactly():
    rng = np.random.default_rng(3)
    for n in (10, 33, 100):
        types = sigma_population(SIGMA, n, rng)
        assert len(types) == n
        mean = mean_type(types)
        assert np.max(np.abs(mean.as_vector() - SIGMA.mean_type.as_vector())) <= 1e-12
        assert SIGMA.admits(types)
        spread = max(
            float(np.linalg.norm(t.as_vector() - SIGMA.mean_type.as_vector()))
            for t in types
        )
        assert spread <= population_spread(SIGMA) + 1e-12


def test_population_passes_the_simplex_check_at_large_n():
    # a centred offset kept its rounding, which the scaling by the draw's
    # width carried past AgentType's simplex check at n = 1e5 (4 of the
    # generator seeds [s, 7], s = 1-8, raised DomainError, this one among
    # them); an offset whose last entry cancels the rest exactly does not
    types = sigma_population(SIGMA, 100_000, np.random.default_rng([1, 7]))
    assert len(types) == 100_000
    mean = mean_type(types)
    assert np.max(np.abs(mean.as_vector() - SIGMA.mean_type.as_vector())) <= 1e-12


def test_convergence_payments_decay():
    table = convergence_study(SIGMA, _per_capita_template(), [10, 40, 160], 11)
    assert table.decreasing
    assert table.plateau_factor < 3.0
    assert table.passed


def test_homogeneous_population_pays_nothing():
    table = convergence_study(
        SIGMA, _per_capita_template(), [10, 20], 11, spread_scale=0.0
    )
    assert all(r.max_abs_payment <= 1e-7 for r in table.rows)


def test_nonpositive_rule():
    table = convergence_study(
        SIGMA, _per_capita_template(), [10, 40], 11, payment_rule="non_positive"
    )
    assert table.all_nonpositive
    assert table.passed


def test_convergence_requires_per_capita(running_instance):
    with pytest.raises(DomainError):
        convergence_study(SIGMA, running_instance, [10, 20], 1)
    with pytest.raises(DomainError):
        convergence_study(SIGMA, _per_capita_template(), [20, 10], 1)


# =============================================================================
# Tax divergence demo
# =============================================================================


def test_divergence_demo_slopes():
    report = tax_divergence_demo(0.3, 0.5, [10, 100, 1000])
    # nominal taxes grow like n^(p/(q-p)); per-capita taxes do not move
    assert report.nominal_slope == pytest.approx(report.stationarity_exponent, abs=0.02)
    assert report.stationarity_exponent == pytest.approx(1.5, abs=1e-12)
    assert report.per_capita_spread <= 1e-7
    taxes = [r[1] for r in report.rows]
    assert all(b > a for a, b in zip(taxes, taxes[1:]))


def test_divergence_money_weight_scaling():
    # scaling the money weight by c scales the nominal optimum by c^(-1/(q-p))
    p, q, n = 0.3, 0.5, 50
    inst = BudgetInstance(
        m=1,
        n=n,
        external_budget=0.0,
        gain_curves=(GainCurve.power(1.0, p),),
        money_curve=MoneyCurve.power(q),
    )
    t1 = optimize(AgentType((1.0,), 1.0), inst).tax
    for c in (2.0, 5.0):
        tc = optimize(AgentType((1.0,), c), inst).tax
        assert tc / t1 == pytest.approx(c ** (-1.0 / (q - p)), rel=1e-6)


def test_divergence_demo_validates_exponents():
    with pytest.raises(DomainError):
        tax_divergence_demo(0.5, 0.3, [10, 100])


# =============================================================================
# Continuity probe
# =============================================================================


def test_continuity_log_family_ratio_matches_closed_form(running_instance):
    agent = AgentType((0.4, 0.6), 1.0)
    report = continuity_probe(agent, running_instance, [0.0, 1e-2, 1e-3, 1e-4])
    assert report.passed
    by_delta = {d: r for d, _, r in report.rows}
    assert by_delta[0.0] is None
    # money-axis dominates: |d ln t / d w| = 2/w = 2, scaled by t/max(1, t)
    for delta in (1e-3, 1e-4):
        assert by_delta[delta] == pytest.approx(2.0, abs=0.1)
    zero_rows = [disp for d, disp, _ in report.rows if d == 0.0]
    assert zero_rows == [0.0]


def test_continuity_mixed_catalog_stable():
    inst = dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.power(1.0, 0.45)),
        types=None,
    )
    report = continuity_probe(AgentType((0.55, 0.45), 1.1), inst, [1e-2, 1e-3, 1e-4])
    assert report.passed
    assert report.ratio_spread <= 2.0


def test_continuity_probe_skips_directions_that_lower_a_zero_weight():
    # good 0 weighted at exactly 0 has no room to fall: the directions that
    # lower it are skipped instead of probed at a negative weight, and the
    # rest are still probed
    inst = BudgetInstance(
        m=3,
        n=2,
        external_budget=0.0,
        gain_curves=(GainCurve.log1p(4.0), GainCurve.power(5.0, 0.3), GainCurve.log1p(4.0)),
        money_curve=MoneyCurve.power(0.5),
        semantics="per_capita",
    )
    report = continuity_probe(AgentType((0.0, 0.5, 0.5), 1.0), inst, [1e-2, 1e-3, 1e-4])
    assert all(disp > 0.0 and ratio > 0.0 for _, disp, ratio in report.rows)
    assert report.passed
