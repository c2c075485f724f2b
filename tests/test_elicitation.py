"""Ballot inversion, follow-up protocol, and solver/elicitation roundtrips."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    PRINTED_BALLOTS,
    RUNNING_PROFILE,
    make_running_instance,
    random_instance,
    random_profile,
)
from usvcg import (
    AgentType,
    Ballot,
    BudgetInstance,
    DomainError,
    GainCurve,
    IncompleteSession,
    InfeasibleBallot,
    NoPendingQuestion,
    answer_followup,
    complete_type,
    invert_ballot,
    optimize,
)


def _mixed_log1p_instance() -> BudgetInstance:
    return dataclasses.replace(
        make_running_instance(),
        gain_curves=(GainCurve.log(10.0), GainCurve.log1p(0.4)),
    )


# =============================================================================
# Printed ballots
# =============================================================================


def test_printed_ballots_recover_printed_types(running_instance_nfree):
    expected = RUNNING_PROFILE
    for (alloc, tax), truth in zip(PRINTED_BALLOTS, expected):
        session = invert_ballot(Ballot.from_raw(alloc, tax), running_instance_nfree)
        recovered = complete_type(session)
        assert np.allclose(recovered.alloc_weights, truth.alloc_weights, atol=1e-2)
        assert recovered.money_weight == pytest.approx(truth.money_weight, abs=1e-2)


def test_zero_spend_with_diverging_marginal_means_zero_weight(running_instance_nfree):
    session = invert_ballot(Ballot.from_raw((0.0, 1.0), 26.3), running_instance_nfree)
    assert not session.pending
    recovered = complete_type(session)
    assert recovered.alloc_weights[0] == 0.0
    assert recovered.money_weight == pytest.approx(1.3, abs=1e-2)


# =============================================================================
# Roundtrips
# =============================================================================


@pytest.mark.parametrize("convention", ["n_scaled", "n_free"])
@pytest.mark.parametrize("semantics", ["nominal", "per_capita"])
def test_roundtrip_log_family(convention, semantics):
    inst = make_running_instance(convention=convention, semantics=semantics)
    rng = np.random.default_rng(13)
    for _ in range(100):
        truth = AgentType(tuple(rng.dirichlet([1.0, 1.0])), float(rng.uniform(0.3, 3.0)))
        ballot = Ballot(optimize(truth, inst))
        recovered = complete_type(invert_ballot(ballot, inst))
        err = np.max(np.abs(recovered.as_vector() - truth.as_vector()))
        assert err <= 1e-6


def test_roundtrip_mixed_catalogs():
    rng = np.random.default_rng(19)
    for _ in range(15):
        inst = random_instance(rng, m=3, n=3)
        truth = random_profile(rng, 1, 3)[0]
        ballot = Ballot(optimize(truth, inst))
        recovered = complete_type(invert_ballot(ballot, inst))
        err = np.max(np.abs(recovered.as_vector() - truth.as_vector()))
        assert err <= 1e-6


def test_distinct_types_give_distinct_ballots():
    inst = make_running_instance()
    rng = np.random.default_rng(37)
    for _ in range(100):
        a = AgentType(tuple(rng.dirichlet([1.0, 1.0])), float(rng.uniform(0.3, 3.0)))
        b = AgentType(tuple(rng.dirichlet([1.0, 1.0])), float(rng.uniform(0.3, 3.0)))
        if np.max(np.abs(a.as_vector() - b.as_vector())) < 1e-6:
            continue
        da, db = optimize(a, inst), optimize(b, inst)
        gap = max(
            abs(da.tax - db.tax) / max(1.0, abs(da.tax)),
            float(np.max(np.abs(np.subtract(da.allocation, db.allocation)))),
        )
        assert gap > 1e-9


def test_no_followups_for_diverging_catalogs():
    rng = np.random.default_rng(41)
    for _ in range(50):
        inst = random_instance(rng, m=2, n=3)
        truth = random_profile(rng, 1, 2)[0]
        session = invert_ballot(Ballot(optimize(truth, inst)), inst)
        assert not session.pending


# =============================================================================
# Follow-up protocol
# =============================================================================


def test_zero_answer_means_zero_weight():
    inst = _mixed_log1p_instance()
    session = invert_ballot(Ballot.from_raw((1.0, 0.0), 396.0), inst)
    assert [f.good_index for f in session.pending] == [1]
    answer_followup(session, 1, 0.0)
    recovered = complete_type(session)
    assert recovered.alloc_weights[1] == 0.0


def test_probe_ratio_direct_substitution():
    # probe chi at theta(chi) = 1, answer tau with f(t+tau) - f(t) = 0.2
    inst = _mixed_log1p_instance()
    session = invert_ballot(Ballot.from_raw((1.0, 0.0), 100.0), inst)
    fu = session.pending[0]
    curve = inst.gain_curves[1]
    assert curve.value(fu.probe_spend) == pytest.approx(1.0, rel=1e-12)
    money = inst.money_curve
    tau = money.inverse(money.value(100.0) + 0.2) - 100.0
    answer_followup(session, 1, tau)
    assert session.resolved_ratios[1] == pytest.approx(0.2, rel=1e-9)


def test_truthful_corner_agent_roundtrip():
    inst = _mixed_log1p_instance()
    truth = AgentType((0.995, 0.005), 1.0)
    decision = optimize(truth, inst)
    assert decision.allocation[1] == 0.0
    session = invert_ballot(Ballot(decision), inst)
    fu = session.pending[0]
    t = decision.tax
    # the agent's own indifference point: f(t + tau) - f(t) = target
    target = (truth.alloc_weights[1] / truth.money_weight) * inst.gain_curves[1].value(
        fu.probe_spend
    )
    money = inst.money_curve
    tau = money.inverse(money.value(t) + target) - t
    answer_followup(session, fu.good_index, tau)
    recovered = complete_type(session)
    ratio = recovered.alloc_weights[1] / recovered.money_weight
    assert ratio == pytest.approx(truth.alloc_weights[1] / truth.money_weight, abs=1e-8)
    assert np.max(np.abs(recovered.as_vector() - truth.as_vector())) <= 1e-5


# =============================================================================
# Errors and snapping
# =============================================================================


def test_ballot_snapping():
    ballot = Ballot.from_raw((0.7000000001, 0.3, -1e-10), 10.0)
    assert min(ballot.decision.allocation) == 0.0
    assert math.fsum(ballot.decision.allocation) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InfeasibleBallot):
        Ballot.from_raw((1.2, -0.2), 10.0)
    with pytest.raises(InfeasibleBallot):
        Ballot.from_raw((0.0, 0.0), 10.0)


def test_boundary_tax_is_infeasible():
    # one-sided money curve with an external budget: a reported tax of zero
    # sits where the money slope diverges
    inst = dataclasses.replace(make_running_instance(), external_budget=90.0)
    with pytest.raises(InfeasibleBallot):
        invert_ballot(Ballot.from_raw((0.5, 0.5), 0.0), inst)
    with pytest.raises(InfeasibleBallot):
        invert_ballot(Ballot.from_raw((0.5, 0.5), -40.0), inst)


def test_followup_errors():
    inst = _mixed_log1p_instance()
    session = invert_ballot(Ballot.from_raw((1.0, 0.0), 100.0), inst)
    with pytest.raises(NoPendingQuestion):
        answer_followup(session, 0, 1.0)
    with pytest.raises(IncompleteSession):
        complete_type(session)
    with pytest.raises(DomainError):
        answer_followup(session, 1, -1.0)


def test_all_zero_ratios_rejected():
    inst = _mixed_log1p_instance()
    # zero spend everywhere is not a simplex ballot, so force it via answers:
    session = invert_ballot(Ballot.from_raw((1.0, 0.0), 100.0), inst)
    answer_followup(session, 1, 0.0)
    session.resolved_ratios[0] = 0.0  # corrupt: pretend nothing was funded
    with pytest.raises(InfeasibleBallot):
        complete_type(session)
