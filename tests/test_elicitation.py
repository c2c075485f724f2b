"""Ballot inversion, follow-up protocol, and solver/elicitation roundtrips."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    MoneyCurve,
    NoPendingQuestion,
    answer_followup,
    complete_type,
    invert_ballot,
    optimize,
)
from usvcg.elicitation import Ballots, answer_followups, complete_types, invert_ballots


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


# =============================================================================
# Batch inversion against one-ballot arithmetic
# =============================================================================


def _scalar_snap(allocation) -> tuple:
    """One raw report snapped onto the simplex, one float at a time."""
    xs = [max(float(x), 0.0) for x in allocation]
    total = math.fsum(xs)
    return tuple(x / total for x in xs)


def _scalar_ratios(allocation, tax: float, instance: BudgetInstance) -> list:
    """w_j / w_money per good of one ballot, one float at a time, None where
    a follow-up is open."""
    pool, f_slope = instance.pool(tax), instance.money_curve.deriv(tax)
    out = []
    for x, curve in zip(allocation, instance.gain_curves):
        spend = x * pool
        if spend > 0.0:
            out.append(f_slope / (instance.mrs_factor() * curve.deriv(spend)))
        else:
            out.append(0.0 if math.isinf(curve.deriv_at_zero()) else None)
    return out


def _scalar_type(ratios: list) -> tuple:
    total = math.fsum(ratios)
    return tuple(r / total for r in ratios), 1.0 / total


def _hex(values) -> list:
    return [None if v is None or math.isnan(v) else float(v).hex() for v in values]


@st.composite
def _ballot_batches(draw):
    """A catalog (log, power and log1p gains; power or kt money; B0 = 0 or
    > 0; either semantics and MRS convention) and 1-9 raw ballots on it,
    some with zero or slightly negative shares, with a follow-up answer
    per good."""
    m = draw(st.integers(1, 3))
    curves = []
    for _ in range(m):
        kind, scale = draw(st.sampled_from(("log", "power", "log1p"))), draw(st.floats(0.1, 20.0))
        if kind == "power":
            curves.append(GainCurve.power(scale, draw(st.floats(0.1, 0.9))))
        else:
            curves.append(GainCurve(kind, scale))
    q = draw(st.floats(0.2, 0.9))
    if draw(st.booleans()):
        money = MoneyCurve.power(q)
    else:
        money = MoneyCurve.kahneman_tversky(q, draw(st.floats(0.2, 0.9)), draw(st.floats(0.5, 3.0)))
    instance = BudgetInstance(
        m=m,
        n=draw(st.integers(1, 40)),
        external_budget=draw(st.sampled_from((0.0, 7.5, 120.0))),
        gain_curves=tuple(curves),
        money_curve=money,
        semantics=draw(st.sampled_from(("nominal", "per_capita"))),
        mrs_convention=draw(st.sampled_from(("n_scaled", "n_free"))),
    )
    low = max(instance.tax_floor + instance.tax_epsilon, money.domain_min)
    share = st.one_of(st.just(0.0), st.just(-1e-10), st.floats(1e-3, 1.0))
    rows, taxes, answers = [], [], {}
    for i in range(draw(st.integers(1, 9))):
        row = [draw(share) for _ in range(m)]
        if not any(x > 0.0 for x in row):
            row[draw(st.integers(0, m - 1))] = draw(st.floats(1e-3, 1.0))
        tax = low + draw(st.floats(1e-3, 400.0))
        rows.append(row)
        taxes.append(tax if tax != 0.0 else 1.0)
        answers.update({(i, j): draw(st.floats(0.01, 50.0)) for j in range(m)})
    return instance, rows, taxes, answers


@settings(max_examples=150, deadline=None)
@given(_ballot_batches(), st.randoms(use_true_random=False))
def test_batch_inversion_equals_one_ballot_arithmetic(batch, rnd):
    # every snapped share, ratio, follow-up and completed type of a batch
    # has the bits of one ballot's float-by-float arithmetic, whatever the
    # order of the ballots and however they are split into batches
    instance, rows, taxes, answers = batch
    n = len(rows)
    snapped = [_scalar_snap(row) for row in rows]
    expected = [_scalar_ratios(x, t, instance) for x, t in zip(snapped, taxes)]

    order = list(range(n))
    rnd.shuffle(order)
    cut = rnd.randint(0, n)
    for part in (order, order[:cut], order[cut:]):
        if not part:
            continue
        ballots = Ballots.from_raw([rows[i] for i in part], [taxes[i] for i in part])
        for k, i in enumerate(part):
            assert _hex(ballots.allocations[k]) == _hex(snapped[i])
            assert ballots.taxes[k] == taxes[i]
        ratios, followups = invert_ballots(ballots, instance)
        for k, i in enumerate(part):
            assert _hex(ratios[k]) == _hex(expected[i])
        open_goods = [(part[k], fu.good_index) for k, fu in followups]
        assert open_goods == [
            (i, j) for i in part for j, r in enumerate(expected[i]) if r is None
        ]
        for _, fu in followups:
            assert fu.probe_spend == instance.gain_curves[fu.good_index].inverse(1.0)

        local = {(k, j): answers[(i, j)] for k, i in enumerate(part) for j in range(instance.m)}
        assert answer_followups(ballots, instance, ratios, followups, local) == []
        money = instance.money_curve
        for k, i in enumerate(part):
            full = [
                (money.value(taxes[i] + answers[(i, j)]) - money.value(taxes[i]))
                / instance.gain_curves[j].value(instance.gain_curves[j].inverse(1.0))
                if r is None
                else r
                for j, r in enumerate(expected[i])
            ]
            assert _hex(ratios[k]) == _hex(full)
            if math.fsum(full) > 0.0:
                weights, money_weight = _scalar_type(full)
                agent = complete_types(ratios[k : k + 1])[0]
                assert _hex(agent.alloc_weights) == _hex(weights)
                assert agent.money_weight.hex() == money_weight.hex()

    # the one-ballot functions are batches of one
    for x, t, ratios in zip(rows, taxes, expected):
        session = invert_ballot(Ballot.from_raw(x, t), instance)
        assert [fu.good_index for fu in session.pending] == [
            j for j, r in enumerate(ratios) if r is None
        ]
        assert {j: r.hex() for j, r in session.resolved_ratios.items()} == {
            j: r.hex() for j, r in enumerate(ratios) if r is not None
        }
        if not session.pending and math.fsum(ratios) > 0.0:
            weights, money_weight = _scalar_type(ratios)
            agent = complete_type(session)
            assert _hex(agent.alloc_weights) == _hex(weights)
            assert agent.money_weight.hex() == money_weight.hex()


def test_batch_errors_name_the_first_failing_ballot(running_instance_nfree):
    inst = dataclasses.replace(running_instance_nfree, external_budget=90.0)
    with pytest.raises(InfeasibleBallot, match="ballot 1: allocation too negative"):
        Ballots.from_raw([(0.5, 0.5), (1.2, -0.2), (0.0, 0.0)], [10.0, 10.0, 10.0])
    with pytest.raises(InfeasibleBallot, match="ballot 2: reported allocation sums to zero"):
        Ballots.from_raw([(0.5, 0.5), (0.3, 0.7), (0.0, 0.0)], [10.0, 10.0, 10.0])
    with pytest.raises(DomainError, match="ballot 0: allocation must be finite"):
        Ballots.from_raw([(math.inf, 0.5)], [10.0])
    with pytest.raises(DomainError, match="ballot 1: tax must be finite"):
        Ballots.from_raw([(0.5, 0.5), (0.5, 0.5)], [10.0, math.nan])
    # a row that fails an earlier check wins over an earlier row failing a
    # later one only by its index: ballot 1's zero tax beats ballot 2's floor
    ballots = Ballots.from_raw([(0.5, 0.5)] * 3, [10.0, 0.0, -40.0])
    with pytest.raises(InfeasibleBallot, match="ballot 1: money curve has no finite slope"):
        invert_ballots(ballots, inst)
    ballots = Ballots.from_raw([(0.5, 0.5)] * 3, [10.0, -40.0, 0.0])
    with pytest.raises(InfeasibleBallot, match="ballot 1: tax -40.0 at or below the feasible floor"):
        invert_ballots(ballots, inst)
    with pytest.raises(InfeasibleBallot, match="ballot 1: assigns no weight"):
        complete_types([[0.5, 0.5], [0.0, 0.0]])
