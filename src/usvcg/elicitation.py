"""Ballot inversion: recovering agent types from preferred budget decisions.

Agents report only their favourite budget decision ``(x, t)``.  For every
funded good the first-order ratio pins down ``w_money / w_j``:

    w_money / w_j = mrs_factor * theta_j'(x_j * pool) / f'(t)

with ``mrs_factor`` taken from the instance's MRS convention.  A zero-spend
good with a diverging marginal at zero can only mean ``w_j = 0``.  A
zero-spend good whose marginal at zero is finite is ambiguous, so the agent
is asked a follow-up: the largest tax increase tau she would accept to fund
a probe spending ``chi_j`` on that good, giving the indifference condition

    w_j * theta_j(chi_j) = w_money * (f(t + tau) - f(t)).

The ratio equations plus ``sum_j w_j = 1`` then determine the type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    IncompleteSession,
    InfeasibleBallot,
    NoPendingQuestion,
)
from .model import AgentType, BudgetDecision, BudgetInstance

__all__ = [
    "Ballot",
    "FollowUp",
    "ElicitationSession",
    "invert_ballot",
    "answer_followup",
    "complete_type",
    "default_probe_spend",
]


@dataclass(frozen=True)
class Ballot:
    """An agent's reported favourite budget decision."""

    decision: BudgetDecision

    @classmethod
    def from_raw(cls, allocation, tax: float) -> "Ballot":
        """Snap a raw report onto the simplex: negatives down to -1e-9 are
        clipped to zero and the rest renormalised; worse violations are
        rejected."""
        xs = [float(x) for x in allocation]
        if any(x < -1e-9 for x in xs):
            raise InfeasibleBallot(f"allocation too negative to snap: {xs}")
        xs = [max(x, 0.0) for x in xs]
        total = math.fsum(xs)
        if total <= 0.0:
            raise InfeasibleBallot("reported allocation sums to zero")
        return cls(BudgetDecision(tuple(x / total for x in xs), float(tax)))


@dataclass
class FollowUp:
    """Open question about one zero-spend good."""

    good_index: int
    probe_spend: float


@dataclass
class ElicitationSession:
    """Mutable state of one agent's type extraction.

    ``resolved_ratios`` maps good index -> w_j / w_money.  Sessions are
    single-owner; distinct sessions may be processed concurrently.
    """

    ballot: Ballot
    instance: BudgetInstance
    pending: list[FollowUp] = field(default_factory=list)
    resolved_ratios: dict[int, float] = field(default_factory=dict)


def default_probe_spend(curve) -> float:
    """Probe spending at which the gain curve reaches one utility unit,
    keeping theta(chi) strictly positive for any catalog curve."""
    return curve.inverse(1.0)


def invert_ballot(ballot: Ballot, instance: BudgetInstance) -> ElicitationSession:
    """Extract every ratio the ballot determines; queue follow-ups for the
    goods it cannot."""
    decision = ballot.decision
    try:
        instance.check_decision(decision)
    except DomainError as exc:
        raise InfeasibleBallot(str(exc)) from exc
    pool = instance.pool(decision.tax)
    if not pool > 0.0:
        raise InfeasibleBallot(f"reported tax {decision.tax} leaves no positive pool")
    f_slope = instance.money_curve.deriv(decision.tax)
    factor = instance.mrs_factor()

    session = ElicitationSession(ballot=ballot, instance=instance)
    needs_slope = any(x > 0.0 for x in decision.allocation)
    if needs_slope and math.isinf(f_slope):
        raise InfeasibleBallot(
            f"money curve has no finite slope at the reported tax {decision.tax}"
        )
    for j, (x, curve) in enumerate(zip(decision.allocation, instance.gain_curves)):
        spend = x * pool
        if spend > 0.0:
            session.resolved_ratios[j] = f_slope / (factor * curve.deriv(spend))
        elif math.isinf(curve.deriv_at_zero()):
            # Diverging marginal at zero: skipping the good is only optimal
            # when its weight is exactly zero.
            session.resolved_ratios[j] = 0.0
        else:
            session.pending.append(FollowUp(j, default_probe_spend(curve)))
    return session


def answer_followup(
    session: ElicitationSession, good_index: int, tau: float
) -> ElicitationSession:
    """Record the willingness-to-pay answer for one pending good.

    tau is the largest tax increase the agent accepts for the probe
    spending; tau = 0 means the good carries no weight.
    """
    for k, fu in enumerate(session.pending):
        if fu.good_index == good_index:
            break
    else:
        raise NoPendingQuestion(f"no open follow-up for good {good_index}")
    if not (math.isfinite(tau) and tau >= 0.0):
        raise DomainError(f"follow-up answer must be a nonnegative tax increase, got {tau}")
    t = session.ballot.decision.tax
    money = session.instance.money_curve
    curve = session.instance.gain_curves[good_index]
    if tau == 0.0:
        ratio = 0.0
    else:
        ratio = (money.value(t + tau) - money.value(t)) / curve.value(fu.probe_spend)
    session.pending.pop(k)
    session.resolved_ratios[good_index] = ratio
    return session


def complete_type(session: ElicitationSession) -> AgentType:
    """Solve the ratio equations plus the simplex normalisation."""
    if session.pending:
        open_goods = [fu.good_index for fu in session.pending]
        raise IncompleteSession(f"follow-ups still open for goods {open_goods}")
    m = session.instance.m
    ratios = [session.resolved_ratios.get(j, 0.0) for j in range(m)]
    total = math.fsum(ratios)
    if not total > 0.0:
        raise InfeasibleBallot("ballot assigns no weight to any good")
    money_weight = 1.0 / total
    return AgentType(tuple(r / total for r in ratios), money_weight)
