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

A profile's ballots are inverted as arrays (``Ballots``, ``invert_ballots``,
``complete_types``): one (n, m) table of allocations and one column of
taxes, each row checked as a single ballot is, and the first row that fails
named in the error.  Only exact IEEE operations (products, quotients, sums)
run on whole columns; every power, logarithm and exact sum is Python's
``math`` on each entry, so a row's results have the bits of inverting it
alone.  The one-ballot functions (``Ballot.from_raw``, ``invert_ballot``,
``complete_type``) are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    IncompleteSession,
    InfeasibleBallot,
    NoPendingQuestion,
)
from .model import AgentType, BudgetDecision, BudgetInstance

__all__ = [
    "Ballot",
    "Ballots",
    "FollowUp",
    "ElicitationSession",
    "invert_ballot",
    "invert_ballots",
    "answer_followup",
    "answer_followups",
    "complete_type",
    "complete_types",
    "default_probe_spend",
]

_SNAP = 1e-9  # reported shares down to -_SNAP are clipped to zero


def _first_failure(*checks) -> None:
    """Raise for the first row any of ``checks`` flags.  Each check is (row
    mask, error class, message of row i), in the order one ballot is
    checked, and the row's first failing check raises, naming the row."""
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        error, message = next((error, message) for mask, error, message in checks if mask[i])
        raise error(f"ballot {i}: {message(i)}")


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row; inf where a sum of finite entries overflows."""

    def total(row):
        try:
            return math.fsum(row)
        except OverflowError:
            return math.inf

    return np.array([total(row) for row in rows.tolist()], dtype=float).reshape(len(rows))


@dataclass(frozen=True)
class Ballot:
    """An agent's reported favourite budget decision."""

    decision: BudgetDecision

    @classmethod
    def from_raw(cls, allocation, tax: float) -> "Ballot":
        """Snap a raw report onto the simplex: negatives down to -1e-9 are
        clipped to zero and the rest renormalised; worse violations are
        rejected (``Ballots.from_raw`` for one ballot)."""
        return Ballots.from_raw([list(allocation)], [tax])[0]


@dataclass(frozen=True, eq=False)
class Ballots:
    """The reported decisions of a profile as arrays: ``allocations`` is
    (n, m) with rows on the simplex, ``taxes`` holds the n finite taxes.
    Indexing (and so iteration) gives ``Ballot`` values."""

    allocations: np.ndarray
    taxes: np.ndarray

    @classmethod
    def from_raw(cls, allocations, taxes) -> "Ballots":
        """Snap each raw report onto the simplex as ``Ballot.from_raw`` does
        (x / fsum(x) after clipping entries in [-1e-9, 0) to zero).  The
        first row that cannot be snapped raises, naming its index:
        InfeasibleBallot for an entry below -1e-9 or a zero total,
        DomainError for an entry or a tax that is not finite (or a total
        that overflows).  Rows then meet ``BudgetDecision``'s checks: each
        share x_j / total rounds by at most half an ulp, so their sum lies
        within a few ulps of 1."""
        raw, taxes = np.array(allocations, dtype=float), np.array(taxes, dtype=float)
        if raw.ndim != 2 or taxes.shape != raw.shape[:1]:
            raise DomainError(f"need one tax per allocation row, got {taxes.shape} for {raw.shape}")
        clipped = np.where(raw < 0.0, 0.0, raw)
        totals = _row_sums(clipped)
        _first_failure(
            ((raw < -_SNAP).any(axis=1), InfeasibleBallot,
             lambda i: f"allocation too negative to snap: {raw[i].tolist()}"),
            (totals <= 0.0, InfeasibleBallot, lambda i: "reported allocation sums to zero"),
            (~(np.isfinite(raw).all(axis=1) & np.isfinite(totals)), DomainError,
             lambda i: f"allocation must be finite: {raw[i].tolist()}"),
            (~np.isfinite(taxes), DomainError, lambda i: f"tax must be finite, got {taxes[i]}"),
        )
        return cls(clipped / totals[:, None], taxes)

    def __len__(self) -> int:
        return len(self.taxes)

    def __getitem__(self, i: int) -> Ballot:
        return Ballot(BudgetDecision(tuple(self.allocations[i].tolist()), float(self.taxes[i])))


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


def invert_ballots(
    ballots: Ballots, instance: BudgetInstance
) -> tuple[np.ndarray, list[tuple[int, FollowUp]]]:
    """Every ratio w_j / w_money the ballots determine, as an (n, m) array
    (NaN where a follow-up is open), and the follow-ups as (agent, question)
    pairs in agent, then good, order.

    Each row is checked as one ballot is, and the first that fails raises
    InfeasibleBallot naming it: a tax at or below the feasible floor or the
    money curve's domain, a pool that is not positive, or a money slope
    that is not finite.  A funded good's ratio is
    f'(t) / (mrs_factor * theta_j'(x_j * pool)); a zero-spend good's is 0
    where its marginal at zero diverges, and open otherwise.
    """
    allocations, taxes = ballots.allocations, ballots.taxes
    n, m = allocations.shape
    if n and m != instance.m:
        raise InfeasibleBallot(f"ballot 0: decision has {m} goods, instance has {instance.m}")
    money = instance.money_curve
    pools = instance.pool(taxes)
    below_floor = taxes < instance.tax_floor + instance.tax_epsilon
    below_domain = taxes < money.domain_min
    no_pool = ~(pools > 0.0)
    slope_at = ~(below_floor | below_domain | no_pool)  # rows whose money slope exists
    f_slopes = np.full(n, np.nan)
    f_slopes[slope_at] = [money.deriv(t) for t in taxes[slope_at].tolist()]
    _first_failure(
        (below_floor, InfeasibleBallot,
         lambda i: f"tax {taxes[i]} at or below the feasible floor {instance.tax_floor}"),
        (below_domain, InfeasibleBallot,
         lambda i: f"tax {taxes[i]} below the money curve domain minimum {money.domain_min}"),
        (no_pool, InfeasibleBallot, lambda i: f"reported tax {taxes[i]} leaves no positive pool"),
        ((allocations > 0.0).any(axis=1) & np.isinf(f_slopes), InfeasibleBallot,
         lambda i: f"money curve has no finite slope at the reported tax {taxes[i]}"),
    )
    spends = allocations * pools[:, None]
    funded = spends > 0.0
    factor = instance.mrs_factor()
    ratios = np.full((n, m), np.nan)
    followups = []
    for j, curve in enumerate(instance.gain_curves):
        rows = funded[:, j]
        ratios[rows, j] = f_slopes[rows] / (factor * curve.deriv_array(spends[rows, j]))
        if math.isinf(curve.deriv_at_zero()):
            # Diverging marginal at zero: skipping the good is only optimal
            # when its weight is exactly zero.
            ratios[~rows, j] = 0.0
        else:
            probe = default_probe_spend(curve)
            followups += [(int(i), FollowUp(j, probe)) for i in np.flatnonzero(~rows)]
    followups.sort(key=lambda pair: (pair[0], pair[1].good_index))
    return ratios, followups


def invert_ballot(ballot: Ballot, instance: BudgetInstance) -> ElicitationSession:
    """Extract every ratio the ballot determines; queue follow-ups for the
    goods it cannot (``invert_ballots`` for one ballot)."""
    decision = ballot.decision
    ratios, followups = invert_ballots(
        Ballots(np.array([decision.allocation], dtype=float), np.array([decision.tax])), instance
    )
    pending = [fu for _, fu in followups]
    open_goods = {fu.good_index for fu in pending}
    resolved = {j: r for j, r in enumerate(ratios[0].tolist()) if j not in open_goods}
    return ElicitationSession(ballot, instance, pending, resolved)


def _followup_ratio(instance: BudgetInstance, tax: float, followup: FollowUp, tau: float) -> float:
    """w_j / w_money from the answer tau to ``followup`` on a ballot of tax
    ``tax``: the indifference (f(t + tau) - f(t)) / theta_j(chi_j)."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise DomainError(f"follow-up answer must be a nonnegative tax increase, got {tau}")
    if tau == 0.0:
        return 0.0
    money, curve = instance.money_curve, instance.gain_curves[followup.good_index]
    return (money.value(tax + tau) - money.value(tax)) / curve.value(followup.probe_spend)


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
    ratio = _followup_ratio(session.instance, session.ballot.decision.tax, fu, tau)
    session.pending.pop(k)
    session.resolved_ratios[good_index] = ratio
    return session


def answer_followups(
    ballots: Ballots,
    instance: BudgetInstance,
    ratios: np.ndarray,
    followups: list[tuple[int, FollowUp]],
    answers: dict[tuple[int, int], float],
) -> list[tuple[int, FollowUp]]:
    """Enter into ``ratios`` (``invert_ballots``' array, updated in place)
    the ratio of each follow-up that ``answers`` ((agent, good) -> tau)
    answers, as ``answer_followup`` does; returns the follow-ups left open."""
    still_open = []
    for i, fu in followups:
        tau = answers.get((i, fu.good_index))
        if tau is None:
            still_open.append((i, fu))
        else:
            ratios[i, fu.good_index] = _followup_ratio(instance, float(ballots.taxes[i]), fu, tau)
    return still_open


def complete_types(ratios: np.ndarray) -> tuple[AgentType, ...]:
    """Each row of w_j / w_money ratios (``invert_ballots``' array, every
    follow-up answered) with the simplex normalisation: w_money = 1 / total
    and w_j = ratio_j / total, total the row's ``math.fsum``.  The first row
    whose total is not positive raises InfeasibleBallot naming it."""
    ratios = np.asarray(ratios, dtype=float)
    totals = _row_sums(ratios)
    _first_failure((~(totals > 0.0), InfeasibleBallot, lambda i: "assigns no weight to any good"))
    weights = (ratios / totals[:, None]).tolist()
    return tuple(AgentType(tuple(w), money) for w, money in zip(weights, (1.0 / totals).tolist()))


def complete_type(session: ElicitationSession) -> AgentType:
    """Solve the ratio equations plus the simplex normalisation
    (``complete_types`` for one ballot)."""
    if session.pending:
        open_goods = [fu.good_index for fu in session.pending]
        raise IncompleteSession(f"follow-ups still open for goods {open_goods}")
    m = session.instance.m
    (agent,) = complete_types([[session.resolved_ratios.get(j, 0.0) for j in range(m)]])
    return agent
