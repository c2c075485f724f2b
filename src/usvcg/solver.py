"""Optimal budget decisions for a single type, plus biased and
heterogeneous-tax variants, equitable allocations, and a brute-force grid
oracle used for verification.

The optimisation is solved in the two natural stages:

1. *Inner stage* (fixed tax t, hence fixed pool B): maximise
   ``sum_j w_j theta_j(x_j B)`` over the simplex by water-filling -- all
   funded goods share a common weighted marginal ``lambda``, goods whose
   best attainable weighted marginal stays below ``lambda`` are clipped
   to zero (KKT), and ``lambda`` is found by Newton's method on the water
   level mu = 1/lambda, from a start that only depends on (weights,
   curves, B).  Each good spends by its kind's spend law
   max((c mu)**p - d, 0) (``GainCurve.spend_law``), built once per weight
   vector, so a sweep asks no curve for a derivative.  The equitable
   target's common level is found by the same monotone Newton
   (``_descend``), with each good's inverse and marginal inline, and that
   one pass gives the biased objective's whole target side.

2. *Outer stage*: a search on t over the sign of the analytic conditional
   slope.  The feasible interval is cut at the kt money curve's kink t = 0
   (its convex branch can put a local maximum on each side), each piece is
   sampled geometrically, and the candidates are compared by value: the
   feasible start, where its slope is not positive, and the root of every
   sampled sign change from + to -.  Each root is found down to the
   slope's rounding bound by Chandrupatla's method (inverse quadratic
   interpolation safeguarded by bisection) on log(P/N) against log t, P
   and N the sums of the slope's positive and negative terms, from the
   secant through the bracket's ends.  For log gains against a power money
   curve at B0 = 0 that ordinate is linear in log t, so the secant lands
   on the root.  Every evaluation is a pure function of its tax, so a
   search's result depends on nothing but the taxes it evaluates.  Where
   the catalog bounds the rate at which that ordinate falls (log and power
   goods of exponent below the money curve's, at B0 = 0;
   ``_PlainObjective.descent``) the walk's samples change sign once, and a
   cold plain or hetero solve's walk skips, from a probe at the start, to
   the last sample the bound proves positive and ends at its first
   non-positive one (``_walk``): the full walk's result, bit for bit, from
   4 slope probes on the running example instead of 44.  A mechanism's
   pivot solves are certified against the decision solve's walk (``_SlopeRecord``): each sample but
   the brackets' ends and the kt kink at 0 keeps how far another type may
   deviate with its sign there still proven.  A pivot within every such
   radius probes only the others and goes straight to the brackets'
   roots; any other walks on the signs that cover it and probes the rest.
   Either way the result is the full search's, bit for bit.  A solve
   keeps the inner evaluation of each tax it probes, so no tax is
   water-filled twice within it.

Each solver kind is one objective whose ``at(t)`` names, from one inner
evaluation, the allocation, the gains and the slope and value terms
(``_PlainObjective``: a type's valuation, or a profile's welfare under
designer tax weights; ``_BiasedObjective``: valuation plus bias).  One step,
``_solve``, builds from them the probe and the slope record, one layout for
every kind.  A mechanism run's n+1 solves share its state as one argument,
``run=`` (``_Run``): the kind's shared table and the decision's slope record.

Ties between equal-value optima break deterministically: lowest tax,
then lexicographically smallest allocation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curves import GainCurve
from .errors import (
    BoundaryTarget,
    ConvergenceError,
    DomainError,
    NonUniqueOptimum,
    ResolutionTooCoarse,
    TaxDivergence,
)
from .model import AgentType, BudgetDecision, BudgetInstance, _exact_sum

__all__ = [
    "inner_allocation",
    "optimize",
    "optimize_biased",
    "optimize_hetero",
    "equitable_allocation",
    "corresponding_type",
    "grid_oracle",
    "OracleResult",
    "BiasSpec",
    "ConstantTarget",
    "EquitableTarget",
    "TableTarget",
    "TaxPreference",
    "bias_value",
]

_MAX_ITERATIONS = 200  # water-filling Newton steps
_BRACKET_PATIENCE = 6  # non-positive slope samples before the open piece stops
_ROUNDING = 4.0 * 2.0**-52  # a slope's rounding bound, per unit of its size max(P, N)
_MAX_BRACKET = 1e12  # largest tax offset the open piece samples before TaxDivergence
_SLACK = 1e-8  # relative margin of a proven slope sign: 1e5x water-filling's error on lambda
_X_TOLERANCE = 1e-13  # water-filling's budget residual, relative to the pool
_LN2 = math.log(2.0)


# =============================================================================
# Inner stage: allocation for a fixed pool
# =============================================================================


def _descend(sweep: Callable, level: float, goal: float, tolerance: float, floor: float) -> tuple:
    """Newton from above onto the level where an increasing convex total
    meets ``goal``: the water level of ``_water_fill`` and the equalising
    level of ``_equalised``.  ``sweep(level)`` gives (total, its slope, the
    per-good row), evaluating each good once.  From a level whose total is
    at least the goal, Newton on a convex increasing total never overshoots,
    so the iterates fall monotonically onto the root; ``floor`` is a level
    known to lie at or below it, and iterates are clamped to it.  One stop
    rule: the total is within ``tolerance`` above the goal (or at or below
    it, by rounding), or the level is at the floor, or the step no longer
    lowers the level (the rounding floor of the total).  Returns (level,
    total, row, sweeps), from the last sweep."""
    for sweeps in range(1, _MAX_ITERATIONS + 1):
        total, slope, row = sweep(level)
        excess = total - goal
        if excess <= tolerance or level <= floor:
            return level, total, row, sweeps
        if not slope > 0.0:
            raise ConvergenceError("the level search funds no good")
        lower = max(level - excess / slope, floor)
        if not lower < level:
            return level, total, row, sweeps
        level = lower
    raise ConvergenceError("the level search hit its iteration cap")


def _spend_laws(weights: Sequence[float], curves: Sequence[GainCurve]) -> list[tuple]:
    """(j, w_j, c, p, d) for each good j of positive weight: its index,
    weight and spend law (``GainCurve.spend_law``), as ``_water_fill``
    takes them."""
    goods = enumerate(zip(weights, curves))
    return [(j, w, *curve.spend_law(w)) for j, (w, curve) in goods if w > 0.0]


def _water_fill(
    laws: Sequence[tuple[int, float, float, float, float]],
    curves: Sequence[GainCurve],
    budget: float,
) -> tuple[np.ndarray, float, float, list[float], int]:
    """Maximise sum_j w_j theta_j(x_j * budget) over the simplex.

    ``laws`` holds (j, w_j, c, p, d) for each good of positive weight, its
    spend law (``GainCurve.spend_law``): at water level mu = 1/lambda good j
    spends max((c mu)**p - d, 0).  Returns (allocation, gains, common
    marginal lambda, levels theta_j(x_j budget) (0.0 where x_j = 0), Newton
    sweeps).  Callers guarantee budget > 0 and at least one law.

    Newton on the water level mu (Palomar & Fonollosa, IEEE TSP 53:686,
    2005; ``_descend``).  p >= 1, so the total spend is convex and
    increasing in mu, and its slope is sum_j p (s_j + d)/mu over the funded
    goods: no curve is asked for a derivative.  At mu_0 = min_j
    (budget + d)**(1/p)/c the best good alone spends the budget, so Newton
    descends from there onto the root monotonically, until the residual is
    within _X_TOLERANCE of the budget or a step no longer lowers mu (log1p's
    c mu - 1 at a tiny pool cannot meet the residual; below about 1.1e-16 it
    rounds to 0, and a good that sets mu_0 takes the budget).  A single good
    of positive weight takes the budget with no sweep.  The result is a pure
    function of the arguments.
    """
    x = np.zeros(len(curves))
    levels = [0.0] * len(curves)
    if len(laws) == 1:
        j, w = laws[0][:2]
        x[j] = 1.0
        levels[j] = level = curves[j].value(budget)
        return x, w * level, w * curves[j].deriv(budget), levels, 0

    def sweep(mu: float) -> tuple[float, float, list[float]]:
        spends, total, rate = [], 0.0, 0.0
        for _, _, c, p, d in laws:
            s = (c * mu) ** p - d
            if s > 0.0:
                total += s
                rate += p * (s + d)
            else:
                s = 0.0
            spends.append(s)
        return total, rate / mu, spends

    tops = [(budget + d) ** (1.0 / p) / c for _, _, c, p, d in laws]
    top = min(tops)
    mu, total, spends, sweeps = _descend(sweep, top, budget, _X_TOLERANCE * budget, 0.0)
    if not total > 0.0:  # every spend rounded to 0: the zero-pool limit
        spends = [0.0] * len(laws)
        spends[tops.index(top)] = total = 1.0
    gains = 0.0
    for (j, w, *_), s in zip(laws, spends):
        share = s / total
        x[j] = share
        if share > 0.0:
            levels[j] = level = curves[j].value(share * budget)
            gains += w * level
        elif curves[j].strict_domain:
            raise ConvergenceError("zero share on a strictly positive-domain curve")
    return x, gains, 1.0 / mu, levels, sweeps


class _Conditional:
    """Inner-stage solution as a function of the tax, for one solve.  The
    pool is start + rate t: the pool is affine in the tax, so an instance's
    pool(0) and pool rate give the bits of its pool(t), and with the
    defaults t is the pool itself.

    All-log catalogs admit a budget-independent allocation, so the shares
    and the log-constant are precomputed once.  The common weighted marginal
    Lambda at the inner optimum is, by the envelope theorem, the derivative
    of the conditional gains with respect to the pool, so one evaluation
    gives the value and the gain term Lambda rate of a tax's slope.

    Otherwise each evaluation water-fills from scratch (``fills``) on the
    spend laws of the goods of positive weight (``laws``), built once per
    weight vector, so ``at`` is a pure function of the tax whatever was
    evaluated before it.
    """

    def __init__(self, weights, curves: Sequence[GainCurve], start=0.0, rate=1.0):
        self.weights, self.start, self.rate = tuple(map(float, weights)), start, rate
        self.curves = tuple(curves)
        active = [j for j in range(len(curves)) if self.weights[j] > 0.0]
        self._fast = bool(active) and all(curves[j].kind == "log" for j in active)
        self.fills = not self._fast
        if self.fills:
            self.laws = _spend_laws(self.weights, curves)
        else:
            wa = [self.weights[j] * curves[j].scale for j in active]
            self._w_total = sum(wa)
            shares = [w / self._w_total for w in wa]
            x = [0.0] * len(curves)
            for j, share in zip(active, shares):
                x[j] = share
            self._x = np.array(x)
            self._const = float(np.dot(wa, np.log(shares)))

    def at(self, t: float) -> tuple:
        """(allocation, gains, gain term, (), (), ()) at tax t, from one
        evaluation: ``_solve``'s objective terms, with no other term.  On
        the all-log path the allocation array is shared: do not write it."""
        budget = self.start + self.rate * t
        if self._fast:
            gains = self._const + self._w_total * math.log(budget)
            return self._x, gains, self._w_total / budget * self.rate, (), (), ()
        x, gains, marginal, _, _ = _water_fill(self.laws, self.curves, budget)
        return x, gains, marginal * self.rate, (), (), ()


def inner_allocation(
    agent: AgentType,
    budget: float,
    instance: BudgetInstance,
) -> np.ndarray:
    """Welfare-maximising split of a fixed spending pool for one type."""
    if not budget > 0.0:
        raise DomainError(f"allocation needs a positive pool, got {budget}")
    if agent.m != instance.m:
        raise DomainError("type length does not match the instance")
    return _Conditional(agent.alloc_weights, instance.gain_curves).at(budget)[0].copy()


# =============================================================================
# Outer stage: search on the tax axis
# =============================================================================


def _feasible_start(instance: BudgetInstance) -> float:
    return max(instance.tax_floor + instance.tax_epsilon, instance.money_curve.domain_min)


def _walk_origin(instance: BudgetInstance) -> tuple[float, float, float]:
    """The tax walk's feasible start, the lower end of its open piece (0
    when the start is negative) and its first offset 1e-8 max(1, |start|)."""
    start = _feasible_start(instance)
    return start, 0.0 if start < 0.0 else start, 1e-8 * max(1.0, abs(start))


def _diverged(offset: float) -> TaxDivergence:
    """The walk's TaxDivergence, at the first offset past the tax cap."""
    return TaxDivergence(
        f"conditional slope still positive at tax offset {offset:.3g}; "
        "no finite optimum within the tax cap"
    )


def _ordinate(slope: float, size: float) -> float:
    """log(P/N) for a slope P - N of size max(P, N), P and N the sums of its
    positive terms and of its negative terms' magnitudes: the smaller sum
    is size - |slope|, so it is -log1p(-|slope|/size) with the slope's
    sign.  +-inf where the smaller sum is 0, or rounds below it, and at
    the kt kink, whose slope is -inf."""
    if abs(slope) < size:
        return math.copysign(math.log1p(-abs(slope) / size), slope)
    return math.copysign(math.inf, slope)


def _slope_root(probe: Callable, lo: float, hi: float, end_lo: tuple, end_hi: tuple) -> float:
    """Find the root of a sign change of the slope between lo, where it is
    positive, and hi, where it is not; ``end_lo`` and ``end_hi`` are the
    (slope, size) the probe gave there.

    Chandrupatla's method (Adv. Eng. Softw. 28:145, 1997) runs on the
    ordinate r = log(P/N) (``_ordinate``) against u = log(t/lo) on a
    positive bracket and u = -log(t/lo) on a negative one, below the kt
    kink, where the float next to 0 stands in for an end at 0 (u = +inf
    there).  For log gains against a power money curve at B0 = 0, r is
    linear in log t, as it is in log(-t) near the kink, and it stays close
    to linear on the other catalogs, so the first probe, the secant through
    the ends in (u, r), lands within a probe or two of the root.  Each probe replaces
    the bracket end of its sign.  The next one is the inverse quadratic
    interpolation through the probe, the other end and the replaced end
    when Chandrupatla's test accepts it; otherwise, or when a step is not
    finite (an infinite ordinate, as at the kt kink's -inf slope), the
    midpoint in u.  Every probe is kept strictly inside the bracket.  Stops
    at a probe whose slope is within its rounding bound, or when lo and hi
    are adjacent floats (a kink maximum, or a slope whose noise never meets
    the bound), returning the end whose slope is smaller."""
    anchor = lo
    if lo > 0.0:

        def coordinate(t: float) -> float:
            return math.log1p((t - anchor) / anchor)

        def tax(u: float) -> float:
            return anchor + anchor * math.expm1(u)

    else:  # log1p and expm1 within a factor of 2 of the anchor, where t - lo is exact

        def coordinate(t: float) -> float:
            ratio = (t - anchor) / anchor
            return -math.log1p(ratio) if ratio > -0.5 else math.log(-anchor) - math.log(-t)

        def tax(u: float) -> float:
            return anchor + anchor * math.expm1(-u) if u < _LN2 else anchor * math.exp(-u)

    (at_lo, size_lo), (at_hi, size_hi) = end_lo, end_hi
    u_lo, u_hi = coordinate(lo), coordinate(hi or math.nextafter(hi, lo))
    r_lo, r_hi = _ordinate(at_lo, size_lo), _ordinate(at_hi, size_hi)
    spread = r_lo - r_hi  # r_lo >= 0 >= r_hi: a secant needs both finite, not both 0
    u = u_lo + r_lo / spread * (u_hi - u_lo) if 0.0 < spread < math.inf else math.nan
    while True:
        x = tax(u if math.isfinite(u) else 0.5 * (u_lo + u_hi))
        x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < x < hi:
            return lo if at_lo <= -at_hi else hi
        slope, size, _ = probe(x)
        if abs(slope) <= _ROUNDING * size:
            return x
        u, r = coordinate(x), _ordinate(slope, size)
        if slope > 0.0:
            b, r_b, c, r_c = u_hi, r_hi, u_lo, r_lo
            lo, u_lo, r_lo, at_lo = x, u, r, slope
        else:
            b, r_b, c, r_c = u_lo, r_lo, u_hi, r_hi
            hi, u_hi, r_hi, at_hi = x, u, r, slope
        # xi and phi place the probe and its ordinate between the other end
        # (0) and the replaced one (1); the interpolating inverse quadratic
        # is monotone over the three samples only when phi**2 < xi and
        # (1 - phi)**2 < 1 - xi.  An infinite ordinate makes phi 0, +-inf or
        # nan, which fails the test; a bracket whose ends both have
        # ordinate 0 (an end slope so small against its size that the ratio
        # underflows) divides by 0
        step = math.nan
        try:
            xi, phi = (u - b) / (c - b), (r - r_b) / (r_c - r_b)
            if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                step = (r / (r_b - r) * r_c / (r_b - r_c)
                        + (c - u) / (b - u) * r / (r_c - r) * r_b / (r_c - r_b))
        except ZeroDivisionError:
            pass
        u += step * (b - u)


def _walk(
    probe: Callable[..., tuple[float, float, float]],
    instance: BudgetInstance,
    descent: float | None = None,
) -> list:
    """The samples (tax, slope, size) of the tax walk, in increasing tax.

    ``probe(t, valued=False)`` gives, from one inner evaluation, the slope at
    t, its size (the larger of the sums of its positive and its negative
    terms; the slope's rounding bound is a few ulps of it) and, when
    ``valued``, the value (else nan).  The feasible interval starts at the
    tax floor plus ``tax_epsilon``, or at the money curve's ``domain_min``
    when that is higher (0 for the power kind; a tax weight omega_k > 0
    leaves the domain of f(omega_k t) the same).  It is
    cut at t = 0 when negative taxes are feasible (only the kt money curve
    admits them; its slope is -inf there), and each piece is
    sampled geometrically up from its lower end, at offsets 1e-8 max(1,
    |start|) times powers of 2: the bounded one up to 0, the
    open one until the slope has stayed <= 0 for _BRACKET_PATIENCE samples
    past both its last positive slope and the scale max(1, |start|), so
    that a dip after the kink cannot end it.  Raises TaxDivergence when the
    slope is still positive at the tax cap, _MAX_BRACKET.  Which taxes the
    walk samples depends only on where their slopes are positive.

    A ``descent`` rate (``_PlainObjective.descent``) is the fastest the
    ordinate r = log(P/N) (``_ordinate``) can fall in log t on t > 0, where
    the catalog proves that it falls.  The start is then positive, so the
    walk has one piece, and its slope changes sign once, from + to <= 0: a
    start whose slope is <= 0 ends the walk, and so does the first sample
    after it that is not positive.  From r0 at the start, a sample whose
    log(t/start) lies below (r0 - _SLACK)/descent is +, with _SLACK to
    spare over the fill's error on r, so the walk skips to the last such
    sample within the cap and walks up from there.  Where that sample is
    not + the bound failed, and the walk starts over without it.  The
    samples it skips or leaves are no candidate's, so ``_maximize_over_tax``
    gives the full walk's result, bit for bit, and the walk raises its
    TaxDivergence.
    """
    start, lower, s0 = _walk_origin(instance)
    scale = max(1.0, abs(start))
    samples = []

    def sample(t: float) -> float:
        slope, size, _ = probe(t)
        samples.append((t, slope, size))
        return slope

    sample(start)
    if start < 0.0:
        s = s0
        while start + s < 0.0:
            sample(start + s)
            s *= 2.0
        sample(0.0)
    s = s0
    if descent is not None:
        _, slope, size = samples[0]
        if not slope > 0.0:
            return samples
        # x = 2**k at the real ladder index k where log(t_k/start) =
        # (r0 - _SLACK)/descent, t_k = start + s0 2**k: the bound proves
        # every offset below s0 x positive.  r0 = +inf puts it past the cap
        growth = (_ordinate(slope, size) - _SLACK) / descent
        x = math.expm1(min(growth, 700.0)) * start / s0 if growth > 0.0 else 0.0
        if x > 1.0:
            (m0, e0), (m1, e1) = math.frexp(s0), math.frexp(_MAX_BRACKET)
            top = e1 - e0 - (m0 > m1)  # the last ladder index whose offset is within the cap
            s = math.ldexp(s0, math.ceil(min(math.log2(x), top + 1.0)) - 1)
            if not sample(lower + s) > 0.0:
                return _walk(probe, instance)  # the bound failed
            s *= 2.0
        while s <= _MAX_BRACKET:
            if not sample(lower + s) > 0.0:
                return samples
            s *= 2.0
        raise _diverged(s)
    patience = 0
    while patience < _BRACKET_PATIENCE:
        if s > _MAX_BRACKET:
            if samples[-1][1] > 0.0:
                raise _diverged(s)
            break
        if sample(lower + s) > 0.0:
            patience = 0
        elif s > scale:
            patience += 1
        s *= 2.0
    return samples


def _maximize_over_tax(probe: Callable, samples: list, unique: bool = False) -> float:
    """The tax of the best local maximum of a conditional value, from
    samples (tax, slope, size) in increasing tax whose first is the walk's
    start: the walk's own (``_walk``, which may skip samples a descent
    bound proves positive), or the ones a certified search keeps
    (``_SlopeRecord.samples``).

    The start, when its slope is <= 0, and the root of every pair of
    neighbouring samples whose slope turns from + to <= 0 (``_slope_root``,
    from the (slope, size) sampled at the pair's ends) are compared by
    value, and within 1e-12 relative the lowest tax wins.  Every probe is a
    pure function of its tax, so samples that hold the walk's start and
    brackets, with the walk's bits at the brackets' ends, give the walk's
    result.

    With ``unique`` a runner-up candidate within 1e-9 max(1, |v*|) of the
    best value v*, at a tax more than 1e-6 max(1, |t*|) from the best t*,
    raises NonUniqueOptimum; a local maximum no sample brackets is no
    candidate, so it escapes (on a catalog with a descent bound there is
    one local maximum, the global one).
    """
    candidates = [] if samples[0][1] > 0.0 else [samples[0][0]]
    for (a, at_a, size_a), (b, at_b, size_b) in zip(samples, samples[1:]):
        if at_a > 0.0 and not at_b > 0.0:
            candidates.append(_slope_root(probe, a, b, (at_a, size_a), (at_b, size_b)))
    best_t = candidates[0]
    if len(candidates) > 1:
        valued = [(t, probe(t, True)[2]) for t in candidates]
        best_t, best_v = valued[0]
        for t, v in valued[1:]:
            if v > best_v + 1e-12 * max(1.0, abs(best_v)):
                best_t, best_v = t, v
        if unique:  # a runner-up that ties the best in value, at another tax
            v_tol, t_tol = 1e-9 * max(1.0, abs(best_v)), 1e-6 * max(1.0, abs(best_t))
            for t, v in valued:
                if abs(v - best_v) <= v_tol and abs(t - best_t) > t_tol:
                    raise NonUniqueOptimum(f"local maxima at t={best_t} and t={t} tie in value")
    return best_t


def optimize(
    agent: AgentType, instance: BudgetInstance, *, run: _Run | None = None
) -> BudgetDecision:
    """The optimal budget decision for one (possibly hypothetical) type.

    Maximises the conditional value consistent with the instance's MRS
    convention; under the semantics-exact default this is the type's
    valuation itself.  Raises TaxDivergence when the conditional slope is
    still positive at the fixed tax cap (an offset of 1e12).  It takes no
    numerical settings: the inner stage water-fills to a budget residual of
    1e-13 of the pool, and the tax search resolves the slope to its
    rounding bound.  A mechanism run's ``run`` (``_Run``) changes no bit.
    """
    _shared(run, instance)
    return _solve(_PlainObjective.of(agent, instance), run)


def _require_unique_optimum(agent: AgentType, instance: BudgetInstance) -> BudgetDecision:
    """``optimize``'s decision, from its one tax search; a runner-up local
    maximum that ties the best raises NonUniqueOptimum (``_maximize_over_tax``
    gives the margins, and what escapes them)."""
    return _solve(_PlainObjective.of(agent, instance), unique=True)


class _Run:
    """One mechanism run's state, which each of its solves takes as ``run=``:
    its instance, its kind's shared table (``_TargetSides``, ``_HeteroTotals``
    or None) and the slope record that its first solve leaves
    (``_SlopeRecord``), against which every later one is certified.  A
    solve without a run is cold."""

    def __init__(self, instance: BudgetInstance, table=None):
        self.instance, self.table, self.record = instance, table, None


def _shared(run: _Run | None, instance: BudgetInstance, kind: type = type(None), owner=None):
    """The table a solve of ``instance`` reads: a ``kind`` built for
    ``owner`` (its bias or its profile; none for the plain kind), the
    ``run``'s or, without a run, a fresh one.  A run of another instance,
    kind, table or profile raises DomainError."""
    if run is None:
        return None if owner is None else kind(owner, instance)
    table = run.table
    belongs = run.instance is instance and type(table) is kind
    if not (belongs and getattr(table, "owner", None) is owner):
        raise DomainError("the run belongs to another instance, kind, table or profile")
    return table


def _proof(entry: tuple, lo: float, up: float, hi: float, down: float, sigma: float) -> float:
    """+1 or -1 where the bounds prove the sign of another type's slope at a
    recorded ``entry`` (``_SlopeRecord``), else 0: its gain term lies within
    [lo, hi] times the recorded one, its cost term within [down, up] times
    it, and each good's marginal moves by a factor within [1/sigma, sigma]."""
    gain, cost, rest, rest_size, goods = entry
    spread = sum(c * curve.level_shift(level, sigma) for c, curve, level in goods)
    pad = spread + _SLACK * (rest_size + spread)
    if lo * gain > up * cost - rest + pad:
        return 1.0
    if hi * gain < down * cost - rest - pad:
        return -1.0
    return 0.0


def _radius(entry: tuple, sign: float) -> float:
    """A radius rho >= 1 at which ``_proof`` gives ``sign`` at ``entry`` for
    every type whose bounds lie within rho: w_lo >= 1/rho, w_hi <= rho, the
    cost ratio within [1/rho, rho] and so sigma <= rho**2, each with a few
    ulps to spare; 0 where none is found.  The first guess is where the
    margin at rho = 1 runs out at the terms' rates of change there (the
    reweighted term's taken at sigma = e), halved until ``_proof`` holds."""
    gain, cost, rest, rest_size, goods = entry
    narrow, wide = 1.0 - _SLACK, 1.0 + _SLACK
    ahead, behind = (gain, cost) if sign > 0.0 else (cost, gain)
    margin = narrow * ahead - wide * behind + sign * rest - _SLACK * rest_size
    if not margin > 0.0:
        return 0.0
    spread = sum(c * curve.level_shift(level, math.e) for c, curve, level in goods)
    step = margin / (narrow * ahead + wide * behind + 2.0 * wide * spread)
    for _ in range(8):
        rho = 1.0 + step
        inner, outer = (1.0 - _ROUNDING) / rho, rho * (1.0 + _ROUNDING)
        if _proof(entry, inner * narrow, outer * wide, outer * wide, inner * narrow, rho * outer) == sign:
            return rho
        step *= 0.5
    return 0.0


class _SlopeRecord:
    """What a run's pivot solves are certified against, made from the walk
    and the slope terms by tax of the solve that made the record (its
    ``objective``), the terms in one layout for every solver kind: (gain,
    cost, rest, rest_size, goods).  gain is the gain term Lambda rate, cost
    the cost term kappa c f'(t), rest the sum of the other slope terms and
    rest_size the sum of their sizes; goods holds (lam |a_j'(t)|, curve,
    level theta_j(s_j)) for each good the reweighted term lam sum_j
    a_j'(t) theta_j(s_j) weights.  The plain kind has no other term: (0,
    0, ()).

    Another type's inner weights are b' + lam a(t) against the record's
    b + lam a(t) (lam a = 0 for the plain kind).  Good by good their ratio
    lies between 1 and b'_j/b_j, so within [w_lo, w_hi], the least and
    largest of the b'_j/b_j and, with phantom weights, 1.  The common
    marginal Lambda never decreases when a weight grows and scales linearly
    with the weights, so the other type's gain term lies within [w_lo, w_hi]
    times the recorded one.  Each good's marginal Lambda/W_j moves by
    (Lambda'/Lambda)/(W'_j/W_j), a factor within [1/sigma, sigma],
    sigma = w_hi/w_lo, so its level moves by at most
    ``GainCurve.level_shift`` and the reweighted term by at most
    lam sum_j |a_j'| times those shifts.  The cost term is exactly r times
    the recorded one, r the ratio of kappa times the money coefficient on
    the tax's side of 0, and the target term and psi' of the biased
    objective do not depend on the type.  A sign these bounds give with
    _SLACK of the terms to spare (``_proof``) is the sign the type's cold
    search samples there.

    The record vouches for each sample of the decision's walk but the ends
    of its brackets (+ to <= 0), whose probes the root search needs, and
    those with no radius (``_radius``), such as the kt kink at t = 0: it
    keeps its slope and radius, and each piece of the walk (t <= 0 and
    t > 0) the least of them.  A type's deviation on a side of 0
    (``reach``) is max(1/w_lo, w_hi, 1/r, r), and a radius that covers it
    proves the type's sign there.  A type within every piece's least
    radius probes only the unvouched samples; where each shows the
    decision's sign, its cold walk would take the decision's taxes and
    signs, so its start and brackets are the decision's, with its own
    probes at the brackets' ends.  Any other type walks on the vouched
    signs that cover it and probes the rest.
    """

    def __init__(self, objective, terms: dict[float, tuple], samples: list):
        self.objective, self.radii = objective, [math.inf, math.inf]
        # kept: (tax, slope) of the start and the unvouched samples;
        # vouched: (slope, radius) of the others by tax
        self.kept, self.vouched = [], {}
        positive = [slope > 0.0 for _, slope, _ in samples]
        # the first samples of the brackets, whose slope turns from + to <= 0
        firsts = {k for k in range(len(samples) - 1) if positive[k] and not positive[k + 1]}
        for k, (t, slope, _) in enumerate(samples):
            ends = k in firsts or k - 1 in firsts
            radius = 0.0 if ends else _radius(terms[t], 1.0 if positive[k] else -1.0)
            if radius:
                self.radii[t > 0.0] = min(self.radii[t > 0.0], radius)
                self.vouched[t] = slope, radius
            if not radius or k == 0:
                self.kept.append((t, slope))

    def reach(self, other) -> list[float]:
        """The deviation of the objective ``other``, of the record's kind,
        below and above 0, widened by a few ulps, so that ``_proof`` proves
        every sample whose radius covers it.  A plain slope, gain - cost,
        has the sign of gain/r - cost, so there it is also at most
        max(r/w_lo, w_hi/r): small where weights and cost shrink alike."""
        made = self.objective
        pairs = zip(other.base, made.base)
        ratios = [w / v if v > 0.0 else math.inf for w, v in pairs if w > 0.0 or v > 0.0]
        if made.sides is not None:  # the phantom weights lam a(t) are every type's
            ratios.append(1.0)
        w_lo, w_hi, scale = min(ratios), max(ratios), other.kappa / made.kappa
        reach = [math.inf, math.inf]
        for side, (c, d) in enumerate(zip(other.coefficients, made.coefficients)):
            if w_lo > 0.0:
                r = scale * c / d
                deviation = max(1.0 / w_lo, w_hi, r, 1.0 / r)
                if made.sides is None:  # the plain kind: no other slope term
                    deviation = min(deviation, max(r / w_lo, w_hi / r))
                reach[side] = deviation * (1.0 + _ROUNDING)
        return reach

    def samples(self, other, probe: Callable) -> list | None:
        """The samples that ``_maximize_over_tax`` takes for the objective
        ``other``, of the record's kind, whose ``probe`` this is: the start
        and the unvouched samples where those show the decision's signs,
        else other's walk (``_walk``), a vouched sign standing for each
        probe it covers.  A bracket end whose sign was vouched for is
        probed; None where it shows another sign, so that other is solved
        cold."""
        reach, vouched, probe = self.reach(other), self.vouched, _kept(probe)

        def proven(t: float) -> tuple[float, float, float]:
            entry = vouched.get(t)
            if entry is not None and reach[t > 0.0] <= entry[1]:
                return entry[0], math.nan, math.nan
            return probe(t)

        samples = []
        if reach[0] <= self.radii[0] and reach[1] <= self.radii[1]:
            samples = [(t, *proven(t)[:2]) for t, _ in self.kept]
        if [at > 0.0 for _, at, _ in samples] != [slope > 0.0 for _, slope in self.kept]:
            samples = _walk(proven, self.objective.instance)  # not covered, or a bracket moved
        for k in range(len(samples) - 1):
            if samples[k][1] > 0.0 and not samples[k + 1][1] > 0.0:
                for j in (k, k + 1):
                    t, slope, size = samples[j]
                    if math.isnan(size):
                        at, size, _ = probe(t)
                        if (at > 0.0) != (slope > 0.0):
                            return None
                        samples[j] = (t, at, size)
        return samples


def _kept(at: Callable[[float], tuple]) -> Callable[[float], tuple]:
    """``at``, evaluated once per tax for as long as the result is held."""
    evaluated = {}

    def kept(t: float) -> tuple:
        entry = evaluated.get(t)
        if entry is None:
            entry = evaluated[t] = at(t)
        return entry

    return kept


def _solve(objective, run: _Run | None = None, unique: bool = False) -> BudgetDecision:
    """The decision maximising ``objective`` over the tax.

    ``objective.at(t)`` gives, from one inner evaluation, the allocation,
    the gains, the gain term Lambda rate, the other slope terms (``rest``),
    the reweighted goods (``_SlopeRecord``) and the other value terms
    (``offsets``).  With the cost kappa c f'(t), c the first of
    ``objective.coefficients`` for t <= 0 and the second above, the probe's
    slope is P - N, P the sum of gain and the positive other terms and N
    that of cost and the negative ones' magnitudes, its size max(P, N) and
    its value the sum of (gains, *offsets, -kappa c f(t)).
    A run's (``_Run``) first solve walks (``_walk``) and leaves the record
    of its walk and slope terms; a later one takes the signs the record
    vouches for and probes the rest (``_SlopeRecord.samples``).  Without a
    run, or where a probe contradicts a vouched sign, the solve is cold and
    walks, skipping by the descent bound of a plain objective
    (``_PlainObjective.descent``).  Either way one ``_maximize_over_tax``
    takes the samples and gives the full walk's result, bit for bit; with
    ``unique`` a tie raises NonUniqueOptimum.  Where an evaluation
    water-fills (``objective.fills``) the solve keeps ``at(t)`` of every
    tax it probes, so the valued candidates, the decision's allocation and
    a cold solve after a failed certificate water-fill no tax twice.  A
    closed-form evaluation is evaluated again instead, since keeping it
    costs more than it saves: an all-log US-VCG run at n=1k executes 2-4 %
    more bytecodes when it keeps them.
    """
    instance, at, kappa = objective.instance, objective.at, objective.kappa
    below, above = objective.coefficients
    money, record = instance.money_curve, run.record if run else None
    terms = {} if run and record is None else None
    if objective.fills:
        at = _kept(at)

    def probe(t: float, valued: bool = False) -> tuple[float, float, float]:
        _, gains, gain, rest, goods, offsets = at(t)
        c = above if t > 0.0 else below
        cost = kappa * (c * money.deriv(t))
        ahead, behind = gain, cost  # gain and cost are never negative
        for term in rest:
            if term > 0.0:
                ahead += term
            else:
                behind -= term
        slope, size = ahead - behind, ahead if ahead > behind else behind
        if terms is not None and t not in terms:
            terms[t] = (gain, cost, sum(rest), sum(map(abs, rest)), goods)
        value = sum((gains, *offsets, -kappa * (c * money.value(t)))) if valued else math.nan
        return slope, size, value

    samples = record.samples(objective, probe) if record else None
    if samples is None:  # cold, or a run's first solve, whose record takes every sample
        bounded = terms is None and isinstance(objective, _PlainObjective)
        samples = _walk(probe, instance, objective.descent() if bounded else None)
    t_star = _maximize_over_tax(probe, samples, unique)
    if terms is not None:
        run.record = _SlopeRecord(objective, terms, samples)
    return BudgetDecision(tuple(at(t_star)[0]), t_star)


class _PlainObjective(_Conditional):
    """sum_j w_j theta_j(x_j pool(t)) - kappa c f(t), with c the first of
    ``coefficients`` for t <= 0 and the second above: a type's valuation
    (``of``), or a profile's welfare under designer tax weights
    (``optimize_hetero``).  Its slope has no term but gain and cost, so its
    ``at`` is the inner stage's."""

    sides = None  # no target side, so no phantom weights

    def __init__(self, weights, kappa: float, coefficients: tuple, instance: BudgetInstance):
        super().__init__(weights, instance.gain_curves, instance.pool(0.0), instance.pool_rate)
        self.base, self.kappa, self.coefficients = self.weights, kappa, coefficients
        self.instance = instance

    def descent(self) -> float | None:
        """The fastest rate at which r = log(P/N) can fall in log t on t > 0,
        where the catalog proves that it falls, at a rate above _SLACK, so
        that ``_walk`` skips the samples it proves positive; else None.

        With pool(0) = 0 the pool is rate t, and on a catalog whose weighted
        goods all spend by laws (c mu)**p (log p = 1, power 1/(1 - e_j);
        ``GainCurve.spend_law``) the fill's pool is sum_j (c_j mu)**p_j, so
        d log Lambda / d log t = -h, with h between 1/p_max and 1/p_min
        (h = 1 on the closed-form all-log path).  The cost kappa c f'(t) has
        d log / d log t = e - 1, e the money curve's exponent above 0
        (``MoneyCurve.exponent``), so r falls at rate h - (1 - e).  A log1p
        good (d > 0) or pool(0) > 0 gets no bound."""
        if self.start != 0.0:
            return None
        if self.fills:
            if any(d for *_, d in self.laws):
                return None
            powers = [p for *_, p, _ in self.laws]
            h_lo, h_hi = 1.0 / max(powers), 1.0 / min(powers)
        else:
            h_lo = h_hi = 1.0
        drift = 1.0 - self.instance.money_curve.exponent(1.0)
        return h_hi - drift if h_lo - drift > _SLACK else None

    @classmethod
    def of(cls, agent: AgentType, instance: BudgetInstance) -> "_PlainObjective":
        if agent.m != instance.m:
            raise DomainError("type length does not match the instance")
        kappa = instance.money_factor() * agent.money_weight
        return cls(agent.alloc_weights, kappa, (1.0, 1.0), instance)


# =============================================================================
# Bias machinery (phantom targets)
# =============================================================================


def _simplex_point(x: tuple[float, ...]) -> bool:
    """Finite, nonnegative entries that sum to 1 within 1e-9."""
    return all(0.0 <= v < math.inf for v in x) and abs(math.fsum(x) - 1.0) <= 1e-9


@dataclass(frozen=True)
class ConstantTarget:
    """A single favoured allocation, independent of the tax."""

    allocation: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocation", tuple(float(x) for x in self.allocation))
        if not _simplex_point(self.allocation):
            raise DomainError(f"target must be a simplex point: {self.allocation}")

    def allocation_at(self, t: float, instance: BudgetInstance) -> np.ndarray:
        return np.array(self.allocation)

    def spend_rate(self, t: float, instance: BudgetInstance, allocation) -> list:
        """d(xhat_j(t) * pool)/dt, given xhat(t) = ``allocation``."""
        rate = instance.pool_rate
        return [x * rate for x in allocation]


@dataclass(frozen=True)
class EquitableTarget:
    """The gap-minimising allocation recomputed at every candidate tax."""

    def allocation_at(self, t: float, instance: BudgetInstance) -> np.ndarray:
        return equitable_allocation(t, instance)

    def side_at(self, t: float, instance: BudgetInstance) -> tuple[list, list, list, list]:
        """The target-side terms at t from one equalising pass
        (``_equalised``), per good: r_j = 1/theta_j'(s_j), the spend rate
        s_j', the level theta_j(s_j) and r_j' = s_j' dr_j/ds_j.  The funded
        goods share the level c, so theta_j'(s_j) s_j' = c' with
        sum_j s_j' = d(pool)/dt, which gives s_j' = rate r_j / sum_k r_k over
        the funded goods; the goods at zero spend stay there.  dr_j/ds_j is
        r_j/(p (s_j + d)) from the unit-weight spend law (p, d)."""
        spends, raw, level, _ = _equalised(t, instance)
        scale = instance.pool_rate / math.fsum([r for s, r in zip(spends, raw) if s > 0.0])
        rates, levels, raw_slope = [], [], []
        for s, r, curve in zip(spends, raw, instance.gain_curves):
            if s > 0.0:
                _, p, d = curve.spend_law(1.0)
                rate = r * scale
                rates.append(rate)
                levels.append(level)
                raw_slope.append(rate * r / (p * (s + d)))
            else:
                rates.append(0.0)
                levels.append(0.0)
                raw_slope.append(0.0)
        return raw, rates, levels, raw_slope


@dataclass(frozen=True)
class TableTarget:
    """Favoured allocations tabulated by tax, linearly interpolated and
    renormalised between rows."""

    taxes: tuple[float, ...]
    allocations: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "taxes", tuple(float(t) for t in self.taxes))
        object.__setattr__(
            self, "allocations", tuple(tuple(float(x) for x in row) for row in self.allocations)
        )
        if len(self.taxes) != len(self.allocations) or len(self.taxes) < 1:
            raise DomainError("table target needs matching, nonempty rows")
        if len({len(row) for row in self.allocations}) != 1:
            raise DomainError("table target rows must have one length")
        if not all(map(math.isfinite, self.taxes)):
            raise DomainError(f"table target taxes must be finite: {self.taxes}")
        if any(b <= a for a, b in zip(self.taxes, self.taxes[1:])):
            raise DomainError("table target taxes must be strictly increasing")
        for row in self.allocations:
            if not _simplex_point(row):
                raise DomainError(f"table row must be a simplex point: {row}")

    def _interpolated(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The interpolant u(t) and its right-hand slope (0 off the table)."""
        cols = np.array(self.allocations)
        u = np.array([np.interp(t, self.taxes, cols[:, j]) for j in range(cols.shape[1])])
        k = bisect.bisect_right(self.taxes, t)
        if 0 < k < len(self.taxes):
            return u, (cols[k] - cols[k - 1]) / (self.taxes[k] - self.taxes[k - 1])
        return u, np.zeros(len(u))

    def allocation_at(self, t: float, instance: BudgetInstance) -> np.ndarray:
        u, _ = self._interpolated(t)
        return u / u.sum()

    def spend_rate(self, t: float, instance: BudgetInstance, allocation) -> list:
        """d(xhat_j(t) * pool)/dt with xhat = u/U and U = sum_j u_j:
        pool (u' - xhat U')/U + xhat rate, on the segment right of t."""
        u, du = self._interpolated(t)
        u, du = u.tolist(), du.tolist()
        u_total, du_total = _array_sum(u), _array_sum(du)
        pool, rate = instance.pool(t), instance.pool_rate
        return [pool * ((d - x * du_total) / u_total) + x * rate for x, d in zip(allocation, du)]


@dataclass(frozen=True)
class TaxPreference:
    """Designer's tax-side bias term psi(t): continuous and vanishing as
    the tax grows without bound."""

    kind: str = "none"
    amplitude: float = 0.0
    decay_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "exp_decay"):
            raise DomainError(f"unknown tax preference kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.decay_scale)):
            raise DomainError(
                f"tax preference needs a finite amplitude and decay scale, "
                f"got {self.amplitude} and {self.decay_scale}"
            )
        if self.kind == "exp_decay":
            if self.decay_scale <= 0.0:
                raise DomainError("decay scale must be positive")
            if abs(self.value(1e9)) > 1e-6 * max(1.0, abs(self.amplitude)):
                raise DomainError("tax preference does not vanish at the horizon")

    @classmethod
    def none(cls) -> "TaxPreference":
        return cls()

    @classmethod
    def exp_decay(cls, amplitude: float, decay_scale: float) -> "TaxPreference":
        return cls("exp_decay", amplitude, decay_scale)

    def value(self, t: float) -> float:
        if self.kind == "none":
            return 0.0
        return self.amplitude * math.exp(-min(t / self.decay_scale, 700.0))

    def deriv(self, t: float) -> float:
        """psi'(t); 0 where ``value`` holds its floor exp(-700)."""
        if self.kind == "none" or t / self.decay_scale >= 700.0:
            return 0.0
        return -self.amplitude / self.decay_scale * math.exp(-t / self.decay_scale)


@dataclass(frozen=True)
class BiasSpec:
    """Weight, target family, and tax preference of a phantom-agent bias.

    The target is a ``ConstantTarget``, ``EquitableTarget`` or
    ``TableTarget``; each gives ``allocation_at(t, instance)``.  The constant
    and table targets give the spend rates ``spend_rate(t, instance,
    allocation)`` = d(xhat_j(t) pool)/dt from the allocation xhat(t), as a
    list; the equitable target gives every target-side term from the one
    pass that finds its level (``EquitableTarget.side_at``).  Any other
    target raises DomainError.
    """

    lam: float
    target: ConstantTarget | EquitableTarget | TableTarget
    psi: TaxPreference = field(default_factory=TaxPreference.none)

    def __post_init__(self) -> None:
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise DomainError(f"bias weight must be >= 0, got {self.lam}")
        if not isinstance(self.target, (ConstantTarget, EquitableTarget, TableTarget)):
            raise DomainError(f"unknown bias target {self.target!r}")


def _reciprocal_marginals(x: list[float], t: float, instance: BudgetInstance) -> list[float]:
    """1/theta_j'(x_j * pool); on boundary coordinates the continuous limit
    applies (0 when the marginal diverges at zero spend, 1/theta'(0) when
    it is finite)."""
    pool = instance.pool(t)
    if not pool > 0.0:
        raise DomainError(f"pool must be positive at tax {t}")
    raw = []
    for xj, curve in zip(x, instance.gain_curves):
        if xj > 0.0:
            raw.append(1.0 / curve.deriv(xj * pool))
        else:
            at_zero = curve.deriv_at_zero()
            raw.append(0.0 if math.isinf(at_zero) else 1.0 / at_zero)
    return raw


def _array_sum(values: list[float]) -> float:
    """numpy's sum of ``values`` as a float array, bit for bit: left to
    right below 8 terms, numpy's own pairwise order from 8 on."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def corresponding_type(
    target_allocation, t: float, instance: BudgetInstance
) -> np.ndarray:
    """Alloc weights of the phantom type whose inner optimum at tax t is
    exactly the target allocation; requires an interior target."""
    x = np.asarray(target_allocation, dtype=float)
    if x.shape != (instance.m,):
        raise DomainError("target allocation length does not match the instance")
    if abs(float(x.sum()) - 1.0) > 1e-9:
        raise DomainError(f"target allocation sums to {x.sum()}, not 1")
    if np.any(x <= 0.0):
        raise BoundaryTarget(f"target allocation must be interior: {tuple(x)}")
    raw = np.array(_reciprocal_marginals(x.tolist(), t, instance))
    return raw / raw.sum()


class _TargetSides:
    """The target side of a biased objective, tabulated by tax.

    At tax t, with s_j = xhat_j(t) * pool for the target allocation xhat(t),
    it is the phantom weights a(t), the target levels theta_j(s_j) of the
    goods a(t) weights (0.0 elsewhere), a'(t), and lam * sum_j a_j
    theta_j(s_j) with its derivative.  With r_j = 1/theta_j'(s_j) and the
    target's spend rates s_j', a = r / sum r, r_j' = -theta_j''(s_j) s_j'
    r_j^2 (0 at zero spend), a' = (r' - a sum r') / sum r, and a_j
    theta_j'(s_j) = 1 / sum r.  The equitable target gives r_j, s_j', the
    levels and r_j' from the pass that finds its level
    (``EquitableTarget.side_at``), with no curve evaluated again; the
    constant and table targets evaluate them at xhat_j(t) pool.  None of it
    depends on the type being solved, and each entry is a pure function of
    (bias, instance, t) keyed
    by the exact float t, so one table shared by every solve of a mechanism
    run gives the same bits as recomputing each entry, in any order of the
    solves.  The table lives as long as its owner (one run or one audit)
    and keeps every tax it was asked for.
    """

    def __init__(self, bias: BiasSpec, instance: BudgetInstance):
        target = bias.target  # every allocation it tabulates needs one entry per good
        rows = (target.allocation,) if isinstance(target, ConstantTarget) else ()
        if any(len(row) != instance.m for row in getattr(target, "allocations", rows)):
            raise DomainError(f"bias target allocations need {instance.m} entries, one per good")
        self.bias, self.owner, self.instance = bias, bias, instance
        self._table: dict[float, tuple[list, list, list, float, float]] = {}

    def at(self, t: float) -> tuple[list, list, list, float, float]:
        """(a, levels, a', lam sum_j a_j theta_j(s_j), its derivative) at t,
        in one pass over the goods in plain floats: each 1/theta_j'(s_j) is
        computed once, for a(t) and the target's spend rates, and the
        equitable target's come with its levels from the pass that finds
        them (``EquitableTarget.side_at``)."""
        side = self._table.get(t)
        if side is None:
            instance, target, lam = self.instance, self.bias.target, self.bias.lam
            if isinstance(target, EquitableTarget):
                raw, rates, levels, raw_slope = target.side_at(t, instance)
            else:
                pool = instance.pool(t)
                xhat = np.asarray(target.allocation_at(t, instance), dtype=float).tolist()
                raw = _reciprocal_marginals(xhat, t, instance)
                rates = target.spend_rate(t, instance, xhat)
                levels, raw_slope = [], []
                for xj, r, rate, curve in zip(xhat, raw, rates, instance.gain_curves):
                    spend = xj * pool
                    levels.append(curve.value(spend) if r > 0.0 else 0.0)
                    raw_slope.append(-curve.deriv2(spend) * rate * r * r if spend > 0.0 else 0.0)
            total = _array_sum(raw)
            ahat = [r / total for r in raw]
            shift = math.fsum(raw_slope)
            slope, at_target, at_target_slope = [], [], []
            for a, level, d, rate in zip(ahat, levels, raw_slope, rates):
                d = (d - a * shift) / total
                slope.append(d)
                if a > 0.0:
                    at_target.append(a * level)
                    at_target_slope.append(d * level + rate / total)
            at_target, at_target_slope = math.fsum(at_target), math.fsum(at_target_slope)
            side = self._table[t] = (ahat, levels, slope, lam * at_target, lam * at_target_slope)
        return side

    def bias_value(self, decision: BudgetDecision) -> float:
        """C(x, t) of ``bias_value``, with the target side from the table."""
        bias, t, instance = self.bias, decision.tax, self.instance
        if bias.lam == 0.0:
            return bias.psi.value(t)
        weights, levels, _, _, _ = self.at(t)
        pool = instance.pool(t)
        goods = zip(weights, levels, decision.allocation, instance.gain_curves)
        loss = 0.0
        for a, level, x_d, curve in goods:
            if a == 0.0:
                continue
            loss += a * (curve.value(float(x_d) * pool) - level)
        return bias.lam * loss + bias.psi.value(t)


def bias_value(bias: BiasSpec, decision: BudgetDecision, instance: BudgetInstance) -> float:
    """C(x, t): phantom utility loss relative to the target, plus psi(t)."""
    return _TargetSides(bias, instance).bias_value(decision)


class _BiasedObjective:
    """Valuation plus bias of one type, against a target-side table
    (``_TargetSides``): the inner stage folds the phantom weights lam a(t)
    into the water-filling problem.  By the envelope theorem the other slope
    terms are lam sum_j a_j'(t) theta_j(x_j pool), the reweighted term,
    whose levels are the ones the water-fill just computed for its gains,
    -d/dt[lam sum_j a_j theta_j(xhat_j pool)] and psi'(t); the other value
    terms are -lam sum_j a_j theta_j(xhat_j pool) and psi(t)."""

    coefficients = (1.0, 1.0)
    fills = True  # each evaluation solves the inner stage at weights of its own

    def __init__(self, agent: AgentType, bias: BiasSpec, instance: BudgetInstance, sides):
        if agent.m != instance.m:
            raise DomainError("type length does not match the instance")
        self.base, self.bias, self.instance, self.sides = agent.alloc_weights, bias, instance, sides
        self.kappa = instance.money_factor() * agent.money_weight
        self.start, self.rate = instance.pool(0.0), instance.pool_rate

    def at(self, t: float) -> tuple:
        instance, lam, psi = self.instance, self.bias.lam, self.bias.psi
        phantom, _, slopes, at_target, at_target_slope = self.sides.at(t)
        pool, curves = instance.pool(t), instance.gain_curves
        weights = [w + lam * a for w, a in zip(self.base, phantom)]
        inner = _Conditional(weights, curves, self.start, self.rate)
        if inner.fills:  # the fill's levels theta_j(x_j pool) serve the reweighted term
            x, combined, marginal, levels, _ = _water_fill(inner.laws, curves, pool)
            gain = marginal * self.rate
        else:
            (x, combined, gain), levels = inner.at(t)[:3], None
        reweighted, goods = 0, []  # sum_j a_j'(t) theta_j(x_j pool), over a_j'(t) != 0
        for j, (a, curve) in enumerate(zip(slopes, curves)):
            if a:
                level = curve.value(float(x[j]) * pool) if levels is None else levels[j]
                reweighted += a * level
                goods.append((lam * abs(a), curve, level))
        rest = (lam * reweighted, -at_target_slope, psi.deriv(t))
        return x, combined, gain, rest, goods, (-at_target, psi.value(t))


def optimize_biased(
    agent: AgentType, bias: BiasSpec, instance: BudgetInstance, *, run: _Run | None = None
) -> BudgetDecision:
    """argmax of valuation + bias (``_BiasedObjective``): the phantom
    weights a(t) join the water-filling problem, and the tax search carries
    the target-loss offset and psi on the analytic slope.

    A mechanism run passes its ``run`` (``_Run``) to all of its n+1 solves:
    they share its target-side table of this bias and instance and are
    certified against the first one's slope terms (``_SlopeRecord``, one
    layout for every solver kind).  Without it the call builds its own
    table.  The result is the same either way.  A null bias gives
    ``optimize``'s decision, bit for bit: its terms are all 0.0.
    """
    sides = _shared(run, instance, _TargetSides, bias)
    return _solve(_BiasedObjective(agent, bias, instance, sides), run)


# =============================================================================
# Equitable / egalitarian allocation
# =============================================================================


def _equalised(t: float, instance: BudgetInstance) -> tuple[list, list, float, int]:
    """The equitable spends s_j at tax t, with r_j = 1/theta_j'(s_j), the
    common level c of the funded goods and the Newton sweeps that found it.

    When a common level c with theta_j(s_j) = c for all j fits inside the
    pool, it is found by Newton (``_descend``) on g(c) = sum_j
    theta_j^{-1}(c) - pool, down from the lowest full-pool level
    min_j theta_j(pool).  g is increasing and convex for every gain kind,
    and its slope is sum_j r_j, since d theta_j^{-1}/dc = 1/theta_j'(s_j):
    each sweep evaluates each good's inverse and r_j inline, once.  When
    some curves are bounded below (power, log1p, floored at level 0) the
    level is clamped at 0, where they spend nothing, so no inverse is asked
    for a negative level.  Otherwise (the unbounded (log) curves already
    need more than the pool at level 0) they share the pool at a common
    negative level and the rest sit at zero.  r_j at zero spend is the
    continuous limit: 0 where the marginal diverges, 1/theta_j'(0) where it
    is finite.
    """
    pool = instance.pool(t)
    if not pool > 0.0:
        raise DomainError(f"equitable allocation needs a positive pool, got {pool}")
    curves = instance.gain_curves
    everyone = range(instance.m)
    floored = [j for j in everyone if curves[j].value_limit_at_zero() == 0.0]
    idx, floor = everyone, -math.inf
    if floored:
        if math.fsum(curve.inverse(0.0) for curve in curves) > pool:
            idx = [j for j in everyone if j not in floored]
        else:
            floor = 0.0
    goods = [(curves[j].kind, curves[j].scale, curves[j].exponent) for j in idx]

    def sweep(c: float) -> tuple[float, float, tuple[list, list]]:
        spends, raw, total, slope = [], [], 0.0, 0.0
        for kind, a, e in goods:
            if kind == "log":
                s = math.exp(c / a)
                r = s / a
            elif kind == "power":
                s = (c / a) ** (1.0 / e)
                r = s / (e * c) if s > 0.0 else 0.0
            else:
                s = math.expm1(c / a)
                r = (s + 1.0) / a
            spends.append(s)
            raw.append(r)
            total += s
            slope += r
        return total, slope, (spends, raw)

    top = min(curves[j].value(pool) for j in idx)
    level, _, (spends, raw), sweeps = _descend(sweep, top, pool, 0.0, floor)
    if idx is everyone:
        return spends, raw, level, sweeps
    zero = [0.0] * instance.m
    all_spends, all_raw = zero.copy(), _reciprocal_marginals(zero, t, instance)
    for j, s, r in zip(idx, spends, raw):
        all_spends[j], all_raw[j] = s, r
    return all_spends, all_raw, level, sweeps


def equitable_allocation(t: float, instance: BudgetInstance) -> np.ndarray:
    """Allocation minimising the largest pairwise gap among the per-good
    utilities theta_j(x_j * pool); it simultaneously maximises the
    smallest per-good utility.  The spends are ``_equalised``'s: a common
    level of every good where one fits in the pool, else the unbounded-below
    (log) goods at a common negative level and the rest at zero.
    """
    spends = _equalised(t, instance)[0]
    total = _array_sum(spends)
    return np.array([spend / total for spend in spends])


# =============================================================================
# Heterogeneous tax weights
# =============================================================================


class _HeteroTotals:
    """A profile's exact totals under designer tax weights (agent k pays
    omega_k t): each good's weight total and the money coefficient
    sum_k w_k omega_k^e on each side of zero (``MoneyCurve.exponent``), as
    exact sums (``_exact_sum``).  Removing agent i is one short
    ``math.fsum`` per total, the correctly rounded sum of the others, so the
    profile without any one agent is priced in O(m), with the bits of a
    fresh sum over it.  The heterogeneous mechanism (``mechanism._Hetero``)
    prices its pivots and the others' welfare from these totals.
    """

    def __init__(self, profile: tuple, instance: BudgetInstance):
        self.profile, self.owner, self.instance = profile, profile, instance
        money, omegas = instance.money_curve, instance.tax_weights
        rows = [a.alloc_weights for a in profile]
        self.weights = [_exact_sum(list(column)) for column in zip(*rows)]
        self.exponents = (money.exponent(-1.0), money.exponent(1.0))
        self.money = [
            _exact_sum([a.money_weight * omega**e for a, omega in zip(profile, omegas)])
            for e in self.exponents
        ]

    def without(self, i: int | None) -> tuple[list[float], tuple[float, float]]:
        """The others' weights and money coefficients (t <= 0, t > 0)
        without agent i (None: the whole profile)."""
        n = len(self.profile)
        if i is None:
            weights, money = [0.0] * self.instance.m, (0.0, 0.0)
        elif 0 <= i < n:
            agent, omega = self.profile[i], self.instance.tax_weights[i]
            weights = agent.alloc_weights
            money = tuple(agent.money_weight * omega**e for e in self.exponents)
        else:
            raise DomainError(f"agent index {i} out of range for n={n}")
        others = [math.fsum((*total, -w)) for total, w in zip(self.weights, weights)]
        coefficients = tuple(math.fsum((*total, -c)) for total, c in zip(self.money, money))
        return others, coefficients


def optimize_hetero(
    profile,
    instance: BudgetInstance,
    exclude: int | None = None,
    *,
    run: _Run | None = None,
) -> BudgetDecision:
    """Welfare-optimal decision when agent i pays tax_weights[i] * t.

    The inner stage is unchanged (the allocation only sees the pool); the
    outer stage carries the per-agent money terms sum_k w_k f(omega_k t),
    which is (sum_k w_k omega_k^e) f(t) with e the money curve's degree of
    homogeneity on t's side of zero, so each value or slope evaluation calls
    the money curve once, whatever the number of agents.  The weights and
    the two coefficients come from the profile's exact totals
    (``_HeteroTotals``); removing one agent from them costs O(m) and rounds
    as a fresh sum over the others.  ``exclude`` drops one agent from the
    welfare, which is what pivot payments need; an index outside the
    profile raises DomainError.  The budget mechanics (pool and feasible
    range) keep the full population.

    A mechanism run passes its ``run`` (``_Run``) to all of its n+1 solves:
    they share its totals of this profile (the same tuple) and instance and
    are certified against the first one's slope terms.  Without it the call
    builds its own totals.  The result is the same either way.
    """
    profile = tuple(profile)
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    totals = _shared(run, instance, _HeteroTotals, profile)
    weights, coefficients = totals.without(exclude)
    if len(profile) == 1 and exclude is not None:
        raise DomainError("cannot optimise for an empty included set")
    return _solve(_PlainObjective(weights, instance.money_factor(), coefficients, instance), run)


# =============================================================================
# Brute-force oracle
# =============================================================================


@dataclass(frozen=True)
class OracleResult:
    decision: BudgetDecision
    value: float


def _simplex_lattice(m: int, resolution: int) -> np.ndarray:
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        x1 = np.linspace(0.0, 1.0, resolution + 1)
        return np.column_stack([x1, 1.0 - x1])
    rows = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            rows.append((i / resolution, j / resolution, (resolution - i - j) / resolution))
    return np.array(rows)


def grid_oracle(
    target,
    instance: BudgetInstance,
    resolution: int = 500,
    t_range: tuple[float, float] = (0.0, 0.0),
) -> OracleResult:
    """Exhaustive search over a simplex lattice times a tax grid.

    ``target`` is a single type or a profile; the objective mirrors the
    solver's (convention-consistent conditional value, heterogeneous money
    terms when the instance has designer tax weights) but is evaluated by
    direct vectorised summation, independent of the solver's machinery.
    Intended for verification; m <= 3 only, and a bounded, nonempty
    ``t_range`` must be supplied.
    """
    if resolution < 10:
        raise ResolutionTooCoarse(f"need at least 10 points per axis, got {resolution}")
    if instance.m > 3:
        raise DomainError("the grid oracle only supports m <= 3")
    kappa = instance.money_factor()
    money = instance.money_curve

    if isinstance(target, AgentType):
        weights = np.array(target.alloc_weights)
        money_terms = [(target.money_weight, 1.0)]
    else:
        profile = tuple(target)
        weights = np.array(
            [math.fsum(a.alloc_weights[j] for a in profile) for j in range(instance.m)]
        )
        money_terms = [
            (a.money_weight, w) for a, w in zip(profile, instance.tax_weights)
        ]

    t_lo = max(t_range[0], _feasible_start(instance))
    t_hi = t_range[1]
    if not t_hi > t_lo:
        raise DomainError(f"empty tax range after feasibility clipping: {t_range}")

    lattice = _simplex_lattice(instance.m, resolution)
    active = [j for j in range(instance.m) if weights[j] > 0.0]

    best_val = -math.inf
    best_t = math.nan
    best_row = None
    for t in np.linspace(t_lo, t_hi, resolution):
        pool = instance.pool(float(t))
        total = np.zeros(len(lattice))
        for j in active:
            total += weights[j] * instance.gain_curves[j].value_array(
                lattice[:, j] * pool
            )
        money_total = math.fsum(w * money.value(omega * float(t)) for w, omega in money_terms)
        total -= kappa * money_total
        i = int(np.argmax(total))
        if total[i] > best_val:
            best_val = float(total[i])
            best_t = float(t)
            best_row = lattice[i]
    if best_row is None or not math.isfinite(best_val):
        raise DomainError("oracle found no finite-valued grid point")
    return OracleResult(BudgetDecision(tuple(best_row), best_t), best_val)
