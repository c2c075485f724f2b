"""The utility-sensitive VCG mechanism and its variants.

The mechanism picks the welfare-maximising budget decision -- which, by
mean-dependency, is the optimum of the mean type -- and charges each agent
a pivot payment pushed through the money curve so that the quasi-linear
accounting identity survives non-quasi-linear utilities:

    p_i = W_i(best_i) - W_i(best_all)                        (pivot)
    P_i = -t_i + f^{-1}( f(t_i) + p_i / w_money_i )          (t_i: own tax)

Here W_i is the welfare of the others without agent i and best_i its
optimum.  With that P_i the realised utility of agent i equals the total
welfare at the chosen decision minus the others' welfare in their absence,
which is what makes truthful reporting dominant.  The pivot is >= 0 in
exact arithmetic, since best_i maximises W_i.

One step computes every pivot (``_Plain.pivot_at``), good by good, from the
others' allocation weights w_j, their money coefficient c on each side of
zero and how many agents they stand for, k (a variant's ``weights``):

    p_i = k * fsum( w_j (theta_j(best_i) - theta_j(best_all)),
                    -c (f(t_best_i) - f(t_best_all)) )

the change of f from ``MoneyCurve.difference``, so products and sum round at
the size of the changes, not of the welfare.  The same weights give the
others' welfare at their optimum, which the audit reads, and the total
welfare (``_Plain.welfare``).  The levels theta_j carry one rounding each,
which the difference does not cancel, so the pivot's relative error still
grows about as n^2.  On ``bench/workloads.py``'s per-capita all-log population at
n = 100,000 (generator seeds 1-4, 300 sampled agents each), the median
relative error of the raw pivots against their 50-digit value is 1.1e-5 to
1.3e-5 (2.8e-5 to 3.6e-5 as the difference of two valuations), the worst
1.6e-3 to 2.3e-2, and no raw pivot is <= 0, the lowest 9.0e-11 (the
valuation difference gave 4 of the 400,000 at 0).  A form free of the
levels' rounding is open work (ROADMAP.md, items 2-3).

One engine runs every variant and payment rule (``_run``, the only loop
over the agents), and one step (``_residuals``) audits a run from the
others' optima: ``usvcg mechanism`` and ``usvcg check`` pass the run's own
pivot solves (``_keeping_optima``), and ``identity_residuals`` takes them
from a fresh run, an audit independent of the one it checks.  In one
process both give the same bits.  A variant, its inputs checked when it is
built, owns its run's ``_Run`` and names only its others' optimum oracle
(``others_optimum``; with nobody excluded, None, it decides), the others'
weights (``weights``) and its payment (``payment``): ``_Plain`` is US-VCG,
the others an excluded mean n-1 strong; ``_NonPositive`` rebates its
payments; ``_Biased`` steers toward phantom targets and adds its bias
terms to the payment argument and the audit's welfare; ``_Hetero`` has
designer-assigned tax weights, the others the profile's totals without
agent i, standing for 1 (the other variants refuse an instance that
carries them).  The solvers are module globals read at call time, so
rebinding one reaches every solve.  Non-positive payments take a
Jacobian-bound rebate off each raw pivot; the Jacobian's perturbed solves
take the run and are certified as its pivot solves are.

A pass evaluates the decision's levels theta_j(x_j * pool) and f(t) once
(``model._levels``): the welfare, the pivots, the realised utilities
(``_realized``) and the audit's total read them, and each pivot evaluates
its others' optimum's levels once, for its terms and for the others'
welfare there, which the audit reads.  Each sum keeps the order
``model.valuation`` sums in, so every welfare has the bits of valuing
afresh.

Every variant prices all agents' removals from the profile's totals in one
O(n*m) pass.  Welfare depends on a profile only through its mean, so
``excluded_means`` gives every agent's excluded mean for US-VCG and the
biased variant.  Under designer tax weights the totals are each good's
weight total and the money coefficient sum_k w_k omega_k^e
(``solver._HeteroTotals``): the heterogeneous variant's solves read them, and
the others' welfare at a decision is those totals against the decision's
gains and f(t), O(m) per agent.  In both forms removing agent i is one short
``math.fsum`` of exact totals, the correctly rounded sum of the others, and
a run costs one solve for the decision plus one pivot solve per agent.
A variant's pivot solves are certified against the decision's record
(one ``solver._Run`` per run): an excluded mean lies within O(1/n) of the
full mean, so the radius each sample of the decision's walk keeps
(``solver._radius``, one form for every solver kind) proves the tax-slope
signs at every sample but the ends of its brackets.  A pivot solve within
every such radius probes only those and its roots -- about 3 slope probes
where the goods' spend laws share one power and 5-6 on a mixed catalog,
against the decision's 43-47 -- and one farther off also probes the
samples whose radius it exceeds; each returns its own cold search's
decision, bit for bit.  On an all-log catalog with a descent bound (B0 =
0) the plain and heterogeneous solves keep no record: each walks cold in
4 slope probes, which costs less than the record (``solver._solve``).
The biased variant's bound also covers its reweighted
term, which moves with the type's own allocation, by how far each good's
level can move (``GainCurve.level_shift``).

Every run is a pure function of (profile, instance): no solve takes a
numerical setting, and the non-positive scheme's finite-difference step
is the constant _FD_STEP (``_decision_map_jacobian``).  The biased
run's n+1 solves share one table of the target side of the objective (the
phantom target, its weights and its gains at each tax they visit); each
entry is a pure function of the tax, so the result does not depend on the
order of the solves.  A pivot solve depends only on the decision's record
and its own type, so the per-agent pivot solves could run in any order, or
in parallel (the biased ones with a table each), without changing the
result.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PivotUndefined, RangeError, RegularityWarning
from .model import (
    AgentType,
    BudgetDecision,
    BudgetInstance,
    _gains,
    _levels,
    excluded_means,
    feature_vector,
    mean_type,
)
from .solver import (
    BiasSpec,
    _HeteroTotals,
    _Run,
    _TargetSides,
    corresponding_type,
    optimize,
    optimize_biased,
    optimize_hetero,
)

__all__ = [
    "Outcome",
    "NonPositiveConfig",
    "clarke_pivot",
    "raw_vcg_payment",
    "sensitive_payment",
    "run_us_vcg",
    "realized_utility",
    "identity_residuals",
    "non_positive_payments",
    "run_bus_vcg",
    "run_us_vcg_hetero",
    "BiasSpec",
    "corresponding_type",
    "tangent_basis",
]

_FD_STEP = 1e-5  # central-difference step of the decision-map Jacobian


@dataclass(frozen=True)
class Outcome:
    """Chosen decision plus the raw pivot and final payment schedules."""

    decision: BudgetDecision
    raw_vcg: tuple[float, ...]
    payments: tuple[float, ...]
    welfare: float


@dataclass(frozen=True)
class NonPositiveConfig:
    """Parameters of the non-positive payment scheme.

    ``gamma`` bounds the distance between any agent's type and the others'
    mean; ``r`` is an extra per-capita rebate.  Both are finite, and so is
    gamma^2, so the rebate's constant part gamma^2/n + r/n is finite before
    any solve.
    """

    gamma: float
    r: float = 0.0

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma * self.gamma)):
            raise DomainError(f"gamma must be positive with a finite square, got {self.gamma}")
        if not 0.0 <= self.r < math.inf:
            raise DomainError(f"rebate constant must be finite and >= 0, got {self.r}")

    @classmethod
    def for_band(cls, mu: float, r: float = 0.0) -> "NonPositiveConfig":
        """Certified cover of |mean_excl - type| when money weights stay in
        the (1/mu, mu) band."""
        return cls(gamma=2.0 * (1.0 + mu), r=r)


# =============================================================================
# The pivot engine
# =============================================================================


def sensitive_payment(p_vcg: float, t_star: float, money_weight: float, money_curve) -> float:
    """Map a quasi-linear payment onto the money axis: the transfer on top
    of t* whose disutility equals p_vcg / money_weight."""
    argument = money_curve.value(t_star) + p_vcg / money_weight
    return -t_star + money_curve.inverse(argument)


class _Plain:
    """US-VCG: the mean type decides, and the others without agent i are
    their mean type, n-1 strong."""

    def __init__(self, profile, instance: BudgetInstance):
        self.profile, self.instance = tuple(profile), instance
        self.n, self.table = len(self.profile), None  # no table for a run's solves to share
        self._mean = None
        if not (instance.homogeneous_tax or isinstance(self, _Hetero)):
            raise DomainError(  # its payments would ignore what realized_utility charges
                "the instance carries designer tax weights; run it with run_us_vcg_hetero "
                "(CLI: --hetero)"
            )

    @property
    def mean(self) -> AgentType:  # the profile's, which decides; lazy, with no lock
        if self._mean is None:
            self._mean = mean_type(self.profile)
        return self._mean

    @cached_property
    def run(self) -> _Run:  # the one every solve of ``_run`` takes
        return _Run(self.instance, self.table)

    def others(self):
        return excluded_means(self.profile)

    def others_optimum(self, excl, run=None) -> BudgetDecision:
        return optimize(self.mean if excl is None else excl, self.instance, run=run)

    def own_tax(self, i: int, decision: BudgetDecision) -> float:
        return decision.tax

    def weights(self, others):
        """The others' allocation weights, their money coefficients (t <= 0,
        t > 0) and how many agents they stand for: an excluded mean ``others``
        n-1 strong, or for None the whole profile's mean, n strong."""
        mean, count = (self.mean, self.n) if others is None else (others, self.n - 1)
        return mean.alloc_weights, (mean.money_weight, mean.money_weight), count

    def pivot_at(self, decision: BudgetDecision, levels):
        """(others, their optimum) -> (raw pivot, payment argument, the
        others' welfare at their optimum, which the audit reads).  The pivot
        is the others' (``weights``) welfare change from the decision to
        their optimum, taken good by good (module docstring); on one side of
        zero the change of f is ``MoneyCurve.difference``, accurate to a few
        ulps of itself.  The decision's theta_j and f(t) are its ``levels``
        (``model._levels``)."""
        instance, (gains_d, f_d), td = self.instance, levels, decision.tax
        money = instance.money_curve
        _gains(self.weights(None)[0], gains_d)  # raises where a weighted good has no level

        def pivot(others, best):
            weights, (below, above), count = self.weights(others)
            instance.check_decision(best)
            pool_b, tb = instance.pool(best.tax), best.tax
            gains_b, terms = 0.0, []  # gains_b sums as ``_gains`` does
            for w, xb, level_d, curve in zip(weights, best.allocation, gains_d, instance.gain_curves):
                if w > 0.0:
                    level_b = curve.value(xb * pool_b)
                    terms.append(w * (level_b - level_d))
                    gains_b += w * level_b
            cb, cd = (above if tb > 0.0 else below), (above if td > 0.0 else below)
            f_b = money.value(tb)
            if cb == cd:
                terms.append(-cb * money.difference(tb, td))
            else:
                terms += [-cb * f_b, cd * f_d]
            p = count * math.fsum(terms)
            return p, p, count * (gains_b - cb * f_b)

        return pivot

    def payment(self, i: int, argument: float, decision: BudgetDecision) -> float:
        """Agent i's payment: ``argument`` pushed through the money curve."""
        own_tax = self.own_tax(i, decision)
        money_weight = self.profile[i].money_weight
        return sensitive_payment(argument, own_tax, money_weight, self.instance.money_curve)

    def welfare(self, decision: BudgetDecision, levels, others=None) -> float:
        """The welfare of ``others`` (``weights``; None: the whole profile)
        at ``decision`` from its ``levels`` (``model._levels``): their
        weights against theta_j, less their money coefficient on t's side
        of zero times f(t), times how many they stand for."""
        weights, (below, above), count = self.weights(others)
        gains, f_t = levels
        return count * (_gains(weights, gains) - (above if decision.tax > 0.0 else below) * f_t)

    total = welfare  # the total welfare the audit takes the others' welfare from


_KEPT: contextvars.ContextVar[list | None] = contextvars.ContextVar("kept_optima", default=None)


@contextlib.contextmanager
def _keeping_optima():
    """Inside the block, each run appends (its variant, its (others, their
    optimum, their welfare there) triples, its outcome, its decision's
    ``model._levels``) to the yielded list, for ``_realized`` and
    ``_residuals``."""
    token = _KEPT.set(kept := [])
    try:
        yield kept
    finally:
        _KEPT.reset(token)


def _run(variant) -> Outcome:
    """The variant's decision (its others' optimum, nobody excluded) and its
    levels (``model._levels``), then for every agent one solve of the
    others' optimum, certified against the decision's (one ``_Run``) or
    cold (``solver._solve``), its pivot and its payment.  It leaves
    (variant, the (others, their optimum, their welfare there) triples, the
    outcome, the levels) for a caller inside ``_keeping_optima``."""
    profile, instance = variant.profile, variant.instance
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    optima, raw, payments, run = [], [], [], variant.run
    decision = variant.others_optimum(None, run)
    levels = _levels(decision, instance)
    welfare = variant.welfare(decision, levels)
    if len(profile) > 1:
        pivot = variant.pivot_at(decision, levels)
        for i, excl in enumerate(variant.others()):
            best = variant.others_optimum(excl, run)
            p, argument, others_welfare = pivot(excl, best)
            optima.append((excl, best, others_welfare))
            raw.append(p)
            payments.append(variant.payment(i, argument, decision))
    outcome = Outcome(decision, tuple(raw) or (0.0,), tuple(payments) or (0.0,), welfare)
    if (kept := _KEPT.get()) is not None:
        kept.append((variant, optima, outcome, levels))
    return outcome


def _one_agent(profile, i: int, instance: BudgetInstance, what: str):
    """US-VCG's (variant, others, their optimum) for agent i alone."""
    variant = _Plain(profile, instance)
    if variant.n < 2:
        raise PivotUndefined(f"{what} needs at least two agents")
    (excl,) = excluded_means(variant.profile, (i,))
    return variant, excl, variant.others_optimum(excl)


def clarke_pivot(profile, i: int, instance: BudgetInstance) -> float:
    """Welfare the others would reach at their own optimum without agent i."""
    variant, excl, best = _one_agent(profile, i, instance, "the pivot term")
    return variant.welfare(best, _levels(best, instance), excl)


def raw_vcg_payment(profile, i: int, instance: BudgetInstance) -> float:
    """Externality agent i imposes: the others' welfare loss from moving the
    decision to the full-profile optimum.  Nonnegative in exact arithmetic;
    the computed value can fall slightly below 0 at large n (see the module
    docstring)."""
    variant, excl, best = _one_agent(profile, i, instance, "the pivot payment")
    decision = variant.others_optimum(None)
    return variant.pivot_at(decision, _levels(decision, instance))(excl, best)[0]


def run_us_vcg(profile, instance: BudgetInstance) -> Outcome:
    """Run the mechanism: decision from the mean type, one pivot solve per
    agent, payments pushed through the money curve."""
    return _run(_Plain(profile, instance))


def realized_utility(profile, i: int, outcome: Outcome, instance: BudgetInstance) -> float:
    """Agent i's utility at the outcome: gains at the funded spends minus
    the disutility of her total transfer (weighted tax plus payment)."""
    profile = tuple(profile)
    if not 0 <= i < len(profile):
        raise DomainError(f"agent index {i} out of range for n={len(profile)}")
    agent, decision = profile[i], outcome.decision
    transfer = instance.tax_weights[i] * decision.tax + outcome.payments[i]
    gains, money = _levels(decision, instance)[0], instance.money_curve
    return _gains(agent.alloc_weights, gains) - agent.money_weight * money.value(transfer)


def identity_residuals(
    profile,
    outcome: Outcome,
    instance: BudgetInstance,
    bias: BiasSpec | None = None,
    hetero: bool = False,
) -> list[float]:
    """Per-agent residual of the accounting identity, recomputed from
    scratch so results can be audited independently: ``_residuals`` at the
    others' optima of a fresh run of the variant, not at ``outcome``'s.
    ``bias`` with ``hetero`` raises DomainError: no variant is both.
    ``usvcg mechanism`` and ``usvcg check`` take their residuals from their
    run's own pivot solves instead, with the same bits."""
    if hetero and bias is not None:
        raise DomainError("the biased and heterogeneous variants cannot be audited together")
    if hetero:
        variant = _Hetero(profile, instance)
    elif bias is not None:
        variant = _Biased(profile, instance, bias)
    else:
        variant = _Plain(profile, instance)
    with _keeping_optima() as kept:
        _run(variant)
    ((_, optima, _, _),) = kept
    levels = _levels(outcome.decision, instance)
    return _residuals(variant, optima, outcome, _realized(variant, outcome, levels), levels)


def _realized(variant, outcome: Outcome, levels) -> list[float]:
    """Every agent's ``realized_utility`` at ``outcome``, with the same
    bits: the gains from the decision's ``levels`` (``model._levels``), so
    only each agent's transfer is evaluated per agent."""
    gains, tax = levels[0], outcome.decision.tax
    instance = variant.instance
    money = instance.money_curve
    return [
        _gains(agent.alloc_weights, gains) - agent.money_weight * money.value(omega * tax + payment)
        for agent, omega, payment in zip(
            variant.profile, instance.tax_weights, outcome.payments, strict=True
        )
    ]


def _residuals(variant, optima, outcome: Outcome, utilities, levels) -> list[float]:
    """Per agent i, with ``optima``'s i-th triple the others without i,
    their own optimum and their welfare there, and ``utilities``' i-th
    entry its realised utility (``_realized``): that utility minus (total
    welfare at the decision, from its ``levels`` - the others' welfare at
    their optimum)."""
    if variant.n == 1:
        return [0.0]
    total = variant.total(outcome.decision, levels)
    return [utility - (total - others) for utility, (_, _, others) in zip(utilities, optima)]


# =============================================================================
# Non-positive payments
# =============================================================================


def tangent_basis(m: int) -> list[np.ndarray]:
    """Orthonormal basis of the simplex tangent space {z : sum z = 0}."""
    basis = []
    for k in range(1, m):
        v = np.zeros(m)
        v[:k] = 1.0
        v[k] = -float(k)
        basis.append(v / math.sqrt(k * (k + 1)))
    return basis


def _perturbed(base: AgentType, alloc_dir: np.ndarray, money_dir: float, h: float) -> AgentType:
    weights = tuple(w + h * d for w, d in zip(base.alloc_weights, alloc_dir))
    return AgentType(weights, base.money_weight + h * money_dir)


def _decision_map_jacobian(
    base: AgentType, instance: BudgetInstance, h: float, run: _Run | None = None
) -> np.ndarray:
    """Central finite differences of the decision's feature vector along the
    simplex tangent directions and the money-weight axis.

    The difference quotient divides solver noise by 2h; the inner stage
    water-fills to 1e-13 of the pool and the tax search resolves the slope
    to its rounding bound.  The step shrinks to keep the perturbed weights
    positive, so ``base`` must weight every good: a zero weight leaves no
    room along any direction that moves it.  Each solve takes ``run``.
    """
    m = instance.m
    directions: list[tuple[np.ndarray, float]] = [
        (d, 0.0) for d in tangent_basis(m)
    ] + [(np.zeros(m), 1.0)]
    cols = []
    for alloc_dir, money_dir in directions:
        h_eff = h
        if np.any(alloc_dir != 0.0):
            # keep perturbed weights strictly positive
            room = min(
                w / abs(d) for w, d in zip(base.alloc_weights, alloc_dir) if d != 0.0
            )
            h_eff = min(h, 0.45 * room)
        if money_dir != 0.0:
            h_eff = min(h_eff, 0.45 * base.money_weight)
        types = (_perturbed(base, alloc_dir, money_dir, s) for s in (h_eff, -h_eff))
        plus, minus = (feature_vector(optimize(a, instance, run=run), instance) for a in types)
        cols.append((plus - minus) / (2.0 * h_eff))
    return np.column_stack(cols)


class _NonPositive(_Plain):
    """US-VCG with every payment rebated: agent i's raw pivot less a bound
    on any agent's pivot given the others' reports (``non_positive_payments``).
    The Jacobian's perturbed solves take the run and are certified against
    its record, or walk cold, as its pivot solves do.  Built, it checks the
    scheme's inputs (``non_positive_payments``)."""

    def __init__(self, profile, instance: BudgetInstance, np_config: NonPositiveConfig):
        profile = tuple(profile)
        if instance.semantics != "per_capita":
            raise DomainError("non-positive payments are defined for per-capita semantics")
        if len(profile) != instance.n or len(profile) < 2:
            raise DomainError("non-positive payments need the instance's full profile, n >= 2")
        super().__init__(profile, instance)
        self.np_config, self.excl = np_config, excluded_means(profile)
        for i, excl in enumerate(self.excl):
            if 0.0 in excl.alloc_weights:
                raise DomainError(
                    f"agent {i}: every other agent weights good {excl.alloc_weights.index(0.0)} "
                    "at 0, so the decision map has no two-sided difference at their mean"
                )
        for i, (agent, excl) in enumerate(zip(profile, self.excl)):
            distance = math.dist(
                (*agent.alloc_weights, agent.money_weight), (*excl.alloc_weights, excl.money_weight)
            )
            if distance > np_config.gamma:
                raise DomainError(
                    f"agent {i}: distance {distance:.6g} to the others' mean exceeds "
                    f"gamma {np_config.gamma:.6g}, so the rebate does not bound its pivot"
                )

    def others(self):
        return self.excl

    def payment(self, i: int, argument: float, decision: BudgetDecision) -> float:
        """Agent i's raw pivot ``argument`` less its rebate, pushed through
        the money curve."""
        excl, gamma, r = self.excl[i], self.np_config.gamma, self.np_config.r
        norm_half, norm_full = (
            float(np.linalg.norm(_decision_map_jacobian(excl, self.instance, h, self.run), 2))
            for h in (_FD_STEP / 2.0, _FD_STEP)
        )
        rebate = (gamma**2 / self.n) * (norm_half + 1.0) + r / self.n
        if not math.isfinite(rebate):
            raise RangeError(
                f"agent {i}: the rebate (gamma^2/n)(||D|| + 1) + r/n overflows at "
                f"gamma {gamma:.6g} and ||D|| {norm_half:.6g}"
            )
        if abs(norm_full - norm_half) > 0.10 * max(norm_half, norm_full, 1e-12):
            warnings.warn(
                f"decision-map Jacobian at agent {i} changes by more than 10% "
                f"under step halving ({norm_full:.4g} vs {norm_half:.4g}); "
                "the optimum may not be a regular maximum",
                RegularityWarning,
                stacklevel=4,  # past _run and non_positive_payments, to their caller
            )
        try:
            return super().payment(i, argument - rebate, decision)
        except RangeError as exc:
            raise RangeError(
                f"agent {i}: raw pivot {argument:.6g} minus rebate {rebate:.6g} is not a "
                f"payment the money curve can carry ({exc})"
            ) from exc


def non_positive_payments(
    profile, instance: BudgetInstance, np_config: NonPositiveConfig
) -> tuple[float, ...]:
    """Pivot payments minus a certified per-capita rebate, so nobody pays on
    top of the tax: the payments of one US-VCG run (``_NonPositive``), the
    rebate taken off each raw pivot.

    The rebate (gamma^2 / n) * (||D|| + 1) + r/n bounds any agent's possible
    pivot payment given the others' reports, with D the Jacobian of the
    feature-vector-of-the-optimum map at the excluded mean (estimated by
    central differences at the step _FD_STEP, spectral norm from its
    singular values).  Per-capita semantics only; the step-halved Jacobian
    must agree within 10% or a RegularityWarning is emitted.  An excluded
    mean that weights a good at 0 (every other agent does) has no two-sided
    differences there, and a type farther than gamma from its excluded mean
    (Euclidean over the allocation weights and the money weight) breaks the
    bound the rebate rests on; either raises DomainError before any solve.
    A rebate that overflows raises RangeError naming the agent, gamma and
    the norm, right after that agent's norms; a rebated pivot the money
    curve cannot carry (below what the one-sided power curve attains)
    raises RangeError naming the agent, the raw pivot and the rebate.
    """
    return _run(_NonPositive(profile, instance, np_config)).payments


# =============================================================================
# Biased mechanism
# =============================================================================


class _Biased(_Plain):
    """Phantom bias: valuation plus bias decides, and n times the bias
    difference joins the payment argument, never the raw pivot."""

    def __init__(self, profile, instance: BudgetInstance, bias: BiasSpec):
        super().__init__(profile, instance)
        self.bias = bias
        self.table = self.sides = _TargetSides(bias, instance)

    def others_optimum(self, excl, run=None) -> BudgetDecision:
        agent = self.mean if excl is None else excl
        return optimize_biased(agent, self.bias, self.instance, run=run)

    def pivot_at(self, decision: BudgetDecision, levels):
        plain, c_at_decision = super().pivot_at(decision, levels), self.sides.bias_value(decision)

        def pivot(excl, best):
            p, _, others_welfare = plain(excl, best)
            c_best = self.sides.bias_value(best)
            return p, p + self.n * (c_best - c_at_decision), others_welfare + self.n * c_best

        return pivot

    def total(self, decision: BudgetDecision, levels) -> float:
        return self.welfare(decision, levels) + self.n * self.sides.bias_value(decision)


def run_bus_vcg(profile, bias: BiasSpec, instance: BudgetInstance) -> Outcome:
    """Mechanism steered by a phantom bias: the decision maximises
    valuation-plus-bias of the mean, and the bias differences enter the
    payment inversion alongside the pivot term.  A target whose length is
    not the instance's raises DomainError, a null bias's too.  A null bias
    gives ``run_us_vcg``'s outcome: its biased solves decide as the plain
    kind's do, bit for bit, and its bias terms are 0.0."""
    return _run(_Biased(profile, instance, bias))


# =============================================================================
# Heterogeneous tax weights
# =============================================================================


class _Hetero(_Plain):
    """Designer tax weights: agent k pays tax_weights[k] * t, so the others
    without agent i are everyone else.  The run builds the profile's exact
    totals once (``_HeteroTotals``): its solves read them through its
    ``_Run``, and the others' welfare and the pivots are those totals
    against a decision's gains and f(t), O(m) per agent.  Each payment
    offsets its own weighted tax."""

    def __init__(self, profile, instance: BudgetInstance):
        super().__init__(profile, instance)
        self.table = self.totals = _HeteroTotals(self.profile, instance)

    def others(self):
        return range(self.n)

    def others_optimum(self, i: int | None, run=None) -> BudgetDecision:
        return optimize_hetero(self.profile, self.instance, exclude=i, run=run)

    def own_tax(self, i: int, decision: BudgetDecision) -> float:
        return self.instance.tax_weights[i] * decision.tax

    def weights(self, others: int | None):
        """The profile's exact totals without agent ``others`` (None: the
        whole profile), standing for 1: they are sums, not a mean."""
        return (*self.totals.without(others), 1)


def run_us_vcg_hetero(profile, instance: BudgetInstance) -> Outcome:
    """Mechanism under designer tax weights: agent i pays tax_weights[i]*t.

    The payment inversion offsets each agent's own weighted tax, so her
    total transfer is tax_weights[i]*t* + P_i and the accounting identity
    still closes.
    """
    return _run(_Hetero(profile, instance))
