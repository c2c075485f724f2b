"""The utility-sensitive VCG mechanism and its variants.

The mechanism picks the welfare-maximising budget decision -- which, by
mean-dependency, is the optimum of the mean type -- and charges each agent
a pivot payment pushed through the money curve so that the quasi-linear
accounting identity survives non-quasi-linear utilities:

    p_i = (n-1) * (v_excl(best_excl) - v_excl(best_all))     (pivot)
    P_i = -t_i + f^{-1}( f(t_i) + p_i / w_money_i )          (t_i: own tax)

Here v_excl is the valuation of the mean of the other n-1 agents and
best_excl its optimum.  With that P_i the realised utility of agent i equals
the total welfare at the chosen decision minus the others' welfare in their
absence, which is what makes truthful reporting dominant.  The pivot is >= 0
in exact arithmetic, since best_excl maximises v_excl.  Computed, it is the
difference of two O(1) valuations that differ by O(1/n^2), so its relative
error grows about as n^2 and a pivot near 0 can come out slightly negative:
on ``bench/workloads.py``'s per-capita all-log population at n = 100,000
no raw pivot is <= 0 (the lowest is 1.4e-9, the median 1.5e-5), but moving
the excluded optima within the slope's rounding bound changes 19 % of the
pivots, some by half their value, and another such population had 3 of
100,000 raw pivots <= 0, the lowest -7.1e-10.  A cancellation-free form of
the difference is open work (ROADMAP.md, items 2-3).

One engine runs every variant and payment rule (``_run``, the only loop
over the agents), and one step (``_residuals``) audits a run from the
others' optima: ``usvcg mechanism`` and ``usvcg check`` pass the run's own
pivot solves (``_keeping_optima``), and ``identity_residuals`` takes them
from a fresh run, an audit independent of the one it checks.  In one
process both give the same bits.  A variant names only its decision oracle
(``decide``), its others' optimum oracle (``others_optimum``), both given
the run or none, its welfare terms (``welfare`` for the outcome,
``pivot_at`` for the payments and the others' welfare at their optimum,
``total`` for the audit) and its payment (``payment``): ``_Plain`` is
US-VCG, ``_NonPositive`` rebates its payments, ``_Biased`` steers toward
phantom targets, ``_Hetero`` has designer-assigned tax weights (the others
refuse an instance that carries them).  The oracles are module globals
read at call time, so rebinding one reaches every solve.  Non-positive
payments take a Jacobian-bound rebate off each raw pivot; the Jacobian's
perturbed solves are certified against the run's decision as its pivot
solves are, with the same bits.

A pass evaluates the decision's levels theta_j(x_j * pool) and f(t) once
(``model._levels``): the welfare, every agent's others' valuation at the
decision in its pivot, the realised utilities (``_realized``) and the
audit's total read them, and the audit takes the others' welfare at their
optimum from the pivot step that computed it.  Each sum keeps the order
``valuation`` sums in, so the bits are those of valuing afresh.

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
Every variant's pivot solves are certified against the decision's record
(one ``solver._Run`` per run): an excluded mean lies within O(1/n) of the
full mean, so a bound proves most of the tax-slope signs the decision's
search sampled, and a pivot solve probes only the rest, its brackets' ends
and its roots -- about 3 slope probes on all-log catalogs and 5-6 on a
mixed one, against the decision's 43-47 -- and returns its own cold
search's decision, bit for bit.  The leading run of
samples the bound shows positive, and the tail past the bracket it shows
negative, are each proven in one comparison, against a running minimum of
the radius within which each of the decision's samples keeps its sign
(``solver._radius``, one form for every solver kind), so a pivot evaluates
about one per-sample sign where the decision walks about 43.  The biased
variant's bound also covers its reweighted term, which moves with the
type's own allocation, by how far each good's level can move
(``GainCurve.level_shift``).

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

import numpy as np

from .errors import DomainError, PivotUndefined, RangeError, RegularityWarning
from .model import (
    AgentType,
    BudgetDecision,
    BudgetInstance,
    _gains,
    _levels,
    _utility_at,
    excluded_means,
    feature_vector,
    mean_type,
    social_welfare,
    valuation,
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

    def decide(self, run=None) -> BudgetDecision:
        self.mean = mean_type(self.profile)  # the decision's type, which ``welfare`` reads
        return optimize(self.mean, self.instance, run=run)

    def others(self):
        return excluded_means(self.profile)

    def others_optimum(self, excl, run=None) -> BudgetDecision:
        return optimize(excl, self.instance, run=run)

    def own_tax(self, i: int, decision: BudgetDecision) -> float:
        return decision.tax

    def pivot_at(self, decision: BudgetDecision, levels):
        """(others, their optimum) -> (raw pivot, payment argument, the
        others' welfare at their optimum, which the audit reads).  The
        others' valuation at ``decision`` is read from its ``levels``
        (``model._levels``)."""
        inst, n = self.instance, self.n
        gains, f_t = levels

        def pivot(excl, best):
            v_best = valuation(excl, best, inst)
            p = (n - 1) * (v_best - (_gains(excl.alloc_weights, gains) - excl.money_weight * f_t))
            return p, p, (n - 1) * v_best

        return pivot

    def payment(self, i: int, argument: float, decision: BudgetDecision) -> float:
        """Agent i's payment: ``argument`` pushed through the money curve."""
        own_tax = self.own_tax(i, decision)
        money_weight = self.profile[i].money_weight
        return sensitive_payment(argument, own_tax, money_weight, self.instance.money_curve)

    def welfare(self, decision: BudgetDecision, levels) -> float:
        """``social_welfare`` at ``decision`` from its ``levels``: n times
        the mean type's valuation, as under the homogeneous taxes this
        variant runs."""
        gains, f_t = levels
        return self.n * (_gains(self.mean.alloc_weights, gains) - self.mean.money_weight * f_t)

    total = welfare  # the total welfare the audit takes the others' welfare from


def _check_tax_weights(variant) -> None:
    """Refuse designer tax weights in a variant that charges every agent t:
    its decision and payments would ignore them, while ``realized_utility``
    charges agent i tax_weights[i] * t."""
    if not (isinstance(variant, _Hetero) or variant.instance.homogeneous_tax):
        raise DomainError(
            "the instance carries designer tax weights; run it with run_us_vcg_hetero "
            "(CLI: --hetero)"
        )


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
    """The variant's decision and its levels (``model._levels``), then for
    every agent one solve of the others' optimum, certified against the
    decision's (one ``_Run``), its pivot and its payment.  It leaves
    (variant, the (others, their optimum, their welfare there) triples, the
    outcome, the levels) for a caller inside ``_keeping_optima``."""
    profile, instance = variant.profile, variant.instance
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    _check_tax_weights(variant)
    optima, raw, payments, run = [], [], [], _Run(instance, variant.table)
    decision = variant.decide(run)
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
    _check_tax_weights(variant)
    if variant.n < 2:
        raise PivotUndefined(f"{what} needs at least two agents")
    (excl,) = excluded_means(variant.profile, (i,))
    return variant, excl, variant.others_optimum(excl)


def clarke_pivot(profile, i: int, instance: BudgetInstance) -> float:
    """Welfare the others would reach at their own optimum without agent i."""
    variant, excl, best = _one_agent(profile, i, instance, "the pivot term")
    return (variant.n - 1) * valuation(excl, best, instance)


def raw_vcg_payment(profile, i: int, instance: BudgetInstance) -> float:
    """Externality agent i imposes: the others' welfare loss from moving the
    decision to the full-profile optimum.  Nonnegative in exact arithmetic;
    the computed value can fall slightly below 0 at large n (see the module
    docstring)."""
    variant, excl, best = _one_agent(profile, i, instance, "the pivot payment")
    decision = variant.decide()
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
    return _utility_at(agent.alloc_weights, agent.money_weight, decision, transfer, instance)


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
    The Jacobian's perturbed solves are certified against the run's record,
    as its pivot solves are."""

    def __init__(self, profile, instance: BudgetInstance, np_config: NonPositiveConfig):
        super().__init__(profile, instance)
        self.np_config, self.excl, self.run = np_config, excluded_means(self.profile), None

    def decide(self, run=None) -> BudgetDecision:
        self.run = run  # the run the Jacobian's solves take
        return super().decide(run)

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
    profile = tuple(profile)
    if instance.semantics != "per_capita":
        raise DomainError("non-positive payments are defined for per-capita semantics")
    if len(profile) != instance.n or len(profile) < 2:
        raise DomainError("non-positive payments need the instance's full profile, n >= 2")
    variant = _NonPositive(profile, instance, np_config)
    _check_tax_weights(variant)
    for i, excl in enumerate(variant.excl):
        if 0.0 in excl.alloc_weights:
            raise DomainError(
                f"agent {i}: every other agent weights good {excl.alloc_weights.index(0.0)} "
                "at 0, so the decision map has no two-sided difference at their mean"
            )
    for i, (agent, excl) in enumerate(zip(profile, variant.excl)):
        distance = math.dist(
            (*agent.alloc_weights, agent.money_weight), (*excl.alloc_weights, excl.money_weight)
        )
        if distance > np_config.gamma:
            raise DomainError(
                f"agent {i}: distance {distance:.6g} to the others' mean exceeds "
                f"gamma {np_config.gamma:.6g}, so the rebate does not bound its pivot"
            )
    return _run(variant).payments


# =============================================================================
# Biased mechanism
# =============================================================================


class _Biased(_Plain):
    """Phantom bias: valuation plus bias decides, and n times the bias
    difference joins the payment argument, never the raw pivot."""

    def __init__(self, profile, instance: BudgetInstance, bias: BiasSpec):
        super().__init__(profile, instance)
        self.bias = bias
        self.sides = _TargetSides(bias, instance)
        self.table = None if bias.is_null else self.sides  # a null bias solves the plain kind

    def _c(self, decision: BudgetDecision) -> float:
        return self.sides.bias_value(decision)

    def decide(self, run=None) -> BudgetDecision:
        self.mean = mean_type(self.profile)
        return optimize_biased(self.mean, self.bias, self.instance, run=run)

    def others_optimum(self, excl, run=None) -> BudgetDecision:
        return optimize_biased(excl, self.bias, self.instance, run=run)

    def pivot_at(self, decision: BudgetDecision, levels):
        plain, c_at_decision = super().pivot_at(decision, levels), self._c(decision)

        def pivot(excl, best):
            p, _, others_welfare = plain(excl, best)
            c_best = self._c(best)
            return p, p + self.n * (c_best - c_at_decision), others_welfare + self.n * c_best

        return pivot

    def total(self, decision: BudgetDecision, levels) -> float:
        return self.welfare(decision, levels) + self.n * self._c(decision)


def run_bus_vcg(profile, bias: BiasSpec, instance: BudgetInstance) -> Outcome:
    """Mechanism steered by a phantom bias: the decision maximises
    valuation-plus-bias of the mean, and the bias differences enter the
    payment inversion alongside the pivot term.  A target whose length is
    not the instance's raises DomainError, a null bias's too.  A null bias
    gives ``run_us_vcg``'s outcome: its solves are the plain kind's and its
    bias terms are 0.0."""
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

    def decide(self, run=None) -> BudgetDecision:
        return self.others_optimum(None, run)

    def others(self):
        return range(self.n)

    def others_optimum(self, i: int | None, run=None) -> BudgetDecision:
        return optimize_hetero(self.profile, self.instance, exclude=i, run=run)

    def own_tax(self, i: int, decision: BudgetDecision) -> float:
        return self.instance.tax_weights[i] * decision.tax

    def pivot_at(self, decision: BudgetDecision, levels):
        """welfare(best) - welfare(decision) of the others without i, taken
        good by good: each funded good's weight total times the change of
        theta_j, and the money coefficient times the change of f, so
        products and sum round at the size of those changes, not of the
        welfare.  On one side of zero the change of f is
        ``MoneyCurve.difference``, accurate to a few ulps of itself; the
        rounding of theta_j at each decision is left, n-fold through the
        totals.  The decision's theta_j and f(t) are its ``levels``
        (``model._levels``); the others' welfare at best, for the audit, is
        their weight totals against best's theta_j less their money
        coefficient times f(t_best)."""
        instance, money = self.instance, self.instance.money_curve
        gains_d, f_d = levels
        _gains(self.totals.without(None)[0], gains_d)  # raises where a weighted good has no level
        td = decision.tax

        def pivot(i, best):
            weights, (below, above) = self.totals.without(i)
            instance.check_decision(best)
            pool_b, tb = instance.pool(best.tax), best.tax
            gains_b, terms = 0.0, []
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
            p = math.fsum(terms)
            return p, p, gains_b - cb * f_b

        return pivot

    def welfare(self, decision: BudgetDecision, levels) -> float:
        return social_welfare(self.profile, decision, self.instance)

    def total(self, decision: BudgetDecision, levels) -> float:
        """sum_k v_k(decision), each agent under her own tax weight: the
        weight totals against the decision's ``levels`` (goods weighted at
        exactly 0 skipped, as ``valuation`` does) minus the money
        coefficient times f(t)."""
        weights, (below, above) = self.totals.without(None)
        gains, f_t = levels
        return _gains(weights, gains) - (above if decision.tax > 0.0 else below) * f_t


def run_us_vcg_hetero(profile, instance: BudgetInstance) -> Outcome:
    """Mechanism under designer tax weights: agent i pays tax_weights[i]*t.

    The payment inversion offsets each agent's own weighted tax, so her
    total transfer is tax_weights[i]*t* + P_i and the accounting identity
    still closes.
    """
    return _run(_Hetero(profile, instance))
