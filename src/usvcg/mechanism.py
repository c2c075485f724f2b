"""The utility-sensitive VCG mechanism and its variants.

The mechanism picks the welfare-maximising budget decision -- which, by
mean-dependency, is the optimum of the mean type -- and charges each agent
a pivot payment pushed through the money curve so that the quasi-linear
accounting identity survives non-quasi-linear utilities:

    p_i = (n-1) * (v_excl(best_excl) - v_excl(best_all))     (pivot, >= 0)
    P_i = -t* + f^{-1}( f(t*) + p_i / w_money_i )

Here v_excl is the valuation of the mean of the other n-1 agents and
best_excl its optimum.  With that P_i the realised utility of agent i equals
the total welfare at the chosen decision minus the others' welfare in their
absence, which is what makes truthful reporting dominant.

Welfare depends on a profile only through its mean, so one O(n*m) pass over
the profile's totals (``excluded_means``) gives every agent's excluded mean,
and a run costs one solve for the decision plus one pivot solve per agent.

Variants: payments made non-positive by a Jacobian-bound rebate taken off
the raw pivots of ``run_us_vcg``, a biased mechanism steering toward phantom
targets, and designer-assigned heterogeneous tax weights.

Every run is a pure function of (profile, instance, config); the per-agent
pivot solves are independent and could execute in any order or in parallel
without changing the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PivotUndefined, RegularityWarning
from .model import (
    AgentType,
    BudgetDecision,
    BudgetInstance,
    excluded_means,
    feature_vector,
    mean_excluding,
    mean_type,
    social_welfare,
    valuation,
)
from .solver import (
    BiasSpec,
    SolverConfig,
    bias_value,
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
    mean; ``r`` is an extra per-capita rebate; ``fd_step`` is the
    finite-difference step for the decision-map Jacobian.
    """

    gamma: float
    r: float = 0.0
    fd_step: float = 1e-5

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.r < 0.0:
            raise DomainError(f"rebate constant must be >= 0, got {self.r}")
        if not self.fd_step > 0.0:
            raise DomainError(f"finite-difference step must be positive, got {self.fd_step}")

    @classmethod
    def for_band(cls, mu: float, r: float = 0.0, fd_step: float = 1e-5) -> "NonPositiveConfig":
        """Certified cover of |mean_excl - type| when money weights stay in
        the (1/mu, mu) band."""
        return cls(gamma=2.0 * (1.0 + mu), r=r, fd_step=fd_step)


# =============================================================================
# Core payments
# =============================================================================


def clarke_pivot(
    profile, i: int, instance: BudgetInstance, config: SolverConfig | None = None
) -> float:
    """Welfare the others would reach at their own optimum without agent i."""
    profile = tuple(profile)
    if len(profile) < 2:
        raise PivotUndefined("the pivot term needs at least two agents")
    excl = mean_excluding(profile, i)
    best = optimize(excl, instance, config)
    return (len(profile) - 1) * valuation(excl, best, instance)


def raw_vcg_payment(
    profile, i: int, instance: BudgetInstance, config: SolverConfig | None = None
) -> float:
    """Externality agent i imposes: the others' welfare loss from moving the
    decision to the full-profile optimum.  Always nonnegative."""
    profile = tuple(profile)
    if len(profile) < 2:
        raise PivotUndefined("the pivot payment needs at least two agents")
    excl = mean_excluding(profile, i)
    best_excl = optimize(excl, instance, config)
    best_all = optimize(mean_type(profile), instance, config)
    return (len(profile) - 1) * (
        valuation(excl, best_excl, instance) - valuation(excl, best_all, instance)
    )


def sensitive_payment(p_vcg: float, t_star: float, money_weight: float, money_curve) -> float:
    """Map a quasi-linear payment onto the money axis: the transfer on top
    of t* whose disutility equals p_vcg / money_weight."""
    argument = money_curve.value(t_star) + p_vcg / money_weight
    return -t_star + money_curve.inverse(argument)


def _pivots(profile, decision: BudgetDecision, instance: BudgetInstance, solve):
    """Every agent's raw pivot ``(n-1) * (v_excl(best_excl) - v_excl(decision))``
    with the others' own decision ``best_excl = solve(excluded mean)``, as
    (pivot, best_excl) pairs in profile order."""
    n = len(profile)
    out = []
    for excl in excluded_means(profile):
        best_excl = solve(excl)
        p = (n - 1) * (valuation(excl, best_excl, instance) - valuation(excl, decision, instance))
        out.append((p, best_excl))
    return out


def run_us_vcg(
    profile, instance: BudgetInstance, config: SolverConfig | None = None
) -> Outcome:
    """Run the mechanism: decision from the mean type, one pivot solve per
    agent, payments pushed through the money curve."""
    profile = tuple(profile)
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    decision = optimize(mean_type(profile), instance, config)
    welfare = social_welfare(profile, decision, instance)
    if len(profile) == 1:
        return Outcome(decision, (0.0,), (0.0,), welfare)
    pivots = _pivots(profile, decision, instance, lambda e: optimize(e, instance, config))
    raw = tuple(p for p, _ in pivots)
    payments = tuple(
        sensitive_payment(p, decision.tax, agent.money_weight, instance.money_curve)
        for p, agent in zip(raw, profile)
    )
    return Outcome(decision, raw, payments, welfare)


def realized_utility(profile, i: int, outcome: Outcome, instance: BudgetInstance) -> float:
    """Agent i's utility at the outcome: gains at the funded spends minus
    the disutility of her total transfer (weighted tax plus payment)."""
    profile = tuple(profile)
    agent = profile[i]
    decision = outcome.decision
    pool = instance.pool(decision.tax)
    gains = 0.0
    for w, x, curve in zip(agent.alloc_weights, decision.allocation, instance.gain_curves):
        if w > 0.0:
            gains += w * curve.value(x * pool)
    transfer = instance.tax_weights[i] * decision.tax + outcome.payments[i]
    return gains - agent.money_weight * instance.money_curve.value(transfer)


def identity_residuals(
    profile,
    outcome: Outcome,
    instance: BudgetInstance,
    bias: BiasSpec | None = None,
    hetero: bool = False,
    config: SolverConfig | None = None,
) -> list[float]:
    """Per-agent residual of the accounting identity, recomputed from
    scratch (fresh pivot solves) so results can be audited independently:
    realised utility minus (total welfare at the decision - the others'
    welfare at their own optimum without the agent)."""
    profile = tuple(profile)
    n = len(profile)
    if n == 1:
        return [0.0]
    decision = outcome.decision
    if hetero:
        total = _welfare_excluding(profile, None, decision, instance)
    elif bias is not None:
        total = n * valuation(mean_type(profile), decision, instance) + n * bias_value(
            bias, decision, instance
        )
    else:
        total = social_welfare(profile, decision, instance)
    excluded = None if hetero else excluded_means(profile)
    residuals = []
    for i in range(n):
        if hetero:
            best_excl = optimize_hetero(profile, instance, config, exclude=i)
            h = _welfare_excluding(profile, i, best_excl, instance)
        elif bias is not None:
            best_excl = optimize_biased(excluded[i], bias, instance, config)
            h = (n - 1) * valuation(excluded[i], best_excl, instance) + n * bias_value(
                bias, best_excl, instance
            )
        else:
            best_excl = optimize(excluded[i], instance, config)
            h = (n - 1) * valuation(excluded[i], best_excl, instance)
        residuals.append(realized_utility(profile, i, outcome, instance) - (total - h))
    return residuals


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


def _spectral_norm(J: np.ndarray, iters: int = 50, tol: float = 1e-10) -> float:
    """Largest singular value by power iteration on J^T J."""
    A = J.T @ J
    v = np.ones(A.shape[0]) / math.sqrt(A.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = A @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - lam) <= tol * max(1.0, norm):
            lam = norm
            break
        lam = norm
    return math.sqrt(lam)


def _perturbed(base: AgentType, alloc_dir: np.ndarray, money_dir: float, h: float) -> AgentType:
    weights = tuple(w + h * d for w, d in zip(base.alloc_weights, alloc_dir))
    return AgentType(weights, base.money_weight + h * money_dir)


def _decision_map_jacobian(
    base: AgentType, instance: BudgetInstance, h: float, config: SolverConfig | None
) -> np.ndarray:
    """Central finite differences of the decision's feature vector along the
    simplex tangent directions and the money-weight axis.

    The difference quotient divides solver noise by 2h, so the inner solves
    run at a tightened tax tolerance.
    """
    config = replace(config or SolverConfig(), t_tolerance=1e-13, x_tolerance=1e-13)
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
        plus = feature_vector(
            optimize(_perturbed(base, alloc_dir, money_dir, h_eff), instance, config), instance
        )
        minus = feature_vector(
            optimize(_perturbed(base, alloc_dir, money_dir, -h_eff), instance, config), instance
        )
        cols.append((plus - minus) / (2.0 * h_eff))
    return np.column_stack(cols)


def non_positive_payments(
    profile,
    instance: BudgetInstance,
    np_config: NonPositiveConfig,
    config: SolverConfig | None = None,
    outcome: Outcome | None = None,
) -> tuple[float, ...]:
    """Pivot payments minus a certified per-capita rebate, so nobody pays on
    top of the tax.

    The rebate (gamma^2 / n) * (||D|| + 1) + r/n bounds any agent's possible
    pivot payment given the others' reports, with D the Jacobian of the
    feature-vector-of-the-optimum map at the excluded mean (estimated by
    central differences, spectral norm by power iteration).  Per-capita
    semantics only; the step-halved Jacobian must agree within 10% or a
    RegularityWarning is emitted.

    The rebate is taken off the raw pivots of ``run_us_vcg``.  A caller that
    already holds ``outcome = run_us_vcg(profile, instance, config)`` passes
    it, so its decision and pivots are not solved a second time.
    """
    profile = tuple(profile)
    if instance.semantics != "per_capita":
        raise DomainError("non-positive payments are defined for per-capita semantics")
    if len(profile) != instance.n or len(profile) < 2:
        raise DomainError("non-positive payments need the instance's full profile, n >= 2")
    n = len(profile)
    if outcome is None:
        outcome = run_us_vcg(profile, instance, config)
    elif len(outcome.raw_vcg) != n:
        raise DomainError(f"outcome has {len(outcome.raw_vcg)} pivots, profile has {n} agents")
    money = instance.money_curve
    payments = []
    for i, (agent, excl, p) in enumerate(zip(profile, excluded_means(profile), outcome.raw_vcg)):
        J_half = _decision_map_jacobian(excl, instance, np_config.fd_step / 2.0, config)
        J_full = _decision_map_jacobian(excl, instance, np_config.fd_step, config)
        norm_half = _spectral_norm(J_half)
        norm_full = _spectral_norm(J_full)
        if abs(norm_full - norm_half) > 0.10 * max(norm_half, norm_full, 1e-12):
            warnings.warn(
                f"decision-map Jacobian at agent {i} changes by more than 10% "
                f"under step halving ({norm_full:.4g} vs {norm_half:.4g}); "
                "the optimum may not be a regular maximum",
                RegularityWarning,
                stacklevel=2,
            )
        rebate = (np_config.gamma**2 / n) * (norm_half + 1.0) + np_config.r / n
        payments.append(
            sensitive_payment(p - rebate, outcome.decision.tax, agent.money_weight, money)
        )
    return tuple(payments)


# =============================================================================
# Biased mechanism
# =============================================================================


def run_bus_vcg(
    profile, bias: BiasSpec, instance: BudgetInstance, config: SolverConfig | None = None
) -> Outcome:
    """Mechanism steered by a phantom bias: the decision maximises
    valuation-plus-bias of the mean, and the bias differences enter the
    payment inversion alongside the pivot term."""
    profile = tuple(profile)
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    if bias.is_null:
        return run_us_vcg(profile, instance, config)
    n = len(profile)
    decision = optimize_biased(mean_type(profile), bias, instance, config)
    welfare = social_welfare(profile, decision, instance)
    if n == 1:
        return Outcome(decision, (0.0,), (0.0,), welfare)
    c_at_decision = bias_value(bias, decision, instance)
    pivots = _pivots(
        profile, decision, instance, lambda e: optimize_biased(e, bias, instance, config)
    )
    payments = tuple(
        sensitive_payment(
            p + n * (bias_value(bias, best_excl, instance) - c_at_decision),
            decision.tax,
            agent.money_weight,
            instance.money_curve,
        )
        for (p, best_excl), agent in zip(pivots, profile)
    )
    return Outcome(decision, tuple(p for p, _ in pivots), payments, welfare)


# =============================================================================
# Heterogeneous tax weights
# =============================================================================


def _welfare_excluding(
    profile, i: int | None, decision: BudgetDecision, instance: BudgetInstance
) -> float:
    """Sum of valuations (with each agent's own tax weight) excluding i."""
    return math.fsum(
        valuation(agent, decision, instance, tax_weight=instance.tax_weights[k])
        for k, agent in enumerate(profile)
        if k != i
    )


def run_us_vcg_hetero(
    profile, instance: BudgetInstance, config: SolverConfig | None = None
) -> Outcome:
    """Mechanism under designer tax weights: agent i pays tax_weights[i]*t.

    The payment inversion offsets each agent's own weighted tax, so her
    total transfer is tax_weights[i]*t* + P_i and the accounting identity
    still closes.
    """
    profile = tuple(profile)
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    decision = optimize_hetero(profile, instance, config)
    welfare = social_welfare(profile, decision, instance)
    if len(profile) == 1:
        return Outcome(decision, (0.0,), (0.0,), welfare)
    money = instance.money_curve
    raw = []
    payments = []
    for i, agent in enumerate(profile):
        best_excl = optimize_hetero(profile, instance, config, exclude=i)
        p = _welfare_excluding(profile, i, best_excl, instance) - _welfare_excluding(
            profile, i, decision, instance
        )
        raw.append(p)
        own_tax = instance.tax_weights[i] * decision.tax
        argument = money.value(own_tax) + p / agent.money_weight
        payments.append(-own_tax + money.inverse(argument))
    return Outcome(decision, tuple(raw), tuple(payments), welfare)
