"""Optimal budget decisions for a single type, plus biased and
heterogeneous-tax variants, equitable allocations, and a brute-force grid
oracle used for verification.

The optimisation is solved in the two natural stages:

1. *Inner stage* (fixed tax t, hence fixed pool B): maximise
   ``sum_j w_j theta_j(x_j B)`` over the simplex by water-filling -- all
   funded goods share a common weighted marginal ``lambda``, goods whose
   best attainable weighted marginal stays below ``lambda`` are clipped
   to zero (KKT), and ``lambda`` is found by a safeguarded Newton search
   on ``sum_j spend_j(lambda) = B``, started warm from the previous
   evaluation of the same tax search when its prediction is usable.

2. *Outer stage*: a search on t over the conditional value.  The bracket
   doubles upward from the feasible floor until the value decays, then
   golden-section refines around the best sampled local maxima
   (multi-start, since the money curve's convex branch can break
   unimodality when negative taxes are feasible), and a final bisection
   on the analytic conditional slope polishes past the float plateau that
   limits any value-comparison search.

Ties between equal-value optima break deterministically: lowest tax,
then lexicographically smallest allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curves import GainCurve
from .errors import (
    BoundaryTarget,
    ConvergenceError,
    DomainError,
    ResolutionTooCoarse,
    TaxDivergence,
)
from .model import AgentType, BudgetDecision, BudgetInstance

__all__ = [
    "SolverConfig",
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
    "invert_increasing",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITERATIONS = 200  # water-filling Newton steps
_BRACKET_PATIENCE = 6  # falling tax samples before the bracket stops
_MULTISTART = 3  # sampled local maxima refined by golden section


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and search limits for the two-stage optimiser."""

    x_tolerance: float = 1e-10
    t_tolerance: float = 1e-9  # relative, on the tax axis
    bracket_growth: float = 2.0
    max_bracket: float = 1e12

    def __post_init__(self) -> None:
        if self.x_tolerance <= 0 or self.t_tolerance <= 0:
            raise DomainError("solver tolerances must be positive")
        if self.bracket_growth <= 1.0:
            raise DomainError("bracket growth must exceed 1")


_DEFAULT = SolverConfig()


# =============================================================================
# Inner stage: allocation for a fixed pool
# =============================================================================


def _water_fill(
    weights: Sequence[float],
    curves: Sequence[GainCurve],
    budget: float,
    cfg: SolverConfig,
    warm: tuple[float, float, float] | None = None,
) -> tuple[np.ndarray, float, float, float]:
    """Maximise sum_j w_j theta_j(x_j * budget) over the simplex.

    Returns (allocation, gains, common marginal lambda, dlambda/dbudget),
    the last being 1 / sum_j 1/(w_j theta_j''(s_j)) at Newton's last step,
    or the guess's own when a warm start took none (else nan).  Callers
    guarantee budget > 0 and at least one strictly positive weight.

    ``warm`` is the (budget, lambda, dlambda/dbudget) of an earlier call.
    Its tangent in log-log coordinates, lambda * (budget/budget_prev)**e
    with e = dlambda/dbudget * budget_prev/lambda, predicts lambda_0; it is
    the linear tangent to first order, and exact for one-kind log or power
    catalogs, so it also predicts a doubled pool.  When lambda_0 lies
    strictly inside the derivative bracket, Newton starts there, skipping
    the bracket-verification sweeps.  A warm run that ends outside the
    tolerance reruns the cold path: a bad guess costs time, not accuracy.
    """
    m = len(weights)
    active = [j for j in range(m) if weights[j] > 0.0]
    x = np.zeros(m)

    if len(active) == 1:
        j = active[0]
        x[j] = 1.0
        lam = weights[j] * curves[j].deriv(budget)
        return x, weights[j] * curves[j].value(budget), lam, math.nan

    caps = [weights[j] * curves[j].deriv_at_zero() for j in active]
    tolerance = cfg.x_tolerance * budget

    def spends_at(lam: float) -> list[float]:
        out = []
        for j, cap in zip(active, caps):
            out.append(
                0.0 if lam >= cap else curves[j].inverse_deriv(lam / weights[j])
            )
        return out

    def excess(spends: list[float]) -> float:
        return math.fsum(spends) - budget

    def newton(lam: float, lo: float, hi: float, slope: float) -> tuple[list, float, float]:
        """Safeguarded Newton on the budget residual inside (lo, hi):
        (spends, lambda, last slope)."""
        spends = spends_at(lam)
        for _ in range(_MAX_ITERATIONS):
            h = excess(spends)
            if abs(h) <= tolerance:
                break
            if h > 0.0:
                lo = lam
            else:
                hi = lam
            slope = math.fsum(
                1.0 / (weights[j] * curves[j].deriv2(s))
                for j, s in zip(active, spends)
                if s > 0.0
            )
            lam_newton = lam - h / slope if slope < 0.0 else math.nan
            if math.isfinite(lam_newton) and lo < lam_newton < hi:
                lam = lam_newton
            else:
                lam = math.sqrt(lo * hi)
            spends = spends_at(lam)
            if hi - lo <= 1e-15 * lam:
                break
        else:
            raise ConvergenceError("water-filling hit its iteration cap")
        return spends, lam, slope

    # lambda* is bracketed by the weighted marginals at the full budget and
    # at an equal split; the cold path expands defensively for rounding.
    k = len(active)
    lo = max(weights[j] * curves[j].deriv(budget) for j in active)
    hi = max(weights[j] * curves[j].deriv(budget / k) for j in active)
    if hi <= lo:
        hi = lo * (1.0 + 1e-9) + 1e-300

    found = None
    if warm is not None:
        b_prev, lam_prev, dlam_db = warm
        # the tangent in (log budget, log lambda): the elasticity of lambda
        # in the pool is a weighted mean of the funded goods' X theta''/theta',
        # which is -1 for log and within (-1, 0) for power and log1p
        elasticity = min(max(dlam_db * b_prev / lam_prev, -1.0), 0.0)
        lam0 = lam_prev * (budget / b_prev) ** elasticity
        if lo < lam0 < hi:
            found = newton(lam0, lo, hi, 1.0 / dlam_db if dlam_db else math.nan)
            if abs(excess(found[0])) > tolerance:
                found = None
    if found is None:
        for _ in range(200):
            if excess(spends_at(hi)) <= 0.0:
                break
            hi *= 4.0
        else:
            raise ConvergenceError("water-filling could not bracket the marginal")
        for _ in range(200):
            if excess(spends_at(lo)) >= 0.0:
                break
            lo /= 4.0
        else:
            raise ConvergenceError("water-filling could not bracket the marginal")
        found = newton(math.sqrt(lo * hi), lo, hi, math.nan)
    spends, lam, slope = found

    total = math.fsum(spends)
    gains = 0.0
    for j, s in zip(active, spends):
        share = s / total
        x[j] = share
        if share > 0.0:
            gains += weights[j] * curves[j].value(share * budget)
        elif curves[j].strict_domain:
            raise ConvergenceError("zero share on a strictly positive-domain curve")
    return x, gains, lam, 1.0 / slope if slope else math.nan


class _Conditional:
    """Inner-stage solution as a function of the pool size, for one solve.

    All-log catalogs admit a budget-independent allocation, so the shares
    and the log-constant are precomputed once.  ``marginal`` is the common
    weighted marginal at the inner optimum -- by the envelope theorem it is
    the derivative of the conditional gains with respect to the pool.

    Otherwise each evaluation water-fills, warm-started from ``warm``: the
    (budget, lambda, dlambda/dbudget) of the previous water-fill, or of the
    caller's.  The object lives for one solve, so a solve stays a pure
    function of its inputs.
    """

    def __init__(
        self,
        weights: Sequence[float],
        curves: Sequence[GainCurve],
        cfg: SolverConfig,
        warm: tuple[float, float, float] | None = None,
    ):
        self.weights = tuple(float(w) for w in weights)
        self.curves = tuple(curves)
        self.cfg = cfg
        self.warm = warm
        active = [j for j in range(len(curves)) if self.weights[j] > 0.0]
        self._single = active[0] if len(active) == 1 else None
        self._fast = len(active) >= 1 and all(
            curves[j].kind == "log" for j in active
        )
        if self._fast:
            wa = np.array([self.weights[j] * curves[j].scale for j in active])
            shares = wa / wa.sum()
            self._x = np.zeros(len(curves))
            self._x[active] = shares
            self._w_total = float(wa.sum())
            self._const = float(np.dot(wa, np.log(shares)))

    def _fill(self, budget: float) -> tuple[np.ndarray, float, float]:
        x, gains, lam, dlam_db = _water_fill(
            self.weights, self.curves, budget, self.cfg, self.warm
        )
        self.warm = (budget, lam, dlam_db)
        return x, gains, lam

    def gains(self, budget: float) -> float:
        if self._fast:
            return self._const + self._w_total * math.log(budget)
        return self._fill(budget)[1]

    def both(self, budget: float) -> tuple[np.ndarray, float]:
        if self._fast:
            return self._x.copy(), self.gains(budget)
        return self._fill(budget)[:2]

    def marginal(self, budget: float) -> float:
        if self._fast:
            return self._w_total / budget
        if self._single is not None:
            j = self._single
            return self.weights[j] * self.curves[j].deriv(budget)
        return self._fill(budget)[2]


def inner_allocation(
    agent: AgentType,
    budget: float,
    instance: BudgetInstance,
    config: SolverConfig | None = None,
) -> np.ndarray:
    """Welfare-maximising split of a fixed spending pool for one type."""
    if not budget > 0.0:
        raise DomainError(f"allocation needs a positive pool, got {budget}")
    if agent.m != instance.m:
        raise DomainError("type length does not match the instance")
    cfg = config or _DEFAULT
    x, _ = _Conditional(agent.alloc_weights, instance.gain_curves, cfg).both(budget)
    return x


# =============================================================================
# Outer stage: search on the tax axis
# =============================================================================


def _golden_max(
    f: Callable[[float], float], a: float, b: float, va: float, vb: float, tol: float,
    max_iter: int = 300,
) -> tuple[float, float]:
    """Golden-section maximisation of f on [a, b], given va = f(a) and
    vb = f(b) already sampled, tracking the best evaluated point."""
    best_t, best_v = a, va
    if vb > best_v:
        best_t, best_v = b, vb
    xc = b - _INVPHI * (b - a)
    xd = a + _INVPHI * (b - a)
    fc, fd = f(xc), f(xd)
    for t, v in ((xc, fc), (xd, fd)):
        if v > best_v:
            best_t, best_v = t, v
    it = 0
    while (b - a) > tol * max(1.0, abs(a), abs(b)) and it < max_iter:
        if fc >= fd:
            b, xd, fd = xd, xc, fc
            xc = b - _INVPHI * (b - a)
            fc = f(xc)
            if fc > best_v:
                best_t, best_v = xc, fc
        else:
            a, xc, fc = xc, xd, fd
            xd = a + _INVPHI * (b - a)
            fd = f(xd)
            if fd > best_v:
                best_t, best_v = xd, fd
        it += 1
    return best_t, best_v


def _feasible_start(instance: BudgetInstance, money_domain_min: float) -> float:
    return max(instance.tax_floor + instance.tax_epsilon, money_domain_min)


def _polish_stationary(
    slope: Callable[[float], float], t_best: float, start: float
) -> float:
    """Refine a value-search optimum by bisecting the conditional slope.

    Value comparisons stall once differences drop below one ulp of the
    objective (a plateau of width ~sqrt(ulp/curvature) around the optimum);
    the sign of the analytic slope keeps resolving far below that.  Falls
    back to the input when no sign change brackets (boundary optimum)."""
    scale = max(1.0, abs(t_best))
    lo = None
    span = 1e-7 * scale
    for _ in range(40):
        a = max(start, t_best - span)
        if slope(a) > 0.0:
            lo = a
            break
        if a <= start:
            break
        span *= 4.0
    if lo is None:
        return t_best
    hi = None
    span = 1e-7 * scale
    for _ in range(40):
        b = t_best + span
        if slope(b) < 0.0:
            hi = b
            break
        span *= 4.0
    if hi is None:
        return t_best
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _maximize_over_tax(
    value: Callable[[float], float],
    instance: BudgetInstance,
    cfg: SolverConfig,
    money_domain_min: float | None = None,
    slope: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Maximise a conditional value over the feasible tax interval."""
    dm = (
        instance.money_curve.domain_min
        if money_domain_min is None
        else money_domain_min
    )
    start = _feasible_start(instance, dm)
    s0 = 1e-8 * max(1.0, abs(start))

    ts = [start]
    vs = [value(start)]
    best = 0
    drops = 0
    k = 0
    while True:
        s = s0 * cfg.bracket_growth**k
        if s > cfg.max_bracket:
            if best >= len(ts) - 3:
                raise TaxDivergence(
                    f"conditional value still rising at tax offset {s:.3g}; "
                    "no finite optimum within the bracket cap"
                )
            break
        t = start + s
        v = value(t)
        ts.append(t)
        vs.append(v)
        if v > vs[best]:
            best = len(ts) - 1
            drops = 0
        else:
            drops += 1
            if drops >= _BRACKET_PATIENCE and len(ts) - 1 > best + 2:
                break
        k += 1

    last = len(ts) - 1
    candidates = [
        i
        for i in range(len(ts))
        if (i == 0 or vs[i] >= vs[i - 1]) and (i == last or vs[i] >= vs[i + 1])
    ]
    candidates.sort(key=lambda i: -vs[i])
    picked = candidates[:_MULTISTART]
    if best not in picked:
        picked.append(best)

    best_t, best_v = ts[best], vs[best]
    for i in picked:
        ia, ib = max(i - 1, 0), min(i + 1, last)
        if ts[ib] <= ts[ia]:
            t_i, v_i = ts[i], vs[i]
        else:
            t_i, v_i = _golden_max(value, ts[ia], ts[ib], vs[ia], vs[ib], cfg.t_tolerance)
        scale = max(1.0, abs(best_v))
        same_optimum = abs(t_i - best_t) <= 10.0 * cfg.t_tolerance * max(
            1.0, abs(t_i), abs(best_t)
        )
        if same_optimum:
            if v_i > best_v:
                best_t, best_v = t_i, v_i
        elif v_i > best_v + 1e-12 * scale:
            best_t, best_v = t_i, v_i
        elif abs(v_i - best_v) <= 1e-12 * scale and t_i < best_t:
            # genuinely distinct optima of equal value: lowest tax wins
            best_t, best_v = t_i, v_i
    if slope is not None:
        polished = _polish_stationary(slope, best_t, start)
        if polished != best_t:
            best_t, best_v = polished, value(polished)
    return best_t, best_v


def optimize(
    agent: AgentType,
    instance: BudgetInstance,
    config: SolverConfig | None = None,
) -> BudgetDecision:
    """The optimal budget decision for one (possibly hypothetical) type.

    Maximises the conditional value consistent with the instance's MRS
    convention; under the semantics-exact default this is the type's
    valuation itself.  Raises TaxDivergence when the preferred tax exceeds
    the bracket cap.
    """
    if agent.m != instance.m:
        raise DomainError("type length does not match the instance")
    cfg = config or _DEFAULT
    cond = _Conditional(agent.alloc_weights, instance.gain_curves, cfg)
    money = instance.money_curve
    kappa = instance.money_factor() * agent.money_weight
    rate = instance.pool_rate

    def value(t: float) -> float:
        return cond.gains(instance.pool(t)) - kappa * money.value(t)

    def slope(t: float) -> float:
        return cond.marginal(instance.pool(t)) * rate - kappa * money.deriv(t)

    t_star, _ = _maximize_over_tax(value, instance, cfg, slope=slope)
    x, _ = cond.both(instance.pool(t_star))
    return BudgetDecision(tuple(x), t_star)


# =============================================================================
# Bias machinery (phantom targets)
# =============================================================================


@dataclass(frozen=True)
class ConstantTarget:
    """A single favoured allocation, independent of the tax."""

    allocation: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocation", tuple(float(x) for x in self.allocation))
        if abs(math.fsum(self.allocation) - 1.0) > 1e-9 or any(
            x < 0.0 for x in self.allocation
        ):
            raise DomainError(f"target must be a simplex point: {self.allocation}")

    def allocation_at(self, t: float, instance: BudgetInstance) -> np.ndarray:
        return np.array(self.allocation)


@dataclass(frozen=True)
class EquitableTarget:
    """The gap-minimising allocation recomputed at every candidate tax."""

    def allocation_at(self, t: float, instance: BudgetInstance) -> np.ndarray:
        return equitable_allocation(t, instance)


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
        if any(b <= a for a, b in zip(self.taxes, self.taxes[1:])):
            raise DomainError("table target taxes must be strictly increasing")
        for row in self.allocations:
            if abs(math.fsum(row) - 1.0) > 1e-9 or any(x < 0.0 for x in row):
                raise DomainError(f"table row must be a simplex point: {row}")

    def allocation_at(self, t: float, instance: BudgetInstance) -> np.ndarray:
        cols = np.array(self.allocations)
        out = np.array(
            [np.interp(t, self.taxes, cols[:, j]) for j in range(cols.shape[1])]
        )
        return out / out.sum()


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


@dataclass(frozen=True)
class BiasSpec:
    """Weight, target family, and tax preference of a phantom-agent bias."""

    lam: float
    target: ConstantTarget | EquitableTarget | TableTarget
    psi: TaxPreference = field(default_factory=TaxPreference.none)

    def __post_init__(self) -> None:
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise DomainError(f"bias weight must be >= 0, got {self.lam}")

    @property
    def is_null(self) -> bool:
        return self.lam == 0.0 and self.psi.kind == "none"


def _phantom_weights(x: np.ndarray, t: float, instance: BudgetInstance) -> np.ndarray:
    """Weights proportional to the reciprocal marginals at the target; on
    boundary coordinates the continuous limit applies (zero weight when the
    marginal diverges at zero spend, 1/theta'(0) when it is finite)."""
    pool = instance.pool(t)
    if not pool > 0.0:
        raise DomainError(f"pool must be positive at tax {t}")
    raw = np.empty(instance.m)
    for j, (xj, curve) in enumerate(zip(x, instance.gain_curves)):
        if xj > 0.0:
            raw[j] = 1.0 / curve.deriv(float(xj) * pool)
        else:
            at_zero = curve.deriv_at_zero()
            raw[j] = 0.0 if math.isinf(at_zero) else 1.0 / at_zero
    return raw / raw.sum()


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
    return _phantom_weights(x, t, instance)


class _TargetSides:
    """The target side of a biased objective, tabulated by tax.

    At tax t it is the phantom weights a(t) of the target allocation
    xhat(t), the target levels theta_j(xhat_j(t) * pool) of the goods a(t)
    weights (0.0 elsewhere), and lam * sum_j a_j(t) theta_j(xhat_j(t) * pool),
    packed in one array of 2m + 1 floats.  None of it depends on the type
    being solved, and each entry is a pure function of (bias, instance, t)
    keyed by the exact float t, so one table shared by every solve of a
    mechanism run gives the same bits as recomputing each entry, in any
    order of the solves.  The table lives as long as its owner (one run or
    one audit) and keeps every tax it was asked for.
    """

    def __init__(self, bias: BiasSpec, instance: BudgetInstance):
        self.bias, self.instance = bias, instance
        self._table: dict[float, np.ndarray] = {}

    def at(self, t: float) -> np.ndarray:
        row = self._table.get(t)
        if row is None:
            instance = self.instance
            pool = instance.pool(t)
            xhat = np.asarray(self.bias.target.allocation_at(t, instance), dtype=float)
            ahat = _phantom_weights(xhat, t, instance)
            levels = [
                curve.value(float(xj) * pool) if a > 0.0 else 0.0
                for a, xj, curve in zip(ahat, xhat, instance.gain_curves)
            ]
            at_target = math.fsum(a * level for a, level in zip(ahat, levels) if a > 0.0)
            row = self._table[t] = np.concatenate((ahat, levels, [self.bias.lam * at_target]))
        return row

    def bias_value(self, decision: BudgetDecision) -> float:
        """C(x, t) of ``bias_value``, with the target side from the table."""
        bias, t, instance = self.bias, decision.tax, self.instance
        if bias.lam == 0.0:
            return bias.psi.value(t)
        row, m, pool = self.at(t), instance.m, instance.pool(t)
        goods = zip(row[:m], row[m:-1], decision.allocation, instance.gain_curves)
        loss = 0.0
        for a, level, x_d, curve in goods:
            if a == 0.0:
                continue
            loss += a * (curve.value(float(x_d) * pool) - level)
        return bias.lam * loss + bias.psi.value(t)


def bias_value(bias: BiasSpec, decision: BudgetDecision, instance: BudgetInstance) -> float:
    """C(x, t): phantom utility loss relative to the target, plus psi(t)."""
    return _TargetSides(bias, instance).bias_value(decision)


def optimize_biased(
    agent: AgentType,
    bias: BiasSpec,
    instance: BudgetInstance,
    config: SolverConfig | None = None,
    *,
    sides: _TargetSides | None = None,
) -> BudgetDecision:
    """argmax of valuation + bias.  The inner stage folds the phantom
    weights into the water-filling problem; the outer stage carries the
    target-loss offset and psi.

    ``sides`` is a target-side table of this bias and instance that several
    solves share (a mechanism run passes one to all of its n+1 solves);
    without it the call builds its own.  The result is the same either way.

    The tax search has no slope polish, so the tax is resolved only to the
    plateau of the value comparisons (relative width about sqrt(ulp)): an
    ulp-level change in the objective can move it by about 1e-7 relative.
    """
    if bias.is_null:
        return optimize(agent, instance, config)
    if sides is None:
        sides = _TargetSides(bias, instance)
    elif sides.bias is not bias or sides.instance is not instance:
        raise DomainError("target-side table belongs to another bias or instance")
    cfg = config or _DEFAULT
    m, lam, psi = instance.m, bias.lam, bias.psi
    money = instance.money_curve
    kappa = instance.money_factor() * agent.money_weight
    base = np.array(agent.alloc_weights)

    warm = None  # the last water-fill of this solve, across the per-tax weights

    def solve_at(t: float) -> tuple[np.ndarray, float]:
        nonlocal warm
        row = sides.at(t)
        cond = _Conditional(base + lam * row[:m], instance.gain_curves, cfg, warm)
        x, combined = cond.both(instance.pool(t))
        warm = cond.warm
        return x, combined - row[-1] + psi.value(t) - kappa * money.value(t)

    t_star, _ = _maximize_over_tax(lambda t: solve_at(t)[1], instance, cfg)
    x, _ = solve_at(t_star)
    return BudgetDecision(tuple(x), t_star)


# =============================================================================
# Equitable / egalitarian allocation
# =============================================================================


def _equalising_level(
    curves: Sequence[GainCurve],
    idx: Sequence[int],
    pool: float,
    c: float,
    floor: float,
) -> list[float]:
    """The spends theta_j^{-1}(c) of the goods in ``idx`` at the level c
    where they add up to the pool, by Newton from a level c at or above it.

    g(c) = sum_j theta_j^{-1}(c) - pool is increasing and convex for every
    gain kind (log, power, log1p), so Newton with the slope
    sum_j 1/theta_j'(theta_j^{-1}(c)) descends monotonically onto the root
    without overshooting.  ``floor`` is a level known to lie at or below
    the root; iterates are clamped to it, so rounding never asks a curve
    for a level under it.
    """
    for _ in range(_MAX_ITERATIONS):
        spends = [curves[j].inverse(c) for j in idx]
        g = math.fsum(spends) - pool
        if g <= 0.0 or c <= floor:
            return spends
        slope = math.fsum(
            1.0 / (curves[j].deriv(s) if s > 0.0 else curves[j].deriv_at_zero())
            for j, s in zip(idx, spends)
        )
        lower = max(c - g / slope, floor)
        if not lower < c:
            return spends
        c = lower
    raise ConvergenceError("equalising level did not converge")


def equitable_allocation(
    t: float, instance: BudgetInstance, config: SolverConfig | None = None
) -> np.ndarray:
    """Allocation minimising the largest pairwise gap among the per-good
    utilities theta_j(x_j * pool); it simultaneously maximises the
    smallest per-good utility.

    When a common level c with theta_j(x_j B) = c for all j fits inside
    the pool, it is found by monotone Newton on c, down from the lowest
    full-pool level min_j theta_j(B).  Otherwise (mixed catalogs whose
    bounded-below curves cannot reach the required negative level) the
    curves with unbounded-below range absorb the whole pool at a common
    level and the rest sit at zero.
    """
    pool = instance.pool(t)
    if not pool > 0.0:
        raise DomainError(f"equitable allocation needs a positive pool, got {pool}")
    m = instance.m
    if m == 1:
        return np.array([1.0])
    curves = instance.gain_curves
    everyone = range(m)
    floored = [j for j in everyone if curves[j].value_limit_at_zero() == 0.0]
    idx, floor = everyone, -math.inf
    if floored:
        if math.fsum(curve.inverse(0.0) for curve in curves) > pool:
            # No common level exists: bounded-below curves stop at level 0
            # but the unbounded (log) curves already need more than the
            # pool there, so they share it and the rest sit at zero.
            idx = [j for j in everyone if j not in floored]
        else:
            floor = 0.0
    c_hi = min(curves[j].value(pool) for j in idx)
    x = np.zeros(m)
    x[list(idx)] = _equalising_level(curves, idx, pool, c_hi, floor)
    return x / x.sum()


# =============================================================================
# Heterogeneous tax weights
# =============================================================================


def _money_coefficients(money, terms) -> Callable[[float], float]:
    """t -> sum_k w_k omega_k^e over the (w_k, omega_k) terms, with e the
    money curve's degree of homogeneity on t's side of zero, so that
    sum_k w_k f(omega_k t) is the coefficient times f(t)."""
    sums = {
        e: math.fsum(w * omega**e for w, omega in terms)
        for e in (money.exponent(-1.0), money.exponent(1.0))
    }
    return lambda t: sums[money.exponent(t)]


def optimize_hetero(
    profile,
    instance: BudgetInstance,
    config: SolverConfig | None = None,
    exclude: int | None = None,
) -> BudgetDecision:
    """Welfare-optimal decision when agent i pays tax_weights[i] * t.

    The inner stage is unchanged (the allocation only sees the pool); the
    outer stage carries the per-agent money terms sum_k w_k f(omega_k t).
    The money curve is homogeneous on each side of zero (``MoneyCurve.exponent``:
    f(omega t) = omega^e f(t), and so omega f'(omega t) = omega^e f'(t)),
    so that sum is (sum_k w_k omega_k^e) f(t) and its slope
    (sum_k w_k omega_k^e) f'(t).  Both coefficients (one per side of zero)
    are summed once per solve, and each value or slope evaluation calls the
    money curve once, whatever the number of agents.  ``exclude`` drops one
    agent from the welfare, which is what pivot payments need; the budget
    mechanics (pool and feasible range) keep the full population.
    """
    cfg = config or _DEFAULT
    profile = tuple(profile)
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    included = [k for k in range(instance.n) if k != exclude]
    if not included:
        raise DomainError("cannot optimise for an empty included set")
    m = instance.m
    weights = [
        math.fsum(profile[k].alloc_weights[j] for k in included) for j in range(m)
    ]
    cond = _Conditional(weights, instance.gain_curves, cfg)
    money = instance.money_curve
    kappa = instance.money_factor()
    rate = instance.pool_rate
    terms = [(profile[k].money_weight, instance.tax_weights[k]) for k in included]
    dm = max(money.domain_min / omega for _, omega in terms)
    coefficient = _money_coefficients(money, terms)

    def value(t: float) -> float:
        money_total = coefficient(t) * money.value(t)
        return cond.gains(instance.pool(t)) - kappa * money_total

    def slope(t: float) -> float:
        money_slope = coefficient(t) * money.deriv(t)
        return cond.marginal(instance.pool(t)) * rate - kappa * money_slope

    t_star, _ = _maximize_over_tax(value, instance, cfg, money_domain_min=dm, slope=slope)
    x, _ = cond.both(instance.pool(t_star))
    return BudgetDecision(tuple(x), t_star)


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

    dm = max(money.domain_min / omega for _, omega in money_terms)
    t_lo = max(t_range[0], _feasible_start(instance, dm))
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


# =============================================================================
# Small shared numeric utility
# =============================================================================


def invert_increasing(
    fn: Callable[[float], float],
    target: float,
    lo: float,
    hi: float | None = None,
    tol: float = 1e-12,
) -> float:
    """Solve fn(x) = target for an increasing fn by monotone bisection
    with exponential bracket expansion upward from ``lo``."""
    if fn(lo) > target:
        raise DomainError(f"target {target} below fn({lo})")
    if hi is None:
        step = max(1.0, abs(lo)) * 1e-6
        hi = lo + step
        for _ in range(200):
            if fn(hi) >= target:
                break
            step *= 2.0
            hi = lo + step
        else:
            raise ConvergenceError("could not bracket the target value")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)
