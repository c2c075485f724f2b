"""Empirical verification harness.

Every experiment is a pure function of its seed: trial k draws from
``default_rng([seed, k])``, so reports reproduce bit-for-bit and trials
could run in any order.

* ``sdsic_fuzz`` -- searches for a profitable unilateral misreport.
* ``coalition_probe`` -- searches for coordinated misreports and checks
  that every one found is unstable (some member is off her best response).
* ``convergence_study`` -- payment decay on growing populations that share
  a characteristic triplet exactly (antithetic-pair generator).
* ``tax_divergence_demo`` -- growth of the preferred tax with population
  size under nominal semantics, constancy under per-capita semantics.
* ``continuity_probe`` -- displacement of the optimal decision under small
  type perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, TaxDivergence
from .mechanism import (
    NonPositiveConfig,
    _Plain,
    non_positive_payments,
    run_us_vcg,
    tangent_basis,
)
from .model import (
    AgentType,
    BudgetInstance,
    CharacteristicTriplet,
    _gains,
    _levels,
    excluded_means,
    mean_type,
)
from .solver import _require_unique_optimum, optimize

__all__ = [
    "FuzzReport",
    "CoalitionReport",
    "ConvergenceRow",
    "ConvergenceTable",
    "DivergenceReport",
    "ContinuityReport",
    "sdsic_fuzz",
    "coalition_probe",
    "convergence_study",
    "tax_divergence_demo",
    "continuity_probe",
    "sigma_population",
    "population_spread",
]

_LOCAL_SCALES = (1e-1, 1e-2)
_TOLERANCE = 1e-9  # utility gain a misreport must beat to count as profitable
_COALITION_LIES = 2  # coordinated lies each coalition trial draws


# =============================================================================
# Reports
# =============================================================================


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    max_gain: float
    worst_case: dict | None
    tolerance: float
    mode: str  # "sdsic" or "dsic"
    gains: tuple[float, ...] = ()  # one entry per trial, nan where no gain was measured
    misreport_space: str = "full"
    diverged: int = 0  # trials whose drawn profile raised TaxDivergence
    misreports_diverged: int = 0  # misreported profiles that raised it, skipped

    @property
    def passed(self) -> bool:
        return self.max_gain <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "experiment": "sdsic_fuzz",
            "trials": self.trials,
            "max_gain": self.max_gain,
            "worst_case": self.worst_case,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "misreport_space": self.misreport_space,
            "diverged": self.diverged,
            "misreports_diverged": self.misreports_diverged,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CoalitionReport:
    trials: int
    coalition_size: int
    manipulations_found: int
    unstable: int
    stable_cases: tuple[dict, ...]
    per_trial: tuple[tuple[int, int, int], ...] = ()  # (trial, found, unstable), not diverged
    misreport_space: str = "full"
    diverged: int = 0  # trials whose drawn profile raised TaxDivergence
    misreports_diverged: int = 0  # misreported profiles that raised it, skipped

    @property
    def passed(self) -> bool:
        return not self.stable_cases

    def as_dict(self) -> dict:
        return {
            "experiment": "coalition_probe",
            "trials": self.trials,
            "coalition_size": self.coalition_size,
            "manipulations_found": self.manipulations_found,
            "unstable": self.unstable,
            "stable_cases": list(self.stable_cases),
            "misreport_space": self.misreport_space,
            "diverged": self.diverged,
            "misreports_diverged": self.misreports_diverged,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_abs_payment: float
    n_times_max: float
    sum_abs_payments: float
    max_signed_payment: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    payment_rule: str = "sensitive"

    def __post_init__(self) -> None:
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError("convergence rows must have strictly increasing n")

    @property
    def decreasing(self) -> bool:
        vals = [r.max_abs_payment for r in self.rows]
        return all(b < a for a, b in zip(vals, vals[1:]))

    @property
    def plateau_factor(self) -> float:
        """Ratio of n*max|P| between the two largest populations."""
        if len(self.rows) < 2:
            return 1.0
        a, b = self.rows[-2].n_times_max, self.rows[-1].n_times_max
        lo, hi = min(a, b), max(a, b)
        return math.inf if lo <= 0.0 else hi / lo

    @property
    def sum_growth(self) -> float:
        if len(self.rows) < 2:
            return 1.0
        a, b = self.rows[-2].sum_abs_payments, self.rows[-1].sum_abs_payments
        return math.inf if a <= 0.0 else b / a

    @property
    def all_nonpositive(self) -> bool:
        return all(r.max_signed_payment <= 1e-12 for r in self.rows)

    @property
    def passed(self) -> bool:
        if self.payment_rule == "non_positive":
            return self.all_nonpositive and self.sum_growth <= 2.0
        return self.decreasing and self.plateau_factor < 3.0

    def as_dict(self) -> dict:
        return {
            "experiment": "convergence_study",
            "payment_rule": self.payment_rule,
            "rows": [
                {
                    "n": r.n,
                    "max_abs_payment": r.max_abs_payment,
                    "n_times_max": r.n_times_max,
                    "sum_abs_payments": r.sum_abs_payments,
                    "max_signed_payment": r.max_signed_payment,
                }
                for r in self.rows
            ],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class DivergenceReport:
    p: float
    q: float
    rows: tuple[tuple[int, float, float], ...]  # (n, nominal tax, per-capita tax)
    nominal_slope: float
    per_capita_spread: float
    stationarity_exponent: float

    def as_dict(self) -> dict:
        return {
            "experiment": "tax_divergence_demo",
            "p": self.p,
            "q": self.q,
            "rows": [
                {"n": n, "nominal_tax": tn, "per_capita_tax": tp}
                for n, tn, tp in self.rows
            ],
            "nominal_slope": self.nominal_slope,
            "per_capita_spread": self.per_capita_spread,
            "stationarity_exponent": self.stationarity_exponent,
        }


@dataclass(frozen=True)
class ContinuityReport:
    rows: tuple[tuple[float, float, float | None], ...]  # (delta, displacement, ratio)

    @property
    def ratio_spread(self) -> float:
        ratios = [r for _, _, r in self.rows if r is not None and r > 0.0]
        if len(ratios) < 2:
            return 1.0
        return max(ratios) / min(ratios)

    @property
    def passed(self) -> bool:
        return self.ratio_spread <= 2.0

    def as_dict(self) -> dict:
        return {
            "experiment": "continuity_probe",
            "rows": [
                {"delta": d, "displacement": disp, "ratio": r} for d, disp, r in self.rows
            ],
            "ratio_spread": self.ratio_spread,
            "passed": self.passed,
        }


# =============================================================================
# Random draws
# =============================================================================


def _draw_type(rng: np.random.Generator, m: int, mu: float) -> AgentType:
    weights = rng.dirichlet(np.ones(m))
    money = math.exp(rng.uniform(math.log(1.0 / mu), math.log(mu)))
    return AgentType.normalized(weights, money)


def _draw_misreport(
    rng: np.random.Generator, truth: AgentType, mu: float, space: str = "full"
) -> AgentType:
    """Global Dirichlet draw two thirds of the time, otherwise a local
    perturbation of the truth at one of two scales.  ``space`` is "full"
    (money weight misreported too) or "allocation" (money weight held at
    the truth)."""
    if rng.random() < 2.0 / 3.0:
        drawn = _draw_type(rng, truth.m, mu)
        if space == "allocation":
            return AgentType(drawn.alloc_weights, truth.money_weight)
        return drawn
    scale = _LOCAL_SCALES[int(rng.integers(len(_LOCAL_SCALES)))]
    noise = rng.normal(size=truth.m)
    weights = np.maximum(np.array(truth.alloc_weights) + scale * noise, 0.0)
    if weights.sum() <= 0.0:
        weights = np.ones(truth.m)
    money = truth.money_weight
    if space == "full":
        money *= math.exp(scale * rng.normal())
    return AgentType.normalized(weights, money)


def _report_utility(variant: _Plain, i: int, agent: AgentType, decision, excl, best_excl) -> float:
    """``agent``'s utility when the mechanism on ``variant``'s profile chose
    ``decision`` and charges agent i the pivot against the others' optimum
    ``best_excl``, inverted through i's reported money weight."""
    levels = _levels(decision, variant.instance)
    _, argument, _ = variant.pivot_at(decision, levels)(excl, best_excl)
    transfer = variant.own_tax(i, decision) + variant.payment(i, argument, decision)
    money = variant.instance.money_curve
    return _gains(agent.alloc_weights, levels[0]) - agent.money_weight * money.value(transfer)


# =============================================================================
# Misreport fuzzing
# =============================================================================


def _check_draws(mu: float, misreport_space: str) -> None:
    """Refuse a money-weight band [1/mu, mu] that is reversed, unbounded or
    not a number, and an unknown misreport space."""
    if not 1.0 <= mu < math.inf:
        raise DomainError(f"money-weight band bound mu must satisfy 1 <= mu < inf, got {mu}")
    if misreport_space not in ("full", "allocation"):
        raise DomainError(f"unknown misreport space {misreport_space!r}")


def sdsic_fuzz(
    instance: BudgetInstance,
    trials: int,
    seed: int,
    mu: float = 4.0,
    misreport_space: str = "full",
) -> FuzzReport:
    """Search for a profitable unilateral misreport.

    Each trial draws a fresh profile, a deviating agent, and a misreport
    (Dirichlet-global or truth-local), then compares the agent's realised
    utility under the lie against truth-telling.  The report's ``mode`` is
    "sdsic" when every gain curve has a diverging marginal at zero spend
    (interior optima certified) and "dsic" otherwise; the numeric pass
    criterion -- max gain at most _TOLERANCE (1e-9) -- is the same in both.

    Money weights are drawn log-uniformly from [1/mu, mu], 1 <= mu < inf;
    another mu raises DomainError.  ``misreport_space`` is "full" or
    "allocation".  No-profit holds on the allocation space: a lie there only
    displaces the outcome away from the true-mean optimum.  On the full
    space the payment inversion divides the pivot term by the *reported*
    money weight, which hands every agent with a positive pivot payment a
    first-order gain (slope p_i/w_money at the truth) from shading that
    weight; full-space runs therefore surface genuine positive gains and
    exist to measure them.  A trial whose drawn profile raises
    TaxDivergence, or whose lie does, measures no gain (nan) and counts as
    ``diverged``, or ``misreports_diverged``.
    """
    _check_draws(mu, misreport_space)
    interior = all(math.isinf(c.deriv_at_zero()) for c in instance.gain_curves)
    mode = "sdsic" if interior else "dsic"
    n = instance.n
    if n < 2:
        raise DomainError("misreport fuzzing needs at least two agents")
    max_gain = -math.inf
    worst: dict | None = None
    gains: list[float] = []
    diverged = misreports_diverged = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        profile = tuple(_draw_type(rng, instance.m, mu) for _ in range(n))
        i = int(rng.integers(n))
        report = _draw_misreport(rng, profile[i], mu, misreport_space)

        truth = _Plain(profile, instance)
        lie = _Plain(profile[:i] + (report,) + profile[i + 1 :], instance)
        (excl,) = excluded_means(profile, (i,))
        try:
            best_excl = truth.others_optimum(excl)
            u_truth = _report_utility(truth, i, profile[i], truth.others_optimum(None), excl, best_excl)
        except TaxDivergence:
            diverged += 1
            gains.append(math.nan)
            continue
        try:
            u_lie = _report_utility(lie, i, profile[i], lie.others_optimum(None), excl, best_excl)
            gain = u_lie - u_truth
        except TaxDivergence:
            misreports_diverged += 1
            gain = math.nan  # no gain, so no worst case
        gains.append(gain)
        if gain > max_gain:
            max_gain = gain
            worst = {
                "seed": seed,
                "trial": trial,
                "agent": i,
                "misreport": list(report.alloc_weights) + [report.money_weight],
                "gain": gain,
            }
    if worst is None:  # no trial measured a gain
        max_gain = 0.0
    return FuzzReport(
        trials, max_gain, worst, _TOLERANCE, mode, tuple(gains), misreport_space, diverged,
        misreports_diverged,
    )


def coalition_probe(
    instance: BudgetInstance,
    coalition_size: int,
    trials: int,
    seed: int,
    mu: float = 4.0,
    misreport_space: str = "full",
) -> CoalitionReport:
    """Search for coordinated misreports that benefit a coalition and check
    that each one found is unstable: at least one member would do strictly
    better by deviating from the agreed lie (truth or a local tweak of it)
    while the rest of the coalition sticks to the scheme.

    One-step coalition-proofness is inherited from the no-profitable-
    misreport property, so like ``sdsic_fuzz`` it is only guaranteed on the
    "allocation" misreport space.  ``mu`` bounds the money weights and
    TaxDivergence is counted as there; a lie or deviation that raises it
    is skipped, and its trial keeps what it found."""
    n = instance.n
    if not 0 < coalition_size < n:
        raise DomainError("coalition size must be between 1 and n-1")
    _check_draws(mu, misreport_space)
    found = unstable = 0
    stable_cases: list[dict] = []
    per_trial: list[tuple[int, int, int]] = []
    diverged = misreports_diverged = 0

    def utilities(reported: tuple[AgentType, ...], members) -> dict[int, float] | None:
        # None where a solve of the reported profile raises TaxDivergence
        try:
            variant = _Plain(reported, instance)
            decision = variant.others_optimum(None)
            out = {}
            for i, excl in zip(members, excluded_means(reported, members)):
                best_excl = variant.others_optimum(excl)
                out[i] = _report_utility(variant, i, true_profile[i], decision, excl, best_excl)
        except TaxDivergence:
            return None
        return out

    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        true_profile = tuple(_draw_type(rng, instance.m, mu) for _ in range(n))
        members = sorted(rng.choice(n, size=coalition_size, replace=False).tolist())
        u_truth = utilities(true_profile, members)
        if u_truth is None:
            diverged += 1
            continue
        trial_found = trial_unstable = 0
        for _ in range(_COALITION_LIES):
            lies = {
                i: _draw_misreport(rng, true_profile[i], mu, misreport_space)
                for i in members
            }
            reported = tuple(
                lies.get(k, true_profile[k]) for k in range(n)
            )
            u_lie = utilities(reported, members)
            if u_lie is None:
                misreports_diverged += 1
                continue
            weak = all(u_lie[i] >= u_truth[i] - 1e-12 for i in members)
            strict = any(u_lie[i] > u_truth[i] + _TOLERANCE for i in members)
            if not (weak and strict):
                continue
            found += 1
            trial_found += 1
            deviator = None
            for i in members:
                candidates = [true_profile[i]] + [
                    _draw_misreport(rng, true_profile[i], mu, misreport_space)
                    for _ in range(2)
                ]
                for cand in candidates:
                    probe = reported[:i] + (cand,) + reported[i + 1 :]
                    u_cand = utilities(probe, [i])
                    if u_cand is None:
                        misreports_diverged += 1
                    elif u_cand[i] > u_lie[i] + _TOLERANCE:
                        deviator = i
                        break
                if deviator is not None:
                    break
            if deviator is not None:
                unstable += 1
                trial_unstable += 1
            else:
                stable_cases.append(
                    {
                        "trial": trial,
                        "members": members,
                        "gains": [u_lie[i] - u_truth[i] for i in members],
                    }
                )
        per_trial.append((trial, trial_found, trial_unstable))
    return CoalitionReport(
        trials, coalition_size, found, unstable, tuple(stable_cases), tuple(per_trial),
        misreport_space, diverged, misreports_diverged,
    )


# =============================================================================
# Populations with a fixed characteristic triplet
# =============================================================================


def population_spread(sigma: CharacteristicTriplet) -> float:
    """Upper bound on |type - mean| for types drawn by sigma_population."""
    base = sigma.mean_type
    alloc_room = 0.9 * min(base.alloc_weights)
    money_room = 0.9 * min(sigma.mu - base.money_weight, base.money_weight - 1.0 / sigma.mu)
    return math.sqrt(base.m * alloc_room**2 + money_room**2)


def sigma_population(
    sigma: CharacteristicTriplet,
    n: int,
    rng: np.random.Generator,
    spread_scale: float = 1.0,
) -> tuple[AgentType, ...]:
    """Population of size n whose mean equals the triplet's mean exactly.

    Types come in mirrored (antithetic) pairs around the mean inside the
    money band; an odd population gets one agent at the mean itself.
    ``spread_scale`` shrinks the draw ranges (0 gives a homogeneous
    population).  Requires an interior mean allocation.
    """
    base = sigma.mean_type
    if min(base.alloc_weights) <= 0.0:
        raise DomainError("antithetic generation needs an interior mean allocation")
    if not 0.0 <= spread_scale <= 1.0:
        raise DomainError(f"spread scale must be in [0, 1], got {spread_scale}")
    m = base.m
    alloc_room = spread_scale * 0.9 * min(base.alloc_weights)
    money_room = spread_scale * 0.9 * min(
        sigma.mu - base.money_weight, base.money_weight - 1.0 / sigma.mu
    )
    types: list[AgentType] = []
    if n % 2 == 1:
        types.append(base)
    w = np.array(base.alloc_weights)
    for _ in range(n // 2):
        z = rng.normal(size=m)
        z -= z.mean()
        peak = np.max(np.abs(z))
        if peak == 0.0 or alloc_room == 0.0:
            z = np.zeros(m)
        else:
            z *= rng.uniform(0.0, 1.0) * alloc_room / peak
            z[-1] = -math.fsum(z[:-1])  # an exact 0 sum keeps each type on the simplex
        dm = rng.uniform(-1.0, 1.0) * money_room
        types.append(AgentType(tuple(w + z), base.money_weight + dm))
        types.append(AgentType(tuple(w - z), base.money_weight - dm))
    return tuple(types)


def convergence_study(
    sigma: CharacteristicTriplet,
    instance: BudgetInstance,
    n_list,
    generator_seed: int,
    payment_rule: str = "sensitive",
    spread_scale: float = 1.0,
) -> ConvergenceTable:
    """Payment magnitudes on sigma-preserving populations of growing size.

    ``instance`` supplies curves and conventions (must be per-capita); per
    population the external budget is sigma.b0 * n.  ``payment_rule`` is
    "sensitive" (mechanism payments) or "non_positive" (rebated scheme,
    with gamma certified from the generator's spread bound).
    """
    if instance.semantics != "per_capita":
        raise DomainError("convergence studies are defined for per-capita semantics")
    if payment_rule not in ("sensitive", "non_positive"):
        raise DomainError(f"unknown payment rule {payment_rule!r}")
    ns = list(n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("n_list must be strictly increasing")
    rows = []
    for n in ns:
        rng = np.random.default_rng([generator_seed, n])
        types = sigma_population(sigma, n, rng, spread_scale)
        inst_n = replace(
            instance,
            n=n,
            external_budget=sigma.b0 * n,
            types=types,
            tax_weights=None,
        )
        _require_unique_optimum(mean_type(types), inst_n)
        if payment_rule == "sensitive":
            payments = run_us_vcg(types, inst_n).payments
        else:
            npc = NonPositiveConfig(gamma=1.25 * population_spread(sigma))
            payments = non_positive_payments(types, inst_n, npc)
        arr = np.array(payments)
        rows.append(
            ConvergenceRow(
                n=n,
                max_abs_payment=float(np.max(np.abs(arr))),
                n_times_max=n * float(np.max(np.abs(arr))),
                sum_abs_payments=float(np.sum(np.abs(arr))),
                max_signed_payment=float(np.max(arr)),
            )
        )
    return ConvergenceTable(tuple(rows), payment_rule)


# =============================================================================
# Tax divergence demo
# =============================================================================


def tax_divergence_demo(
    p: float,
    q: float,
    n_list,
    alpha_f: float = 1.0,
) -> DivergenceReport:
    """Preferred tax of a single-good power/power agent across population
    sizes, under both semantics.

    Under nominal semantics the stationarity n^p * p * t^(p-1) =
    alpha_f * q * t^(q-1) gives t* proportional to n^(p/(q-p)); under
    per-capita semantics t* does not depend on n at all.  The report
    carries the fitted nominal log-log slope and the per-capita spread.
    """
    from .curves import GainCurve, MoneyCurve

    if not 0.0 < p < q < 1.0:
        raise DomainError(f"need 0 < p < q < 1, got p={p}, q={q}")
    agent = AgentType((1.0,), alpha_f)
    rows = []
    for n in n_list:
        per_semantics = {}
        for semantics in ("nominal", "per_capita"):
            inst = BudgetInstance(
                m=1,
                n=int(n),
                external_budget=0.0,
                gain_curves=(GainCurve.power(1.0, p),),
                money_curve=MoneyCurve.power(q),
                semantics=semantics,
            )
            per_semantics[semantics] = optimize(agent, inst).tax
        rows.append((int(n), per_semantics["nominal"], per_semantics["per_capita"]))
    ns = np.array([r[0] for r in rows], dtype=float)
    nominal = np.array([r[1] for r in rows])
    slope = float(np.polyfit(np.log(ns), np.log(nominal), 1)[0]) if len(rows) > 1 else 0.0
    pc = np.array([r[2] for r in rows])
    spread = float(pc.max() / pc.min() - 1.0) if len(rows) > 0 else 0.0
    return DivergenceReport(
        p=p,
        q=q,
        rows=tuple(rows),
        nominal_slope=slope,
        per_capita_spread=spread,
        stationarity_exponent=p / (q - p),
    )


# =============================================================================
# Continuity probe
# =============================================================================


def continuity_probe(
    agent: AgentType,
    instance: BudgetInstance,
    deltas,
) -> ContinuityReport:
    """Displacement of the optimal decision under type perturbations of the
    given magnitudes, probed along every simplex-tangent axis (both signs)
    and the money axis.  Stable displacement/magnitude ratios across scales
    are evidence of differentiability at the optimum."""
    base = _require_unique_optimum(agent, instance)
    t_scale = max(1.0, abs(base.tax))
    m = agent.m
    directions: list[tuple[np.ndarray, float]] = []
    for d in tangent_basis(m):
        directions.append((d, 0.0))
        directions.append((-d, 0.0))
    directions.append((np.zeros(m), 1.0))
    directions.append((np.zeros(m), -1.0))

    rows: list[tuple[float, float, float | None]] = []
    for delta in deltas:
        delta = float(delta)
        if delta == 0.0:
            rows.append((0.0, 0.0, None))
            continue
        worst = 0.0
        worst_ratio = 0.0
        for alloc_dir, money_dir in directions:
            h = delta
            if np.any(alloc_dir != 0.0):
                # a direction that lowers a zero weight has no room: h = 0 skips it
                room = min(
                    w / abs(d)
                    for w, d in zip(agent.alloc_weights, alloc_dir)
                    if d < 0.0 or (d > 0.0 and w > 0.0)
                )
                h = min(delta, 0.45 * room)
            if money_dir < 0.0:
                h = min(h, 0.45 * agent.money_weight)
            if h <= 0.0:
                continue
            shifted = AgentType(
                tuple(w + h * d for w, d in zip(agent.alloc_weights, alloc_dir)),
                agent.money_weight + h * money_dir,
            )
            moved = optimize(shifted, instance)
            dist = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(moved.allocation, base.allocation))
                + ((moved.tax - base.tax) / t_scale) ** 2
            )
            if dist > worst:
                worst = dist
            worst_ratio = max(worst_ratio, dist / h)
        rows.append((delta, worst, worst_ratio))
    return ContinuityReport(tuple(rows))
