"""Core data model: agent types, budgeting instances, budget decisions.

A *budget decision* is a pair ``(x, t)`` of a simplex allocation over the
m public goods and a per-agent tax t; the funded pool is ``B_0 + n*t``
under nominal semantics and ``B_0/n + t`` under per-capita semantics.
An agent's *type* weights the per-good gain curves and the money curve:

    v(x, t) = sum_j w_j * theta_j(x_j * pool(t)) - w_money * f(t)

The ``mrs_convention`` flag fixes which first-order ratio a reported
optimum encodes (and therefore which objective the solver maximises):

    n_scaled   n * theta_j'(spend_j) / f'(t) = w_money / w_j
               (exact stationarity of v under nominal semantics)
    n_free     theta_j'(spend_j) / f'(t) = w_money / w_j
               (exact stationarity of v under per-capita semantics)

Defaults pair each semantics with its exact convention.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .curves import GainCurve, MoneyCurve
from .errors import DomainError, EmptyProfile

__all__ = [
    "AgentType",
    "BudgetDecision",
    "BudgetInstance",
    "CharacteristicTriplet",
    "valuation",
    "feature_vector",
    "mean_type",
    "excluded_means",
    "mean_excluding",
    "social_welfare",
]

_SIMPLEX_TOL = 1e-12


class UniformTaxWeights(Sequence):
    """All-ones tax weights in O(1) memory (population sizes can be huge)."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return (1.0,) * len(range(*i.indices(self._n)))
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return 1.0

    def __iter__(self):
        return itertools.repeat(1.0, self._n)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniformTaxWeights):
            return self._n == other._n
        if isinstance(other, (tuple, list)):
            return len(other) == self._n and all(w == 1.0 for w in other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("uniform-tax-weights", self._n))

    def __repr__(self) -> str:
        return f"UniformTaxWeights(n={self._n})"


# =============================================================================
# Value types
# =============================================================================


@dataclass(frozen=True)
class AgentType:
    """Coefficient vector (w_1..w_m, w_money) on the simplex x positive reals."""

    alloc_weights: tuple[float, ...]
    money_weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alloc_weights", tuple(float(w) for w in self.alloc_weights))
        if not self.alloc_weights:
            raise DomainError("a type needs at least one allocation weight")
        if any(w < 0.0 or not math.isfinite(w) for w in self.alloc_weights):
            raise DomainError(f"allocation weights must be nonnegative: {self.alloc_weights}")
        total = math.fsum(self.alloc_weights)
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise DomainError(f"allocation weights sum to {total!r}, not 1")
        if not (math.isfinite(self.money_weight) and self.money_weight > 0.0):
            raise DomainError(f"money weight must be positive, got {self.money_weight}")

    @classmethod
    def normalized(cls, weights, money_weight: float) -> "AgentType":
        """Build a type from raw weights, clipping sub-1e-9 negatives and
        renormalising; larger violations are rejected."""
        ws = [float(w) for w in weights]
        if any(w < -1e-9 for w in ws):
            raise DomainError(f"allocation weights too negative to snap: {ws}")
        ws = [max(w, 0.0) for w in ws]
        total = math.fsum(ws)
        if total <= 0.0:
            raise DomainError("allocation weights sum to zero")
        return cls(tuple(w / total for w in ws), money_weight)

    @property
    def m(self) -> int:
        return len(self.alloc_weights)

    def as_vector(self) -> np.ndarray:
        """(w_1..w_m, w_money) as a flat array."""
        return np.array(self.alloc_weights + (self.money_weight,), dtype=float)


@dataclass(frozen=True)
class BudgetDecision:
    """A simplex allocation over goods plus a per-agent tax (currency/agent)."""

    allocation: tuple[float, ...]
    tax: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocation", tuple(float(x) for x in self.allocation))
        if any(x < 0.0 or not math.isfinite(x) for x in self.allocation):
            raise DomainError(f"allocation must be nonnegative: {self.allocation}")
        total = math.fsum(self.allocation)
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise DomainError(f"allocation sums to {total!r}, not 1")
        if not math.isfinite(self.tax):
            raise DomainError(f"tax must be finite, got {self.tax}")

    def allocation_array(self) -> np.ndarray:
        return np.array(self.allocation, dtype=float)


@dataclass(frozen=True)
class BudgetInstance:
    """One budgeting problem: goods, agents, curves, and conventions.

    ``types`` is optional; operations that need a profile take it as an
    explicit argument so elicitation flows can run before types are known.
    """

    m: int
    n: int
    external_budget: float
    gain_curves: tuple[GainCurve, ...]
    money_curve: MoneyCurve
    semantics: str = "nominal"
    mrs_convention: str | None = None
    tax_weights: tuple[float, ...] | UniformTaxWeights | None = None
    types: tuple[AgentType, ...] | None = None

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise DomainError(f"need m >= 1 goods and n >= 1 agents, got {self.m}, {self.n}")
        if not (math.isfinite(self.external_budget) and self.external_budget >= 0.0):
            raise DomainError(f"external budget must be >= 0, got {self.external_budget}")
        object.__setattr__(self, "gain_curves", tuple(self.gain_curves))
        if len(self.gain_curves) != self.m:
            raise DomainError(
                f"expected {self.m} gain curves, got {len(self.gain_curves)}"
            )
        if self.semantics not in ("nominal", "per_capita"):
            raise DomainError(f"unknown semantics {self.semantics!r}")
        if self.mrs_convention is None:
            object.__setattr__(
                self,
                "mrs_convention",
                "n_scaled" if self.semantics == "nominal" else "n_free",
            )
        if self.mrs_convention not in ("n_scaled", "n_free"):
            raise DomainError(f"unknown mrs convention {self.mrs_convention!r}")
        if self.tax_weights is None or isinstance(self.tax_weights, UniformTaxWeights):
            object.__setattr__(self, "tax_weights", UniformTaxWeights(self.n))
            if len(self.tax_weights) != self.n:
                raise DomainError(f"expected {self.n} tax weights")
        else:
            object.__setattr__(self, "tax_weights", tuple(float(w) for w in self.tax_weights))
            if len(self.tax_weights) != self.n:
                raise DomainError(f"expected {self.n} tax weights")
            if not all(0.0 < w < math.inf for w in self.tax_weights):
                raise DomainError("tax weights must be positive and finite")
            if abs(math.fsum(self.tax_weights) - self.n) > 1e-9:
                raise DomainError(
                    f"tax weights must sum to n={self.n}, got {math.fsum(self.tax_weights)}"
                )
        if self.types is not None:
            object.__setattr__(self, "types", tuple(self.types))
            if len(self.types) != self.n:
                raise DomainError(f"expected {self.n} types, got {len(self.types)}")
            if any(t.m != self.m for t in self.types):
                raise DomainError("type length does not match the number of goods")

    # -- semantics helpers -------------------------------------------------

    @property
    def pool_rate(self) -> float:
        """d(pool)/dt: n under nominal semantics, 1 under per-capita."""
        return float(self.n) if self.semantics == "nominal" else 1.0

    @property
    def tax_floor(self) -> float:
        """Open lower bound of the feasible tax interval."""
        return -self.external_budget / self.n

    @property
    def tax_epsilon(self) -> float:
        return 1e-9 * max(1.0, self.external_budget / self.n)

    def pool(self, tax: float) -> float:
        """Total spendable amount routed through the gain curves."""
        if self.semantics == "nominal":
            return self.external_budget + self.n * tax
        return self.external_budget / self.n + tax

    def money_factor(self) -> float:
        """Multiplier on the money term of the solver objective, chosen so
        the optimum satisfies the instance's MRS convention exactly."""
        if self.mrs_convention == "n_scaled":
            return self.pool_rate / self.n
        return self.pool_rate

    def mrs_factor(self) -> float:
        """Population factor in the reported-optimum ratio: w_money / w_j =
        mrs_factor * theta'(spend_j) / f'(t)."""
        return float(self.n) if self.mrs_convention == "n_scaled" else 1.0

    @property
    def homogeneous_tax(self) -> bool:
        if isinstance(self.tax_weights, UniformTaxWeights):
            return True
        return all(abs(w - 1.0) <= 1e-12 for w in self.tax_weights)

    def check_decision(self, decision: BudgetDecision) -> None:
        """Feasibility against this instance (tax bound, curve domains)."""
        if len(decision.allocation) != self.m:
            raise DomainError(
                f"decision has {len(decision.allocation)} goods, instance has {self.m}"
            )
        if decision.tax < self.tax_floor + self.tax_epsilon:
            raise DomainError(
                f"tax {decision.tax} at or below the feasible floor {self.tax_floor}"
            )
        if decision.tax < self.money_curve.domain_min:
            raise DomainError(
                f"tax {decision.tax} below the money curve domain "
                f"minimum {self.money_curve.domain_min}"
            )


@dataclass(frozen=True)
class CharacteristicTriplet:
    """Population invariants held fixed in convergence studies: per-capita
    external budget, money-weight band bound, and the mean type."""

    b0: float
    mu: float
    mean_type: AgentType

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b0) and self.b0 >= 0.0):
            raise DomainError(f"per-capita budget must be >= 0, got {self.b0}")
        if not self.mu > 1.0:
            raise DomainError(f"money-weight band bound must exceed 1, got {self.mu}")
        if not (1.0 / self.mu < self.mean_type.money_weight < self.mu):
            raise DomainError("mean money weight must sit inside the (1/mu, mu) band")

    def admits(self, profile) -> bool:
        return all(1.0 / self.mu < t.money_weight < self.mu for t in profile)


# =============================================================================
# Evaluation
# =============================================================================


def valuation(
    agent: AgentType,
    decision: BudgetDecision,
    instance: BudgetInstance,
    tax_weight: float = 1.0,
) -> float:
    """v(x, t) = sum_j w_j theta_j(x_j * pool) - w_money * f(tax_weight * t).

    Goods with a zero weight contribute exactly 0 even where the curve
    itself is undefined at zero spend.
    """
    gains, f_t = _levels(decision, instance)
    if tax_weight != 1.0:
        f_t = instance.money_curve.value(tax_weight * decision.tax)
    return _gains(agent.alloc_weights, gains) - agent.money_weight * f_t


def _levels(decision: BudgetDecision, instance) -> tuple[list, float]:
    """What every valuation at ``decision`` reads: each good's level
    theta_j(x_j * pool), None where the spend is 0 on a curve undefined
    there (a good only zero weights may skip), and f(t).  A pass that values
    many weightings at one decision evaluates them once (``_gains``)."""
    instance.check_decision(decision)
    pool = instance.pool(decision.tax)
    levels = [
        None if not (spend := x * pool) > 0.0 and curve.strict_domain else curve.value(spend)
        for x, curve in zip(decision.allocation, instance.gain_curves)
    ]
    return levels, instance.money_curve.value(decision.tax)


def _gains(weights, levels) -> float:
    """The weighted gains of ``_levels``' first part, summed in good order
    over the positive weights: ``_gains(w, levels) - w_money * f`` is the
    valuation of a type (w, w_money)."""
    gains = 0.0
    for w, level in zip(weights, levels):
        if w > 0.0:
            if level is None:
                raise DomainError("a positive weight on a good with no spend, where its curve is undefined")
            gains += w * level
    return gains


def feature_vector(decision: BudgetDecision, instance: BudgetInstance) -> np.ndarray:
    """(theta_1(spend_1), .., theta_m(spend_m), -f(t)); any type's valuation
    is its dot product with this vector."""
    gains, f_t = _levels(decision, instance)
    if None in gains:
        raise DomainError(f"good {gains.index(None)} has no spend, where its curve is undefined")
    return np.array([*gains, -f_t])


def mean_type(types) -> AgentType:
    """Coordinate-wise arithmetic mean of a profile."""
    types = tuple(types)
    if not types:
        raise EmptyProfile("cannot average an empty profile")
    m = types[0].m
    n = len(types)
    weights = tuple(math.fsum(t.alloc_weights[j] for t in types) / n for j in range(m))
    money = math.fsum(t.money_weight for t in types) / n
    return AgentType(weights, money)


def _exact_sum(values: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of ``values``.

    The first term is ``math.fsum(values)``; each later one is the correctly
    rounded remainder the terms before it leave.  The loop ends: each step
    shrinks the remainder by a factor of at least 2**52, and a nonzero
    remainder is a multiple of the smallest bit among the inputs.
    """
    terms = [math.fsum(values)]
    while rest := math.fsum(values + [-s for s in terms]):
        terms.append(rest)
    return terms


def excluded_means(types, agents=None) -> tuple[AgentType, ...]:
    """Mean of the profile with agent i removed, for each i in ``agents``
    (default: every agent), in one O(n*m) pass (needs n >= 2).

    Each coordinate's profile total is held as an exact sum of a few floats,
    so removing agent i takes one short ``math.fsum`` that returns the
    correctly rounded sum of the others.  For a single agent the others'
    columns are summed directly, one ``math.fsum`` each, which costs less
    than building the totals and rounds the same.  Every entry is therefore
    bit-identical to averaging the n-1 remaining types, whatever the order
    of the profile, and a weight is exactly 0.0 when every other agent's
    weight on that good is 0.0, however large agent i's own weight is.
    """
    types = tuple(types)
    n = len(types)
    if n < 2:
        raise EmptyProfile("excluded mean needs at least two agents")
    agents = range(n) if agents is None else tuple(agents)
    for i in agents:
        if not 0 <= i < n:
            raise DomainError(f"agent index {i} out of range for n={n}")
    rows = [t.alloc_weights + (t.money_weight,) for t in types]
    if len(agents) == 1:
        (i,) = agents
        sums = [[math.fsum(column) for column in zip(*rows[:i], *rows[i + 1 :])]]
    else:
        totals = [_exact_sum(list(column)) for column in zip(*rows)]
        sums = (
            [math.fsum((*total, -w)) for total, w in zip(totals, rows[i])]
            for i in agents
        )
    out = []
    for others in sums:
        mean = [s / (n - 1) for s in others]
        out.append(AgentType(tuple(mean[:-1]), mean[-1]))
    return tuple(out)


def mean_excluding(types, i: int) -> AgentType:
    """Mean of the profile with agent i removed (needs n >= 2): the entry
    for i of ``excluded_means``.  Loops over agents call that instead, which
    prices all of them in one pass."""
    return excluded_means(types, (i,))[0]


def social_welfare(profile, decision: BudgetDecision, instance: BudgetInstance) -> float:
    """Total welfare of a profile at a decision.

    With homogeneous tax weights this is n * v_mean (welfare depends on the
    profile only through its mean); with designer-assigned weights each
    agent pays w_i * t and the money terms are summed per agent.
    """
    profile = tuple(profile)
    if len(profile) != instance.n:
        raise DomainError(f"profile has {len(profile)} agents, instance has {instance.n}")
    if instance.homogeneous_tax:
        return instance.n * valuation(mean_type(profile), decision, instance)
    instance.check_decision(decision)
    pool = instance.pool(decision.tax)
    mean = mean_type(profile)
    gains = 0.0
    for w, x, curve in zip(mean.alloc_weights, decision.allocation, instance.gain_curves):
        if w == 0.0:
            continue
        gains += instance.n * w * curve.value(x * pool)
    money = math.fsum(
        agent.money_weight * instance.money_curve.value(omega * decision.tax)
        for agent, omega in zip(profile, instance.tax_weights)
    )
    return gains - money
