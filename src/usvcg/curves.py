"""Valuation-of-spending curves and the money-disutility curve.

Two families of primitives back the whole engine:

* ``GainCurve`` -- an increasing, strictly concave valuation of money spent
  on a single public good.  Shipped kinds::

      log    theta(X) = a * ln(X)        on X > 0
      power  theta(X) = a * X**e         on X >= 0,  0 < e < 1
      log1p  theta(X) = a * ln(1 + X)    on X >= 0   (finite marginal at 0)

* ``MoneyCurve`` -- the disutility f of a monetary transfer (positive =
  money paid), increasing with f(0) = 0, strictly convex on losses-side
  arguments below zero and strictly concave above.  Shipped kinds::

      power  f(d) = d**q                 on d >= 0,  0 < q < 1
      kt     f(d) = -(-d)**q  (d <= 0)   prospect-theory value function
             f(d) = lw * d**r (d >  0)   (Kahneman & Tversky), 0 < q,r < 1

All kinds expose exact derivatives and closed-form inverses; nothing here
is approximated numerically.  Curves are immutable and all methods are
pure, so instances may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, RangeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .model import BudgetInstance

__all__ = [
    "GainCurve",
    "MoneyCurve",
    "AssumptionCheck",
    "ValidationReport",
    "validate_assumptions",
]

_GAIN_KINDS = ("log", "power", "log1p")
_MONEY_KINDS = ("power", "kt")


# =============================================================================
# Gain curves
# =============================================================================


@dataclass(frozen=True)
class GainCurve:
    """One public good's valuation of spending, with exact calculus access."""

    kind: str
    scale: float
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GAIN_KINDS:
            raise DomainError(f"unknown gain curve kind {self.kind!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"gain curve scale must be positive, got {self.scale}")
        if self.kind == "power":
            if self.exponent is None or not (0.0 < self.exponent < 1.0):
                raise DomainError(
                    f"power gain curve needs exponent in (0, 1), got {self.exponent}"
                )
        elif self.exponent is not None:
            raise DomainError(f"{self.kind} gain curve takes no exponent")

    # -- constructors ---------------------------------------------------

    @classmethod
    def log(cls, scale: float) -> "GainCurve":
        return cls("log", scale)

    @classmethod
    def power(cls, scale: float, exponent: float) -> "GainCurve":
        return cls("power", scale, exponent)

    @classmethod
    def log1p(cls, scale: float) -> "GainCurve":
        return cls("log1p", scale)

    # -- domain ----------------------------------------------------------

    @property
    def strict_domain(self) -> bool:
        """True when the curve is only defined for strictly positive spend."""
        return self.kind == "log"

    # -- evaluation -------------------------------------------------------

    def value(self, spend: float) -> float:
        """theta(spend), on the kind's domain (``strict_domain``)."""
        if self.kind == "log":
            if not spend > 0.0:
                raise DomainError(f"log gain curve needs spend > 0, got {spend}")
            return self.scale * math.log(spend)
        if not spend >= 0.0:
            raise DomainError(f"gain curve needs spend >= 0, got {spend}")
        if self.kind == "power":
            return self.scale * spend**self.exponent
        return self.scale * math.log1p(spend)

    def deriv(self, spend: float) -> float:
        """Marginal utility theta'(spend); requires spend > 0."""
        if not spend > 0.0:
            raise DomainError(f"marginal utility needs spend > 0, got {spend}")
        if self.kind == "log":
            return self.scale / spend
        if self.kind == "power":
            return self.scale * self.exponent * spend ** (self.exponent - 1.0)
        return self.scale / (1.0 + spend)

    def deriv_array(self, spends: np.ndarray) -> np.ndarray:
        """``deriv`` over an array of positive spends, entry by entry the same
        bits: the quotients run on the whole array, the power kind's powers
        one float at a time, because numpy's power may round differently."""
        if self.kind == "log":
            return self.scale / spends
        if self.kind == "power":
            e = self.exponent
            return self.scale * e * np.array([s ** (e - 1.0) for s in spends.tolist()], dtype=float)
        return self.scale / (1.0 + spends)

    def deriv2(self, spend: float) -> float:
        """Second derivative; strictly negative on the interior, and -inf
        where the power kind's magnitude overflows at a tiny spend."""
        if not spend > 0.0:
            raise DomainError(f"curvature needs spend > 0, got {spend}")
        if self.kind == "log":
            return -self.scale / spend**2
        if self.kind == "power":
            e = self.exponent
            try:
                return self.scale * e * (e - 1.0) * spend ** (e - 2.0)
            except OverflowError:
                return -math.inf
        return -self.scale / (1.0 + spend) ** 2

    def inverse_deriv(self, marginal: float) -> float:
        """The spend at which theta' equals ``marginal`` (exact inverse)."""
        if not marginal > 0.0:
            raise DomainError(f"marginal must be positive, got {marginal}")
        if self.kind == "log":
            return self.scale / marginal
        if self.kind == "power":
            e = self.exponent
            return (marginal / (self.scale * e)) ** (1.0 / (e - 1.0))
        if marginal > self.scale:
            raise RangeError(
                f"log1p marginal tops out at {self.scale}, got {marginal}"
            )
        return self.scale / marginal - 1.0

    def spend_law(self, weight: float) -> tuple[float, float, float]:
        """(c, p, d): a good weighted by ``weight`` spends max((c mu)**p - d, 0)
        at water level mu = 1/lambda, lambda its weighted marginal
        w theta'(spend).  c = w a and p = 1 for log (d = 0) and log1p
        (d = 1); c = w a e and p = 1/(1 - e) for power (d = 0).  So the
        spend's rate dspend/dmu is p (spend + d)/mu wherever it is funded,
        with no second derivative, and at unit weight mu is 1/theta'(spend)
        itself, whose rate d(1/theta')/dspend is mu/(p (spend + d))."""
        if self.kind == "power":
            return weight * self.scale * self.exponent, 1.0 / (1.0 - self.exponent), 0.0
        return weight * self.scale, 1.0, 1.0 if self.kind == "log1p" else 0.0

    def inverse(self, y: float) -> float:
        """The spend at which theta reaches level ``y``."""
        if self.kind == "log":
            return math.exp(y / self.scale)
        if self.kind == "power":
            if y < 0.0:
                raise RangeError(f"power gain curve never reaches {y}")
            return (y / self.scale) ** (1.0 / self.exponent)
        if y < 0.0:
            raise RangeError(f"log1p gain curve never reaches {y}")
        return math.expm1(y / self.scale)

    def level_shift(self, level: float, sigma: float) -> float:
        """A bound on |theta(theta'^-1(y r)) - theta(theta'^-1(y))| over
        every r in [1/sigma, sigma] (sigma >= 1), given the level
        theta(theta'^-1(y)): how far a good's level moves when its marginal
        moves by a factor of at most sigma.  a ln(sigma) for log and log1p
        (log1p's clip at zero spend only shrinks the move), and
        level (sigma**(e/(1-e)) - 1) for power."""
        if self.kind != "power":
            return self.scale * math.log(sigma)
        power = self.exponent / (1.0 - self.exponent) * math.log(sigma)
        return level * math.expm1(power) if power < 700.0 else math.inf

    def deriv_at_zero(self) -> float:
        """Limiting marginal utility as spend -> 0+ (may be infinite)."""
        if self.kind == "log1p":
            return self.scale
        return math.inf

    def value_limit_at_zero(self) -> float:
        """Limit of theta at zero spend (never positive)."""
        return -math.inf if self.kind == "log" else 0.0

    def value_array(self, spends: np.ndarray) -> np.ndarray:
        """Vectorised theta over nonnegative spends; -inf where undefined."""
        spends = np.asarray(spends, dtype=float)
        if self.kind == "log":
            with np.errstate(divide="ignore"):
                return np.where(
                    spends > 0.0, self.scale * np.log(np.maximum(spends, 1e-300)), -np.inf
                )
        if self.kind == "power":
            return self.scale * np.maximum(spends, 0.0) ** self.exponent
        return self.scale * np.log1p(np.maximum(spends, 0.0))


# =============================================================================
# Money-disutility curves
# =============================================================================


@dataclass(frozen=True)
class MoneyCurve:
    """Disutility of a monetary transfer (loss-averse around zero).

    ``domain_min``, the lowest admissible argument, follows from the kind
    and is no field: 0 for the one-sided power kind, -inf for the two-sided
    prospect-theory kind.  It is set once per curve, because every ``value``
    and ``deriv`` call reads it.
    """

    kind: str
    q: float
    r: float | None = None
    loss_weight: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _MONEY_KINDS:
            raise DomainError(f"unknown money curve kind {self.kind!r}")
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"money curve exponent q must be in (0, 1), got {self.q}")
        if self.kind == "kt":
            if self.r is None or not (0.0 < self.r < 1.0):
                raise DomainError(f"kt money curve needs r in (0, 1), got {self.r}")
            if self.loss_weight is None or not self.loss_weight > 0.0:
                raise DomainError(
                    f"kt money curve needs a positive loss weight, got {self.loss_weight}"
                )
        elif self.r is not None or self.loss_weight is not None:
            raise DomainError("power money curve takes only q")
        object.__setattr__(self, "domain_min", 0.0 if self.kind == "power" else -math.inf)

    @classmethod
    def power(cls, q: float) -> "MoneyCurve":
        return cls("power", q)

    @classmethod
    def kahneman_tversky(cls, q: float, r: float, loss_weight: float) -> "MoneyCurve":
        return cls("kt", q, r, loss_weight)

    def _check(self, delta: float) -> None:
        if not delta >= self.domain_min:
            raise DomainError(
                f"transfer {delta} below money curve domain minimum {self.domain_min}"
            )

    def value(self, delta: float) -> float:
        """f(delta); f(0) = 0 by construction."""
        self._check(delta)
        if self.kind == "power":
            return delta**self.q
        if delta > 0.0:
            return self.loss_weight * delta**self.r
        return -((-delta) ** self.q)

    def exponent(self, delta: float) -> float:
        """The degree e of homogeneity on delta's side of zero:
        f(omega * delta) = omega**e * f(delta) and
        omega * f'(omega * delta) = omega**e * f'(delta) for every omega > 0.
        q for the power kind; for the kt kind r when delta > 0 and q when
        delta < 0.  At delta = 0 both sides vanish and any e holds."""
        return self.r if self.kind == "kt" and delta > 0.0 else self.q

    def difference(self, b: float, a: float) -> float:
        """f(b) - f(a), without the cancellation of two rounded values when b
        and a lie strictly on one side of zero: there f(b) = f(a) (b/a)**e
        with e the exponent on that side, so the difference is
        f(a) expm1(e ln(b/a)), a few ulps off itself while |e ln(b/a)| < 1.
        ln(b/a) is log1p((b - a)/a) while b lies within a factor of 2 of a,
        where b - a is exact.  From |e ln(b/a)| = 1 on, f(b) and f(a) differ
        by a factor of at least e, so their plain difference cancels less
        than a bit, and the expm1 form's error grows with e ln(b/a) (8 ulps
        at e ln(b/a) = 9.2): it is their plain difference, as it is across
        zero, or at it, where the values have no common factor."""
        self._check(b)
        if a == 0.0 or b == 0.0 or (a < 0.0) != (b < 0.0):
            return self.value(b) - self.value(a)
        ratio = b / a
        growth = math.log1p((b - a) / a) if 0.5 <= ratio <= 2.0 else math.log(ratio)
        power = self.exponent(a) * growth
        if abs(power) >= 1.0:
            return self.value(b) - self.value(a)
        return self.value(a) * math.expm1(power)

    def deriv(self, delta: float) -> float:
        """f'(delta); returns +inf at the origin where the slope diverges."""
        self._check(delta)
        if delta == 0.0:
            return math.inf
        if self.kind == "power":
            return self.q * delta ** (self.q - 1.0)
        if delta > 0.0:
            return self.loss_weight * self.r * delta ** (self.r - 1.0)
        return self.q * (-delta) ** (self.q - 1.0)

    def inverse(self, y: float) -> float:
        """f^{-1}(y); raises RangeError when y is not attained."""
        if self.kind == "power":
            if y < 0.0:
                raise RangeError(f"one-sided power money curve never attains {y}")
            return y ** (1.0 / self.q)
        if y > 0.0:
            return (y / self.loss_weight) ** (1.0 / self.r)
        return -((-y) ** (1.0 / self.q))


# =============================================================================
# Assumption validation
# =============================================================================


@dataclass(frozen=True)
class AssumptionCheck:
    """One pass/fail entry of a validation report."""

    name: str
    passed: bool
    detail: str
    witness: str | None = None

    def as_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]
    flags: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "flags": list(self.flags),
        }


def _sampled_shape_checks(curve: GainCurve, label: str) -> list[AssumptionCheck]:
    """Increasing + strictly concave on a geometric grid, and a nonpositive
    limit at zero spend.  Slope(x1,x2) > slope(x2,x3) certifies concavity."""
    xs = np.geomspace(1e-6, 1e6, 25)
    vals = [curve.value(float(x)) for x in xs]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    concave = True
    for i in range(len(xs) - 2):
        s01 = (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])
        s12 = (vals[i + 2] - vals[i + 1]) / (xs[i + 2] - xs[i + 1])
        if not s01 > s12:
            concave = False
            break
    zero_ok = curve.value_limit_at_zero() <= 0.0
    return [
        AssumptionCheck(
            f"gain-shape[{label}]",
            increasing and concave and zero_ok,
            "increasing, strictly concave, nonpositive at zero spend "
            "(sampled on a geometric grid)",
            witness=None if (increasing and concave and zero_ok) else f"curve {curve}",
        )
    ]


def _money_shape_checks(curve: MoneyCurve) -> list[AssumptionCheck]:
    checks = []
    checks.append(AssumptionCheck("money-origin", curve.value(0.0) == 0.0, "f(0) = 0"))
    xs = np.geomspace(1e-6, 1e6, 25)
    pos_vals = [curve.value(float(x)) for x in xs]
    increasing = all(b > a for a, b in zip(pos_vals, pos_vals[1:]))
    concave_pos = all(
        (pos_vals[i + 1] - pos_vals[i]) / (xs[i + 1] - xs[i])
        > (pos_vals[i + 2] - pos_vals[i + 1]) / (xs[i + 2] - xs[i + 1])
        for i in range(len(xs) - 2)
    )
    convex_neg = True
    if curve.domain_min < 0.0:
        neg = [-float(x) for x in xs[::-1]]
        neg_vals = [curve.value(x) for x in neg]
        increasing = increasing and all(b > a for a, b in zip(neg_vals, neg_vals[1:]))
        convex_neg = all(
            (neg_vals[i + 1] - neg_vals[i]) / (neg[i + 1] - neg[i])
            < (neg_vals[i + 2] - neg_vals[i + 1]) / (neg[i + 2] - neg[i + 1])
            for i in range(len(neg) - 2)
        )
    checks.append(
        AssumptionCheck(
            "money-shape",
            increasing and concave_pos and convex_neg,
            "increasing, concave on gains side, convex on the negative side "
            "(sampled slope triples)",
        )
    )
    return checks


def _loglog_slope(zs: np.ndarray, ratios: np.ndarray) -> float:
    mask = ratios > 0.0
    if mask.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(zs[mask]), np.log(ratios[mask]), 1)[0])


def validate_assumptions(instance: "BudgetInstance") -> ValidationReport:
    """Check the utility-model assumptions on a budgeting instance.

    Every entry is reported rather than raised: a failed assumption means
    the engine's incentive guarantees are not certified for the instance,
    not that it cannot be run.  Limit conditions are evaluated on geometric
    grids (small-argument grid down to 1e-12, large-argument horizon 1e12).
    """
    checks: list[AssumptionCheck] = []
    flags: list[str] = []
    money = instance.money_curve

    for j, curve in enumerate(instance.gain_curves):
        checks.extend(_sampled_shape_checks(curve, str(j)))
    checks.extend(_money_shape_checks(money))

    # Marginal gains must be outpaced by the marginal money disutility at
    # large arguments, otherwise the preferred tax diverges.  Certified by
    # the fitted log-log decay of theta'(z/m) / f'(z) toward the horizon.
    zs = np.geomspace(1.0, 1e12, 13)
    for j, curve in enumerate(instance.gain_curves):
        ratios = np.array(
            [curve.deriv(float(z) / instance.m) / money.deriv(float(z)) for z in zs]
        )
        slope = _loglog_slope(zs[-5:], ratios[-5:])
        ok = bool(slope <= -0.01 and ratios[-1] < ratios[0])
        checks.append(
            AssumptionCheck(
                f"marginal-outpaced[{j}]",
                ok,
                f"theta'(z/m)/f'(z) decays toward the horizon (fitted slope {slope:.3g})",
                witness=None if ok else f"gain curve {j}",
            )
        )

    # Every agent must prefer some positive level of public spending over
    # the lowest feasible tax.  Compared near the boundary on a descending
    # grid; both sides may diverge, so the ratio is what is tested.  One
    # entry covers the profile; its witness lists the agents that fail.
    types = instance.types or ()
    floor = instance.tax_floor
    ts = np.geomspace(1e-2, 1e-12, 11)
    rate = instance.pool_rate
    failing = []
    for i, agent in enumerate(types):
        satisfied = False
        for j, w in enumerate(agent.alloc_weights):
            if w <= 0.0:
                continue
            curve = instance.gain_curves[j]
            lhs = rate * w * curve.deriv(rate * float(ts[-1]))
            if floor > money.domain_min and floor != 0.0:
                rhs = agent.money_weight * money.deriv(floor)
            else:
                rhs = agent.money_weight * money.deriv(float(ts[-1]))
            if lhs > rhs:
                satisfied = True
                break
        if not satisfied:
            failing.append(str(i))
    if types:
        checks.append(
            AssumptionCheck(
                "positive-spending",
                not failing,
                "every agent has a good whose boundary marginal gain beats the "
                "marginal money disutility at the lowest feasible tax",
                witness=f"agents {', '.join(failing)}" if failing else None,
            )
        )

    # Interior optima: every curve has a diverging marginal at zero spend.
    # Otherwise the per-agent test n * w_j * theta_j'(0) > w_money * f'(0)
    # fails at every agent and good, because f'(0) = +inf for every money
    # kind.
    diverging = all(math.isinf(c.deriv_at_zero()) for c in instance.gain_curves)
    checks.append(
        AssumptionCheck(
            "interior-optima",
            diverging,
            "all gain curves have diverging marginal utility at zero spend"
            if diverging
            else "finite-marginal gain curves present; checked "
            "n * w_j * theta_j'(0) > w_money * f'(0) per agent and good",
        )
    )

    if instance.semantics == "nominal" and all(
        c.kind == "power" for c in instance.gain_curves
    ):
        flags.append(
            "tax-divergent-nominal: with pure power gains under nominal "
            "semantics the preferred tax grows as a power of the population size"
        )

    return ValidationReport(tuple(checks), tuple(flags))
