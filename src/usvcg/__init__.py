"""Utility-sensitive VCG engine for tax-involved participatory budgeting.

The engine elicits agent types from preferred-budget ballots, computes the
welfare-maximising budget decision under concave additive utilities with a
loss-averse money curve, assigns incentive-aligning payments, and ships an
empirical harness for the incentive and payment-vanishing properties.
"""

from .curves import GainCurve, MoneyCurve, ValidationReport, validate_assumptions
from .elicitation import (
    Ballot,
    ElicitationSession,
    FollowUp,
    answer_followup,
    complete_type,
    invert_ballot,
)
from .errors import (
    BoundaryTarget,
    ConvergenceError,
    DomainError,
    EmptyProfile,
    IncompleteSession,
    InfeasibleBallot,
    NonUniqueOptimum,
    NoPendingQuestion,
    PivotUndefined,
    RangeError,
    RegularityWarning,
    ResolutionTooCoarse,
    SchemaError,
    TaxDivergence,
    UsvcgError,
)
from .experiments import (
    ConvergenceTable,
    FuzzReport,
    coalition_probe,
    continuity_probe,
    convergence_study,
    sdsic_fuzz,
    sigma_population,
    tax_divergence_demo,
)
from .mechanism import (
    NonPositiveConfig,
    Outcome,
    clarke_pivot,
    corresponding_type,
    non_positive_payments,
    raw_vcg_payment,
    realized_utility,
    run_bus_vcg,
    run_us_vcg,
    run_us_vcg_hetero,
    sensitive_payment,
)
from .model import (
    AgentType,
    BudgetDecision,
    BudgetInstance,
    CharacteristicTriplet,
    excluded_means,
    feature_vector,
    mean_excluding,
    mean_type,
    social_welfare,
    valuation,
)
from .solver import (
    BiasSpec,
    ConstantTarget,
    EquitableTarget,
    TableTarget,
    TaxPreference,
    equitable_allocation,
    grid_oracle,
    inner_allocation,
    optimize,
    optimize_biased,
    optimize_hetero,
)

__version__ = "0.1.0"
