"""Expected-net-benefit analysis of grid digital functionalities.

Evaluate whether deploying a digital grid functionality pays off once
cyberattack exposure is priced in, find the defense spend that maximizes
the expected net benefit, allocate a shared budget across a portfolio with
dependency-aware coupling, and propagate parameter uncertainty by Monte
Carlo.  See the README for the model and the CLI surface.
"""
from .evaluate import (
    ADDITIVE,
    LITERAL,
    CycleDetectedError,
    DegenerateRangeError,
    EnbcdsCurve,
    EvalContext,
    EvaluationError,
    UnknownGdfError,
    effective_prob,
    enb,
    enbcds_curve,
    expected_cyber_cost,
)
from .io import (
    EmptyCurveError,
    ScenarioFile,
    ScenarioSyntaxError,
    SchemaError,
    SchemaWarning,
    ValidationError,
    bundled_scenario,
    bundled_scenario_names,
    bundled_scenario_text,
    emit_curve,
    emit_report,
    parse_curve_csv,
    parse_scenario,
    portfolio_from_dict,
    portfolio_to_dict,
    serialize_scenario,
)
from .model import (
    AdverseEvent,
    AttackType,
    DependencyEdge,
    DuplicateIdError,
    Exponential,
    Gdf,
    GordonLoebI,
    GordonLoebII,
    ModelError,
    NegativeMoneyError,
    NonConvexTableError,
    Portfolio,
    PortfolioValidationError,
    ProbabilityOutOfRangeError,
    Table,
    Violation,
    portfolio_violations,
    restrict_portfolio,
    validate_portfolio,
)
from .optimize import (
    AllocationResult,
    BudgetInfeasibleError,
    NotMandatoryError,
    OptimalSpend,
    OptimizationError,
    allocate,
    mandatory_min_loss,
    optimal_spend,
)
from .sensitivity import (
    InvalidDistributionError,
    Pert,
    Point,
    QuantityStats,
    SensitivityError,
    SensitivityReport,
    Triangular,
    UncertainParam,
    Uniform,
    UnresolvedTargetError,
    sample,
)

__version__ = "0.1.0"
