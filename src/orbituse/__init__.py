"""Orbit-use management: open-access fleets, satellite taxes, debris treaties."""

__version__ = "0.1.0"

from .errors import (
    ActiveSetChangeError,
    BudgetExceededError,
    NoConvergenceError,
    NoValidEquilibriumError,
    OrbitUseError,
    OverrideError,
    PhysicallyInvalidError,
    ScenarioParseError,
    ScenarioShapeError,
    ScenarioValidationError,
    SingularSystemError,
)
from .scenario import (
    HIDEB,
    SOLO,
    SYM2,
    AbatementProfile,
    DebrisState,
    Scenario,
    TaxSchedule,
    debris_stock,
    effective_prices,
    sector_profit,
    validate_scenario,
    validate_taxes,
)
from .open_access import (
    AssumptionFlags,
    OpenAccessEquilibrium,
    SensitivityReport,
    check_assumptions,
    decompose,
    reduce_two_player,
    required_abatement,
    sensitivities,
    solve_equilibrium,
)
from .regulation import (
    AssumptionThreeReport,
    ChannelDecomposition,
    RegulatoryEquilibrium,
    WelfareReport,
    best_response_taxes,
    check_assumption_three,
    national_welfare,
    regulatory_equilibrium,
    welfare_channels,
)
from .treaty import (
    MODEL_DERIVED,
    CLOSED_FORM,
    BenefitCoefficients,
    BetaSensitivityReport,
    CoefficientDivergence,
    TreatyAnalysis,
    TreatyResponse,
    TreatySupportReport,
    abatement_payoff,
    analyze_treaty,
    benefit_coefficients,
    beta_sensitivity,
    coefficient_divergence,
    treaty_response,
    treaty_support_check,
)
from .oracle import (
    OracleReport,
    deviation_search_abatement,
    finite_difference,
    grid_maximize,
    iterate_open_access,
    pivot_open_access,
)
from .sampling import sample_scenario
