"""Multiple hypothesis testing with k-FWER control.

Decision procedures (stepdown, stepup, exhaustive closed testing, the
generalized Hommel shortcut) driven by marginal p-values, the
critical-value constructors that make them level-alpha under arbitrary
dependence, and a Monte Carlo simulator for estimating realized error
rates.
"""

from .core import (
    AlphaOutOfRangeError,
    BadShapeError,
    CardinalityOutOfRangeError,
    ConfigError,
    CriticalSchedule,
    DegenerateScheduleError,
    EmptyInputError,
    FamilyTooLargeError,
    KfwerError,
    KOutOfRangeError,
    LengthMismatchError,
    LocalTestFamily,
    NotMonotoneError,
    NotMonotoneInIError,
    NotMonotoneInMError,
    OutOfRangeError,
    PValueVector,
    TooLargeError,
    check_theorem43_condition,
    order_pvalues,
    validate_family,
    validate_schedule,
)
from .bounds import BoundInput, d1, evaluate_local_test, lemma31_bound, type1_bound
from .procedures import (
    EXHAUSTIVE_LIMIT,
    MAX_FAMILY_ENTRIES,
    ProcedureResult,
    closed_testing,
    constant_family,
    generalized_hommel,
    lehmann_romano_schedule,
    romano_shaikh_schedule,
    scaled_family,
    simes_family,
    stepdown,
    stepdown_as_family,
    stepup,
    stepup_as_family,
)
from .simulation import (
    SimulationConfig,
    SimulationResult,
    estimate_kfwer,
    generate_pvalues,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRangeError",
    "BadShapeError",
    "BoundInput",
    "CardinalityOutOfRangeError",
    "ConfigError",
    "CriticalSchedule",
    "DegenerateScheduleError",
    "EmptyInputError",
    "EXHAUSTIVE_LIMIT",
    "FamilyTooLargeError",
    "KfwerError",
    "KOutOfRangeError",
    "LengthMismatchError",
    "LocalTestFamily",
    "MAX_FAMILY_ENTRIES",
    "NotMonotoneError",
    "NotMonotoneInIError",
    "NotMonotoneInMError",
    "OutOfRangeError",
    "ProcedureResult",
    "PValueVector",
    "SimulationConfig",
    "SimulationResult",
    "TooLargeError",
    "check_theorem43_condition",
    "closed_testing",
    "constant_family",
    "d1",
    "estimate_kfwer",
    "evaluate_local_test",
    "generalized_hommel",
    "generate_pvalues",
    "lehmann_romano_schedule",
    "lemma31_bound",
    "order_pvalues",
    "romano_shaikh_schedule",
    "scaled_family",
    "simes_family",
    "stepdown",
    "stepdown_as_family",
    "stepup",
    "stepup_as_family",
    "type1_bound",
    "validate_family",
    "validate_schedule",
]
