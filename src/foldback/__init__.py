"""Exact-arithmetic certainty equivalents under vacuous belief.

The package evaluates acts under four uncertainty frameworks, folds
evaluations back through partitions, and checks which evaluation rules
survive that folding. All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .acts import (
    Act,
    Event,
    Partition,
    StateSpace,
    Utility,
    condition_act,
    enumerate_partitions,
    outcome_set,
)
from .ce_ops import (
    Anchored,
    CeOperator,
    GammaFunction,
    Hurwicz,
    MaxRule,
    MedianRule,
    MinRule,
    Preference,
    Tabulated,
    VacuousRule,
    ce,
    ce_vacuous,
    gamma_apply,
    lambda_prefer,
    np_prefer,
)
from .consensus import (
    ConsensusReport,
    ContaminationFamily,
    ConvergenceReport,
    ConvergenceRow,
    certainty_check,
    consensus_check,
    limit_check,
)
from .consistency import (
    ConsistencyVerdict,
    LawId,
    LawReport,
    Probe,
    SearchConfig,
    Witness,
    check_ev_properties,
    check_gamma_laws,
    check_sequential,
    check_sequential_exhaustive,
    check_set_order_conditions,
    default_set_family,
    enumerate_lawful_gamma_tables,
    tabulate,
)
from .errors import (
    CapExceeded,
    EmptyEvent,
    EmptyOutcomeSet,
    EngineError,
    FrameworkMismatch,
    NoVacuousRepresentation,
    NotTabulated,
    ParseError,
    SpaceMismatch,
    UnknownSuite,
    UnsupportedCombination,
    ValidationError,
    ZeroPlausibilityEvent,
)
from .plausibility import (
    BeliefFunctionMeasure,
    CredalSetMeasure,
    Framework,
    PlausibilityMeasure,
    PossibilityMeasure,
    ProbabilityMeasure,
    ZPair,
    condition,
    evaluate,
    expectation_bounds,
    is_vacuous,
    restrict,
    vacuous,
)

__all__ = [name for name in dir() if not name.startswith("_")]
