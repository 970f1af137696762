"""Exception hierarchy for the engine.

Every error raised by this package derives from EngineError, so callers
(notably the CLI) can catch one type and map it to a diagnostic exit.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class SpaceMismatch(EngineError):
    """Two objects built over different state spaces were combined."""


class EmptyEvent(EngineError):
    """Conditioning or restriction on the empty event."""


class ZeroPlausibilityEvent(EngineError):
    """Conditioning on an event the measure gives no weight at all."""


class CapExceeded(EngineError):
    """A combinatorial enumeration or a result exceeded its size cap."""


class NoVacuousRepresentation(EngineError):
    """The framework cannot express total ignorance (single probabilities)."""


class EmptyOutcomeSet(EngineError):
    """A set-level rule was applied to an empty collection of outcomes."""


class NotTabulated(EngineError):
    """A tabulated rule was queried off its grid."""


class FrameworkMismatch(EngineError):
    """A measure was passed where a different framework was required."""


class UnsupportedCombination(EngineError):
    """The operator has no evaluation route for this measure and rule."""


class UnknownSuite(EngineError):
    """The CLI was asked for a check suite it does not define."""


class ParseError(EngineError):
    """Malformed problem file or rational literal."""


class ValidationError(EngineError, ValueError):
    """Structurally well-formed input violating a semantic constraint."""
