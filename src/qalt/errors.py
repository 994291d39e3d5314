"""Shared exception types."""


class PDParseError(ValueError):
    """Input text does not match the PD grammar."""


class MalformedDiagramError(ValueError):
    """Structurally invalid diagram (arc multiplicity, bad index, ...)."""


class CrossingLimitError(RuntimeError):
    """A computation was refused because the diagram exceeds the crossing bound."""


class HypothesisViolationError(ValueError):
    """Input lies outside the regime in which a closed formula is valid."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
