"""Exception hierarchy shared across the package."""


class TorusFiberError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TorusFiberError):
    """Raised when polynomial input text cannot be parsed.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotFullDimensionalError(TorusFiberError):
    """An operation needed a full-dimensional polytope but got a degenerate one."""


class OriginNotContainedError(TorusFiberError):
    """A dilation-degree computation requires the origin inside the polytope."""


class ConeMembershipError(TorusFiberError):
    """A lattice vector lies outside the cone spanned by the polytope.

    ``witness`` is a facet inequality (normal, offset) certifying the failure.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        if witness is not None:
            message = f"{message} (witness facet: {witness})"
        super().__init__(message)


class NotSimplicializingError(TorusFiberError):
    """The chosen auxiliary-variable assignment produced a singular matrix."""


class ResonantExponentError(TorusFiberError):
    """Series construction refused: exponents resonate or repeat."""


class LimitExceededError(TorusFiberError):
    """Refused before the work started: an input would need more than a
    named limit allows."""


class InternalConsistencyError(TorusFiberError):
    """Two independent computations of the same quantity disagreed.

    This always indicates a bug, never bad user input.
    """
