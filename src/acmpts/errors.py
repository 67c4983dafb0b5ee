"""Exception hierarchy shared by all acmpts modules.

``InputError`` subclasses signal bad data handed to the library (the CLI
maps them to exit code 2).  ``InternalInvariantViolation`` is different:
it means a guaranteed structural property failed inside the library and must
abort loudly rather than be caught and smoothed over.
"""


class AcmptsError(Exception):
    """Base class for every error raised by this package."""


class InputError(AcmptsError):
    """Invalid input; recoverable by the caller fixing their data."""


class EmptyConfiguration(InputError):
    """A nonempty point configuration was required."""


class DimensionMismatch(InputError):
    """Tuples of unequal length where a fixed dimension was required."""


class BadDirection(InputError):
    """Direction index outside 1..n (or an operation needing n >= 2)."""


class BadLevel(InputError):
    """Level or star-level index outside its valid range."""


class WouldBeEmpty(InputError):
    """Removing the requested part would leave no points."""


class BadDegree(InputError):
    """A multidegree with a negative entry where none is allowed."""


class MalformedComplex(InputError, ValueError):
    """A simplicial complex with a repeated or unknown vertex, or no facets.

    Also a ``ValueError``, since a malformed complex is a bad argument
    value, so a caller that catches ``ValueError`` for it still does."""


class FaceNotInComplex(InputError):
    """The given vertex set is not a face of the simplicial complex."""


class PathPreconditionFailed(InputError):
    """Path-search preconditions (membership, distance, star) not met."""


class VanishingConditionViolated(InputError):
    """A direction form fails to vanish on some other summand."""


class ReducednessGuardViolated(InputError):
    """A direction form vanishes on its own summand."""


class OverlappingSummands(InputError):
    """Two summands of a liaison input share a point."""


class InternalInvariantViolation(AcmptsError):
    """A guaranteed internal invariant failed; indicates a bug."""
