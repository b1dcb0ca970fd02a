"""Exception types shared across the package, and the integer check at its boundary.

``DomainError`` covers arguments outside an operation's stated domain and maps
to CLI exit code 2; ``InternalInconsistencyError`` signals that two formulas
which must agree did not (a bug, never a user error) and maps to exit code 3.
"""


class StaircaseLabError(Exception):
    """Base class for all package errors."""


class DomainError(StaircaseLabError, ValueError):
    """Argument outside the operation's domain."""


class MalformedIdealError(DomainError):
    """Column data that cannot be a finite-colength monomial ideal."""


class RangeError(DomainError):
    """Parameters outside the supported search or stabilization range."""


class MarkerUndefinedError(DomainError):
    """A marker monomial with a negative exponent."""


class DegenerateLimitError(DomainError):
    """Limit of a semi-invariant space with colliding monomials."""


class DegenerateSpaceError(DomainError):
    """Semi-invariant space without any collision-free selection."""


class InternalInconsistencyError(StaircaseLabError):
    """Two independently computed values that must agree disagree."""


def int_array(values):
    """``values`` itself, if a list or tuple of ints: a bool, float or string is refused, not rounded."""
    if type(values) not in (list, tuple) or not set(map(type, values)) <= {int}:
        raise DomainError(f"expected an array of integers, got {values!r}")
    return values
