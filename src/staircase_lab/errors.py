"""Exception types shared across the package, the integer check at its boundary,
and ``Record``, the base of its immutable value types (no ``dataclasses`` import).

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


class Record:
    """An immutable value whose fields are its class's own annotations, in order: filled
    positionally, one argument each, then checked by ``__post_init__``; equal only
    within one class, hashed and printed by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args):
        names = self._fields
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {len(args)} arguments")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"
