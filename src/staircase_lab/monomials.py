"""Monomials of k[x, y, z], compared by their exponents only (no term order),
and the weight of one column of y-degrees, which pyramids and alpha-grades share."""

from __future__ import annotations

from math import comb

from .errors import DomainError, Record


class Monomial(Record):
    """A monomial x^ex * y^ey * z^ez with nonnegative exponents."""

    __slots__ = ("ex", "ey", "ez")  # the hottest record: constructor and hash spelled out
    ex: int
    ey: int
    ez: int

    def __init__(self, ex: int, ey: int, ez: int):
        if ex < 0 or ey < 0 or ez < 0:
            raise DomainError(f"negative exponent in monomial {(ex, ey, ez)}")
        object.__setattr__(self, "ex", ex)
        object.__setattr__(self, "ey", ey)
        object.__setattr__(self, "ez", ez)

    def __hash__(self):
        return hash((self.ex, self.ey, self.ez))

    def __reduce__(self):
        return Monomial, (self.ex, self.ey, self.ez)

    @property
    def degree(self) -> int:
        return self.ex + self.ey + self.ez

    @property
    def xy_degree(self) -> int:
        """Total degree in x and y, i.e. degree minus the z-exponent."""
        return self.ex + self.ey

    def shift(self, dx: int, dy: int, dz: int) -> "Monomial":
        """Multiply by x^dx y^dy z^dz; raises on a negative resulting exponent."""
        return Monomial(self.ex + dx, self.ey + dy, self.ez + dz)

    def __str__(self) -> str:
        parts = []
        for sym, e in (("x", self.ex), ("y", self.ey), ("z", self.ez)):
            if e == 1:
                parts.append(sym)
            elif e > 1:
                parts.append(f"{sym}^{e}")
        return "*".join(parts) if parts else "1"

    def as_list(self) -> list[int]:
        return [self.ex, self.ey, self.ez]


def monomial_from_list(exps) -> Monomial:
    if len(exps) != 3:
        raise DomainError(f"monomial needs 3 exponents, got {exps!r}")
    return Monomial(*exps)


def column_weight(column) -> int:
    """Weight of a collection of distinct y-degrees: their sum minus C(m, 2) for m of them."""
    return sum(column) - comb(len(column), 2)
