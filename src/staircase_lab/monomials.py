"""Monomials of k[x, y, z], compared by their exponents only (no term order)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True, order=False)
class Monomial:
    """A monomial x^ex * y^ey * z^ez with nonnegative exponents."""

    ex: int
    ey: int
    ez: int

    def __post_init__(self):
        if self.ex < 0 or self.ey < 0 or self.ez < 0:
            raise DomainError(f"negative exponent in monomial {(self.ex, self.ey, self.ez)}")

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
