"""Graded monomial ideals of finite colength in the plane, as staircases.

An ideal is stored as one column per degree n: the set of y-exponents a such
that x^(n-a) * y^a lies in the ideal.  Sections of the twisted sheaf are the
z-saturation of these columns, so the degree-n section space is
``sum_i z^(n-i) * V_i``.  Columns with index >= ``stable_from`` are full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, MalformedIdealError, RangeError
from .hilbert import HilbertFunction
from .monomials import Monomial


@dataclass(frozen=True)
class GradedMonomialIdeal:
    columns: tuple[frozenset[int], ...]
    stable_from: int

    @staticmethod
    def from_columns(columns, stable_from=None) -> "GradedMonomialIdeal":
        """Validated staircase: columns from ``stable_from`` on are dropped,
        missing ones below it are full, and trailing full columns are trimmed."""
        cols = [frozenset(int(a) for a in col) for col in columns]
        if stable_from is None:
            stable_from = len(cols)
        if stable_from < 0:
            raise MalformedIdealError("stable_from must be nonnegative")
        cols = cols[:stable_from] + [frozenset(range(n + 1)) for n in range(len(cols), stable_from)]
        for n, col in enumerate(cols):
            if any(a < 0 or a > n for a in col):
                raise MalformedIdealError(f"column {n} has exponent outside [0, {n}]: {sorted(col)}")
            nxt = cols[n + 1] if n + 1 < len(cols) else frozenset(range(n + 2))
            if not col <= nxt:
                raise MalformedIdealError(f"column {n} not contained in column {n + 1}")
            if not {a + 1 for a in col} <= nxt:
                raise MalformedIdealError(f"column {n} violates y-multiplication into column {n + 1}")
        while cols and len(cols[-1]) == len(cols):
            cols.pop()
        return GradedMonomialIdeal(tuple(cols), len(cols))

    def column(self, n: int) -> frozenset[int]:
        if n < 0:
            return frozenset()
        if n >= self.stable_from:
            return frozenset(range(n + 1))
        return self.columns[n]

    @property
    def colength(self) -> int:
        return sum(n + 1 - len(self.column(n)) for n in range(self.stable_from))

    def hilbert_function(self) -> HilbertFunction:
        return HilbertFunction.from_diff(
            [len(self.column(n)) for n in range(self.stable_from + 1)]
        )

    def section_monomials(self, n: int) -> list[Monomial]:
        """Monomial basis of the degree-n section space (z-saturated columns)."""
        if n < 0:
            return []
        out = []
        for i in range(n + 1):
            for a in sorted(self.column(i)):
                out.append(Monomial(i - a, a, n - i))
        return out

    def is_borel_fixed(self) -> bool:
        """Stable under the exchanges y -> x and z -> y on every monomial."""
        for n in range(self.stable_from + 1):
            col = self.column(n)
            for a in col:
                if a >= 1 and a - 1 not in col:
                    return False
                if a + 1 not in self.column(n + 1):
                    return False
        return True

    def borel_closure(self) -> "GradedMonomialIdeal":
        """Smallest Borel-fixed staircase containing this one."""
        cols = [set(self.column(n)) for n in range(self.stable_from + 1)]
        changed = True
        while changed:
            changed = False
            for n in range(len(cols)):
                col = cols[n]
                add = {a - 1 for a in col if a >= 1} - col
                if add:
                    col |= add
                    changed = True
                if n + 1 < len(cols):
                    up = {a + 1 for a in col} - cols[n + 1]
                    if up:
                        cols[n + 1] |= up
                        changed = True
        return GradedMonomialIdeal.from_columns(cols, len(cols) - 1)

    def to_json_dict(self) -> dict:
        return {
            "columns": [sorted(self.column(n)) for n in range(self.stable_from)],
            "stable_from": self.stable_from,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @staticmethod
    def from_json_dict(data: dict) -> "GradedMonomialIdeal":
        try:
            cols = data["columns"]
            stable = int(data["stable_from"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed ideal JSON: {data!r}") from exc
        return GradedMonomialIdeal.from_columns(cols, stable)

    @staticmethod
    def from_json(text: str) -> "GradedMonomialIdeal":
        return GradedMonomialIdeal.from_json_dict(json.loads(text))

    def generators(self) -> list[tuple[int, int]]:
        """Minimal (x, y)-monomial generators as (x-exponent, y-exponent) pairs."""
        gens = []
        for n in range(self.stable_from + 1):
            prev = self.column(n - 1)
            below = prev | {a + 1 for a in prev}
            for a in sorted(self.column(n) - below):
                gens.append((n - a, a))
        return gens

    def __str__(self) -> str:
        gens = ", ".join(
            str(Monomial(gx, gy, 0)) for gx, gy in self.generators()
        )
        return f"({gens})" if gens else "(1)"


def from_generators(gens) -> GradedMonomialIdeal:
    """Ideal generated by (x, y)-monomials, given as (ex, ey) pairs.

    Finite colength requires a pure x-power and a pure y-power among the
    generated monomials, i.e. generators with zero y- and zero x-exponent.
    """
    pairs = [(int(gx), int(gy)) for gx, gy in gens]
    if any(gx < 0 or gy < 0 for gx, gy in pairs):
        raise DomainError(f"negative exponent in generators {pairs}")
    x_powers = [gx for gx, gy in pairs if gy == 0]
    y_powers = [gy for gx, gy in pairs if gx == 0]
    if not x_powers or not y_powers:
        raise MalformedIdealError(f"generators {pairs} do not cut out a finite colength")
    full_at = max(min(x_powers) + min(y_powers) - 1, 0)
    cols = [
        [a for a in range(n + 1) if any(gx <= n - a and gy <= a for gx, gy in pairs)]
        for n in range(full_at + 1)
    ]
    return GradedMonomialIdeal.from_columns(cols, full_at)


@lru_cache(maxsize=None)
def _partitions(d: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, cap), 0, -1):
        for rest in _partitions(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_ideals(d: int) -> list[GradedMonomialIdeal]:
    """All graded monomial ideals of colength d, via quotient staircases.

    The standard monomials of such an ideal form a staircase region
    h_0 >= h_1 >= ... with sum d (h_a = number of missing y-powers over x^a),
    so the ideals correspond to the partitions of d.
    """
    if d < 0:
        raise RangeError("colength must be nonnegative")
    ideals = []
    for heights in _partitions(d, d if d else 1):
        # column n is full exactly when n >= j + h_j for every j
        top = max((j + h for j, h in enumerate(heights)), default=0)
        h = heights + (0,) * (top - len(heights))
        cols = [[a for a in range(n + 1) if a >= h[n - a]] for n in range(top)]
        ideals.append(GradedMonomialIdeal.from_columns(cols, top))
    return ideals
