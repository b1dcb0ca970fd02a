"""Graded monomial ideals of finite colength in the plane, as staircases.

An ideal is stored as its quotient staircase: the partition
h_0 >= h_1 >= ... > 0, where h_i is the number of y-powers missing over x^i.
Every other view is derived from the heights.  Column n is the set of
y-exponents a such that x^(n-a) * y^a lies in the ideal, i.e. a >= h_(n-a);
sections of the twisted sheaf are the z-saturation of these columns, so the
degree-n section space is ``sum_i z^(n-i) * V_i``.  Columns with index
>= ``stable_from`` = max(i + h_i) are full.

A shell, the staircases of one colength d, is one in-place walk over the
partitions of d in reverse-lexicographic order (``enumerate_ideals``).  It
hands each staircase its ``stable_from`` and its Hilbert function, both
read off counts the walk keeps, and keeps nothing once the shell is built.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, repeat, takewhile
from math import comb
from operator import add, le

from .errors import DomainError, MalformedIdealError, RangeError, Record, int_array
from .hilbert import HilbertFunction, cached
from .monomials import Monomial


class GradedMonomialIdeal(Record):
    heights: tuple[int, ...]

    def __post_init__(self):
        h = self.heights
        if any(b < 1 for b in h) or any(h[i] < h[i + 1] for i in range(len(h) - 1)):
            raise MalformedIdealError(f"heights must be a positive non-increasing sequence: {h}")

    @staticmethod
    def _trusted(heights: tuple[int, ...]) -> "GradedMonomialIdeal":
        """The ideal of a partition, built unchecked: only for heights the
        package has validated or built as a partition itself."""
        ideal = object.__new__(GradedMonomialIdeal)
        object.__setattr__(ideal, "heights", heights)
        return ideal

    @staticmethod
    def from_columns(columns, stable_from=None) -> "GradedMonomialIdeal":
        """Validated staircase from a list of distinct-int columns: those from ``stable_from``
        on are dropped, missing ones below it are full, trailing full ones are trimmed.
        The cells (i + b, b), b < h_i = least b in column i + b, are missing, so the
        columns are a staircase iff h does not increase and counts every missing cell."""
        if stable_from is None:
            stable_from = len(columns)
        if stable_from < 0:
            raise MalformedIdealError("stable_from must be nonnegative")
        cols = columns[:stable_from]
        for n, col in enumerate(cols):
            if col and (min(col) < 0 or max(col) > n):
                raise MalformedIdealError(f"column {n} has exponent outside [0, {n}]: {sorted(col)}")
        top = len(cols)  # columns past the list are full
        heights = (next(b for b in count() if i + b >= top or b in cols[i + b]) for i in range(top))
        h = tuple(takewhile(bool, heights))
        if any(a < b for a, b in zip(h, h[1:])) or top * (top + 1) // 2 - sum(map(len, cols)) != sum(h):
            raise MalformedIdealError("columns are not a staircase")
        return GradedMonomialIdeal._trusted(h)

    @cached
    def stable_from(self) -> int:
        return max(map(add, self.heights, count()), default=0)

    @cached
    def columns(self) -> tuple[frozenset[int], ...]:
        # column n holds y^a iff a >= h_(n-a), with h_i = 0 past the heights
        h = self.heights + (0,) * (self.stable_from - len(self.heights))
        return tuple(frozenset(compress(range(n + 1), map(le, h[n::-1], count()))) for n in range(self.stable_from))

    def column(self, n: int) -> frozenset[int]:
        if n < 0:
            return frozenset()
        if n >= self.stable_from:
            return frozenset(range(n + 1))
        return self.columns[n]

    @property
    def colength(self) -> int:
        return sum(self.heights)

    def hilbert_function(self) -> HilbertFunction:
        return self._hilbert_function

    @cached
    def _hilbert_function(self) -> HilbertFunction:
        h, top = self.heights, self.stable_from
        ended = [0] * len(h) + [1] * (top + 1 - len(h))  # an empty column i ends at i
        for n in map(add, h, count()):
            ended[n] += 1
        return _function_of_ends(ended, top)

    @cached
    def alpha_grade(self) -> int:
        """Alpha-grade of the columns below ``stable_from`` (the full ones
        weigh 0): C(T + 1, 3) - sum_i C(h_i, 2) - sum_(n<T) C(diff[n], 2)."""
        top = self.stable_from
        missing = sum(map(comb, self.heights, repeat(2)))
        return comb(top + 1, 3) - missing - sum(map(comb, self._hilbert_function.diff[:top], repeat(2)))

    def section_monomials(self, n: int) -> list[Monomial]:
        """Monomial basis of the degree-n section space (z-saturated columns)."""
        return [Monomial(i - a, a, n - i) for i in range(n + 1) for a in sorted(self.column(i))]

    def is_borel_fixed(self) -> bool:
        """Stable under the exchanges y -> x and z -> y on every monomial.

        Degree n holds x^i y^(n-i) iff i + h_i <= n (h_i = 0 past the
        heights), so its x-exponents are one bitmask, and each degree ORs in
        the bits whose end i + h_i is n.  The y -> x exchange holds at degree
        n iff every bit i < n has bit i + 1: ``(mask << 1) & ~mask`` has no
        bit at or below n.  The walk stops at the first degree that fails;
        from ``stable_from`` on every degree is full.  The z -> y exchange
        holds for every staircase, since the masks only grow with n."""
        h, top = self.heights, self.stable_from
        ends = [0] * (top + 1)
        for i, n in enumerate(map(add, h, count())):
            ends[n] |= 1 << i
        for i in range(len(h), top + 1):  # empty columns: x^i is in the ideal from degree i
            ends[i] |= 1 << i
        mask = 0
        for n, new in enumerate(ends):
            mask |= new
            if (mask << 1) & ~mask & ((2 << n) - 1):
                return False
        return True

    def borel_closure(self) -> "GradedMonomialIdeal":
        """Smallest Borel-fixed staircase containing this one: the largest
        strictly decreasing heights below these, g_i = min(h_i, g_(i-1) - 1)."""
        closure = accumulate(self.heights, lambda g, b: min(b, g - 1))
        return GradedMonomialIdeal._trusted(tuple(takewhile(lambda g: g > 0, closure)))

    def to_json_dict(self) -> dict:
        return {"columns": [sorted(col) for col in self.columns], "stable_from": self.stable_from}

    @staticmethod
    def from_json_dict(data: dict) -> "GradedMonomialIdeal":
        try:
            if type(data["columns"]) is not list:
                raise TypeError("columns must be an array")
            cols = [frozenset(int_array(col)) for col in data["columns"]]
            (stable,) = int_array([data["stable_from"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed ideal JSON: {data!r}") from exc
        return GradedMonomialIdeal.from_columns(cols, stable)

    def generators(self) -> list[tuple[int, int]]:
        """Minimal (x, y)-monomial generators as (x-exponent, y-exponent)
        pairs: the outer corners x^i y^(h_i) with h_i < h_(i-1), by degree,
        then by y-exponent."""
        h = self.heights + (0,)
        gens = [(i, b) for i, b in enumerate(h) if i == 0 or b < h[i - 1]]
        return sorted(gens, key=lambda g: (g[0] + g[1], g[1]))

    def __str__(self) -> str:
        return "(" + ", ".join(str(Monomial(gx, gy, 0)) for gx, gy in self.generators()) + ")"


def from_generators(gens) -> GradedMonomialIdeal:
    """Ideal generated by (x, y)-monomials, given as (ex, ey) pairs.

    Each pair passes ``int_array``.  Finite colength requires a pure x-power
    and a pure y-power among the generated monomials, i.e. generators with
    zero y- and zero x-exponent.
    Below the least pure x-power, h_i = min{gy : gx <= i}.
    """
    pairs = [(gx, gy) for gx, gy in map(int_array, gens)]
    if any(gx < 0 or gy < 0 for gx, gy in pairs):
        raise DomainError(f"negative exponent in generators {pairs}")
    x_powers = [gx for gx, gy in pairs if gy == 0]
    y_powers = [gy for gx, gy in pairs if gx == 0]
    if not x_powers or not y_powers:
        raise MalformedIdealError(f"generators {pairs} do not cut out a finite colength")
    width = min(x_powers)
    lowest = [min(y_powers)] * width  # least gy over the generators with gx = i, at most h_0
    for gx, gy in pairs:
        if gx < width:
            lowest[gx] = min(lowest[gx], gy)
    return GradedMonomialIdeal._trusted(tuple(accumulate(lowest, min)))


def _function_of_ends(ended, top: int) -> HilbertFunction:
    """The function of a staircase with ``stable_from`` ``top``, from the
    counts ``ended[n]`` of its columns i whose end i + h_i is n (h_i = 0
    past the heights, so an empty column ends at its index).

    Degree n holds x^i y^(n - i) iff i + h_i <= n, so diff[n], the number of
    these monomials, is #{i : i + h_i <= n}: one ``accumulate`` of the
    counts.  The cells' degrees fill 0..top - 1, so the diff is admissible,
    and canonical with its first diagonal entry at top.  The counts past
    top are never read."""
    return HilbertFunction._trusted(tuple(accumulate(ended[: top + 1])))


def enumerate_ideals(d: int) -> list[GradedMonomialIdeal]:
    """All graded monomial ideals of colength d, via quotient staircases.

    The standard monomials of such an ideal form a staircase region
    h_0 >= h_1 >= ... with sum d (h_a = number of missing y-powers over x^a),
    so the ideals correspond to the partitions of d.  They come in
    reverse-lexicographic order of their heights, (d) first and (1, ..., 1)
    last, each with its ``stable_from`` and its Hilbert function.

    One list of parts is walked in place by the ZS1 step (Zoghbi and
    Stojmenovic 1998; Knuth, TAOCP 4A, 7.2.1.4): the rightmost part above 1
    drops by one, and the tail from it is refilled with parts of that new
    size and a remainder.  Past the length every slot holds 1.  Beside the
    parts the walk keeps ``ended[n]``, the count of columns whose end
    i + h_i is n, and ``reach[i]``, the largest end of a part before part i,
    so ``stable_from`` is ``reach[length]``.  A step updates both only from
    the part it lowers, and a run of 1s in one move, since the ends of
    columns a..b that hold 1 and of the empty ones differ only at a and
    b + 1.  Nothing outlives the call but the returned shell.
    """
    if d < 0:
        raise RangeError("colength must be nonnegative")
    size = min(d, 1)  # the number of parts
    last = 0 if d > 1 else -1  # the index of the rightmost part above 1, -1 for none
    parts, ended, reach = [1] * d, [0] * size + [1] * (d + 2 - size), [0] * (d + 2)
    if d:
        parts[0] = reach[1] = d
        ended[d] += 1
    new, shell = object.__new__, []
    while True:
        ideal, top = new(GradedMonomialIdeal), reach[size]
        function = _function_of_ends(ended, top)
        ideal.__dict__.update(heights=tuple(parts[:size]), stable_from=top, _hilbert_function=function)
        shell.append(ideal)
        if last < 0:
            return shell
        r = parts[last] - 1
        if r == 1:
            # (.., 2, 1, .., 1) -> (.., 1, 1, .., 1, 1): the 2 ends one lower, and the empty column at size takes a 1
            parts[last] = 1
            ended[last + 2] -= 1
            ended[last + 1] += 1
            ended[size] -= 1
            ended[size + 1] += 1
            reach[last + 1] = max(reach[last], last + 1)
            reach[size + 1] = max(reach[size], size + 1)
            size += 1
            last -= 1
            continue
        # empty the columns from last on, its 1s in one move, then refill them with parts r and a remainder
        ended[last + r + 1] -= 1
        ended[last] += 1
        ended[last + 1] += 1
        ended[size] -= 1
        start, left = last, size - last  # left: what the tail holds beyond one part r
        parts[last] = r
        while left >= r:
            last += 1
            parts[last] = r
            left -= r
        size = last + 1 + (left > 0)
        if left > 1:
            last += 1
            parts[last] = left
        for i in range(start, size):
            n = i + parts[i]
            ended[i] -= 1
            ended[n] += 1
            reach[i + 1] = max(reach[i], n)
