"""Pyramids of monomials below the staircase diagonal and their weights.

A pyramid with frame c holds, for each 0 <= i < c, a set of y-degrees inside
[0, i].  Its colength is the number of missing entries, and the weight of a
column {a_1 < ... < a_m} is (a_1 + ... + a_m) - (1 + ... + (m-1)).  The
maximal weight over all pyramids of type (c, d) has a closed form indexed by
the unique representation d = n(n+1) - r or d = n^2 - r with 0 <= r < n;
its two rewritings are evaluated as six times the weight in integers, and
the divisibility by 6 is asserted.

Two oracles check it, and neither consults it: a knapsack DP over
top-segment columns (one table per frame, a witness walk per colength) at
every frame, and exhaustive searches over every pyramid of a type at small
frames.  A search splits the columns in two halves, lists every choice of
the head and, per deficit, every choice of the suffix, and weighs each
pyramid as one pair in one flat loop; the frame caps stay where they are
because it still weighs every pyramid.  The reduction to top segments is
checked per column at every frame, and by the search over all column
subsets at small frames.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, inf, isqrt
from operator import add

from .errors import DomainError, InternalInconsistencyError, RangeError, Record
from .monomials import column_weight

TOP_SEGMENT_FRAME_CAP = 9
FULL_SUBSET_FRAME_CAP = 5


class Pyramid(Record):
    columns: tuple[frozenset[int], ...]

    @staticmethod
    def from_columns(columns) -> "Pyramid":
        pyr = Pyramid(tuple(map(frozenset, columns)))
        pyr.validate()
        return pyr

    @staticmethod
    def from_initial_degrees(avec) -> "Pyramid":
        """Top-segment pyramid from its initial degrees; a(i) = i + 1 means empty."""
        cols = []
        for i, a in enumerate(avec):
            if not 0 <= a <= i + 1:
                raise DomainError(f"initial degree a({i})={a} outside [0, {i + 1}]")
            cols.append(frozenset(range(a, i + 1)))
        return Pyramid.from_columns(cols)

    def validate(self) -> None:
        if self.frame < 1:
            raise DomainError("pyramid frame must be positive")
        for i, col in enumerate(self.columns):
            if col and (min(col) < 0 or max(col) > i):
                raise DomainError(f"column {i} has degree outside [0, {i}]: {sorted(col)}")
        if not 1 <= self.colength <= comb(self.frame + 1, 2):
            raise DomainError(
                f"colength {self.colength} outside [1, {comb(self.frame + 1, 2)}]"
            )

    @property
    def frame(self) -> int:
        return len(self.columns)

    @property
    def colength(self) -> int:
        return sum(i + 1 - len(col) for i, col in enumerate(self.columns))

    def weight(self) -> int:
        return sum(column_weight(col) for col in self.columns)

    def initial_degrees(self) -> tuple[int, ...]:
        """a(i) per column of a top-segment pyramid (i + 1 for an empty column)."""
        avec = tuple(min(col, default=i + 1) for i, col in enumerate(self.columns))
        # i + 1 - a distinct degrees from a to i fill [a, i]
        if any(len(col) != i + 1 - a or max(col, default=i) != i for i, (a, col) in enumerate(zip(avec, self.columns))):
            raise DomainError("initial degrees only defined for top-segment pyramids")
        return avec


class NRDecomposition(Record):
    """The unique representation d = n(n+1) - r or d = n^2 - r, 0 <= r < n."""

    case: str  # "square_pronic" (d = n(n+1) - r) or "square" (d = n^2 - r)
    n: int
    r: int


@functools.cache  # depends on d alone; the representation count is checked once per d
def nr_decomposition(d: int) -> NRDecomposition:
    if d < 1:
        raise DomainError(f"decomposition needs d >= 1, got {d}")
    n = isqrt(d)
    if n * n < d:
        n += 1
    candidates = []
    if 0 <= n * n - d < n:
        candidates.append(NRDecomposition("square", n, n * n - d))
    for m in (n - 1, n):
        if m >= 1 and 0 <= m * (m + 1) - d < m:
            candidates.append(NRDecomposition("square_pronic", m, m * (m + 1) - d))
    if len(candidates) != 1:
        raise InternalInconsistencyError(f"d={d} admits {len(candidates)} representations")
    return candidates[0]


def _direct_closed_form(case: str, n: int, r: int, c: int) -> int:
    """Six times the first rewriting of the maximal weight, for d = n(n+1) - r or d = n^2 - r."""
    if case == "square_pronic":
        return n * ((6 * c - 9) * n + (6 * c + 12 * r - 1) - 8 * n * n) - 6 * r * c
    return n * ((6 * c + 3) * n + (12 * r - 1) - 8 * n * n) - 6 * r * (c + 1)


def _expanded_closed_form(case: str, n: int, r: int, d: int, c: int) -> int:
    """Six times the second rewriting, expanded in n with the term d*c kept whole."""
    if case == "square_pronic":
        return -8 * n**3 - 9 * n**2 + (12 * r - 1) * n + 6 * d * c
    return -8 * n**3 + 3 * n**2 + (12 * r - 1) * n - 6 * r + 6 * d * c


def max_weight_closed_form(c: int, d: int) -> int:
    """Maximal weight of a pyramid of type (c, d), 1 <= d <= c.

    Both rewritings have denominators dividing 6, so each is evaluated as six
    times its value in integers; their agreement and the divisibility of the
    common value by 6 (its integrality) are asserted.
    """
    if not 1 <= d <= c:
        raise DomainError(f"need 1 <= d <= c, got d={d}, c={c}")
    dec = nr_decomposition(d)
    direct = _direct_closed_form(dec.case, dec.n, dec.r, c)
    expanded = _expanded_closed_form(dec.case, dec.n, dec.r, d, c)
    if direct != expanded:
        raise InternalInconsistencyError(f"closed-form rewritings disagree at (c={c}, d={d})")
    weight, rem = divmod(direct, 6)
    if rem:
        raise InternalInconsistencyError(f"closed form not integral at (c={c}, d={d}): {direct}/6")
    return weight


def endpoint_consistency(c: int, n: int) -> bool:
    """The two closed forms agree where their parameter intervals meet.

    At d = n^2 the first form with r = n must match the second with r = 0;
    at d = (n-1)n the first with (n-1, r=0) must match the second with (n, r=n).
    Both sides are compared at six times their value.
    """
    if n < 1 or c < 1:
        raise DomainError(f"need c >= 1 and n >= 1, got c={c}, n={n}")
    seam_square = _direct_closed_form("square_pronic", n, n, c) == _direct_closed_form("square", n, 0, c)
    seam_pronic = _direct_closed_form("square_pronic", n - 1, 0, c) == _direct_closed_form("square", n, n, c)
    return seam_square and seam_pronic


@functools.cache
def _column_options(i: int) -> tuple:
    """(a, weight, column) for a = 0..i+1 entries column i misses: the top segment [a, i]."""
    return tuple((a, column_weight(range(a, i + 1)), frozenset(range(a, i + 1))) for a in range(i + 2))


class WeightTable(Record):
    """The knapsack table of one frame over top segments, for every colength up to the frame.

    The weight is a sum over columns and the colength a sum of the entries
    each column misses, so best[i][r], the largest weight of columns i..c-1
    that together miss r entries, is the maximum over the options of column
    i of its weight plus best[i + 1][r - a].  One table holds every r <= c,
    so it answers each colength d of its frame; only the witness walk runs
    per d.  The closed form is never consulted.
    """

    options: tuple  # per column, its ``_column_options``
    best: tuple

    @staticmethod
    def build(c: int) -> "WeightTable":
        if c < 1:
            raise DomainError(f"need a positive frame, got c={c}")
        options = tuple(_column_options(i) for i in range(c))
        best = [None] * c + [(0,) + (float("-inf"),) * c]
        for i in reversed(range(c)):
            weights, nxt = [w for _, w, _ in options[i]], best[i + 1]
            # options are in order a = 0..i+1, so nxt[r::-1] pairs option a with nxt[r - a]
            best[i] = tuple(max(map(add, weights, nxt[r::-1])) for r in range(c + 1))
        return WeightTable(options, tuple(best))

    @property
    def frame(self) -> int:
        return len(self.options)

    def witness(self, d: int):
        """Maximal weight of type (frame, d) and a witness pyramid.

        Column by column, the witness takes the smallest a that still reaches
        the maximum, the (-w, avec) tie-break of ``brute_force_max_weight``.
        It is built from the table's own columns, unvalidated.
        """
        if not 1 <= d <= self.frame:
            raise DomainError(f"need 1 <= d <= c, got d={d}, c={self.frame}")
        columns, r = [], d
        for i, options in enumerate(self.options):
            nxt, target = self.best[i + 1], self.best[i][r]
            a, column = next((a, column) for a, w, column in options if a <= r and w + nxt[r - a] == target)
            columns.append(column)
            r -= a
        return self.best[0][d], Pyramid(tuple(columns))


def max_weight_dp(c: int, d: int):
    """Maximal weight over pyramids of type (c, d) with a witness, by a knapsack DP:
    the :class:`WeightTable` of frame c and its witness walk for d."""
    return WeightTable.build(c).witness(d)


def _column_pool(i: int, deficit: int, full_subsets: bool) -> list:
    """(pick, entries missed, weight) for every admissible column i that
    misses at most ``deficit`` entries, by increasing pick.

    The pick is the initial degree a of the top segment [a, i], or with
    ``full_subsets`` the sorted tuple of an arbitrary subset of [0, i].  No
    pyramid of colength d picks an option that misses more than d entries,
    so a search for d builds only the options within it.
    """
    if full_subsets:
        sizes = range(max(0, i + 1 - deficit), i + 2)
        subsets = sorted(sub for k in sizes for sub in itertools.combinations(range(i + 1), k))
        return [(sub, i + 1 - len(sub), column_weight(sub)) for sub in subsets]
    return [(a, a, column_weight(range(a, i + 1))) for a in range(min(i + 1, deficit) + 1)]


def brute_force_max_weight(c: int, d: int, full_subsets: bool = False):
    """Exhaustive maximum weight over pyramids of type (c, d) with a witness.

    The default search runs over top-segment pyramids only (every maximal
    weight is attained on one); ``full_subsets=True`` searches arbitrary
    column subsets to guard that reduction, at a smaller frame cap.

    The columns split at the middle: the first c - c // 2 are the head, the
    last c // 2 the suffix.  tails[rest] lists, in pick order, the weight
    and picks of every choice of the suffix columns that misses exactly rest
    entries; heads lists, in pick order, the weight, picks and misses u of
    every choice of the head columns with u <= d.  No other head is pruned:
    a nonempty suffix ends with column c - 1, which alone can miss any
    count up to c >= d.  One flat double loop pairs each head with every
    suffix in tails[d - u], so weighing a pyramid is one loop step.  The
    lists keep every suffix, not the best one per deficit, so every pyramid
    of type (c, d) is weighed.  Pairs are met in increasing order of their
    pick tuples, and keeping strictly heavier ones keeps the smallest key
    (-w, picks): (-w, avec) for top segments, (-w, sorted column tuples) for
    subsets.  Nothing is kept between calls.

    Since every pyramid is weighed, the frame caps stay put: the types
    (10, d <= 10) hold 3.8 times as many top-segment pyramids as the types
    (9, d <= 9), and the types (6, d <= 6) 17 times as many column-subset
    pyramids as (5, d <= 5).  A frame past its cap stays a domain error,
    which the CLI reports with exit code 2.
    """
    if not 1 <= d <= c:
        raise RangeError(f"need 1 <= d <= c, got d={d}, c={c}")
    cap = FULL_SUBSET_FRAME_CAP if full_subsets else TOP_SEGMENT_FRAME_CAP
    if c > cap:
        raise RangeError(f"frame {c} beyond the search budget ({cap})")
    pools = [_column_pool(i, d, full_subsets) for i in range(c)]
    half = c - c // 2
    tails = [[(0, ())]] + [[] for _ in range(d)]
    for pool in reversed(pools[half:]):
        tails = [[(cw + tw, (pick, *tp)) for pick, missed, cw in pool if missed <= rest for tw, tp in tails[rest - missed]]
                 for rest in range(d + 1)]
    heads = [(0, (), 0)]
    for pool in pools[:half]:
        heads = [(w + cw, (*hp, pick), u + missed) for w, hp, u in heads for pick, missed, cw in pool if u + missed <= d]
    best_w, best_picks = -inf, None  # below every weight, so the first pyramid reached replaces it
    for w, hp, u in heads:
        need = best_w - w  # a suffix heavier than this beats the best
        for tw, tp in tails[d - u]:
            if tw > need:
                need, best_w, best_picks = tw, w + tw, hp + tp
    return best_w, Pyramid.from_columns(best_picks) if full_subsets else Pyramid.from_initial_degrees(best_picks)
