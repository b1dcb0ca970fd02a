"""Degrees of one-parameter orbit closures of monomial data (alpha-grades).

The alpha-grade of a monomial subspace is a column-wise weight: a column of
y-degrees {c_1 < ... < c_r} contributes (c_1 + ... + c_r) - (1 + ... + (r-1)).
For a staircase this yields the degree of the orbit-closure cycle of its
graded pieces, constant once the degree is at least the colength.  Column
n of a staircase with heights h and Hilbert differences diff has diff[n]
members, whose y-degrees sum to C(n + 1, 2) less the missing b < h_(n-b);
over all n the missing ones sum to sum_i C(h_i, 2).  So the columns below
T = ``stable_from`` grade to

    C(T + 1, 3) - sum_i C(h_i, 2) - sum_(n<T) C(diff[n], 2),

``GradedMonomialIdeal.alpha_grade``; :func:`alpha_grade_columns` and
:func:`cycle_degree` keep the column sum as its reference.  For a
semi-invariant space, selecting one supported monomial per chain (collisions
contribute nothing) and taking extremes of the alpha-grade gives computable
bounds for the true orbit degree.

The alpha-grade of a selection is order-independent: adding y-degree b to a
column that already holds k monomials (all distinct) adds b - k.  So the
first search on a space grades the fixed monomials once (the plain ones, as
the space's ``plain_part`` grades and counts them, by their columns or, for a
section space, in closed form, and the pick of any chain left with a single
option), numbers each distinct option, an (x,y-degree, y-degree) pair, and
keeps this fold on the space.  A pick's step reads only the count of its own
column, and two picks collide only on one option, which lies in one column;
so the other chains fall into classes, the chains linked through the columns
their options reach, and picks in different classes never interact.  Every
search walks each class on its own, depth first, adding b - k per pick,
marks the options in use by flags in a bytearray, and compares one int per
selection, grade * S + right: S = 1 without a split, and otherwise a power
of two above 2 * (degree + 1) * (walked chains), which bounds 2 * |right|.
That int is a sum of one term per pick, so its extremes over a space are
the fixed part plus the sum of each class's extremes, and a space costs the
sum of its classes' selections rather than their product; a class with no
collision-free selection leaves none to the space.  ``SELECTION_BUDGET``
still bounds the product over all deformed chains.  The last two chains of
a class close in one nested loop, with no call per selection.
"""

from __future__ import annotations

from math import comb

from .errors import (
    DegenerateSpaceError,
    DomainError,
    InternalInconsistencyError,
    RangeError,
    Record,
)
from .hilbert import q_value, special_chi
from .monomials import Monomial, column_weight
from .staircase import GradedMonomialIdeal, from_generators

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: grading a staircase needs no torus
    from .torus import SemiInvariantSpace

SELECTION_BUDGET = 10**6


def alpha_grade_columns(columns) -> int:
    """Alpha-grade of a graded monomial subspace given per-degree y-exponent sets."""
    return sum(column_weight(col) for col in columns)


def alpha_grade_monomials(monomials) -> int:
    """Alpha-grade of a set of equal-degree monomials, grouped by z-layer."""
    cols: dict[int, set[int]] = {}
    for mon in monomials:
        cols.setdefault(mon.xy_degree, set()).add(mon.ey)
    return alpha_grade_columns(cols.values())


def cycle_degree(ideal: GradedMonomialIdeal, n: int) -> int:
    """Degree of the orbit-closure cycle read off the degree-n section space.

    Defined for n >= colength - 1; the value does not depend on n there.
    """
    if n < ideal.colength - 1:
        raise RangeError(f"degree {n} below the stabilization range {ideal.colength - 1}")
    return alpha_grade_columns(ideal.column(i) for i in range(min(n, ideal.stable_from) + 1))


class DomainSplit(Record):
    """Split of equal-degree monomials at total x,y-degree c + r."""

    threshold: int

    def __post_init__(self):
        if self.threshold < 0:
            raise DomainError("split threshold must be nonnegative")

    def right_of(self, xy_degree: int) -> bool:
        return xy_degree > self.threshold


def _fold(space: SemiInvariantSpace):
    """The split-independent part of a search, worked out once per space.

    The fixed monomials are the plain ones and the pick of each deformed
    chain left with one option once those hitting a plain monomial are
    dropped.  Options are (x,y-degree, y-degree) pairs read off the supports,
    whose exponents every constructor of a space has checked.  Each distinct
    option gets a slot and each column it reaches a number, so that nothing
    is sized by the degree.  The walked chains, the chain with the most
    options first, are grouped into classes: a union over the column numbers
    each chain's options reach, so that two chains of different classes
    reach no common column.  Each class keeps its chains in that order.
    Returns the fixed monomials' alpha-grade, their count per column number,
    the taken flags with the forced picks set, per class per chain its
    options as the picks of a search without a split, (slot, column number,
    y-degree, multiplier 1), and the x,y-degree of each column number.
    """
    grade, plain_count, is_plain, count_of = space.plain_part()
    r0, r1, _ = space.weight.rho
    kept = []
    budget = 1
    for chain in space.deformed:
        budget *= len(chain.support)
        if budget > SELECTION_BUDGET:
            raise RangeError(f"selection budget exceeded: > {SELECTION_BUDGET} combinations")
        i, b = chain.initial.xy_degree, chain.initial.ey
        options = [(i + j * (r0 + r1), b + j * r1) for j in chain.support]
        kept.append([(col, ey) for col, ey in options if not is_plain(col, ey)])
    if plain_count + len(kept) != space.dimension:
        raise InternalInconsistencyError("duplicate initial monomials slipped through")
    if not all(kept):  # a chain whose every option is a plain monomial
        raise DegenerateSpaceError("no collision-free selection exists")
    slots = {pair: k for k, pair in enumerate(dict.fromkeys(pair for options in kept for pair in options))}
    taken = bytearray(len(slots))
    forced = [options[0] for options in kept if len(options) == 1]
    for pair in forced:
        if taken[slots[pair]]:
            raise DegenerateSpaceError("no collision-free selection exists")
        taken[slots[pair]] = 1
    numbers = {col: k for k, col in enumerate(dict.fromkeys(col for col, _ in slots))}
    counts = [count_of(col) for col in numbers]
    # joined to the plain columns, each forced pick loses the k plain monomials of its column
    grade += alpha_grade_monomials([Monomial(col - ey, ey, space.degree - col) for col, ey in forced])
    grade -= sum(counts[numbers[col]] for col, _ in forced)
    for col, _ in forced:
        counts[numbers[col]] += 1
    walked = sorted((options for options in kept if len(options) != 1), key=len, reverse=True)
    choices = [[(slots[pair], numbers[pair[0]], pair[1], 1) for pair in options] for options in walked]
    # the union: each column number points toward the root that names its class
    root = list(range(len(numbers)))
    for options in choices:
        top = options[0][1]
        while root[top] != top:
            top = root[top]
        for _, col, _, _ in options:
            while root[col] != col:
                col = root[col]
            root[col] = top
    classes = {}
    for options in choices:
        col = options[0][1]
        while root[col] != col:
            col = root[col]
        classes.setdefault(col, []).append(options)
    return grade, tuple(counts), bytes(taken), list(classes.values()), tuple(numbers)


def _walk(choices, i: int, counts: list, taken: bytearray, key: int):
    """(min, max) of the packed keys that extend ``key`` by one pick from
    each of ``choices[i]``, ``choices[i - 1]``, ..., ``choices[0]``, or None
    when all of them collide.

    A pick (slot, column number, y-degree, multiplier) is free when its flag
    in ``taken`` is clear, and adds its step, the y-degree minus the count
    of its column, times its multiplier.  ``choices[1]`` and ``choices[0]``
    close in one nested loop.  ``counts`` and ``taken`` are restored.
    """
    if i == 0:  # a single walked chain
        found = [key + (ey - counts[col]) * mult for slot, col, ey, mult in choices[0] if not taken[slot]]
        return (min(found), max(found)) if found else None
    lo = hi = None
    if i > 1:
        for slot, col, ey, mult in choices[i]:
            if taken[slot]:
                continue
            step = ey - counts[col]
            taken[slot] = 1
            counts[col] += 1
            found = _walk(choices, i - 1, counts, taken, key + step * mult)
            counts[col] -= 1
            taken[slot] = 0
            if found is None:
                continue
            if lo is None or found[0] < lo:
                lo = found[0]
            if hi is None or found[1] > hi:
                hi = found[1]
        return None if lo is None else (lo, hi)
    last = choices[0]
    for slot, col, ey, mult in choices[1]:
        if taken[slot]:
            continue
        outer = key + (ey - counts[col]) * mult
        taken[slot] = 1
        counts[col] += 1
        for slot2, col2, ey2, mult2 in last:
            if taken[slot2]:
                continue
            found = outer + (ey2 - counts[col2]) * mult2
            if lo is None:
                lo = hi = found
            elif found < lo:
                lo = found
            elif found > hi:
                hi = found
        counts[col] -= 1
        taken[slot] = 0
    return None if lo is None else (lo, hi)


def _extremes(space: SemiInvariantSpace, split: DomainSplit | None):
    """Lexicographic min and max of (alpha-grade, right-domain alpha-grade)
    over chain selections, one depth-first walk per class of the fold.  The
    right part counts the walked picks only (0 without a split): the fixed
    monomials add the same to every selection, and only differences of it
    are used.  A search that succeeds keeps the fold on the space; each
    copies what it walks.

    A pick adds its step times S + 1 right of the split, times S elsewhere:
    S = 1 without a split, so the fold's picks are walked as they are, else
    the power of two above 2 * (degree + 1) * (walked chains of all
    classes).  Every step lies in [-degree, degree], so |right| <= degree *
    (walked chains) < S / 2: the packed order is the lexicographic one, and
    key / S rounded to the nearest int is the grade.
    A selection's key is grade * S plus one term per pick, and picks of
    different classes share no column, so neither a step nor a collision
    links them: the classes' selections combine freely, and the extremes
    of the key are grade * S plus the sum of each class's extremes.  Each
    class is walked from grade * S, as a one-class space always was (from
    0, the partial keys of a search without a split fall below the small
    ints CPython keeps, and the walk slows by some 5%), on one copy of the
    counts and flags, which each walk restores.  A class with no
    collision-free selection leaves none to the space.  Every walked chain has at least two options before the fixed
    ones are dropped, so the budget on the full product bounds the depth by
    log2(SELECTION_BUDGET).
    """
    fold = space._search or _fold(space)
    grade, counts, taken, classes, xy_degrees = fold
    if split is None:
        scale, walks = 1, classes
    else:
        scale = 1 << (2 * (space.degree + 1) * sum(map(len, classes))).bit_length()
        mults = [scale + split.right_of(col) for col in xy_degrees]
        walks = [[[(slot, col, ey, mults[col]) for slot, col, ey, _ in options] for options in chains]
                 for chains in classes]
    counts, taken = list(counts), bytearray(taken)
    lo = hi = key = grade * scale
    for walked in walks:
        found = _walk(walked, len(walked) - 1, counts, taken, key)
        if found is None:
            raise DegenerateSpaceError("no collision-free selection exists")
        lo += found[0] - key
        hi += found[1] - key
    space._search = fold
    glo, ghi = ((k + scale // 2) // scale for k in (lo, hi))
    return (glo, lo - glo * scale), (ghi, hi - ghi * scale)


def minmax_alpha_grade(space: SemiInvariantSpace) -> tuple[int, int]:
    """Exhaustive (min, max) of the alpha-grade over chain selections."""
    lo, hi = _extremes(space, None)
    return lo[0], hi[0]


def right_domain_spread(space: SemiInvariantSpace, split: DomainSplit) -> int:
    """Spread of the right-domain alpha-grade between extreme selections.

    From the selections attaining the global maximum (resp. minimum), keep
    only monomials right of the split and measure the alpha-grade; the
    spread is the largest restricted value at the maximum minus the
    smallest at the minimum.
    """
    lo, hi = _extremes(space, split)
    return hi[1] - lo[1]


def check_bang(space: SemiInvariantSpace, phi) -> bool:
    """Whether Q(m-1) + min-alpha-grade > max-alpha-grade for the space of an
    ideal with Hilbert function phi and regularity m."""
    lo, hi = minmax_alpha_grade(space)
    return q_value(phi.colength, phi.regularity - 1) + lo > hi


def chapter14_ideals(e: int) -> list[GradedMonomialIdeal]:
    """The five deformation staircases of colength 2(e-1) sharing the even
    special Hilbert function, ordered by their closed-form cycle degrees."""
    if e < 4:
        raise DomainError(f"need e >= 4, got {e}")
    return [
        from_generators([(1, 1), (e - 1, 0), (0, e)]),
        from_generators([(1, 1), (e, 0), (0, e - 1)]),
        from_generators([(0, 2), (e - 2, 1), (e, 0)]),
        from_generators([(0, 2), (e - 1, 0)]),
        from_generators([(2, 0), (0, e - 1)]),
    ]


def chapter14_degrees(e: int) -> tuple[int, int, int, int, int]:
    """Cycle degrees of the five deformation staircases of colength 2(e-1).

    The values must match the closed forms
    (C(e-2,2), C(e-2,2)+(e-1), 2C(e-2,2)+(e-1), 2C(e-2,2)+(e-2), 1).
    """
    ideals = chapter14_ideals(e)
    d = 2 * (e - 1)
    chi = special_chi(d)
    for ideal in ideals:
        if ideal.hilbert_function() != chi:
            raise InternalInconsistencyError(f"{ideal} does not have the special Hilbert function")
    degs = tuple(cycle_degree(ideal, d) for ideal in ideals)
    b = comb(e - 2, 2)
    expected = (b, b + (e - 1), 2 * b + (e - 1), 2 * b + (e - 2), 1)
    if degs != expected:
        raise InternalInconsistencyError(f"cycle degrees {degs} != closed forms {expected}")
    return degs
