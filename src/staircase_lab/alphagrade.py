"""Degrees of one-parameter orbit closures of monomial data (alpha-grades).

The alpha-grade of a monomial subspace is a column-wise weight: a column of
y-degrees {c_1 < ... < c_r} contributes (c_1 + ... + c_r) - (1 + ... + (r-1)).
For a staircase this yields the degree of the orbit-closure cycle of its
graded pieces, constant once the degree is at least the colength.  For a
semi-invariant space, selecting one supported monomial per chain (collisions
contribute nothing) and taking extremes of the alpha-grade gives computable
bounds for the true orbit degree.

The alpha-grade of a selection is order-independent: adding y-degree b to a
column that already holds k monomials (all distinct) adds b - k.  So the
search grades the fixed monomials once (the plain columns of the space, and
the pick of any chain left with a single option) and walks the other chains
depth first, adding b - k per pick (and to the right-domain grade when the
column lies right of the split) instead of regrading every selection.  Each
distinct option monomial is numbered once per search, and the walk marks the
monomials in use by flags in a bytearray indexed by that number, so it
hashes no monomial.  The chain with the most options is walked last, and its
picks are compared in place: the walk makes no call per selection.
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
from .hilbert import special_chi
from .monomials import Monomial
from .pyramids import column_weight
from .staircase import GradedMonomialIdeal, from_generators
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


def q_value(d: int, n: int) -> int:
    """Complementary Hilbert polynomial value in the plane: C(n+2, 2) - d."""
    return comb(n + 2, 2) - d


class DomainSplit(Record):
    """Split of equal-degree monomials at total x,y-degree c + r."""

    threshold: int

    def __post_init__(self):
        if self.threshold < 0:
            raise DomainError("split threshold must be nonnegative")

    def is_right(self, mon: Monomial) -> bool:
        return mon.xy_degree > self.threshold


def _fold(space: SemiInvariantSpace, split: DomainSplit | None):
    """Grade the fixed monomials once and list the options of the other chains.

    The fixed monomials are the plain columns and the pick of each deformed
    chain left with one option once those hitting a plain monomial are
    dropped.  Each distinct option monomial gets an integer slot, so that
    the flags are sized by the options, never by the degree.  Returns the
    fixed monomials' alpha-grade, their count in each column that an option
    reaches, a bytearray of taken flags with the forced picks set, and per
    remaining chain its options, each as (slot, column, y-degree, right of
    the split), the chain with the most options first.
    """
    columns = space.columns
    kept = []
    budget = 1
    for chain in space.deformed:
        options = chain.monomials(space.weight)
        budget *= len(options)
        if budget > SELECTION_BUDGET:
            raise RangeError(f"selection budget exceeded: > {SELECTION_BUDGET} combinations")
        kept.append([m for m in options if m.ey not in columns.get(m.xy_degree, ())])
    if sum(map(len, columns.values())) + len(kept) != space.dimension:
        raise InternalInconsistencyError("duplicate initial monomials slipped through")
    slots: dict[Monomial, int] = {}
    for options in kept:
        for m in options:
            slots.setdefault(m, len(slots))
    taken = bytearray(len(slots))
    forced = [options[0] for options in kept if len(options) == 1]
    for m in forced:
        if taken[slots[m]]:
            raise DegenerateSpaceError("no collision-free selection exists")
        taken[slots[m]] = 1
    counts = {m.xy_degree: len(columns.get(m.xy_degree, ())) for m in slots}
    grade = alpha_grade_columns(columns.values())
    # joined to the plain columns, each forced pick loses the k plain monomials of its column
    grade += alpha_grade_monomials(forced) - sum(counts[m.xy_degree] for m in forced)
    for m in forced:
        counts[m.xy_degree] += 1
    choices = [
        [(slots[m], m.xy_degree, m.ey, split is not None and split.is_right(m)) for m in options]
        for options in kept
        if len(options) != 1
    ]
    choices.sort(key=len, reverse=True)
    return grade, counts, taken, choices


def _walk(choices, i: int, counts: dict, taken: bytearray, key: tuple[int, int]):
    """Lexicographic (min, max) of the selection keys that extend ``key`` by
    one pick from each of ``choices[i]``, ``choices[i - 1]``, ...,
    ``choices[0]``, or None when all of them collide.

    A pick is free when the flag of its slot in ``taken`` is clear.  The
    picks of ``choices[0]`` complete a selection and are compared in place,
    without a call.  ``counts`` (monomials per column) and ``taken`` (the
    forced and current picks) are restored before returning.
    """
    grade, right = key
    last = i == 0
    lo = hi = None
    for slot, col, ey, is_right in choices[i]:
        if taken[slot]:
            continue
        step = ey - counts[col]
        if last:
            found = (grade + step, right + step if is_right else right)
            if lo is None or found < lo:
                lo = found
            if hi is None or found > hi:
                hi = found
            continue
        taken[slot] = 1
        counts[col] += 1
        found = _walk(choices, i - 1, counts, taken, (grade + step, right + step if is_right else right))
        counts[col] -= 1
        taken[slot] = 0
        if found is None:
            continue
        if lo is None or found[0] < lo:
            lo = found[0]
        if hi is None or found[1] > hi:
            hi = found[1]
    return None if lo is None else (lo, hi)


def _extremes(space: SemiInvariantSpace, split: DomainSplit | None):
    """Lexicographic min and max of (alpha-grade, right-domain alpha-grade)
    over chain selections, in one depth-first walk.  The right part counts
    the walked picks only: the fixed monomials add the same to every
    selection, and only differences of it are used.  It is 0 without a
    split.  When every deformed chain is forced, the fixed monomials are
    the one selection and the walk is not entered.  The walk starts at the
    last chain, so the longest, ``choices[0]``, is the one compared in place.

    Every walked chain has at least two options before the fixed ones are
    dropped, so the budget bounds the depth by log2(SELECTION_BUDGET).
    """
    grade, counts, taken, choices = _fold(space, split)
    if not choices:
        return (grade, 0), (grade, 0)
    found = _walk(choices, len(choices) - 1, counts, taken, (grade, 0))
    if found is None:
        raise DegenerateSpaceError("no collision-free selection exists")
    return found


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


def a_bound_formula(case: str, *, c: int, r: int):
    """The closed-form bound of :func:`a_bound` for one (case, c, r), as a
    function of the chain ms.

    The arguments are checked here, once; the function returned assumes ms
    holds what its case needs: m_0..m_r for "I1"/"I2", at least m_0 for
    "II1"/"II2".
    """
    if r < 0 or c < 0:
        raise DomainError(f"need r >= 0 and c >= 0, got r={r}, c={c}")
    if case in ("I1", "I2"):
        if r == 0:
            return lambda ms: 0
        base = r * (r + 3) if case == "I1" else r * (r + c)
        return lambda ms: base + sum(ms[1:])
    if case in ("II1", "II2"):
        if r < 1:
            raise DomainError(f"case {case} is stated for r >= 1")
        if case == "II1":
            slope, base = 4, r * (r + 3) - c - 1
        else:
            slope, base = c + 2, r * r - 2 * (c + 2) + comb(c, 2)
        return lambda ms: slope * ms[0] + base
    raise DomainError(f"unknown bound case {case!r}")


def a_bound(case: str, *, c: int, r: int, ms: tuple[int, ...] = ()) -> int:
    """Closed-form bound for the right-domain alpha-grade spread, per regime.

    Cases "I1"/"I2" need the full chain m_0..m_r; "II1"/"II2" need r >= 1 and
    use only m_0.
    """
    bound = a_bound_formula(case, c=c, r=r)
    if case in ("I1", "I2") and r > 0 and len(ms) != r + 1:
        raise DomainError(f"case {case} needs m_0..m_{r}, got {ms}")
    if case in ("II1", "II2") and not ms:
        raise DomainError(f"case {case} needs m_0")
    return bound(ms)


def genus_nu(d: int, nu: int) -> int:
    """Genus of the cone family: (nu - 1) d - C(nu + 2, 3) + 1, nu >= 1."""
    if nu < 1:
        raise DomainError(f"need nu >= 1, got {nu}")
    return (nu - 1) * d - comb(nu + 2, 3) + 1


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
