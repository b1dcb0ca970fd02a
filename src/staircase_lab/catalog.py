"""Fixture catalog: the small-kernel standard-form deformation families.

Each entry fixes a monomial kernel staircase of colength c <= 4, the single
deformation chain living over it, and the closed forms for the degrees of
the two limit cycles.  The entries are used by the verification suites to
check the cycle-degree formulas and the bound Q(m-1) + min > max.
"""

from __future__ import annotations

from math import comb
from typing import Callable

from .errors import DomainError, Record
from .monomials import Monomial
from .staircase import GradedMonomialIdeal, from_generators
from .torus import SemiInvariantSpace, TorusWeight, deformed_section_space


class DeformationCase(Record):
    """One deformation family, parametrized by the regularity m."""

    name: str
    kernel_c: int
    min_m: int
    # staircase generators of the zero limit, as (ex, ey) pairs
    generators: Callable[[int], list[tuple[int, int]]]
    # the deformation chain at level n: (initial monomial, torus weight), stepped once
    chain: Callable[[int, int], tuple[Monomial, tuple[int, int, int]]]
    deg_zero: Callable[[int], int]
    deg_infinity: Callable[[int], int]


CASES: tuple[DeformationCase, ...] = (
    DeformationCase(
        "7.3",
        1,
        4,
        lambda m: [(1, 1), (0, 2), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 1, m - 1)),
        lambda m: comb(m, 2) - 1,
        lambda m: comb(m + 1, 2),
    ),
    DeformationCase(
        "7.4a",
        2,
        5,
        lambda m: [(1, 1), (0, 3), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 2, m - 2)),
        lambda m: comb(m, 2) - 2,
        lambda m: comb(m + 1, 2) - 1,
    ),
    DeformationCase(
        "7.4b",
        2,
        5,
        lambda m: [(0, 2), (2, 1), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (1 - m, 1, m - 2)),
        lambda m: comb(m, 2) - 1,
        lambda m: comb(m + 1, 2) - 1,
    ),
    DeformationCase(
        "7.5a",
        3,
        5,
        lambda m: [(2, 1), (1, 2), (0, 3), (m, 0)],
        lambda m, n: (Monomial(2, 1, n - 3), (-2, 1, 1)),
        lambda m: comb(m, 2) - 3,
        lambda m: comb(m, 2),
    ),
    DeformationCase(
        "7.5b",
        3,
        5,
        lambda m: [(2, 1), (1, 2), (0, 3), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (1 - m, 1, m - 2)),
        lambda m: comb(m, 2) - 3,
        lambda m: comb(m + 1, 2) - 2,
    ),
    DeformationCase(
        "7.5c",
        3,
        5,
        lambda m: [(2, 1), (1, 2), (0, 3), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 2, m - 2)),
        lambda m: comb(m, 2) - 3,
        lambda m: comb(m + 1, 2) - 1,
    ),
    DeformationCase(
        "7.5d",
        3,
        5,
        lambda m: [(1, 1), (0, 4), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 3, m - 3)),
        lambda m: comb(m, 2) - 3,
        lambda m: comb(m + 1, 2) - 2,
    ),
    DeformationCase(
        "7.5e",
        3,
        5,
        lambda m: [(0, 2), (3, 1), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (2 - m, 1, m - 3)),
        lambda m: comb(m, 2),
        lambda m: comb(m + 1, 2) - 1,
    ),
    DeformationCase(
        "7.6a1",
        4,
        6,
        lambda m: [(2, 1), (1, 2), (0, 4), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (1 - m, 1, m - 2)),
        lambda m: comb(m, 2) - 4,
        lambda m: comb(m + 1, 2) - 3,
    ),
    DeformationCase(
        "7.6a2",
        4,
        6,
        lambda m: [(2, 1), (1, 2), (0, 4), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 3, m - 3)),
        lambda m: comb(m, 2) - 4,
        lambda m: comb(m + 1, 2) - 3,
    ),
    DeformationCase(
        "7.6b1",
        4,
        6,
        lambda m: [(1, 2), (0, 3), (3, 1), (m, 0)],
        lambda m, n: (Monomial(3, 1, n - 4), (-3, 1, 2)),
        lambda m: comb(m, 2) - 2,
        lambda m: comb(m, 2) + 2,
    ),
    DeformationCase(
        "7.6b2",
        4,
        6,
        lambda m: [(1, 2), (0, 3), (3, 1), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (2 - m, 1, m - 3)),
        lambda m: comb(m, 2) - 2,
        lambda m: comb(m + 1, 2) - 3,
    ),
    DeformationCase(
        "7.6b3",
        4,
        6,
        lambda m: [(1, 2), (0, 3), (3, 1), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 2, m - 2)),
        lambda m: comb(m, 2) - 2,
        lambda m: comb(m + 1, 2),
    ),
    DeformationCase(
        "7.6c",
        4,
        6,
        lambda m: [(2, 1), (0, 3), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (1 - m, 2, m - 3)),
        lambda m: comb(m, 2) - 3,
        lambda m: comb(m + 1, 2) - 3,
    ),
    DeformationCase(
        "7.6d",
        4,
        6,
        lambda m: [(1, 1), (0, 5), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (-m, 4, m - 4)),
        lambda m: comb(m, 2) - 4,
        lambda m: comb(m + 1, 2) - 3,
    ),
    DeformationCase(
        "7.6e",
        4,
        6,
        lambda m: [(0, 2), (4, 1), (m, 0)],
        lambda m, n: (Monomial(m, 0, n - m), (3 - m, 1, m - 4)),
        lambda m: comb(m, 2) + 2,
        lambda m: comb(m + 1, 2),
    ),
)


def case_by_name(name: str) -> DeformationCase:
    for case in CASES:
        if case.name == name:
            return case
    raise DomainError(f"unknown deformation case {name!r}")


def zero_limit_ideal(case: DeformationCase, m: int) -> GradedMonomialIdeal:
    if m < case.min_m:
        raise DomainError(f"case {case.name} needs m >= {case.min_m}, got {m}")
    return from_generators(case.generators(m))


def build_space(case: DeformationCase, m: int) -> SemiInvariantSpace:
    """The deformed section space of the family at level d, the colength."""
    ideal = zero_limit_ideal(case, m)
    n = ideal.colength
    initial, rho = case.chain(m, n)
    return deformed_section_space(ideal, n, TorusWeight(rho), [(initial, [1])])


def chain_staircase(ms, kernel_gens) -> GradedMonomialIdeal:
    """Monomial staircase of an iterated y-split: level i contributes the
    pure power x^(m_i) under i extra factors of y, the kernel sits under
    r + 1 of them."""
    r = len(ms) - 1
    gens = [(gx, gy + r + 1) for gx, gy in kernel_gens]
    gens += [(m, i) for i, m in enumerate(ms)]
    return from_generators(gens)


def marker_deformation_space(ms, ideal: GradedMonomialIdeal, target: int | str) -> SemiInvariantSpace:
    """Space of an iterated y-split whose top form carries one extra monomial,
    over ``ideal``, the ``chain_staircase`` of ms and some kernel.

    The tail lands in ``target``: at a chain level t in 1..r it is the lower
    vice-marker x^(m_t - 1) y^t z^(m_0 - m_t - t + 1); at ``"left"``, the left
    domain, it is the small corner monomial y^(r+1) z^(m_0 - r - 1).
    """
    r = len(ms) - 1
    m0 = ms[0]
    n = ideal.colength
    if target == "left":
        tail = Monomial(0, r + 1, m0 - r - 1)
    elif target in range(1, r + 1):
        mt = ms[target]
        tail = Monomial(mt - 1, target, m0 - mt - target + 1)
    else:
        raise DomainError(f"target must be a level in 1..{r} or 'left', got {target!r}")
    rho = (tail.ex - m0, tail.ey, tail.ez)
    weight = TorusWeight(rho)
    initial = Monomial(m0, 0, n - m0)
    return deformed_section_space(ideal, n, weight, [(initial, [1])])


def double_deformation_space() -> SemiInvariantSpace:
    """The two-chain space over the colength-4 kernel at m = 6 and level 6
    (weight (-3,1,2)): both chains step into the same monomial, so only single
    limits survive."""
    ideal = from_generators([(1, 2), (0, 3), (3, 1), (6, 0)])
    weight = TorusWeight((-3, 1, 2))
    return deformed_section_space(ideal, 6, weight, [(Monomial(3, 1, 2), [1]), (Monomial(6, 0, 0), [2])])
