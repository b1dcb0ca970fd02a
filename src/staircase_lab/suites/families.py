"""Suites of deformation families: limit-cycle degrees of the catalog's
families, the selection extremes of their spaces, and the closed bounds of
the right-domain spread."""

from __future__ import annotations

from .. import alphagrade, catalog, inequalities, torus
from ..errors import DegenerateLimitError, DomainError


def suite_ch7_catalog(max_m: int):
    """Limit-cycle degrees of the small-kernel deformation families."""
    for case in catalog.CASES:
        for m in range(case.min_m, max_m + 1):
            space = catalog.build_space(case, m)
            got = (torus.limit_ideal(space, "zero").alpha_grade, torus.limit_ideal(space, "infinity").alpha_grade)
            want = (case.deg_zero(m), case.deg_infinity(m))
            yield () if got == want else (({"case": case.name, "m": m}, want, got),)


def suite_bang(m: int):
    """Q(m-1) + min > max fails exactly at the kernel-1, m=4 configuration."""
    space = catalog.build_space(catalog.case_by_name("7.3"), m)  # at its level, the colength, it keeps 7.3 whole
    got = alphagrade.check_bang(space, space.staircase.hilbert_function())
    want = m >= 5
    yield () if got == want else (({"m": m}, want, got),)


def suite_sandwich(max_m: int):
    """Limit degrees sit between min- and max-alpha-grade on all fixtures."""
    first = min(case.min_m for case in catalog.CASES)
    if max_m < first:  # else only the fixed double-deformation fixture would run
        raise DomainError(f"need max_m >= {first}, the smallest m of a catalog case, got {max_m}")

    def spaces():  # one at a time: each is checked before the next is built
        for case in catalog.CASES:
            for m in range(case.min_m, max_m + 1):
                yield f"{case.name}/m={m}", catalog.build_space(case, m)
        yield "double-deformation", catalog.double_deformation_space()

    for label, space in spaces():
        found = []
        lo, hi = alphagrade.minmax_alpha_grade(space)
        for direction in ("zero", "infinity"):
            try:
                limit = torus.limit_ideal(space, direction)
            except DegenerateLimitError:
                continue  # colliding limit monomials: no cycle on that side
            deg = limit.alpha_grade
            if not lo <= deg <= hi:
                found.append(({"fixture": label, "direction": direction}, (lo, hi), deg))
        yield found


_KERNELS = {
    0: [(0, 0)],
    1: [(1, 0), (0, 1)],
    2: [(0, 1), (2, 0)],
    3: [(2, 0), (1, 1), (0, 2)],
}


def suite_a_bound(r: int, max_c: int):
    """Right-domain spread of marker deformations stays below the closed bounds;
    the spaces of one (r, c) share the staircase of its smallest feasible chain."""
    if max_c > max(_KERNELS):
        raise DomainError(f"need max_c <= {max(_KERNELS)}, the largest kernel colength a-bound builds, got {max_c}")
    for c in range(0, max_c + 1):
        ms = inequalities.feasible_chains(r, c, 0)[0]
        ideal = catalog.chain_staircase(ms, _KERNELS[c])
        split = alphagrade.DomainSplit(c + r)
        for target in [*range(1, r + 1), "left"] if c else range(1, r + 1):
            space = catalog.marker_deformation_space(ms, ideal, target)
            spread = alphagrade.right_domain_spread(space, split)
            bound = inequalities.a_bound("II2" if target == "left" else "II1", c=c, r=r, ms=ms)
            yield () if spread <= bound else (({"r": r, "c": c, "target": target}, f"<= {bound}", spread),)
