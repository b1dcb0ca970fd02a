"""Suites of Hilbert functions alone: the colength <= 4 catalog, the genus
functional and its order, the deformation bound's extremal function, and the
regularity bound.  They call ``hilbert`` and nothing else, but for the
``census`` that sizes each whole shell they walk."""

from __future__ import annotations

from itertools import compress

from .. import census, hilbert
from . import passed, shell_census


def suite_catalog_small():
    """Counts and genus values of the colength <= 4 catalog."""
    for d, gs in {1: [0], 2: [0], 3: [0, 1], 4: [1, 3]}.items():
        got = [phi.g_star() for phi in hilbert.enumerate_hilbert_functions(d)]
        yield () if got == gs else (({"d": d}, {"count": len(gs), "g_star": gs}, {"count": len(got), "g_star": got}),)


def suite_special_chi(d: int):
    """Genus of the extremal three-generator function equals the deformation bound."""
    got = hilbert.special_chi(d).g_star()
    want = hilbert.deformation_bound(d)
    yield () if got == want else (({"d": d}, want, got),)


def suite_gstar_crosscheck(d: int):
    """Both genus evaluations agree on every function (raises on mismatch);
    one batch of cases per colength."""
    functions = hilbert.enumerate_hilbert_functions(d)
    yield from shell_census(d, functions, census.distinct_partitions)
    for phi in functions:
        phi.g_star()
    yield len(functions)


def suite_gstar_monotonic(d: int):
    """Strict growth of the genus functional along the pointwise order, and
    its maximum (d-1)(d-2)/2 at the lexicographically largest function.  A
    shell's pairs are the bits of its ``hilbert.above_masks``; those left by
    an AND with the mask of the functions whose g* is not larger fail."""
    functions = hilbert.enumerate_hilbert_functions(d)
    yield from shell_census(d, functions, census.distinct_partitions)
    above = hilbert.above_masks(functions)
    genus = [phi.g_star() for phi in functions]
    bad = list(above)
    for k, not_larger in hilbert.at_least([-g for g in genus]):
        bad[k] &= not_larger
    yield from passed(sum(map(int.bit_count, above)) - sum(map(int.bit_count, bad)))
    for phi, mask in compress(zip(functions, bad), bad):
        for psi in compress(functions, map(int, reversed(f"{mask:b}"))):
            yield (({"d": d, "phi": phi.as_text(), "psi": psi.as_text()}, "<", ">="),)
    top, want = max(genus), (d - 1) * (d - 2) // 2
    yield () if top == want and hilbert.lex_most(d).g_star() == want else (({"d": d}, want, top),)


def suite_regularity_bound(d: int):
    functions = hilbert.enumerate_hilbert_functions(d)
    yield from shell_census(d, functions, census.distinct_partitions)
    bad = [phi for phi in functions if phi.regularity > d]
    yield from passed(len(functions) - len(bad))
    for phi in bad:
        yield (({"d": d, "phi": phi.as_text()}, f"reg <= {d}", phi.regularity),)
