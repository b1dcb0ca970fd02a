"""Suites of staircases and standard forms: the staircases' functions,
standard-form splits above the deformation bound, type chains, the split of
a staircase against that of its function, and Borel closures.  Each whole
shell walked is sized against the ``census``."""

from __future__ import annotations

from operator import gt

from .. import census, hilbert, staircase, standard_form
from ..errors import InternalInconsistencyError
from . import shell_census


PRUNE_CHECK_CAP = 10  # colengths at which the pruned walk is checked against the full one


def _above_bound(d: int):
    """The functions of colength d >= 5 whose genus exceeds the deformation
    bound, from the g*-pruned walk, and the violations of that walk: up to
    colength ``PRUNE_CHECK_CAP`` it must equal the filtered full enumeration."""
    bound = hilbert.deformation_bound(d)
    walked = hilbert.enumerate_hilbert_functions(d, above=bound)
    if d > PRUNE_CHECK_CAP:
        return walked, ()
    filtered = [phi for phi in hilbert.enumerate_hilbert_functions(d) if phi.g_star() > bound]
    return walked, () if walked == filtered else (({"d": d, "check": "g* prune"}, _texts(filtered), _texts(walked)),)


def suite_hf_ideal_agreement(d: int):
    """Enumerated functions match the distinct functions of all staircases.

    Both sides build their sequences unchecked, so each distinct staircase
    function is checked admissible here, with a staircase that has it.  The
    Borel-fixed staircases (strictly decreasing heights) are the lex-segment
    ideals, and by Macaulay's theorem their functions are each admissible
    function exactly once.
    """
    ideals = staircase.enumerate_ideals(d)
    functions = hilbert.enumerate_hilbert_functions(d)
    yield from shell_census(d, ideals, census.partitions)
    yield from shell_census(d, functions, census.distinct_partitions)
    images = [ideal.hilbert_function() for ideal in ideals]
    witness = dict(zip(images, ideals))  # each distinct function, with a staircase
    found = [
        ({"d": d, "ideal": str(ideal)}, "admissible", phi.as_text())
        for phi, ideal in witness.items()
        if not hilbert.is_valid(phi.diff)
    ]
    via_enum = set(functions)
    if witness.keys() != via_enum:
        found.append(({"d": d}, _texts(via_enum), _texts(witness)))
    lex = [phi for ideal, phi in zip(ideals, images) if _strictly_decreasing(ideal.heights)]
    if len(set(lex)) != len(lex) or set(lex) != via_enum:
        found.append(({"d": d, "borel": True}, _texts(via_enum), _texts(lex)))
    yield found


def _texts(functions) -> list[str]:
    return sorted(phi.as_text() for phi in functions)


def _strictly_decreasing(heights) -> bool:
    return all(map(gt, heights, heights[1:]))


def suite_lemma_2_4(d: int):
    """Above the deformation bound the split exists and has c + m == d and
    m >= c + 2; ``decompose`` raises when it does not.  One case per function
    above the bound, walked without the others."""
    walked, found = _above_bound(d)
    if found:
        yield found
    for phi in walked:
        try:
            split = standard_form.decompose(phi)  # None exactly at or below the bound
        except InternalInconsistencyError as exc:
            yield (({"d": d, "phi": phi.as_text()}, "c + m == d and m >= c + 2", str(exc)),)
            continue
        yield () if split is not None else _unsplit(d, phi)


def _unsplit(d: int, phi) -> tuple:
    """A walked function that ``decompose`` leaves whole: the prune and
    ``g_star`` disagree on the side of the bound it lies."""
    return (({"d": d, "phi": phi.as_text()}, f"g* > {hilbert.deformation_bound(d)}", phi.g_star()),)


def suite_corollary_2_2(d: int):
    """Kernel below its own bound forces m >= 2c + 1; only the functions above
    the bound split, and only they are walked."""
    walked, found = _above_bound(d)
    if found:
        yield found
    for phi in walked:
        split = standard_form.decompose(phi)
        if split is None:
            yield _unsplit(d, phi)
            continue
        psi, m = split
        c = psi.colength
        if c >= 5 and psi.g_star() <= hilbert.deformation_bound(c):
            yield () if m >= 2 * c + 1 else (({"d": d, "phi": phi.as_text()}, f"m >= {2 * c + 1}", m),)


def suite_chain_invariants(d: int):
    """Type-chain inequalities m_0 >= 2^r (c+2) and m_j + j < m_i + i - 1;
    ``type_of`` raises when a chain breaks them."""
    functions = hilbert.enumerate_hilbert_functions(d)
    yield from shell_census(d, functions, census.distinct_partitions)
    for phi in functions:
        try:
            standard_form.type_of(phi)
        except InternalInconsistencyError as exc:
            yield (({"d": d, "phi": phi.as_text()}, "chain invariants", str(exc)),)
        else:
            yield ()


def suite_form_agreement(d: int):
    """Staircase-level standard form matches the function-level split.

    A shell has far fewer functions than staircases (64 against 627 at
    d = 20), so each distinct function is split once, by its first staircase,
    and the later ones read that function object, its cached g* and its split
    from a table that lives for this shell alone."""
    splits = {}  # function -> (its first object, its split)
    ideals = staircase.enumerate_ideals(d)
    yield from shell_census(d, ideals, census.partitions)
    for ideal in ideals:
        phi = ideal.hilbert_function()
        entry = splits.get(phi)
        if entry is None:
            entry = splits[phi] = (phi, standard_form.decompose(phi))
        phi, split = entry
        form = standard_form.detect_standard_form(ideal, phi)
        if split is None:
            yield () if form is None else (({"ideal": str(ideal)}, None, form.ell),)
        elif form is None:
            # above the bound every staircase carries an x- or y-form
            yield (({"ideal": str(ideal)}, "x or y form", None),)
        else:
            psi, m = split
            found = []
            if (form.kernel.colength, form.m) != (psi.colength, m):
                found.append(({"ideal": str(ideal)}, (psi.colength, m), (form.kernel.colength, form.m)))
            if form.kernel.hilbert_function() != psi:
                found.append(({"ideal": str(ideal)}, psi.as_text(), form.kernel.hilbert_function().as_text()))
            yield found


def suite_borel(d: int):
    """Borel closure never increases the colength; fixed points stay fixed;
    the fixed staircases are those with strictly decreasing heights."""
    ideals = staircase.enumerate_ideals(d)
    yield from shell_census(d, ideals, census.partitions)
    for ideal in ideals:
        found = []
        closure = ideal.borel_closure()
        if not closure.is_borel_fixed():
            found.append(({"ideal": str(ideal)}, "closure fixed", str(closure)))
        if closure.colength > ideal.colength:
            found.append(({"ideal": str(ideal)}, f"<= {ideal.colength}", closure.colength))
        fixed = ideal.is_borel_fixed()
        if fixed != _strictly_decreasing(ideal.heights):
            found.append(({"ideal": str(ideal)}, "fixed iff strictly decreasing heights", fixed))
        if fixed and closure != ideal:
            found.append(({"ideal": str(ideal)}, "closure = ideal", str(closure)))
        yield found
