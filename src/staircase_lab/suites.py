"""Runnable verification suites: formulas against oracles, with reports.

A suite is a generator over its parameter range.  It yields once per case,
and what it yields is that case's violations as ``(params, expected, got)``
triples, empty when the case passes; violation data is built only for a
case that fails.  A suite that already holds a count of passing cases may
yield it as one int n >= 1 instead of n empty items.  Keyword caps set the
range, so a fast profile and a deep profile share code.  :func:`run_suite`
is the only tally: it names, counts and times the cases, and rejects a run
that covers nothing or a cap the suite does not take.
"""

from __future__ import annotations

import time
from itertools import groupby, product
from math import comb

from . import alphagrade, catalog, hilbert, inequalities, pyramids, staircase, standard_form, torus
from .errors import DegenerateLimitError, DomainError, InternalInconsistencyError


class VerificationReport:
    def __init__(self, suite: str):
        self.suite, self.cases_run, self.violations, self.elapsed = suite, 0, [], 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "violations": self.violations,
            "elapsed": round(self.elapsed, 6),
            "ok": self.ok,
        }


def _functions(lo: int, hi: int):
    """(d, phi) for every Hilbert function phi of colength lo <= d <= hi."""
    return ((d, phi) for d in range(lo, hi + 1) for phi in hilbert.enumerate_hilbert_functions(d))


def _passed(n: int):
    """A batch of n passing cases, as ``run_suite`` counts it: nothing for none."""
    if n:
        yield n


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


def _ideals(lo: int, hi: int):
    """(d, ideal) for every staircase of colength lo <= d <= hi."""
    return ((d, ideal) for d in range(lo, hi + 1) for ideal in staircase.enumerate_ideals(d))


def suite_catalog_small():
    """Counts and genus values of the colength <= 4 catalog."""
    for d, gs in {1: [0], 2: [0], 3: [0, 1], 4: [1, 3]}.items():
        got = [phi.g_star() for phi in hilbert.enumerate_hilbert_functions(d)]
        yield () if got == gs else (({"d": d}, {"count": len(gs), "g_star": gs}, {"count": len(got), "g_star": got}),)


def suite_special_chi(max_colength: int = 50):
    """Genus of the extremal three-generator function equals the deformation bound."""
    for d in range(5, max_colength + 1):
        got = hilbert.special_chi(d).g_star()
        want = hilbert.deformation_bound(d)
        yield () if got == want else (({"d": d}, want, got),)


def suite_pyramid_oracle(max_frame: int = 9):
    """Closed-form maximal pyramid weight against the knapsack DP, one table per
    frame with a witness per d that must have colength d and the DP's weight; the
    DP (weight and witness) against the exhaustive search at small frames."""
    if max_frame < 1:
        raise DomainError(f"need max_frame >= 1, got {max_frame}")
    for c in range(1, max_frame + 1):
        table = pyramids.WeightTable.build(c)
        for d in range(1, c + 1):
            found = []
            best, witness = table.witness(d)
            closed = pyramids.max_weight_closed_form(c, d)
            if closed != best:
                found.append(({"c": c, "d": d}, closed, best))
            if (witness.colength, witness.weight()) != (d, best):
                found.append(({"c": c, "d": d, "check": "witness"}, [d, best], [witness.colength, witness.weight()]))
            if c <= pyramids.TOP_SEGMENT_FRAME_CAP:  # the exhaustive search guards every frame its budget allows
                exhaustive = pyramids.brute_force_max_weight(c, d)
                if exhaustive != (best, witness):
                    found.append(({"c": c, "d": d, "guard": "exhaustive"}, _weight_and_columns(*exhaustive),
                                  _weight_and_columns(best, witness)))
            # a maximal top-segment witness never has a step of breadth >= 4
            avec = witness.initial_degrees()
            runs = [len(list(g)) for a, g in groupby(avec) if a > 0]
            if any(b >= 4 for b in runs):
                found.append(({"c": c, "d": d, "witness": list(avec)}, "steps < 4", runs))
            yield found
    yield from _hand_table()


def suite_pyramid_oracle_full(max_frame: int = 9):
    """The DP's reduction to top segments: the heaviest subset of [0, c-1] missing d
    entries, by a DP over its elements, weighs as [d, c-1]; at small frames the search
    over all column subsets finds the DP's weight, by a witness of colength d."""
    if max_frame < 1:
        raise DomainError(f"need max_frame >= 1, got {max_frame}")
    top = [0] * (max_frame + 1)  # top[k]: the largest sum of k distinct elements of [0, c-1], each sum >= 0
    for c, e in enumerate(range(max_frame), 1):  # frame c adds the element e = c - 1
        for k in range(c, 0, -1):
            top[k] = max(top[k], top[k - 1] + e)
        best = pyramids.WeightTable.build(c).best[0] if c <= pyramids.FULL_SUBSET_FRAME_CAP else None
        for d in range(1, c + 1):
            heaviest, segment = top[c - d] - comb(c - d, 2), pyramids.column_weight(range(d, c))
            found = [] if heaviest == segment else [({"c": c, "d": d, "column": c - 1}, segment, heaviest)]
            if best:  # the witnesses may differ by tie-break, so the weights are compared
                w, witness = pyramids.brute_force_max_weight(c, d, full_subsets=True)
                if (w, witness.colength, witness.weight()) != (best[d], d, best[d]):
                    found.append(({"c": c, "d": d, "guard": "exhaustive"}, [best[d], d, best[d]],
                                  [w, witness.colength, witness.weight()]))
            yield found
    yield from _hand_table()


def _hand_table():
    table = {(2, 1): 1, (2, 2): 1, (3, 1): 2, (3, 2): 3, (3, 3): 3, (4, 1): 3, (4, 2): 5, (4, 3): 6, (4, 4): 7}
    for (c, d), want in sorted(table.items()):
        got = pyramids.max_weight_closed_form(c, d)
        yield () if got == want else (({"c": c, "d": d}, want, got),)


def _weight_and_columns(weight, pyramid) -> tuple:
    return weight, [sorted(col) for col in pyramid.columns]


def suite_prop_4_1(max_frame_closed: int = 64, max_frame_oracle: int = 9):
    """Maximal weight at colength = frame stays below (c-1)^2."""
    for c in range(1, max_frame_closed + 1):
        w = pyramids.max_weight_closed_form(c, c)
        yield () if w <= (c - 1) ** 2 else (({"c": c}, f"<= {(c - 1) ** 2}", w),)
    for c in range(1, max_frame_oracle + 1):
        w, _ = pyramids.max_weight_dp(c, c)
        yield () if w <= (c - 1) ** 2 else (({"c": c, "oracle": True}, f"<= {(c - 1) ** 2}", w),)


def suite_pyramid_monotonic(max_frame: int = 64):
    """Monotonicity of the closed form in the frame and in the colength."""
    # w[c][d] for 1 <= d <= c <= max_frame, each value computed once
    w = [[None] + [pyramids.max_weight_closed_form(c, d) for d in range(1, c + 1)] for c in range(max_frame + 1)]
    for d in range(1, max_frame + 1):
        for c in range(d, max_frame):
            lo, hi = w[c][d], w[c + 1][d]
            yield () if lo < hi else (({"c": c, "d": d, "direction": "frame"}, f"< {hi}", lo),)
    for c in range(1, max_frame + 1):
        strict = c >= 5
        for d in range(1, c):
            lo, hi = w[c][d], w[c][d + 1]
            ok = lo < hi if strict else lo <= hi
            yield () if ok else (({"c": c, "d": d, "direction": "colength"}, "increasing", (lo, hi)),)


def suite_endpoint(max_frame: int = 32, max_n: int = 8):
    for c, n in product(range(1, max_frame + 1), range(1, max_n + 1)):
        yield () if pyramids.endpoint_consistency(c, n) else (({"c": c, "n": n}, True, False),)


def suite_gstar_crosscheck(max_colength: int = 12):
    """Both genus evaluations agree on every function (raises on mismatch);
    one batch of cases per colength."""
    for d in range(0, max_colength + 1):
        functions = hilbert.enumerate_hilbert_functions(d)
        for phi in functions:
            phi.g_star()
        yield len(functions)


def suite_gstar_monotonic(max_colength: int = 12):
    """Strict growth of the genus functional along the pointwise order, and
    its maximum (d-1)(d-2)/2 at the lexicographically largest function."""
    for d in range(1, max_colength + 1):
        functions = hilbert.enumerate_hilbert_functions(d)
        pairs = hilbert.pairwise_comparable(functions)
        bad = [(phi, psi) for phi, psi in pairs if not phi.g_star() < psi.g_star()]
        yield from _passed(len(pairs) - len(bad))
        for phi, psi in bad:
            yield (({"d": d, "phi": phi.as_text(), "psi": psi.as_text()}, "<", ">="),)
        top = max(phi.g_star() for phi in functions)
        want = (d - 1) * (d - 2) // 2
        yield () if top == want and hilbert.lex_most(d).g_star() == want else (({"d": d}, want, top),)


def suite_regularity_bound(max_colength: int = 12):
    for d in range(0, max_colength + 1):
        functions = hilbert.enumerate_hilbert_functions(d)
        bad = [phi for phi in functions if phi.regularity > d] if d else []
        yield from _passed(len(functions) - len(bad))
        for phi in bad:
            yield (({"d": d, "phi": phi.as_text()}, f"reg <= {d}", phi.regularity),)


def suite_hf_ideal_agreement(max_colength: int = 8):
    """Enumerated functions match the distinct functions of all staircases.

    Both sides build their sequences unchecked, so each distinct staircase
    function is checked admissible here, with a staircase that has it.  The
    Borel-fixed staircases (strictly decreasing heights) are the lex-segment
    ideals, and by Macaulay's theorem their functions are each admissible
    function exactly once.
    """
    for d in range(0, max_colength + 1):
        ideals = staircase.enumerate_ideals(d)
        images = [ideal.hilbert_function() for ideal in ideals]
        witness = dict(zip(images, ideals))  # each distinct function, with a staircase
        found = [
            ({"d": d, "ideal": str(ideal)}, "admissible", phi.as_text())
            for phi, ideal in witness.items()
            if not hilbert.is_valid(phi.diff)
        ]
        via_enum = set(hilbert.enumerate_hilbert_functions(d))
        if witness.keys() != via_enum:
            found.append(({"d": d}, _texts(via_enum), _texts(witness)))
        lex = [phi for ideal, phi in zip(ideals, images) if _strictly_decreasing(ideal.heights)]
        if len(set(lex)) != len(lex) or set(lex) != via_enum:
            found.append(({"d": d, "borel": True}, _texts(via_enum), _texts(lex)))
        yield found


def _texts(functions) -> list[str]:
    return sorted(phi.as_text() for phi in functions)


def _strictly_decreasing(heights) -> bool:
    return all(a > b for a, b in zip(heights, heights[1:]))


def suite_lemma_2_4(max_colength: int = 14):
    """Above the deformation bound the split exists and has c + m == d and
    m >= c + 2; ``decompose`` raises when it does not.  One case per function
    above the bound, walked without the others."""
    for d in range(5, max_colength + 1):
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


def suite_corollary_2_2(max_colength: int = 18):
    """Kernel below its own bound forces m >= 2c + 1; only the functions above
    the bound split, and only they are walked."""
    for d in range(5, max_colength + 1):
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


def suite_chain_invariants(max_colength: int = 14):
    """Type-chain inequalities m_0 >= 2^r (c+2) and m_j + j < m_i + i - 1;
    ``type_of`` raises when a chain breaks them."""
    for d, phi in _functions(5, max_colength):
        try:
            standard_form.type_of(phi)
        except InternalInconsistencyError as exc:
            yield (({"d": d, "phi": phi.as_text()}, "chain invariants", str(exc)),)
        else:
            yield ()


def suite_form_agreement(max_colength: int = 12):
    """Staircase-level standard form matches the function-level split."""
    for _, ideal in _ideals(5, max_colength):
        split = standard_form.decompose(ideal.hilbert_function())
        form = standard_form.detect_standard_form(ideal)
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


def suite_ineq(name: str | None = None, max_c: int = 50, max_r: int = 6, m_span: int = 25):
    """One scan per inequality; each scanned point is a case."""
    caps = inequalities.ScanCaps(max_c=max_c, max_r=max_r, m_span=m_span)
    for n in [name] if name else inequalities.all_inequality_names():
        result = inequalities.inequality_scan(n, caps)
        yield from _passed(result.cases_run - len(result.violations))
        for params in result.violations:
            yield (({"name": n, **params}, "holds", "fails"),)


def suite_genus_negativity(max_c: int = 20, m_extent: int = 30, nu_extent: int = 10):
    for c in range(0, max_c + 1):
        for m in range(c + 2, c + m_extent + 1):
            for nu in range(m, m + nu_extent + 1):
                value = alphagrade.genus_nu(c + m, nu)
                yield () if value < 0 else (({"c": c, "m": m, "nu": nu}, "< 0", value),)


def suite_ch14(max_e: int = 10):
    for e in range(4, max_e + 1):
        alphagrade.chapter14_degrees(e)  # raises if the closed forms fail
        yield ()


def suite_ch7_catalog(max_m: int = 10):
    """Limit-cycle degrees of the small-kernel deformation families."""
    for case in catalog.CASES:
        for m in range(case.min_m, max_m + 1):
            space = catalog.build_space(case, m)
            got = (torus.limit_ideal(space, "zero").alpha_grade, torus.limit_ideal(space, "infinity").alpha_grade)
            want = (case.deg_zero(m), case.deg_infinity(m))
            yield () if got == want else (({"case": case.name, "m": m}, want, got),)


def suite_bang(max_m: int = 10):
    """Q(m-1) + min > max fails exactly at the kernel-1, m=4 configuration."""
    case = catalog.case_by_name("7.3")
    for m in range(4, max_m + 1):
        space = catalog.build_space(case, m)
        phi = catalog.case_hilbert_function(case, m)
        got = alphagrade.check_bang(space, phi)
        want = m >= 5
        yield () if got == want else (({"m": m}, want, got),)


def suite_stabilization(max_colength: int = 8, extra_levels: int = 3):
    """Cycle degrees are constant from colength - 1 on."""
    for d, ideal in _ideals(1, max_colength):
        base = alphagrade.cycle_degree(ideal, d - 1)
        values = [alphagrade.cycle_degree(ideal, n) for n in range(d, d + extra_levels + 1)]
        yield () if all(v == base for v in values) else (({"ideal": str(ideal)}, base, values),)


def suite_sandwich(max_m: int = 9):
    """Limit degrees sit between min- and max-alpha-grade on all fixtures."""

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


def suite_pyramid_alpha_link(max_colength: int = 8):
    """Pyramid weight of the section space at degree d-1 equals the
    closed-form alpha-grade of the staircase."""
    for d, ideal in _ideals(1, max_colength):
        pyr = pyramids.Pyramid.from_columns([ideal.column(i) for i in range(d)])
        grade = ideal.alpha_grade
        yield () if pyr.colength == d and pyr.weight() == grade else (({"ideal": str(ideal)}, grade, pyr.weight()),)


def _minimal_chain(r: int, c: int) -> list[int]:
    """Smallest feasible regularities m_0 > ... > m_r over a colength-c kernel."""
    ms = [max(c + 2, 5 - c)]
    below = c + ms[0]
    for _ in range(r):
        ms.append(below + 2)
        below += ms[-1]
    return list(reversed(ms))


_KERNELS = {
    0: [(0, 0)],
    1: [(1, 0), (0, 1)],
    2: [(0, 1), (2, 0)],
    3: [(2, 0), (1, 1), (0, 2)],
}


def suite_a_bound(max_r: int = 2, max_c: int = 3):
    """Right-domain spread of marker deformations stays below the closed bounds."""
    for r in range(1, max_r + 1):
        for c in range(0, max_c + 1):
            ms = _minimal_chain(r, c)
            split = alphagrade.DomainSplit(c + r)
            for target in range(1, r + 1):
                space = catalog.marker_deformation_space(ms, _KERNELS[c], target)
                spread = alphagrade.right_domain_spread(space, split)
                bound = alphagrade.a_bound("II1", c=c, r=r, ms=tuple(ms))
                yield () if spread <= bound else (({"r": r, "c": c, "target": target}, f"<= {bound}", spread),)
            if c >= 1:
                space = catalog.marker_deformation_space(ms, _KERNELS[c], 0, into_left_domain=True)
                spread = alphagrade.right_domain_spread(space, split)
                bound = alphagrade.a_bound("II2", c=c, r=r, ms=tuple(ms))
                yield () if spread <= bound else (({"r": r, "c": c, "target": "left"}, f"<= {bound}", spread),)


def suite_borel(max_colength: int = 8):
    """Borel closure never increases the colength; fixed points stay fixed;
    the fixed staircases are those with strictly decreasing heights."""
    for _, ideal in _ideals(1, max_colength):
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


SUITES = {
    "catalog-small": suite_catalog_small,
    "special-chi": suite_special_chi,
    "pyramid-oracle": suite_pyramid_oracle,
    "pyramid-oracle-full": suite_pyramid_oracle_full,
    "prop-4-1": suite_prop_4_1,
    "pyramid-monotonic": suite_pyramid_monotonic,
    "endpoint": suite_endpoint,
    "gstar-crosscheck": suite_gstar_crosscheck,
    "gstar-monotonic": suite_gstar_monotonic,
    "regularity-bound": suite_regularity_bound,
    "hf-ideal-agreement": suite_hf_ideal_agreement,
    "lemma-2-4": suite_lemma_2_4,
    "corollary-2-2": suite_corollary_2_2,
    "chain-invariants": suite_chain_invariants,
    "form-agreement": suite_form_agreement,
    "ineq": suite_ineq,
    "genus-negativity": suite_genus_negativity,
    "ch14": suite_ch14,
    "ch7-catalog": suite_ch7_catalog,
    "bang": suite_bang,
    "stabilization": suite_stabilization,
    "sandwich": suite_sandwich,
    "pyramid-alpha-link": suite_pyramid_alpha_link,
    "a-bound": suite_a_bound,
    "borel": suite_borel,
}


def run_suite(suite: str, **caps) -> VerificationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    start = time.perf_counter()
    try:
        cases = SUITES[suite](**caps)  # binds the caps; no case runs before the loop
    except TypeError:
        import inspect

        takes = sorted(inspect.signature(SUITES[suite]).parameters)
        raise DomainError(f"suite {suite!r} does not take the caps {caps}; it takes {takes}") from None
    report = VerificationReport(f"ineq:{caps.get('name') or 'all'}" if suite == "ineq" else suite)
    cases_run = batched = 0
    for cases_run, found in enumerate(cases, 1):
        if found:
            if isinstance(found, int):  # a batch of passing cases, counted once above
                batched += found - 1
                continue
            report.violations += [{"params": p, "expected": e, "got": g} for p, e, g in found]
    cases_run += batched
    report.cases_run = cases_run
    report.elapsed = time.perf_counter() - start
    if cases_run == 0:
        raise DomainError(f"suite {suite!r} covered no cases with caps {caps}")
    return report
