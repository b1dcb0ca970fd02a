"""Runnable verification suites: formulas against oracles, with reports.

Every suite returns a :class:`VerificationReport` whose ``violations`` list
is expected to be empty; nonempty lists are data for the caller, not errors.
Suites accept range caps so a fast profile and a deep profile can share code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import alphagrade, catalog, hilbert, inequalities, pyramids, staircase, standard_form, torus
from .errors import DomainError


@dataclass
class VerificationReport:
    suite: str
    cases_run: int = 0
    violations: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, params, expected, got) -> None:
        self.violations.append({"params": params, "expected": expected, "got": got})

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "violations": self.violations,
            "elapsed": round(self.elapsed, 6),
            "ok": self.ok,
        }


def suite_catalog_small(**_) -> VerificationReport:
    """Counts and genus values of the colength <= 4 catalog."""
    report = VerificationReport("catalog-small")
    expected = {1: [0], 2: [0], 3: [0, 1], 4: [1, 3]}
    for d, gs in expected.items():
        report.cases_run += 1
        functions = hilbert.enumerate_hilbert_functions(d)
        got = [phi.g_star() for phi in functions]
        if len(functions) != len(gs) or got != gs:
            report.add({"d": d}, {"count": len(gs), "g_star": gs}, {"count": len(functions), "g_star": got})
    return report


def suite_special_chi(max_colength: int = 50, **_) -> VerificationReport:
    """Genus of the extremal three-generator function equals the deformation bound."""
    report = VerificationReport("special-chi")
    for d in range(5, max_colength + 1):
        report.cases_run += 1
        got = hilbert.special_chi(d).g_star()
        want = hilbert.deformation_bound(d)
        if got != want:
            report.add({"d": d}, want, got)
    return report


def suite_pyramid_oracle(max_frame: int = 9, full: bool = False, **_) -> VerificationReport:
    """Closed-form maximal pyramid weight against the knapsack DP, and the DP
    (weight and witness) against the exhaustive search at small frames."""
    if max_frame < 1:
        raise DomainError(f"need max_frame >= 1, got {max_frame}")
    name = "pyramid-oracle-full" if full else "pyramid-oracle"
    report = VerificationReport(name)
    # the exhaustive search guards every frame its budget allows
    guard = pyramids.FULL_SUBSET_FRAME_CAP if full else pyramids.TOP_SEGMENT_FRAME_CAP
    for c in range(1, max_frame + 1):
        for d in range(1, c + 1):
            report.cases_run += 1
            best, witness = pyramids.max_weight_dp(c, d, full_subsets=full)
            closed = pyramids.max_weight_closed_form(c, d)
            if closed != best:
                report.add({"c": c, "d": d}, closed, best)
            if c <= guard:
                exhaustive = pyramids.brute_force_max_weight(c, d, full_subsets=full)
                if exhaustive != (best, witness):
                    report.add({"c": c, "d": d, "guard": "exhaustive"}, _weight_and_columns(*exhaustive),
                               _weight_and_columns(best, witness))
            if not full:
                # a maximal top-segment witness never has a step of breadth >= 4
                avec = witness.initial_degrees()
                runs = _step_breadths(avec)
                if any(b >= 4 for b in runs):
                    report.add({"c": c, "d": d, "witness": list(avec)}, "steps < 4", runs)
    table = {(2, 1): 1, (2, 2): 1, (3, 1): 2, (3, 2): 3, (3, 3): 3, (4, 1): 3, (4, 2): 5, (4, 3): 6, (4, 4): 7}
    for (c, d), want in sorted(table.items()):
        report.cases_run += 1
        if pyramids.max_weight_closed_form(c, d) != want:
            report.add({"c": c, "d": d}, want, pyramids.max_weight_closed_form(c, d))
    return report


def _weight_and_columns(weight, pyramid) -> tuple:
    return weight, [sorted(col) for col in pyramid.columns]


def _step_breadths(avec) -> list[int]:
    """Lengths of constant positive runs of the initial-degree vector."""
    runs = []
    prev = None
    count = 0
    for a in avec:
        if a == prev and a > 0:
            count += 1
        else:
            if prev is not None and prev > 0:
                runs.append(count)
            prev, count = a, 1
    if prev is not None and prev > 0:
        runs.append(count)
    return runs


def suite_prop_4_1(max_frame_closed: int = 64, max_frame_oracle: int = 9, **_) -> VerificationReport:
    """Maximal weight at colength = frame stays below (c-1)^2."""
    report = VerificationReport("prop-4-1")
    for c in range(1, max_frame_closed + 1):
        report.cases_run += 1
        w = pyramids.max_weight_closed_form(c, c)
        if w > (c - 1) ** 2:
            report.add({"c": c}, f"<= {(c - 1) ** 2}", w)
    for c in range(1, max_frame_oracle + 1):
        report.cases_run += 1
        w, _ = pyramids.max_weight_dp(c, c)
        if w > (c - 1) ** 2:
            report.add({"c": c, "oracle": True}, f"<= {(c - 1) ** 2}", w)
    return report


def suite_pyramid_monotonic(max_frame: int = 64, **_) -> VerificationReport:
    """Monotonicity of the closed form in the frame and in the colength."""
    report = VerificationReport("pyramid-monotonic")
    for d in range(1, max_frame + 1):
        for c in range(max(d, 1), max_frame):
            report.cases_run += 1
            lo = pyramids.max_weight_closed_form(c, d)
            hi = pyramids.max_weight_closed_form(c + 1, d)
            if not lo < hi:
                report.add({"c": c, "d": d, "direction": "frame"}, f"< {hi}", lo)
    for c in range(1, max_frame + 1):
        strict = c >= 5
        for d in range(1, c):
            report.cases_run += 1
            lo = pyramids.max_weight_closed_form(c, d)
            hi = pyramids.max_weight_closed_form(c, d + 1)
            if (strict and not lo < hi) or (not strict and not lo <= hi):
                report.add({"c": c, "d": d, "direction": "colength"}, "increasing", (lo, hi))
    return report


def suite_endpoint(max_frame: int = 32, max_n: int = 8, **_) -> VerificationReport:
    report = VerificationReport("endpoint")
    for c in range(1, max_frame + 1):
        for n in range(1, max_n + 1):
            report.cases_run += 1
            if not pyramids.endpoint_consistency(c, n):
                report.add({"c": c, "n": n}, True, False)
    return report


def suite_gstar_crosscheck(max_colength: int = 12, **_) -> VerificationReport:
    """Both genus evaluations agree on every function (raises on mismatch)."""
    report = VerificationReport("gstar-crosscheck")
    for d in range(0, max_colength + 1):
        for phi in hilbert.enumerate_hilbert_functions(d):
            report.cases_run += 1
            phi.g_star()
    return report


def suite_gstar_monotonic(max_colength: int = 12, **_) -> VerificationReport:
    """Strict growth of the genus functional along the pointwise order, and
    its maximum (d-1)(d-2)/2 at the lexicographically largest function."""
    report = VerificationReport("gstar-monotonic")
    for d in range(1, max_colength + 1):
        functions = hilbert.enumerate_hilbert_functions(d)
        for phi, psi in hilbert.pairwise_comparable(functions):
            report.cases_run += 1
            if not phi.g_star() < psi.g_star():
                report.add({"d": d, "phi": phi.as_text(), "psi": psi.as_text()}, "<", ">=")
        report.cases_run += 1
        top = max(phi.g_star() for phi in functions)
        want = (d - 1) * (d - 2) // 2
        if top != want or hilbert.lex_most(d).g_star() != want:
            report.add({"d": d}, want, top)
    return report


def suite_regularity_bound(max_colength: int = 12, **_) -> VerificationReport:
    report = VerificationReport("regularity-bound")
    for d in range(0, max_colength + 1):
        for phi in hilbert.enumerate_hilbert_functions(d):
            report.cases_run += 1
            if phi.regularity > max(d, 0) and d > 0:
                report.add({"d": d, "phi": phi.as_text()}, f"reg <= {d}", phi.regularity)
    return report


def suite_hf_ideal_agreement(max_colength: int = 8, **_) -> VerificationReport:
    """Enumerated functions match the distinct functions of all staircases."""
    report = VerificationReport("hf-ideal-agreement")
    for d in range(0, max_colength + 1):
        report.cases_run += 1
        via_ideals = {ideal.hilbert_function() for ideal in staircase.enumerate_ideals(d)}
        via_enum = set(hilbert.enumerate_hilbert_functions(d))
        if via_ideals != via_enum:
            report.add(
                {"d": d},
                sorted(phi.as_text() for phi in via_enum),
                sorted(phi.as_text() for phi in via_ideals),
            )
    return report


def suite_lemma_2_4(max_colength: int = 14, **_) -> VerificationReport:
    """Above the deformation bound the split exists and has m >= c + 2."""
    report = VerificationReport("lemma-2-4")
    for d in range(5, max_colength + 1):
        for phi in hilbert.enumerate_hilbert_functions(d):
            split = standard_form.decompose(phi)  # None exactly at or below the bound
            if split is None:
                continue
            report.cases_run += 1
            psi, m = split
            if m < psi.colength + 2:
                report.add({"d": d, "phi": phi.as_text()}, f"m >= {psi.colength + 2}", m)
            if psi.colength + m != d:
                report.add({"d": d, "phi": phi.as_text()}, f"c + m == {d}", psi.colength + m)
    return report


def suite_corollary_2_2(max_colength: int = 18, **_) -> VerificationReport:
    """Kernel below its own bound forces m >= 2c + 1."""
    report = VerificationReport("corollary-2-2")
    for d in range(5, max_colength + 1):
        for phi in hilbert.enumerate_hilbert_functions(d):
            split = standard_form.decompose(phi)
            if split is None:
                continue
            psi, m = split
            c = psi.colength
            if c >= 5 and psi.g_star() <= hilbert.deformation_bound(c):
                report.cases_run += 1
                if m < 2 * c + 1:
                    report.add({"d": d, "phi": phi.as_text()}, f"m >= {2 * c + 1}", m)
    return report


def suite_chain_invariants(max_colength: int = 14, **_) -> VerificationReport:
    """Type-chain inequalities m_0 >= 2^r (c+2) and m_j + j < m_i + i - 1."""
    report = VerificationReport("chain-invariants")
    for d in range(5, max_colength + 1):
        for phi in hilbert.enumerate_hilbert_functions(d):
            report.cases_run += 1
            chain = standard_form.type_of(phi)
            try:
                chain.check_invariants()
            except Exception as exc:  # noqa: BLE001 - surfaced as violation data
                report.add({"d": d, "phi": phi.as_text()}, "chain invariants", str(exc))
    return report


def suite_form_agreement(max_colength: int = 12, **_) -> VerificationReport:
    """Staircase-level standard form matches the function-level split."""
    report = VerificationReport("form-agreement")
    for d in range(5, max_colength + 1):
        for ideal in staircase.enumerate_ideals(d):
            phi = ideal.hilbert_function()
            split = standard_form.decompose(phi)
            form = standard_form.detect_standard_form(ideal)
            report.cases_run += 1
            if split is None:
                if form is not None:
                    report.add({"ideal": str(ideal)}, None, form.ell)
                continue
            if form is None:
                # above the bound every staircase carries an x- or y-form
                report.add({"ideal": str(ideal)}, "x or y form", None)
                continue
            psi, m = split
            if (form.kernel.colength, form.m) != (psi.colength, m):
                report.add(
                    {"ideal": str(ideal)},
                    (psi.colength, m),
                    (form.kernel.colength, form.m),
                )
            if form.kernel.hilbert_function() != psi:
                report.add({"ideal": str(ideal)}, psi.as_text(), form.kernel.hilbert_function().as_text())
    return report


def suite_ineq(name: str | None = None, max_c: int = 50, max_r: int = 6, m_span: int = 25, **_) -> VerificationReport:
    caps = inequalities.ScanCaps(max_c=max_c, max_r=max_r, m_span=m_span)
    names = [name] if name else inequalities.all_inequality_names()
    report = VerificationReport(f"ineq:{name or 'all'}")
    for n in names:
        result = inequalities.inequality_scan(n, caps)
        report.cases_run += result.cases_run
        for params in result.violations:
            report.add({"name": result.name, **params}, "holds", "fails")
    return report


def suite_genus_negativity(max_c: int = 20, m_extent: int = 30, nu_extent: int = 10, **_) -> VerificationReport:
    report = VerificationReport("genus-negativity")
    for c in range(0, max_c + 1):
        for m in range(c + 2, c + m_extent + 1):
            d = c + m
            for nu in range(m, m + nu_extent + 1):
                report.cases_run += 1
                value = alphagrade.genus_nu(d, nu)
                if value >= 0:
                    report.add({"c": c, "m": m, "nu": nu}, "< 0", value)
    return report


def suite_ch14(max_e: int = 10, **_) -> VerificationReport:
    report = VerificationReport("ch14")
    for e in range(4, max_e + 1):
        report.cases_run += 1
        alphagrade.chapter14_degrees(e)  # raises if the closed forms fail
    return report


def suite_ch7_catalog(max_m: int = 10, **_) -> VerificationReport:
    """Limit-cycle degrees of the small-kernel deformation families."""
    report = VerificationReport("ch7-catalog")
    for case in catalog.CASES:
        for m in range(case.min_m, max_m + 1):
            report.cases_run += 1
            space = catalog.build_space(case, m)
            zero = torus.limit_ideal(space, "zero")
            inf = torus.limit_ideal(space, "infinity")
            level = space.degree
            got = (
                alphagrade.alpha_grade_columns(zero.column(i) for i in range(level + 1)),
                alphagrade.alpha_grade_columns(inf.column(i) for i in range(level + 1)),
            )
            want = (case.deg_zero(m), case.deg_infinity(m))
            if got != want:
                report.add({"case": case.name, "m": m}, want, got)
    return report


def suite_bang(max_m: int = 10, **_) -> VerificationReport:
    """Q(m-1) + min > max fails exactly at the kernel-1, m=4 configuration."""
    report = VerificationReport("bang")
    case = catalog.case_by_name("7.3")
    for m in range(4, max_m + 1):
        report.cases_run += 1
        space = catalog.build_space(case, m)
        phi = catalog.case_hilbert_function(case, m)
        got = alphagrade.check_bang(space, phi)
        want = m >= 5
        if got != want:
            report.add({"m": m}, want, got)
    return report


def suite_stabilization(max_colength: int = 8, extra_levels: int = 3, **_) -> VerificationReport:
    """Cycle degrees are constant from colength - 1 on."""
    report = VerificationReport("stabilization")
    for d in range(1, max_colength + 1):
        for ideal in staircase.enumerate_ideals(d):
            report.cases_run += 1
            base = alphagrade.cycle_degree(ideal, max(d - 1, 0))
            values = [alphagrade.cycle_degree(ideal, n) for n in range(d, d + extra_levels + 1)]
            if any(v != base for v in values):
                report.add({"ideal": str(ideal)}, base, values)
    return report


def suite_sandwich(max_m: int = 9, **_) -> VerificationReport:
    """Limit degrees sit between min- and max-alpha-grade on all fixtures."""
    report = VerificationReport("sandwich")

    def spaces():  # one at a time: each is checked before the next is built
        for case in catalog.CASES:
            for m in range(case.min_m, max_m + 1):
                yield f"{case.name}/m={m}", catalog.build_space(case, m)
        yield "double-deformation", catalog.double_deformation_space()

    for label, space in spaces():
        report.cases_run += 1
        lo, hi = alphagrade.minmax_alpha_grade(space)
        for direction in ("zero", "infinity"):
            try:
                limit = torus.limit_ideal(space, direction)
            except DomainError:
                continue  # colliding limit monomials: no cycle on that side
            level = space.degree
            deg = alphagrade.alpha_grade_columns(limit.column(i) for i in range(level + 1))
            if not lo <= deg <= hi:
                report.add({"fixture": label, "direction": direction}, (lo, hi), deg)
    return report


def suite_pyramid_alpha_link(max_colength: int = 8, **_) -> VerificationReport:
    """Pyramid weight of the section space at degree d-1 equals its alpha-grade."""
    report = VerificationReport("pyramid-alpha-link")
    for d in range(1, max_colength + 1):
        for ideal in staircase.enumerate_ideals(d):
            report.cases_run += 1
            cols = [ideal.column(i) for i in range(d)]
            pyr = pyramids.Pyramid.from_columns(cols)
            if pyr.colength != d or pyr.weight() != alphagrade.alpha_grade_columns(cols):
                report.add({"ideal": str(ideal)}, alphagrade.alpha_grade_columns(cols), pyr.weight())
    return report


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


def suite_a_bound(max_r: int = 2, max_c: int = 3, **_) -> VerificationReport:
    """Right-domain spread of marker deformations stays below the closed bounds."""
    report = VerificationReport("a-bound")
    for r in range(1, max_r + 1):
        for c in range(0, max_c + 1):
            ms = _minimal_chain(r, c)
            split = alphagrade.DomainSplit(c + r)
            for target in range(1, r + 1):
                report.cases_run += 1
                space = catalog.marker_deformation_space(ms, _KERNELS[c], target)
                spread = alphagrade.right_domain_spread(space, split)
                bound = alphagrade.a_bound("II1", c=c, r=r, ms=tuple(ms))
                if spread > bound:
                    report.add({"r": r, "c": c, "target": target}, f"<= {bound}", spread)
            if c >= 1:
                report.cases_run += 1
                space = catalog.marker_deformation_space(ms, _KERNELS[c], 0, into_left_domain=True)
                spread = alphagrade.right_domain_spread(space, split)
                bound = alphagrade.a_bound("II2", c=c, r=r, ms=tuple(ms))
                if spread > bound:
                    report.add({"r": r, "c": c, "target": "left"}, f"<= {bound}", spread)
    return report


def suite_borel(max_colength: int = 8, **_) -> VerificationReport:
    """Borel closure never increases the colength; fixed points stay fixed."""
    report = VerificationReport("borel")
    for d in range(1, max_colength + 1):
        for ideal in staircase.enumerate_ideals(d):
            report.cases_run += 1
            closure = ideal.borel_closure()
            if not closure.is_borel_fixed():
                report.add({"ideal": str(ideal)}, "closure fixed", str(closure))
            if closure.colength > ideal.colength:
                report.add({"ideal": str(ideal)}, f"<= {ideal.colength}", closure.colength)
            if ideal.is_borel_fixed() and closure != ideal:
                report.add({"ideal": str(ideal)}, "closure = ideal", str(closure))
    return report


SUITES = {
    "catalog-small": suite_catalog_small,
    "special-chi": suite_special_chi,
    "pyramid-oracle": suite_pyramid_oracle,
    "pyramid-oracle-full": lambda **kw: suite_pyramid_oracle(full=True, **kw),
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
    report = SUITES[suite](**caps)
    report.elapsed = time.perf_counter() - start
    if report.cases_run == 0:
        raise DomainError(f"suite {suite!r} covered no cases with caps {caps}")
    return report
