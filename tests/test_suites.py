"""The suite runner: violation reports, coverage counts and cap checking."""

import contextlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from staircase_lab import (
    alphagrade, catalog, census, cli, hilbert, inequalities, pyramids, staircase, standard_form, suites, torus,
)
from staircase_lab.errors import DomainError, InternalInconsistencyError, MalformedIdealError
from staircase_lab.suites import forms as form_suites

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))["cases"]


def _load_deep_verify():
    spec = importlib.util.spec_from_file_location("deep_verify", ROOT / "scripts" / "deep_verify.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


deep_verify = _load_deep_verify()


def run_verify(*args):
    """Exit code, stdout and stderr of an in-process ``verify`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", *args])
    return code, out.getvalue(), err.getvalue()


def verify_json(*args):
    """Exit code and parsed ``verify --json`` report of an in-process run."""
    code, out, _ = run_verify(*args, "--json")
    return code, json.loads(out)


STAIRCASE_SHELL_SUITES = [name for name, (_, _, shells, _) in suites.SUITES.items() if "ideals" in shells]
FUNCTION_SHELL_SUITES = [name for name, (_, _, shells, _) in suites.SUITES.items() if "functions" in shells]


class TestViolations:
    """Break one formula at a time; the report must name exactly that case."""

    def test_special_chi_reports_the_broken_case(self, monkeypatch):
        bound = hilbert.deformation_bound
        monkeypatch.setattr(hilbert, "deformation_bound", lambda d: bound(d) + (d == 7))
        code, report = verify_json("--suite", "special-chi", "--max-colength", "9")
        assert code == 1
        assert (report["suite"], report["cases_run"], report["ok"]) == ("special-chi", 5, False)
        assert report["violations"] == [{"params": {"d": 7}, "expected": 7, "got": 6}]

    def test_pyramid_oracle_reports_every_failed_check_of_a_case(self, monkeypatch):
        witness_of = pyramids.WeightTable.witness

        def broken(table, d):
            weight, witness = witness_of(table, d)
            return weight + ((table.frame, d) == (3, 2)), witness

        monkeypatch.setattr(pyramids.WeightTable, "witness", broken)
        code, report = verify_json("--suite", "pyramid-oracle", "--max-frame", "4")
        assert code == 1
        assert (report["suite"], report["cases_run"]) == ("pyramid-oracle", 19)
        columns = [[0], [1], [1, 2]]
        assert report["violations"] == [
            {"params": {"c": 3, "d": 2}, "expected": 3, "got": 4},
            {"params": {"c": 3, "d": 2, "check": "witness"}, "expected": [2, 4], "got": [2, 3]},
            {"params": {"c": 3, "d": 2, "guard": "exhaustive"}, "expected": [3, columns], "got": [4, columns]},
        ]

    # the witness at (12, 5) has a = (0 x 9, 1, 2, 2) and weight 47; [a, i] weighs a * (i + 1 - a)
    @pytest.mark.parametrize("avec,got,runs", [
        ((0,) * 9 + (1, 9, 2), [12, 47], None),  # column 10 as [9, 10]: the same weight, 7 more entries missed
        ((0,) * 11 + (5,), [5, 35], None),  # colength 5, a lighter pyramid
        ((0,) * 7 + (1,) * 5, [5, 45], [5]),  # colength 5, lighter, and one step of breadth 5
    ], ids=["longer", "lighter", "broad"])
    def test_pyramid_oracle_checks_the_dp_witness_beyond_the_search_budget(self, monkeypatch, avec, got, runs):
        witness_of = pyramids.WeightTable.witness

        def broken(table, d):
            weight, witness = witness_of(table, d)
            return weight, pyramids.Pyramid.from_initial_degrees(avec) if (table.frame, d) == (12, 5) else witness

        monkeypatch.setattr(pyramids.WeightTable, "witness", broken)
        report = suites.run_suite("pyramid-oracle", max_frame=12)
        breadth = [{"params": {"c": 12, "d": 5, "witness": list(avec)}, "expected": "steps < 4", "got": runs}]
        assert report.violations == [
            {"params": {"c": 12, "d": 5, "check": "witness"}, "expected": [5, 47], "got": got}, *breadth * bool(runs)
        ]

    def test_pyramid_oracle_full_checks_the_colength_of_the_walk_witness(self, monkeypatch):
        walk = pyramids.brute_force_max_weight

        def broken(c, d, full_subsets=False):  # at (3, 2), the witness of (3, 3), which weighs as much
            return walk(c, d + ((c, d) == (3, 2)), full_subsets)

        monkeypatch.setattr(pyramids, "brute_force_max_weight", broken)
        report = suites.run_suite("pyramid-oracle-full", max_frame=4)
        assert report.violations == [
            {"params": {"c": 3, "d": 2, "guard": "exhaustive"}, "expected": [3, 2, 3], "got": [3, 3, 3]}
        ]

    def test_ineq_tags_a_failed_point_with_its_name(self, monkeypatch):
        scan = inequalities.SCANS["5.2"]

        def broken(caps):  # one row per c from 1; plant a failure in the row of c = 3
            for c, (points, failed) in enumerate(scan(caps), 1):
                yield points, failed + [{"c": 3, "m": 7}] * (c == 3)

        monkeypatch.setitem(inequalities.SCANS, "5.2", broken)
        code, report = verify_json("--suite", "ineq", "--name", "5.2", "--max-c", "5")
        assert code == 1
        assert (report["suite"], report["cases_run"]) == ("ineq:5.2", 130)
        assert report["violations"] == [
            {"params": {"name": "5.2", "c": 3, "m": 7}, "expected": "holds", "got": "fails"}
        ]


    def test_hf_ideal_agreement_checks_each_staircase_function_is_admissible(self, monkeypatch):
        # the staircase side is built unchecked, so the suite must catch a bad sequence itself
        plain = staircase.GradedMonomialIdeal.hilbert_function

        def broken(ideal):
            return hilbert.HilbertFunction._trusted((0, 1, 1, 4)) if ideal.heights == (2, 1) else plain(ideal)

        monkeypatch.setattr(staircase.GradedMonomialIdeal, "hilbert_function", broken)
        code, report = verify_json("--suite", "hf-ideal-agreement", "--max-colength", "4")
        assert code == 1
        assert (report["suite"], report["cases_run"]) == ("hf-ideal-agreement", 5)
        assert report["violations"][0] == {
            "params": {"d": 3, "ideal": "(x^2, x*y, y^2)"}, "expected": "admissible", "got": "0,1,1,4"
        }
        assert [v["params"] for v in report["violations"]] == [
            {"d": 3, "ideal": "(x^2, x*y, y^2)"}, {"d": 3}, {"d": 3, "borel": True}
        ]

    def test_hf_ideal_agreement_checks_the_lex_segment_bijection(self, monkeypatch):
        # (x, y^4) takes the function of (x^2, x*y, y^3): (y, x^4) still has
        # the lost function, so the set of all images is unchanged, but two
        # lex-segment ideals now share a function
        plain = staircase.GradedMonomialIdeal.hilbert_function
        shared = staircase.GradedMonomialIdeal((3, 1))

        def broken(ideal):
            return plain(shared) if ideal.heights == (4,) else plain(ideal)

        monkeypatch.setattr(staircase.GradedMonomialIdeal, "hilbert_function", broken)
        code, report = verify_json("--suite", "hf-ideal-agreement", "--max-colength", "4")
        assert code == 1
        assert [v["params"] for v in report["violations"]] == [{"d": 4, "borel": True}]

    def test_borel_checks_fixed_points_are_the_strict_partitions(self, monkeypatch):
        fixed = staircase.GradedMonomialIdeal.is_borel_fixed
        monkeypatch.setattr(
            staircase.GradedMonomialIdeal, "is_borel_fixed", lambda ideal: ideal.heights == (1, 1) or fixed(ideal)
        )
        code, report = verify_json("--suite", "borel", "--max-colength", "3")
        assert code == 1
        assert report["violations"] == [
            {"params": {"ideal": "(y, x^2)"}, "expected": "fixed iff strictly decreasing heights", "got": True},
            {"params": {"ideal": "(y, x^2)"}, "expected": "closure = ideal", "got": "(x, y)"},
        ]

    # (y, x^2) given a closure that is itself, which is not Borel-fixed, or (x^2, x*y, y^2), of colength 3
    @pytest.mark.parametrize("heights,expected,got", [((1, 1), "closure fixed", "(y, x^2)"), ((2, 1), "<= 2", 3)],
                             ids=["not-fixed", "larger"])
    def test_borel_checks_the_closure(self, monkeypatch, heights, expected, got):
        closure = staircase.GradedMonomialIdeal.borel_closure
        monkeypatch.setattr(staircase.GradedMonomialIdeal, "borel_closure", lambda ideal: (
            staircase.GradedMonomialIdeal(heights) if ideal.heights == (1, 1) else closure(ideal)))
        code, report = verify_json("--suite", "borel", "--max-colength", "3")
        assert code == 1
        assert report["violations"] == [{"params": {"ideal": "(y, x^2)"}, "expected": expected, "got": got}]

    def test_form_agreement_reports_a_form_where_the_function_does_not_split(self, monkeypatch):
        # every staircase of the function is reported, in enumeration order
        decompose = standard_form.decompose
        monkeypatch.setattr(standard_form, "decompose", lambda phi: None if phi.as_text() == "0,0,1,3,4,6" else decompose(phi))
        report = suites.run_suite("form-agreement", max_colength=7)
        assert report.cases_run == 33
        assert report.violations == [
            {"params": {"ideal": ideal}, "expected": None, "got": ell}
            for ideal, ell in [("(x^2, x*y^2, y^5)", "x"), ("(x*y, x^3, y^5)", "x"),
                               ("(x*y, y^3, x^5)", "y"), ("(y^2, x^2*y, x^5)", "y")]
        ]

    def test_form_agreement_reports_a_missing_form_where_the_function_splits(self, monkeypatch):
        detect = standard_form.detect_standard_form
        monkeypatch.setattr(standard_form, "detect_standard_form", lambda ideal, *rest: (
            None if ideal.heights in ((5, 1, 1), (2, 2, 1, 1, 1)) else detect(ideal, *rest)))
        report = suites.run_suite("form-agreement", max_colength=7)
        assert report.cases_run == 33
        assert report.violations == [
            {"params": {"ideal": "(x*y, x^3, y^5)"}, "expected": "x or y form", "got": None},
            {"params": {"ideal": "(y^2, x^2*y, x^5)"}, "expected": "x or y form", "got": None},
        ]

    # the split of 0,0,1,2,4,5,7 is (0,1,2,4; m = 6): given the other kernel of colength 3, only the functions
    # differ; given m = 7, only the pairs (kernel colength, m) do
    @pytest.mark.parametrize("kernel,m,expected,got", [
        ("0,0,3", 6, "0,0,3", "0,1,2,4"), ("0,1,2,4", 7, (3, 7), (3, 6)),
    ], ids=["kernel", "m"])
    def test_form_agreement_reports_a_split_unlike_the_form(self, monkeypatch, kernel, m, expected, got):
        decompose = standard_form.decompose
        split = hilbert.HilbertFunction.parse(kernel), m
        monkeypatch.setattr(standard_form, "decompose", lambda phi: split if phi.as_text() == "0,0,1,2,4,5,7" else
                            decompose(phi))
        report = suites.run_suite("form-agreement", max_colength=9)
        assert report.cases_run == 85
        assert report.violations == [
            {"params": {"ideal": ideal}, "expected": expected, "got": got}
            for ideal in ["(x^2, x*y^3, y^6)", "(x*y, x^4, y^6)", "(x*y, y^4, x^6)", "(y^2, x^3*y, x^6)"]
        ]

    def test_form_agreement_reads_g_star_against_the_bound_on_every_staircase(self, monkeypatch):
        # the gate mutant `<` for `<=` lets (x*y, x^3, y^3), whose g* is the bound, through: both
        # forms divide it.  A form detected once per function would pass (x^2, x*y^2, y^3) first
        source = inspect.getsource(standard_form.detect_standard_form)
        gate = "phi.g_star() <= deformation_bound(d)"
        assert source.count(gate) == 1
        namespace = dict(vars(standard_form))
        exec("from __future__ import annotations\n" + source.replace(gate, gate.replace("<=", "<")), namespace)
        monkeypatch.setattr(standard_form, "detect_standard_form", namespace["detect_standard_form"])
        with pytest.raises(InternalInconsistencyError, match=re.escape("both forms detected on (x*y, x^3, y^3)")):
            suites.run_suite("form-agreement")

    def test_chain_invariants_reports_a_broken_chain_and_runs_on(self, monkeypatch):
        cases = suites.run_suite("chain-invariants", max_colength=8).cases_run
        check = standard_form.TypeChain.check_invariants

        def broken(chain):
            if (chain.ms, chain.kernel_c) == ((5,), 2):  # the chain of 0,0,1,3,4,6 alone
                raise InternalInconsistencyError("m_0=5 < 2^r(c+2)=6")
            check(chain)

        monkeypatch.setattr(standard_form.TypeChain, "check_invariants", broken)
        code, report = verify_json("--suite", "chain-invariants", "--max-colength", "8")
        assert code == 1
        assert (report["suite"], report["cases_run"]) == ("chain-invariants", cases)
        assert report["violations"] == [
            {"params": {"d": 7, "phi": "0,0,1,3,4,6"}, "expected": "chain invariants", "got": "m_0=5 < 2^r(c+2)=6"}
        ]

    def test_lemma_2_4_reports_a_broken_split_and_runs_on(self, monkeypatch):
        cases = suites.run_suite("lemma-2-4", max_colength=8).cases_run
        decompose = standard_form.decompose

        def broken(phi):
            if phi.as_text() == "0,0,1,3,4,6":
                raise InternalInconsistencyError("m=5 < c+2=7 on (0, 0, 1, 3, 4, 6)")
            return decompose(phi)

        monkeypatch.setattr(standard_form, "decompose", broken)
        code, report = verify_json("--suite", "lemma-2-4", "--max-colength", "8")
        assert code == 1
        assert (report["suite"], report["cases_run"]) == ("lemma-2-4", cases)
        assert report["violations"] == [{
            "params": {"d": 7, "phi": "0,0,1,3,4,6"},
            "expected": "c + m == d and m >= c + 2",
            "got": "m=5 < c+2=7 on (0, 0, 1, 3, 4, 6)",
        }]

    @pytest.mark.parametrize("suite", ["lemma-2-4", "corollary-2-2"])
    def test_a_pruned_walk_that_drops_a_function_is_reported_per_colength(self, monkeypatch, suite):
        enumerate_functions = hilbert.enumerate_hilbert_functions

        def dropping(d, above=None):
            functions = enumerate_functions(d, above)
            return functions[:-1] if above is not None else functions

        monkeypatch.setattr(hilbert, "enumerate_hilbert_functions", dropping)
        report = suites.run_suite(suite, max_colength=12)
        assert [v["params"] for v in report.violations] == [
            {"d": d, "check": "g* prune"} for d in range(5, form_suites.PRUNE_CHECK_CAP + 1)
        ]

    def test_a_passing_prune_check_is_one_case_per_shell(self):
        checks = form_suites.PRUNE_CHECK_CAP - 4  # shells 5..PRUNE_CHECK_CAP
        # corollary-2-2's first split with a kernel below its own bound is at colength 16
        assert suites.run_suite("corollary-2-2", max_colength=15).cases_run == checks
        above = sum(len(hilbert.enumerate_hilbert_functions(d, hilbert.deformation_bound(d))) for d in range(5, 16))
        assert suites.run_suite("lemma-2-4", max_colength=15).cases_run == checks + above

    @pytest.mark.parametrize("shell,suite", [
        *(("ideals", suite) for suite in STAIRCASE_SHELL_SUITES),
        *(("functions", suite) for suite in FUNCTION_SHELL_SUITES),
    ])
    def test_a_shell_short_of_its_census_is_one_violation_per_colength(self, monkeypatch, shell, suite):
        # a staircase shell loses (1, ..., 1), whose function (d) also has; a function shell its lex-first function
        kept = {"ideals": slice(-1), "functions": slice(1, None)}[shell]
        module_name, enumerator, count_name = suites.SHELLS[shell]
        module, count = importlib.import_module(f"staircase_lab.{module_name}"), getattr(census, count_name)
        whole = getattr(module, enumerator)
        monkeypatch.setattr(module, enumerator, lambda d, *rest: whole(d, *rest)[kept] if d > 6 else whole(d, *rest))
        code, report = verify_json("--suite", suite)
        _, _, shells, caps = suites.SUITES[suite]
        want = []
        for d in range(7, caps["max_colength"][0] + 1):
            want.append({"params": {"d": d, "census": count_name}, "expected": count(d), "got": count(d) - 1})
            if shell == "functions" and "ideals" in shells:
                # the staircases, and among them the lex segments, still have the lost function
                texts, kept_texts = (sorted(phi.as_text() for phi in functions) for functions in (whole(d),
                                                                                                   whole(d)[kept]))
                want += [{"params": params, "expected": kept_texts, "got": texts}
                         for params in ({"d": d}, {"d": d, "borel": True})]
        assert code == 1
        assert report["violations"] == want

    @pytest.mark.parametrize("suite", [name for name, (_, _, shells, _) in suites.SUITES.items() if shells])
    def test_the_census_adds_a_case_only_where_it_fails(self, monkeypatch, suite):
        cases = suites.run_suite(suite).cases_run
        monkeypatch.setattr(census, "partitions", lambda d: -1)
        monkeypatch.setattr(census, "distinct_partitions", lambda d: -1)
        report = suites.run_suite(suite)
        assert report.cases_run - cases == len(report.violations) > 0

    @pytest.mark.parametrize("suite,cap", [("lemma-2-4", 12), ("corollary-2-2", 20)])
    def test_a_walked_function_that_does_not_split_is_a_violation(self, monkeypatch, suite, cap):
        cases = suites.run_suite(suite, max_colength=cap).cases_run
        decompose = standard_form.decompose
        whole = "0,0,1,3,4,6"
        monkeypatch.setattr(standard_form, "decompose", lambda phi: None if phi.as_text() == whole else decompose(phi))
        report = suites.run_suite(suite, max_colength=cap)
        assert report.violations == [{"params": {"d": 7, "phi": whole}, "expected": "g* > 6", "got": 7}]
        # lemma-2-4 counts the function either way; corollary-2-2 counted only splits with a small kernel
        assert report.cases_run == cases + (suite == "corollary-2-2")

    def test_regularity_bound_reports_from_a_batch_and_keeps_its_count(self, monkeypatch):
        cases = suites.run_suite("regularity-bound", max_colength=6).cases_run
        regularity = hilbert.HilbertFunction.regularity
        broken = property(lambda phi: regularity.fget(phi) + 9 * (phi.as_text() in ("0,0,3", "0,1,2,4")))
        monkeypatch.setattr(hilbert.HilbertFunction, "regularity", broken)
        report = suites.run_suite("regularity-bound", max_colength=6)
        assert report.cases_run == cases
        assert report.violations == [
            {"params": {"d": 3, "phi": "0,0,3"}, "expected": "reg <= 3", "got": 11},
            {"params": {"d": 3, "phi": "0,1,2,4"}, "expected": "reg <= 3", "got": 12},
        ]

    def test_gstar_monotonic_reports_from_a_batch_and_keeps_its_count(self, monkeypatch):
        cases = suites.run_suite("gstar-monotonic", max_colength=6).cases_run
        top = hilbert.lex_most(5)
        below = [phi.as_text() for phi, psi in hilbert.pairwise_comparable(hilbert.enumerate_hilbert_functions(5))
                 if psi == top]
        g_star = hilbert.HilbertFunction.g_star
        monkeypatch.setattr(hilbert.HilbertFunction, "g_star", lambda phi: -1 if phi == top else g_star(phi))
        report = suites.run_suite("gstar-monotonic", max_colength=6)
        assert report.cases_run == cases
        assert [v["params"] for v in report.violations] == [
            *({"d": 5, "phi": text, "psi": top.as_text()} for text in below), {"d": 5}
        ]

    def test_gstar_monotonic_counts_each_shells_pairs_and_its_maximum(self):
        counts = [0] + [suites.run_suite("gstar-monotonic", max_colength=d).cases_run for d in range(1, 17)]
        for d in range(1, 17):
            pairs = hilbert.pairwise_comparable(hilbert.enumerate_hilbert_functions(d))
            assert counts[d] - counts[d - 1] == len(pairs) + 1, d

    def test_genus_negativity_reports_from_a_batch_and_keeps_its_count(self, monkeypatch):
        caps = {"max_c": 3, "m_extent": 4, "nu_extent": 2}
        cases = suites.run_suite("genus-negativity", **caps).cases_run
        genus_nu = hilbert.genus_nu
        monkeypatch.setattr(hilbert, "genus_nu", lambda d, nu: 5 * d + nu if (d, nu) in ((4, 3), (4, 4), (6, 5)) else
                            genus_nu(d, nu))
        report = suites.run_suite("genus-negativity", **caps)
        assert report.cases_run == cases == 4 * 3 * 3
        assert report.violations == [
            {"params": {"c": 0, "m": 4, "nu": 4}, "expected": "< 0", "got": 24},
            {"params": {"c": 1, "m": 3, "nu": 3}, "expected": "< 0", "got": 23},
            {"params": {"c": 1, "m": 3, "nu": 4}, "expected": "< 0", "got": 24},
            {"params": {"c": 1, "m": 5, "nu": 5}, "expected": "< 0", "got": 35},
            {"params": {"c": 2, "m": 4, "nu": 5}, "expected": "< 0", "got": 35},
        ]

    def test_pyramid_alpha_link_checks_the_closed_form_grade(self, monkeypatch):
        grade = staircase.GradedMonomialIdeal.alpha_grade.func
        broken = property(lambda ideal: grade(ideal) + (ideal.heights == (2, 1)))
        monkeypatch.setattr(staircase.GradedMonomialIdeal, "alpha_grade", broken)
        code, report = verify_json("--suite", "pyramid-alpha-link", "--max-colength", "4")
        assert code == 1
        assert (report["cases_run"], report["ok"]) == (11, False)
        assert report["violations"] == [{"params": {"ideal": "(x^2, x*y, y^2)"}, "expected": 1, "got": 0}]

    def test_sandwich_reports_a_limit_degree_outside_the_grades(self, monkeypatch):
        # at --max-m 4 the infinity limit of 7.3/m=4 has the max grade 10; double-deformation's collides
        minmax = alphagrade.minmax_alpha_grade
        monkeypatch.setattr(alphagrade, "minmax_alpha_grade", lambda space: (minmax(space)[0], minmax(space)[1] - 1))
        report = suites.run_suite("sandwich", max_m=4)
        assert (report.cases_run, report.violations) == (
            2, [{"params": {"fixture": "7.3/m=4", "direction": "infinity"}, "expected": (5, 9), "got": 10}]
        )

    def test_sandwich_skips_only_colliding_limits(self, monkeypatch):
        limit = torus.limit_ideal

        def broken(space, direction):
            if direction == "zero":
                raise MalformedIdealError("columns are not a staircase")
            return limit(space, direction)

        monkeypatch.setattr(torus, "limit_ideal", broken)
        code, out, err = run_verify("--suite", "sandwich", "--max-m", "6")
        assert (code, out, err) == (2, "", "error: columns are not a staircase\n")

    def test_a_bound_checks_each_level_against_II1_and_the_left_corner_against_II2(self, monkeypatch):
        bound = inequalities.a_bound
        # at r=2, c=1 the level spreads are 9 and 13, so II1 lowered to 10 fails level 2 alone; at r=1, c=1
        # the left corner's spread is 7 against II2 lowered to 6.  A loop that took either bound for the
        # other's targets would miss both: there II1 is 30 and II2 is 40.
        lowered = {("II1", 2, 1): 10, ("II2", 1, 1): 6}
        monkeypatch.setattr(
            inequalities, "a_bound", lambda case, *, c, r, ms=(): lowered.get((case, r, c)) or bound(case, c=c, r=r, ms=ms)
        )
        code, report = verify_json("--suite", "a-bound", "--max-r", "2", "--max-c", "1")
        assert code == 1
        assert (report["suite"], report["cases_run"], report["ok"]) == ("a-bound", 8, False)
        assert report["violations"] == [
            {"params": {"r": 1, "c": 1, "target": "left"}, "expected": "<= 6", "got": 7},
            {"params": {"r": 2, "c": 1, "target": 2}, "expected": "<= 10", "got": 13},
        ]


class TestRegistry:
    def test_the_names_are_in_report_order(self):
        assert list(suites.SUITES) == [
            "catalog-small", "special-chi", "pyramid-oracle", "pyramid-oracle-full", "prop-4-1",
            "pyramid-monotonic", "endpoint", "gstar-crosscheck", "gstar-monotonic", "regularity-bound",
            "hf-ideal-agreement", "lemma-2-4", "corollary-2-2", "chain-invariants", "form-agreement", "ineq",
            "genus-negativity", "ch14", "ch7-catalog", "bang", "stabilization", "sandwich", "pyramid-alpha-link",
            "a-bound", "borel",
        ]

    @pytest.mark.parametrize("name", list(suites.SUITES))
    def test_every_name_resolves_to_a_generator_function_of_its_group(self, name):
        group_name, low, shells, declared = suites.SUITES[name]
        group = importlib.import_module(f"staircase_lab.suites.{group_name}")
        function = suites.suite_function(name)
        assert inspect.isgeneratorfunction(function)
        assert function.__module__ == group.__name__
        assert getattr(group, function.__name__) is function
        # the generator takes exactly the declared caps, in order, with no default of its own; a swept
        # suite takes its colength in place of the first cap, then the whole shells it reads of it
        parameters = inspect.signature(function).parameters
        assert set(shells) <= suites.SHELLS.keys()
        if low is None:
            assert not shells and list(parameters) == list(declared)
        else:
            assert declared and list(parameters)[1:] == [*shells, *list(declared)[1:]]
            assert list(parameters)[0] not in declared
        assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())

    @pytest.mark.parametrize("name", [name for name, (_, low, _, _) in suites.SUITES.items() if low is not None])
    def test_the_lower_end_is_the_first_shell_with_a_case(self, name):
        _, low, _, declared = suites.SUITES[name]
        swept = next(iter(declared))
        assert suites.run_suite(name, **{swept: low}).cases_run >= 1
        # one below the first case the sweep covers nothing, or the cap is negative
        with pytest.raises(DomainError, match="covered no cases" if low else "takes no negative cap"):
            suites.run_suite(name, **{swept: low - 1})

    def test_every_cap_flag_is_declared_by_a_suite(self):
        declared = {cap for *_, caps in suites.SUITES.values() for cap in caps}
        assert set(cli._SUITE_CAPS) <= declared

    @pytest.mark.parametrize("name,takes", [
        ("catalog-small", []),
        ("borel", ["max_colength"]),
        ("endpoint", ["max_frame", "max_n"]),
        ("ineq", ["m_span", "max_c", "max_r", "name"]),
        ("a-bound", ["max_c", "max_r"]),
    ])
    def test_a_cap_the_suite_does_not_take_lists_the_caps_it_takes(self, name, takes):
        with pytest.raises(DomainError) as info:
            suites.run_suite(name, max_n=3, no_such_cap=1)
        caps = {"max_n": 3, "no_such_cap": 1}
        assert str(info.value) == f"suite {name!r} does not take the caps {caps}; it takes {takes}"


class TestBuilds:
    """The alpha-grade suites build each staircase once, and form-agreement splits each function once."""

    @pytest.mark.parametrize("suite,caps,builds", [("bang", {"max_m": 8}, 5), ("a-bound", {"max_r": 3, "max_c": 3}, 12)])
    def test_one_staircase_per_ideal_of_the_suite(self, monkeypatch, suite, caps, builds):
        built = []
        from_generators = catalog.from_generators
        monkeypatch.setattr(catalog, "from_generators", lambda gens: built.append(gens) or from_generators(gens))
        report = suites.run_suite(suite, **caps)
        assert report.ok
        assert len(built) == len(set(map(tuple, built))) == builds

    def test_form_agreement_splits_each_function_once_in_every_call(self, monkeypatch):
        # nothing is kept from one call to the next: a second run splits as many functions as the first
        split = []
        decompose = standard_form.decompose
        monkeypatch.setattr(standard_form, "decompose", lambda phi: split.append(phi) or decompose(phi))
        counts = []
        for _ in range(2):
            split.clear()
            assert suites.run_suite("form-agreement", max_colength=12).ok
            counts.append(len(split))
        assert counts[0] == counts[1] == len(set(split))


class TestCaps:
    @pytest.mark.parametrize(
        "args",
        [
            ("--suite", "borel", "--max-frame", "9"),
            ("--suite", "borel", "--name", "5.2"),
            ("pyramid-oracle-full", {"max_frame": 4, "full": False}),  # caps no flag spells: run_suite itself
            ("pyramid-oracle", {"full": True}),
        ],
    )
    def test_a_cap_the_suite_does_not_take_is_a_usage_error(self, args):
        if isinstance(args[-1], dict):
            suite, caps = args
            with pytest.raises(DomainError, match=f"^suite '{suite}' does not take the caps"):
                suites.run_suite(suite, **caps)
            return
        code, out, err = run_verify(*args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: suite 'borel' does not take")
        assert "Traceback" not in err

    def test_a_cap_the_suite_does_not_take_raises_before_any_group_loads(self):
        code = ("import sys\nfrom staircase_lab import suites\nfrom staircase_lab.errors import DomainError\n"
                "for caps in [{'max_frame': 9}, {'max_colength': -1}]:\n    try:\n"
                "        suites.run_suite('borel', **caps)\n    except DomainError as exc:\n        print(exc)\n"
                "print(sorted(m for m in sys.modules if m.startswith('staircase_lab.')))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
                                check=True)
        assert result.stdout.splitlines() == [
            "suite 'borel' does not take the caps {'max_frame': 9}; it takes ['max_colength']",
            "suite 'borel' takes no negative cap, got {'max_colength': -1}",
            "['staircase_lab.errors', 'staircase_lab.suites']",
        ]

    def test_a_negative_cap_the_suite_does_not_sweep_is_a_usage_error(self):
        # no level past d - 1 would leave every case compared against nothing
        with pytest.raises(DomainError, match="^suite 'stabilization' takes no negative cap"):
            suites.run_suite("stabilization", max_colength=5, extra_levels=-1)

    def test_no_case_runs_before_the_caps_are_checked(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(hilbert, "enumerate_hilbert_functions", never)
        with pytest.raises(DomainError):
            suites.run_suite("gstar-crosscheck", max_colength=5, max_frame=3)

    def test_named_inequality_output_is_pinned(self):
        code, out, _ = run_verify("--suite", "ineq", "--name", "5.2", "--max-c", "50", "--json")
        assert code == 0
        out = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', out)
        assert out == '{"cases_run": 1300, "elapsed": 0, "ok": true, "suite": "ineq:5.2", "violations": []}\n'


class TestCoverage:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_recorded_case_counts(self, key):
        suite, caps = key.split(" ", 1)
        report = suites.run_suite(suite, **json.loads(caps))
        # golden.json predates the pruned-walk check's passing cases, one per shell 5..PRUNE_CHECK_CAP; the
        # benchmark reads its counts as lower bounds, and it is re-recorded only with a benchmark change
        added = form_suites.PRUNE_CHECK_CAP - 4 if suite in ("lemma-2-4", "corollary-2-2") else 0
        assert (report.cases_run, report.violations) == (GOLDEN[key] + added, [])

    @pytest.mark.parametrize(
        "suite,last", [("pyramid-oracle", 6), ("pyramid-oracle-full", pyramids.FULL_SUBSET_FRAME_CAP)]
    )
    def test_pyramid_oracle_builds_one_table_per_frame(self, monkeypatch, suite, last):
        built = []
        build = pyramids.WeightTable.build
        monkeypatch.setattr(pyramids.WeightTable, "build", lambda c: built.append(c) or build(c))
        assert suites.run_suite(suite, max_frame=6).ok
        assert built == [*range(1, last + 1)]

    def test_pyramid_oracle_full_builds_no_subset_pool_past_the_search_budget(self, monkeypatch):
        # the full-subset pools double per column; past the budget the per-column check stands in
        built = []
        pool = pyramids._column_pool
        monkeypatch.setattr(pyramids, "_column_pool", lambda i, deficit, full_subsets: built.append((i, full_subsets))
                            or pool(i, deficit, full_subsets))
        assert suites.run_suite("pyramid-oracle-full", max_frame=30).ok
        assert {i for i, full in built if full} == set(range(pyramids.FULL_SUBSET_FRAME_CAP))

    @pytest.mark.parametrize("caps", [{}, {"max_c": 6, "max_r": 2, "m_span": 3}])
    def test_ineq_counts_the_cases_of_every_scan(self, caps):
        defaults = {cap: default for cap, (default, _) in suites.SUITES["ineq"][3].items() if cap != "name"}
        scan_caps = inequalities.ScanCaps(**{**defaults, **caps})
        want = sum(inequalities.inequality_scan(n, scan_caps).cases_run for n in inequalities.all_inequality_names())
        assert suites.run_suite("ineq", **caps).cases_run == want

    def test_a_batch_counts_as_its_passing_cases(self, monkeypatch):
        def batches():
            yield 3
            yield ()
            yield (({"x": 1}, 0, 1),)
            yield 1

        monkeypatch.setitem(suites.SUITES, "batches", ("forms", None, (), {}))
        monkeypatch.setattr(form_suites, "suite_batches", batches, raising=False)
        report = suites.run_suite("batches")
        assert (report.cases_run, report.violations) == (6, [{"params": {"x": 1}, "expected": 0, "got": 1}])

    @pytest.mark.parametrize("name", sorted(name for name, (*_, caps) in suites.SUITES.items() if caps))
    def test_deep_caps_bind(self, name):
        _, low, shells, declared = suites.SUITES[name]
        signature = inspect.signature(suites.suite_function(name))
        # a swept suite takes its colength in the first cap's place; the whole shells it reads are left unbound
        names = list(declared) if low is None else [next(iter(signature.parameters)), *list(declared)[1:]]
        bound = signature.bind_partial(**dict(zip(names, (deep for _, deep in declared.values()))))
        assert [p for p in signature.parameters if p not in bound.arguments] == list(shells)
        # the deep profile is never shallower than the default one
        assert all(deep is None if default is None else deep >= default for default, deep in declared.values())

    def test_deep_verify_prints_the_caps_of_each_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "SUITES", {
            "catalog-small": ("hf", None, (), {}),
            "bang": ("families", 4, (), {"max_m": (10, 6)}),
            "ineq": ("scans", None, (), {"name": (None, None), "max_c": (50, 2), "max_r": (6, 1), "m_span": (25, 1)}),
        })
        assert deep_verify.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["catalog-small", "bang", "ineq", "all"]
        assert lines[0].endswith(" ok caps={}")
        assert re.fullmatch(r"bang +cases= +3 elapsed= +[0-9.]+s ok caps=\{\"max_m\": 6\}", lines[1])
        assert lines[2].endswith(' ok caps={"max_c": 2, "max_r": 1, "m_span": 1}')  # an unset cap is not passed
