"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer equality / zero-violation); the time caps are
part of the criteria.  Run with ``pytest tests/test_acceptance.py -s`` to see
the one-line verdicts.
"""

import time
from math import comb

import pytest

from staircase_lab import alphagrade as A
from staircase_lab import hilbert as H
from staircase_lab import suites
from staircase_lab import torus as T
from staircase_lab.catalog import build_space, case_by_name, zero_limit_ideal


def _report(number, name, limit, elapsed, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {number:2d}] {name}: {verdict} ({elapsed:.2f}s / limit {limit:.0f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_criterion_01_catalog_exactness():
    def check():
        expected = {1: [0], 2: [0], 3: [0, 1], 4: [1, 3]}
        for d, gs in expected.items():
            functions = H.enumerate_hilbert_functions(d)
            if len(functions) != len(gs) or [f.g_star() for f in functions] != gs:
                return f"colength {d}: {[f.g_star() for f in functions]}"
        return None

    detail, elapsed = _timed(check)
    _report(1, "catalog exactness d=1..4", 1, elapsed, detail is None, detail or "")


def test_criterion_02_special_ideal_identity():
    def check():
        for d in range(5, 51):
            if H.special_chi(d).g_star() != H.deformation_bound(d):
                return f"d={d}"
        return None

    detail, elapsed = _timed(check)
    _report(2, "special-ideal identity 5<=d<=50", 1, elapsed, detail is None, detail or "")


def test_criterion_03_pyramid_oracle():
    def check():
        top = suites.run_suite("pyramid-oracle", max_frame=9)
        full = suites.run_suite("pyramid-oracle-full", max_frame=5)
        if not top.ok:
            return f"top-segment: {top.violations[:2]}"
        if not full.ok:
            return f"full-subset: {full.violations[:2]}"
        return None

    detail, elapsed = _timed(check)
    _report(3, "pyramid oracle equality (top c<=9, full c<=5)", 60, elapsed, detail is None, detail or "")


def test_criterion_04_weight_bound():
    def check():
        report = suites.run_suite("prop-4-1", max_frame_closed=64, max_frame_oracle=9)
        return None if report.ok else str(report.violations[:2])

    detail, elapsed = _timed(check)
    _report(4, "max weight at d=c stays below (c-1)^2", 5, elapsed, detail is None, detail or "")


def test_criterion_05_decomposition_ladder():
    def check():
        for suite, caps in (
            ("lemma-2-4", {"max_colength": 14}),
            ("corollary-2-2", {"max_colength": 18}),
            ("chain-invariants", {"max_colength": 14}),
        ):
            report = suites.run_suite(suite, **caps)
            if not report.ok:
                return f"{suite}: {report.violations[:2]}"
        return None

    detail, elapsed = _timed(check)
    _report(5, "decomposition ladder (m>=c+2, 2c+1, chain bounds)", 120, elapsed, detail is None, detail or "")


def test_criterion_06_genus_crosscheck():
    def check():
        report = suites.run_suite("gstar-crosscheck", max_colength=12)
        return None if report.ok else str(report.violations[:2])

    detail, elapsed = _timed(check)
    _report(6, "genus functional formula agreement d<=12", 10, elapsed, detail is None, detail or "")


def test_criterion_07_degree_catalog():
    def check():
        for e in range(4, 11):
            degs = A.chapter14_degrees(e)
            b = comb(e - 2, 2)
            if degs != (b, b + e - 1, 2 * b + e - 1, 2 * b + e - 2, 1):
                return f"e={e}: {degs}"
        if A.chapter14_degrees(5) != (3, 7, 10, 9, 1):
            return "e=5 row"
        if A.chapter14_degrees(4) != (1, 4, 5, 4, 1):
            return "e=4 row"
        case = case_by_name("7.3")
        for m in range(4, 11):
            space = build_space(case, m)
            level = space.degree
            zero = T.limit_ideal(space, "zero")
            infinity = T.limit_ideal(space, "infinity")
            got = (
                A.alpha_grade_columns(zero.column(i) for i in range(level + 1)),
                A.alpha_grade_columns(infinity.column(i) for i in range(level + 1)),
            )
            if got != (comb(m, 2) - 1, comb(m + 1, 2)):
                return f"m={m}: {got}"
        return None

    detail, elapsed = _timed(check)
    _report(7, "degree catalog (five staircases + binomial family)", 5, elapsed, detail is None, detail or "")


def test_criterion_08_inequality_suites():
    def check():
        for name in ("5.1", "5.2", "6.2", "6.3", "6.4", "6.5", "6.3.3", "7.1.1", "7.1.2"):
            report = suites.run_suite("ineq", name=name, max_c=50, max_r=6, m_span=25)
            if not report.ok:
                return f"{name}: {report.violations[:2]}"
        case = case_by_name("7.3")
        for m in range(4, 11):
            got = A.check_bang(build_space(case, m), zero_limit_ideal(case, m).hilbert_function())
            if got != (m >= 5):
                return f"bound check wrong at m={m}"
        return None

    detail, elapsed = _timed(check)
    _report(8, "inequality scans + bound exception at m=4", 60, elapsed, detail is None, detail or "")


def test_criterion_09_genus_negativity():
    def check():
        for c in range(0, 21):
            for m in range(c + 2, c + 31):
                d = c + m
                for nu in range(m, m + 11):
                    if H.genus_nu(d, nu) >= 0:
                        return f"(c={c}, m={m}, nu={nu})"
        return None

    detail, elapsed = _timed(check)
    _report(9, "cone-family genus negativity", 1, elapsed, detail is None, detail or "")


def test_criterion_10_stabilization_and_sandwich():
    def check():
        stab = suites.run_suite("stabilization", max_colength=8)
        if not stab.ok:
            return f"stabilization: {stab.violations[:2]}"
        sandwich = suites.run_suite("sandwich", max_m=9)
        if not sandwich.ok:
            return f"sandwich: {sandwich.violations[:2]}"
        return None

    detail, elapsed = _timed(check)
    _report(10, "cycle-degree stabilization + limit sandwich", 60, elapsed, detail is None, detail or "")


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
