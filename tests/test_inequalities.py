"""Named inequality scans: all empty violation lists over the stated ranges."""

from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from staircase_lab import inequalities as I, suites
from staircase_lab.errors import DomainError

FAST = I.ScanCaps(max_c=20, max_r=5, m_span=10)


@pytest.mark.parametrize("name", I.all_inequality_names())
def test_scan_has_no_violations(name):
    result = I.inequality_scan(name, FAST)
    assert result.cases_run > 0
    assert result.ok, result.violations[:5]


def test_unknown_name_rejected():
    with pytest.raises(DomainError):
        I.inequality_scan("0.0", FAST)


def test_core_scans_at_reference_ranges():
    caps = I.ScanCaps(max_c=50, max_r=6, m_span=25)
    for name in ("5.1", "5.2", "6.2", "6.3", "6.4", "6.5", "6.3.3", "7.1.1", "7.1.2"):
        assert I.inequality_scan(name, caps).ok


def test_quadratic_growth_scan_values():
    # the first scan point of the binomial-regularity family: r=1, c=1, m0=6
    result = I.inequality_scan("5.1", I.ScanCaps(max_c=1, max_r=1, m_span=0))
    assert result.ok
    assert result.cases_run == 2  # c = 0 and c = 1 at the single minimal m0


def test_small_type_boundary_is_tight():
    # the reduced colength-2 inequality fails at the boundary regularity 8 and
    # is rescued there by the exact count; one step higher it holds as stated
    assert 8 * (8 - 7) == 8  # not > 8: the reduced form alone would fail
    assert I.inequality_scan("6.3.3", I.ScanCaps(max_c=50, max_r=6, m_span=0)).ok
    assert 9 * (9 - 7) > 8


def test_violations_are_reported_not_raised():
    # shrink a side condition below its legal range to watch the report fill:
    # the master inequality with an artificial kernel bound drops violations
    caps = I.ScanCaps(max_c=0, max_r=1, m_span=0)
    result = I.inequality_scan("star-I1", caps)
    assert result.cases_run > 0
    assert result.ok


# The per-point scans the row scans replaced, kept as the reference: each
# yields (params, ok) for every scanned point.  They call the module's
# a_bound_formula, q_value and _min_m0, so a planted fault reaches both sides.


def ref_5_1(caps):
    for r in range(1, caps.max_r + 1):
        for c in range(0, caps.max_c + 1):
            lb = 2**r * (c + 2)
            for m0 in range(lb, lb + caps.m_span + 1):
                ok = m0 * (m0 - 1) > 2 * (c * c + c * r + r * (r + 3) + 1)
                yield {"r": r, "c": c, "m0": m0}, ok


def ref_5_2(caps):
    for c in range(1, caps.max_c + 1):
        lb = 2 * c + 1 if c >= 5 else c + 2
        for m in range(lb, lb + caps.m_span + 1):
            ok = m * (m - 1) > 2 * c * c - 2 * c + 2
            yield {"c": c, "m": m}, ok


def ref_6_1(caps):
    for r in range(2, caps.max_r + 1):
        lb = I._min_m0(r, 0)
        for m0 in range(lb, lb + caps.m_span + 1):
            ok = m0 * (m0 - 11) > 2 * r * (r + 3) - 6
            yield {"r": r, "m0": m0}, ok


def ref_6_2(caps):
    for r in range(2, caps.max_r + 1):
        for c in range(1, caps.max_c + 1):
            lb = I._min_m0(r, c)
            for m0 in range(lb, lb + caps.m_span + 1):
                rhs = 2 * c * c + 2 * (r - 2) * c + 2 * r * (r + 3) - 4
                yield {"r": r, "c": c, "m0": m0}, m0 * (m0 - 11) > rhs


def ref_6_3(caps):
    for r in range(2, caps.max_r + 1):
        for c in range(2 if r == 2 else 1, caps.max_c + 1):
            lhs = 2**r * (c + 2) * (2**r * c + 2 ** (r + 1) - 11)
            rhs = 2 * c * c + 2 * (r - 2) * c + 2 * r * (r + 3) - 4
            yield {"r": r, "c": c}, lhs > rhs


def ref_6_4(caps):
    for r in range(3, caps.max_r + 1):
        for c in range(1, caps.max_c + 1):
            lhs = (2 ** (2 * r) - 2) * c * c + (2 ** (2 * r + 1) - 2 * r) * c
            yield {"r": r, "c": c}, lhs > 2 * r * (r + 3)


def ref_6_5(caps):
    for r in range(2, caps.max_r + 1):
        for c in range(0, caps.max_c + 1):
            lb = I._min_m0(r, c)
            for m0 in range(lb, lb + caps.m_span + 1):
                rhs = 3 * c * c + 2 * c * r - 7 * c - 10 + 2 * r * r
                yield {"r": r, "c": c, "m0": m0}, m0 * (m0 - 2 * c - 7) > rhs


def ref_6_3_3(caps):
    for m0 in range(7, 7 + caps.m_span + 1):
        yield {"c": 0, "m0": m0}, m0 * (m0 - 3) > 4
    for m0 in range(6, 6 + caps.m_span + 1):
        yield {"c": 1, "m0": m0}, m0 * (m0 - 5) > 2
    for m0 in range(8, 8 + caps.m_span + 1):
        if m0 == 8:
            yield {"c": 2, "m0": m0}, I.q_value(14, 7) > 20
        else:
            yield {"c": 2, "m0": m0}, m0 * (m0 - 7) > 8
    for m0 in range(10, 10 + caps.m_span + 1):
        yield {"c": 3, "m0": m0}, m0 * (m0 - 9) > -6


def ref_6_3_2(caps):
    q = Fraction
    for c in range(0, caps.max_c + 1):
        yield {"c": c, "branch": "slow-step"}, q("0.75") * c * c + 6 * c + 4 > 0
        if c >= 4:
            ok = q("0.46") * c * c + q("0.152") * c - q("6.776") > 0
            yield {"c": c, "branch": "fast-step"}, ok
        if c >= 1:
            yield {"c": c, "branch": "vice-corner"}, 2 * c * c + 10 * c - 6 > 0
            ok = q("1.282416") * c * c + q("7.188832") * c - q("7.093584") > 0
            yield {"c": c, "branch": "order-one"}, ok


def test_6_3_2_rows_are_positive_multiples_of_their_decimals():
    """The integer rows of the 6.3.2 quadratics against the decimal coefficients:
    each row is its decimals times one positive factor, and keeps its first c."""
    q = Fraction
    decimals = {
        "slow-step": (q("0.75"), 6, 4, 0),
        "fast-step": (q("0.46"), q("0.152"), -q("6.776"), 4),
        "vice-corner": (2, 10, -6, 1),
        "order-one": (q("1.282416"), q("7.188832"), -q("7.093584"), 1),
    }
    assert I._QUADRATICS_6_3_2.keys() == decimals.keys()
    for branch, (a, b, e, first) in I._QUADRATICS_6_3_2.items():
        da, db, de, dfirst = decimals[branch]
        factor = q(a) / da
        assert factor > 0 and (b, e, first) == (factor * db, factor * de, dfirst), branch


def ref_7_1_1(caps):
    for c in range(5, caps.max_c + 1):
        for m in range(2 * c + 1, 2 * c + 1 + caps.m_span + 1):
            yield {"c": c, "m": m}, m * (m - 1) > 2 * c * c - 2 * c + 2


def ref_7_1_2(caps):
    for c in range(5, caps.max_c + 1):
        yield {"c": c, "check": "quadratic"}, 47 * c * c + 22 * c - 160 > 0
        for m in range(2 * c + 1, 2 * c + 1 + caps.m_span + 1):
            ok = 36 * m * m - 12 * c * m - 84 * m > 73 * c * c - 58 * c + 112
            yield {"c": c, "m": m}, ok


def ref_chains(caps, r, c):
    span = min(caps.m_span, 4)

    def extend(suffix, colength_below):
        if len(suffix) == r + 1:
            yield list(reversed(suffix))
            return
        lb = max(colength_below + 2, 1)
        for m in range(lb, lb + span + 1):
            yield from extend(suffix + [m], colength_below + m)

    m_r_lb = max(c + 2, 5 - c)
    for m_r in range(m_r_lb, m_r_lb + span + 1):
        yield from extend([m_r], c + m_r)


@pytest.mark.parametrize("span", range(5))
def test_feasible_chains_match_the_recursive_reference(span):
    # span 0 is the one chain a-bound builds on, the smallest
    for r, c in product(range(5), range(7)):
        want = [tuple(ms) for ms in ref_chains(I.ScanCaps(max_c=c, max_r=r, m_span=span), r, c)]
        assert I.feasible_chains(r, c, span) == want


def ref_star(case, caps):
    r_lo = 1 if case in ("I1", "I2") else 2
    for r in range(r_lo, min(caps.max_r, 3) + 1):
        for c in range(0, min(caps.max_c, 6) + 1):
            for ms in ref_chains(caps, r, c):
                d = c + sum(ms)
                bound = I.a_bound_formula(case, c=c, r=r)(tuple(ms))
                lhs = I.q_value(d, ms[0] - 1)
                rhs = (c - 1) ** 2 + c * (r + 1) + bound
                yield {"case": case, "r": r, "c": c, "ms": tuple(ms)}, lhs > rhs


def ref_starbis(case, caps):
    r_lo = 1 if case in ("I1", "I2") else 2
    for r in range(r_lo, min(caps.max_r, 3) + 1):
        for ms in ref_chains(caps, r, 0):
            d = sum(ms)
            bound = I.a_bound_formula(case, c=0, r=r)(tuple(ms))
            yield {"case": case, "r": r, "ms": tuple(ms)}, I.q_value(d, ms[0] - 1) > bound


REFERENCE = {
    "5.1": ref_5_1,
    "5.2": ref_5_2,
    "6.1": ref_6_1,
    "6.2": ref_6_2,
    "6.3": ref_6_3,
    "6.4": ref_6_4,
    "6.5": ref_6_5,
    "6.3.2": ref_6_3_2,
    "6.3.3": ref_6_3_3,
    "7.1.1": ref_7_1_1,
    "7.1.2": ref_7_1_2,
    **{f"star-{case}": partial(ref_star, case) for case in ("I1", "I2", "II1", "II2")},
    **{f"starbis-{case}": partial(ref_starbis, case) for case in ("I1", "I2", "II1", "II2")},
}


def reference_scan(name, caps):
    """(cases_run, violations) as the per-point scan tallied them."""
    cases, violations = 0, []
    for params, ok in REFERENCE[name](caps):
        cases += 1
        if not ok:
            violations.append(params)
    violations.sort(key=lambda params: sorted(params.items()).__repr__())
    return cases, violations


# both sides of every boundary the scans branch on: c = 4 (fast-step), 5 (7.1.x),
# 6 (the star cap), r = 1..3 (the star cap), span 4 (the chain cap)
GRID = list(product((0, 1, 4, 5, 30), (0, 1, 2, 3, 7), (0, 1, 4, 25)))

FAULTS = {
    "none": (),
    "a_bound+40": (("a_bound_formula", lambda f: lambda *args, **kw: lambda ms, bound=f(*args, **kw): bound(ms) + 40),),
    "q_value-60": (("q_value", lambda f: lambda d, n: f(d, n) - 60),),
    "min_m0=0": (("_min_m0", lambda f: lambda r, c: 0),),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_row_scans_match_the_per_point_reference(fault, monkeypatch):
    for attr, plant in FAULTS[fault]:
        monkeypatch.setattr(I, attr, plant(getattr(I, attr)))
    failed = 0
    # fresh caps per fault: each holds its run's star rows, built with the planted fault
    for name, caps in product(I.all_inequality_names(), [I.ScanCaps(*caps) for caps in GRID]):
        result = I.inequality_scan(name, caps)
        expected = reference_scan(name, caps)
        assert (result.cases_run, result.violations) == expected, (name, caps)
        failed += len(expected[1])
    assert (failed > 0) == (fault != "none")


@pytest.mark.parametrize("caps", [{"max_c": 50, "max_r": 6, "m_span": 25}, {"max_c": 80, "max_r": 7, "m_span": 40}])
def test_one_ineq_run_builds_each_star_row_once(caps, monkeypatch):
    # 21 rows (r = 1..3, c = 0..6) hold 5,425 chains; the one other Q is 6.3.3's boundary
    counts = dict.fromkeys(("feasible_chains", "q_value"), 0)
    for attr in counts:
        def counted(*args, _f=getattr(I, attr), _attr=attr):
            counts[_attr] += 1
            return _f(*args)
        monkeypatch.setattr(I, attr, counted)
    assert suites.run_suite("ineq", **caps).ok
    assert counts == {"feasible_chains": 21, "q_value": 5426}


def test_star_rows_do_not_outlive_their_caps(monkeypatch):
    caps = (6, 3, 4)
    assert I.inequality_scan("star-I1", I.ScanCaps(*caps)).ok
    q_value = I.q_value
    monkeypatch.setattr(I, "q_value", lambda d, n: q_value(d, n) - 60)
    fresh = I.ScanCaps(*caps)
    result = I.inequality_scan("star-I1", fresh)
    assert result.violations and (result.cases_run, result.violations) == reference_scan("star-I1", fresh)


def test_caps_repr_names_the_caps():
    assert repr(I.ScanCaps(80, 7, 40)) == "ScanCaps(max_c=80, max_r=7, m_span=40)"
