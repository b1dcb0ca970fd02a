"""Catalog of named closed-form inequalities with exhaustive integer scans.

Each entry generates its parameter grid from the side conditions that make
the inequality meaningful (chain lower bounds, kernel-colength thresholds,
the sharpened minimum regularities of small types) and evaluates it in exact
integer arithmetic.  A scan returns the violating parameter tuples; the
expected result is always an empty list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .alphagrade import a_bound, q_value
from .errors import DomainError


@dataclass
class ScanCaps:
    max_c: int = 50
    max_r: int = 6
    m_span: int = 25  # how far above its lower bound each regularity runs


def _min_m0(r: int, c: int) -> int:
    """Lower bound for the top regularity of a type-r chain over colength c:
    2^r (c+2), sharpened to 14 for type 2 and 7 for type 1."""
    base = 2**r * (c + 2)
    if r == 2:
        base = max(base, 14)
    if r == 1:
        base = max(base, 7)
    return base


def _scan_5_1(caps: ScanCaps):
    for r in range(1, caps.max_r + 1):
        for c in range(0, caps.max_c + 1):
            lb = 2**r * (c + 2)
            for m0 in range(lb, lb + caps.m_span + 1):
                ok = m0 * (m0 - 1) > 2 * (c * c + c * r + r * (r + 3) + 1)
                yield {"r": r, "c": c, "m0": m0}, ok


def _scan_5_2(caps: ScanCaps):
    for c in range(1, caps.max_c + 1):
        lb = 2 * c + 1 if c >= 5 else c + 2
        for m in range(lb, lb + caps.m_span + 1):
            ok = m * (m - 1) > 2 * c * c - 2 * c + 2
            yield {"c": c, "m": m}, ok


def _scan_6_1(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        lb = _min_m0(r, 0)
        for m0 in range(lb, lb + caps.m_span + 1):
            ok = m0 * (m0 - 11) > 2 * r * (r + 3) - 6
            yield {"r": r, "m0": m0}, ok


def _scan_6_2(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        for c in range(1, caps.max_c + 1):
            lb = _min_m0(r, c)
            for m0 in range(lb, lb + caps.m_span + 1):
                rhs = 2 * c * c + 2 * (r - 2) * c + 2 * r * (r + 3) - 4
                yield {"r": r, "c": c, "m0": m0}, m0 * (m0 - 11) > rhs


def _scan_6_3(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        for c in range(2 if r == 2 else 1, caps.max_c + 1):
            lhs = 2**r * (c + 2) * (2**r * c + 2 ** (r + 1) - 11)
            rhs = 2 * c * c + 2 * (r - 2) * c + 2 * r * (r + 3) - 4
            yield {"r": r, "c": c}, lhs > rhs


def _scan_6_4(caps: ScanCaps):
    for r in range(3, caps.max_r + 1):
        for c in range(1, caps.max_c + 1):
            lhs = (2 ** (2 * r) - 2) * c * c + (2 ** (2 * r + 1) - 2 * r) * c
            yield {"r": r, "c": c}, lhs > 2 * r * (r + 3)


def _scan_6_5(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        for c in range(0, caps.max_c + 1):
            lb = _min_m0(r, c)
            for m0 in range(lb, lb + caps.m_span + 1):
                rhs = 3 * c * c + 2 * c * r - 7 * c - 10 + 2 * r * r
                yield {"r": r, "c": c, "m0": m0}, m0 * (m0 - 2 * c - 7) > rhs


def _scan_6_3_3(caps: ScanCaps):
    """The leftover small-kernel cases of type 1: reduced inequalities per
    colength, with the one boundary configuration checked exactly."""
    for m0 in range(7, 7 + caps.m_span + 1):
        yield {"c": 0, "m0": m0}, m0 * (m0 - 3) > 4
    for m0 in range(6, 6 + caps.m_span + 1):
        yield {"c": 1, "m0": m0}, m0 * (m0 - 5) > 2
    for m0 in range(8, 8 + caps.m_span + 1):
        if m0 == 8:
            # boundary configuration c=2, m1=4, m0=8: the total change of the
            # orbit degree is at most (8+9)+1+2 = 20 < Q(7) on colength 14
            yield {"c": 2, "m0": m0}, q_value(14, 7) > 20
        else:
            yield {"c": 2, "m0": m0}, m0 * (m0 - 7) > 8
    for m0 in range(10, 10 + caps.m_span + 1):
        yield {"c": 3, "m0": m0}, m0 * (m0 - 9) > -6


def _scan_6_3_2(caps: ScanCaps):
    """Closing quadratics of the order-bounded type-1 estimates, kept with
    their literal decimal coefficients as exact rationals."""
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


def _scan_7_1_1(caps: ScanCaps):
    for c in range(5, caps.max_c + 1):
        for m in range(2 * c + 1, 2 * c + 1 + caps.m_span + 1):
            yield {"c": c, "m": m}, m * (m - 1) > 2 * c * c - 2 * c + 2


def _scan_7_1_2(caps: ScanCaps):
    """Deformation-order variant over a kernel below its own bound: the
    36-fold clearing of m(m - c/3 - 7/3) > 73c^2/36 - 29c/18 + 28/9, plus
    the closing quadratic 47c^2 + 22c - 160 > 0."""
    for c in range(5, caps.max_c + 1):
        yield {"c": c, "check": "quadratic"}, 47 * c * c + 22 * c - 160 > 0
        for m in range(2 * c + 1, 2 * c + 1 + caps.m_span + 1):
            ok = 36 * m * m - 12 * c * m - 84 * m > 73 * c * c - 58 * c + 112
            yield {"c": c, "m": m}, ok


def _chains(caps: ScanCaps, r: int, c: int):
    """Feasible chain vectors (m_0 .. m_r): each sub-ideal keeps colength >= 5,
    every level satisfies m_(i-1) >= (colength below) + 2."""
    span = min(caps.m_span, 4)

    def extend(suffix: list[int], colength_below: int):
        if len(suffix) == r + 1:
            yield list(reversed(suffix))
            return
        lb = max(colength_below + 2, 1)
        for m in range(lb, lb + span + 1):
            yield from extend(suffix + [m], colength_below + m)

    m_r_lb = max(c + 2, 5 - c)
    for m_r in range(m_r_lb, m_r_lb + span + 1):
        yield from extend([m_r], c + m_r)


def _scan_star(case: str, caps: ScanCaps):
    """The master inequality with worst-case slack: Q(m0 - 1) has to clear
    (c-1)^2 + c(r+1) + A with A the closed bound of the given regime."""
    r_lo = 1 if case in ("I1", "I2") else 2
    for r in range(r_lo, min(caps.max_r, 3) + 1):
        for c in range(0, min(caps.max_c, 6) + 1):
            for ms in _chains(caps, r, c):
                d = c + sum(ms)
                bound = a_bound(case, c=c, r=r, ms=tuple(ms))
                lhs = q_value(d, ms[0] - 1)
                rhs = (c - 1) ** 2 + c * (r + 1) + bound
                yield {"case": case, "r": r, "c": c, "ms": tuple(ms)}, lhs > rhs


def _scan_starbis(case: str, caps: ScanCaps):
    """The master inequality at kernel colength zero: Q(m0 - 1) > A."""
    r_lo = 1 if case in ("I1", "I2") else 2
    for r in range(r_lo, min(caps.max_r, 3) + 1):
        for ms in _chains(caps, r, 0):
            d = sum(ms)
            bound = a_bound(case, c=0, r=r, ms=tuple(ms))
            yield {"case": case, "r": r, "ms": tuple(ms)}, q_value(d, ms[0] - 1) > bound


SCANS = {
    "5.1": _scan_5_1,
    "5.2": _scan_5_2,
    "6.1": _scan_6_1,
    "6.2": _scan_6_2,
    "6.3": _scan_6_3,
    "6.4": _scan_6_4,
    "6.5": _scan_6_5,
    "6.3.2": _scan_6_3_2,
    "6.3.3": _scan_6_3_3,
    "7.1.1": _scan_7_1_1,
    "7.1.2": _scan_7_1_2,
    "star-I1": lambda caps: _scan_star("I1", caps),
    "star-I2": lambda caps: _scan_star("I2", caps),
    "star-II1": lambda caps: _scan_star("II1", caps),
    "star-II2": lambda caps: _scan_star("II2", caps),
    "starbis-I1": lambda caps: _scan_starbis("I1", caps),
    "starbis-I2": lambda caps: _scan_starbis("I2", caps),
    "starbis-II1": lambda caps: _scan_starbis("II1", caps),
    "starbis-II2": lambda caps: _scan_starbis("II2", caps),
}


@dataclass
class ScanResult:
    name: str
    cases_run: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def inequality_scan(name: str, caps: ScanCaps | None = None) -> ScanResult:
    if name not in SCANS:
        raise DomainError(f"unknown inequality {name!r}; known: {sorted(SCANS)}")
    caps = caps or ScanCaps()
    result = ScanResult(name)
    for params, ok in SCANS[name](caps):
        result.cases_run += 1
        if not ok:
            result.violations.append(params)
    result.violations.sort(key=lambda params: sorted(params.items()).__repr__())
    return result


def all_inequality_names() -> list[str]:
    return sorted(SCANS)
