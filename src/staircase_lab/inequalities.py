"""Catalog of named closed-form inequalities with exhaustive integer scans.

Each entry generates its parameter grid from the side conditions that make
the inequality meaningful (chain lower bounds, kernel-colength thresholds,
the sharpened minimum regularities of small types) and evaluates it in exact
arithmetic at every point of that grid.

A scan yields one item per row, a row being a fixed setting of the outer
parameters: the number of points in the row, and the params dicts of the
points that fail.  The innermost range is evaluated in one comprehension
against the side that is constant along the row, and a params dict is built
only for a failing point.  :func:`inequality_scan` sums the counts and sorts
the violations; the expected result is always an empty list.

The ``star``/``starbis`` scans walk every chain (m_0 .. m_r) of
:func:`feasible_chains` against :func:`a_bound`, the closed bound of the
right-domain alpha-grade spread, defined here beside them; the ``a-bound``
suite builds its spaces over the smallest such chain.  Whatever the caps, they
stay within r <= 3, c <= 6 and at most 4 steps above each chain lower bound.
Q(m_0 - 1) depends on the chain alone, so the chains of a row and their Q
are built once per run, in the table of :meth:`ScanCaps.star_row`, which the
eight scans share (``starbis`` reads the c = 0 rows).  Each scan checks the
bound's arguments once per row with ``a_bound_formula`` and evaluates the
bound once per chain.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .hilbert import q_value


class ScanCaps:
    """The caps of one scan run, and that run's table of star rows.

    One object serves one run: the rows :meth:`star_row` builds stay on it, so
    a new run takes a new object and builds its rows afresh.
    """

    def __init__(self, max_c: int, max_r: int, m_span: int):
        # m_span: how far above its lower bound each regularity runs
        self.max_c, self.max_r, self.m_span = max_c, max_r, m_span
        self._star_rows = {}  # (r, c) -> that row of star_row

    def __repr__(self) -> str:
        return f"ScanCaps(max_c={self.max_c}, max_r={self.max_r}, m_span={self.m_span})"

    def star_row(self, r: int, c: int) -> list[tuple[tuple[int, ...], int]]:
        """The chains ms of ``feasible_chains(r, c, min(m_span, 4))``, each
        paired with Q(m_0 - 1) on colength c + sum(ms); built on first use."""
        row = self._star_rows.get((r, c))
        if row is None:
            chains = feasible_chains(r, c, min(self.m_span, 4))
            row = self._star_rows[r, c] = [(ms, q_value(c + sum(ms), ms[0] - 1)) for ms in chains]
        return row


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
            m0s = range(lb, lb + caps.m_span + 1)
            rhs = 2 * (c * c + c * r + r * (r + 3) + 1)
            yield len(m0s), [{"r": r, "c": c, "m0": m0} for m0 in m0s if not m0 * (m0 - 1) > rhs]


def _scan_5_2(caps: ScanCaps):
    for c in range(1, caps.max_c + 1):
        lb = 2 * c + 1 if c >= 5 else c + 2
        ms = range(lb, lb + caps.m_span + 1)
        rhs = 2 * c * c - 2 * c + 2
        yield len(ms), [{"c": c, "m": m} for m in ms if not m * (m - 1) > rhs]


def _scan_6_1(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        lb = _min_m0(r, 0)
        m0s = range(lb, lb + caps.m_span + 1)
        rhs = 2 * r * (r + 3) - 6
        yield len(m0s), [{"r": r, "m0": m0} for m0 in m0s if not m0 * (m0 - 11) > rhs]


def _scan_6_2(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        for c in range(1, caps.max_c + 1):
            lb = _min_m0(r, c)
            m0s = range(lb, lb + caps.m_span + 1)
            rhs = 2 * c * c + 2 * (r - 2) * c + 2 * r * (r + 3) - 4
            yield len(m0s), [{"r": r, "c": c, "m0": m0} for m0 in m0s if not m0 * (m0 - 11) > rhs]


def _scan_6_3(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        cs = range(2 if r == 2 else 1, caps.max_c + 1)
        p = 2**r
        yield len(cs), [
            {"r": r, "c": c} for c in cs
            if not p * (c + 2) * (p * c + 2 * p - 11) > 2 * c * c + 2 * (r - 2) * c + 2 * r * (r + 3) - 4
        ]


def _scan_6_4(caps: ScanCaps):
    for r in range(3, caps.max_r + 1):
        cs = range(1, caps.max_c + 1)
        a, b, rhs = 2 ** (2 * r) - 2, 2 ** (2 * r + 1) - 2 * r, 2 * r * (r + 3)
        yield len(cs), [{"r": r, "c": c} for c in cs if not a * c * c + b * c > rhs]


def _scan_6_5(caps: ScanCaps):
    for r in range(2, caps.max_r + 1):
        for c in range(0, caps.max_c + 1):
            lb = _min_m0(r, c)
            m0s = range(lb, lb + caps.m_span + 1)
            rhs = 3 * c * c + 2 * c * r - 7 * c - 10 + 2 * r * r
            yield len(m0s), [{"r": r, "c": c, "m0": m0} for m0 in m0s if not m0 * (m0 - 2 * c - 7) > rhs]


def _scan_6_3_3(caps: ScanCaps):
    """The leftover small-kernel cases of type 1: reduced inequalities per
    colength, with the one boundary configuration checked exactly."""
    # (c, least m0, k, e): m0 (m0 - k) > e for every m0 from the least one on
    for c, lb, k, e in ((0, 7, 3, 4), (1, 6, 5, 2), (2, 8, 7, 8), (3, 10, 9, -6)):
        m0s = range(lb, lb + caps.m_span + 1)
        # boundary configuration c=2, m1=4, m0=8: the total change of the
        # orbit degree is at most (8+9)+1+2 = 20 < Q(7) on colength 14
        yield len(m0s), [
            {"c": c, "m0": m0} for m0 in m0s
            if not (q_value(14, 7) > 20 if (c, m0) == (2, 8) else m0 * (m0 - k) > e)
        ]


# The closing quadratics of 6.3.2 as (a, b, e, first c): a c^2 + b c + e > 0 for c >= first,
# each row its decimals times the noted power of ten: a positive factor keeps the sign.
_QUADRATICS_6_3_2 = {
    "slow-step": (75, 600, 400, 0),  # 100 x (0.75, 6, 4)
    "fast-step": (460, 152, -6776, 4),  # 1000 x (0.46, 0.152, -6.776)
    "vice-corner": (2, 10, -6, 1),
    "order-one": (1282416, 7188832, -7093584, 1),  # 10^6 x (1.282416, 7.188832, -7.093584)
}


def _scan_6_3_2(caps: ScanCaps):
    """Closing quadratics of the order-bounded type-1 estimates."""
    for branch, (a, b, e, first) in _QUADRATICS_6_3_2.items():
        cs = range(first, caps.max_c + 1)
        yield len(cs), [{"c": c, "branch": branch} for c in cs if not a * c * c + b * c + e > 0]


def _scan_7_1_1(caps: ScanCaps):
    for c in range(5, caps.max_c + 1):
        ms = range(2 * c + 1, 2 * c + 1 + caps.m_span + 1)
        rhs = 2 * c * c - 2 * c + 2
        yield len(ms), [{"c": c, "m": m} for m in ms if not m * (m - 1) > rhs]


def _scan_7_1_2(caps: ScanCaps):
    """Deformation-order variant over a kernel below its own bound: the
    36-fold clearing of m(m - c/3 - 7/3) > 73c^2/36 - 29c/18 + 28/9, plus
    the closing quadratic 47c^2 + 22c - 160 > 0."""
    cs = range(5, caps.max_c + 1)
    yield len(cs), [{"c": c, "check": "quadratic"} for c in cs if not 47 * c * c + 22 * c - 160 > 0]
    for c in cs:
        ms = range(2 * c + 1, 2 * c + 1 + caps.m_span + 1)
        slope, rhs = 12 * c + 84, 73 * c * c - 58 * c + 112
        yield len(ms), [{"c": c, "m": m} for m in ms if not 36 * m * m - slope * m > rhs]


def feasible_chains(r: int, c: int, span: int) -> list[tuple[int, ...]]:
    """Feasible chains (m_0 .. m_r) over a colength-c kernel, each m_i at most
    span above its lower bound, in the order of (m_r, .., m_0): each sub-ideal
    keeps colength >= 5, every level satisfies m_(i-1) >= (colength below) + 2.
    Built one level at a time, each partial chain (m_i .. m_r) carried with the
    colength c + m_i + .. + m_r below its next level."""
    lb = max(c + 2, 5 - c)
    level = [((m_r,), c + m_r) for m_r in range(lb, lb + span + 1)]
    for _ in range(r):
        level = [((m,) + ms, below + m) for ms, below in level for m in range(below + 2, below + 2 + span + 1)]
    return [ms for ms, _ in level]


def a_bound_formula(case: str, *, c: int, r: int):
    """The closed-form bound of :func:`a_bound` for one (case, c, r), as a
    function of the chain ms.

    The arguments are checked here, once; the function returned assumes ms
    holds what its case needs: m_0..m_r for "I1"/"I2", at least m_0 for
    "II1"/"II2".
    """
    if r < 0 or c < 0:
        raise DomainError(f"need r >= 0 and c >= 0, got r={r}, c={c}")
    if case in ("I1", "I2"):
        if r == 0:
            return lambda ms: 0
        base = r * (r + 3) if case == "I1" else r * (r + c)
        return lambda ms: base + sum(ms[1:])
    if case in ("II1", "II2"):
        if r < 1:
            raise DomainError(f"case {case} is stated for r >= 1")
        if case == "II1":
            slope, base = 4, r * (r + 3) - c - 1
        else:
            slope, base = c + 2, r * r - 2 * (c + 2) + comb(c, 2)
        return lambda ms: slope * ms[0] + base
    raise DomainError(f"unknown bound case {case!r}")


def a_bound(case: str, *, c: int, r: int, ms: tuple[int, ...] = ()) -> int:
    """Closed-form bound for the right-domain alpha-grade spread, per regime.

    Cases "I1"/"I2" need the full chain m_0..m_r; "II1"/"II2" need r >= 1 and
    use only m_0.
    """
    bound = a_bound_formula(case, c=c, r=r)
    if case in ("I1", "I2") and r > 0 and len(ms) != r + 1:
        raise DomainError(f"case {case} needs m_0..m_{r}, got {ms}")
    if case in ("II1", "II2") and not ms:
        raise DomainError(f"case {case} needs m_0")
    return bound(ms)


def _scan_star(case: str, caps: ScanCaps):
    """The master inequality with worst-case slack: Q(m0 - 1) has to clear
    (c-1)^2 + c(r+1) + A with A the closed bound of the given regime."""
    r_lo = 1 if case in ("I1", "I2") else 2
    for r in range(r_lo, min(caps.max_r, 3) + 1):
        for c in range(0, min(caps.max_c, 6) + 1):
            row = caps.star_row(r, c)
            slack = (c - 1) ** 2 + c * (r + 1)
            bound = a_bound_formula(case, c=c, r=r)
            yield len(row), [{"case": case, "r": r, "c": c, "ms": ms} for ms, q in row if not q > slack + bound(ms)]


def _scan_starbis(case: str, caps: ScanCaps):
    """The master inequality at kernel colength zero: Q(m0 - 1) > A."""
    r_lo = 1 if case in ("I1", "I2") else 2
    for r in range(r_lo, min(caps.max_r, 3) + 1):
        row = caps.star_row(r, 0)
        bound = a_bound_formula(case, c=0, r=r)
        yield len(row), [{"case": case, "r": r, "ms": ms} for ms, q in row if not q > bound(ms)]


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


class ScanResult:
    def __init__(self, name: str):
        self.name, self.cases_run, self.violations = name, 0, []

    @property
    def ok(self) -> bool:
        return not self.violations


def inequality_scan(name: str, caps: ScanCaps) -> ScanResult:
    if name not in SCANS:
        raise DomainError(f"unknown inequality {name!r}; known: {sorted(SCANS)}")
    result = ScanResult(name)
    for points, failed in SCANS[name](caps):
        result.cases_run += points
        result.violations += failed
    result.violations.sort(key=lambda params: sorted(params.items()).__repr__())
    return result


def all_inequality_names() -> list[str]:
    return sorted(SCANS)
