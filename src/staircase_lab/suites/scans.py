"""Suites of closed-form scans: the inequality catalog and the sign of the
cone-family genus."""

from __future__ import annotations

from .. import hilbert, inequalities
from . import passed


def suite_ineq(name: str | None, max_c: int, max_r: int, m_span: int):
    """One scan per inequality; each scanned point is a case."""
    caps = inequalities.ScanCaps(max_c=max_c, max_r=max_r, m_span=m_span)
    for n in [name] if name else inequalities.all_inequality_names():
        result = inequalities.inequality_scan(n, caps)
        yield from passed(result.cases_run - len(result.violations))
        for params in result.violations:
            yield (({"name": n, **params}, "holds", "fails"),)


def suite_genus_negativity(c: int, m_extent: int, nu_extent: int):
    """The cone-family genus is negative for nu >= m >= c + 2; one batch of
    cases per (c, m) row."""
    for m in range(c + 2, c + m_extent + 1):
        nus = range(m, m + nu_extent + 1)
        bad = [(nu, value) for nu in nus if (value := hilbert.genus_nu(c + m, nu)) >= 0]
        yield from passed(len(nus) - len(bad))
        for nu, value in bad:
            yield (({"c": c, "m": m, "nu": nu}, "< 0", value),)
