"""Suites of staircase alpha-grades: the closed chapter-14 degrees, cycle
degrees that stabilize from colength - 1 on, and the pyramid weight of a
section space.  They import no deformation family, torus or inequality, and
only ``pyramid-alpha-link`` imports ``pyramids``.  Each whole shell walked
is sized against the ``census``."""

from __future__ import annotations

from .. import alphagrade, census, staircase
from . import shell_census


def suite_ch14(e: int):
    alphagrade.chapter14_degrees(e)  # raises if the closed forms fail
    yield ()


def suite_stabilization(d: int, extra_levels: int):
    """Cycle degrees are constant from colength d - 1 on, by construction:
    ``cycle_degree(ideal, n)`` reads the columns up to ``min(n, stable_from)``,
    ``stable_from`` = max(i + h_i) <= d, so for n >= d - 1 the compared sums differ
    at most by full columns, which weigh 0.  The suite confirms the clamp, not stabilization."""
    ideals = staircase.enumerate_ideals(d)
    yield from shell_census(d, ideals, census.partitions)
    for ideal in ideals:
        base = alphagrade.cycle_degree(ideal, d - 1)
        values = [alphagrade.cycle_degree(ideal, n) for n in range(d, d + extra_levels + 1)]
        yield () if all(v == base for v in values) else (({"ideal": str(ideal)}, base, values),)


def suite_pyramid_alpha_link(d: int):
    """Pyramid weight of the section space at degree d-1 equals the
    closed-form alpha-grade of the staircase."""
    from .. import pyramids

    ideals = staircase.enumerate_ideals(d)
    yield from shell_census(d, ideals, census.partitions)
    for ideal in ideals:
        pyr = pyramids.Pyramid.from_columns([ideal.column(i) for i in range(d)])
        grade = ideal.alpha_grade
        yield () if pyr.colength == d and pyr.weight() == grade else (({"ideal": str(ideal)}, grade, pyr.weight()),)
