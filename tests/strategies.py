"""Shared Hypothesis strategies for the staircase test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from staircase_lab import torus as T
from staircase_lab.monomials import Monomial
from staircase_lab.staircase import GradedMonomialIdeal


@st.composite
def partitions(draw, max_total=12):
    """Weakly decreasing positive integer tuples with bounded sum."""
    total = draw(st.integers(min_value=0, max_value=max_total))
    parts = []
    remaining = total
    cap = total
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


@st.composite
def monomial_ideals(draw, max_colength=12):
    """Random finite-colength staircases, via quotient column heights."""
    heights = draw(partitions(max_total=max_colength))

    def height(a):
        return heights[a] if a < len(heights) else 0

    top = (len(heights) + max(heights)) if heights else 0
    cols = [[a for a in range(n + 1) if a >= height(n - a)] for n in range(top + 1)]
    return GradedMonomialIdeal.from_columns(cols, top)


@st.composite
def hilbert_functions(draw, max_colength=12):
    return draw(monomial_ideals(max_colength=max_colength)).hilbert_function()


@st.composite
def valid_diffs(draw, max_len=9):
    """Raw difference sequences satisfying the admissibility conditions."""
    diff = []
    started = False
    prev = 0
    for n in range(draw(st.integers(min_value=1, max_value=max_len))):
        lo = prev + 1 if started else 0
        if lo > n + 1:
            break
        v = draw(st.integers(min_value=lo, max_value=n + 1))
        diff.append(v)
        started = started or v > 0
        prev = v
        if v == n + 1:
            break
    if not diff or diff[-1] != len(diff):
        diff.append(len(diff) + 1)
    return tuple(diff)


hf_small = hilbert_functions(max_colength=10)
ideals_small = monomial_ideals(max_colength=10)


@st.composite
def deformation_inputs(draw):
    """A small staircase, a level near its colength, a torus weight and a few
    deformations.  Half the weights step a section onto a non-section, so
    that some chains survive the reduction; steps mostly stay inside the
    simplex, and sometimes a step is <= 0 or leaves it, or an initial lies
    outside the section space."""
    ideal = draw(ideals_small)
    level = ideal.colength + draw(st.integers(-1, 1))
    n = max(level, 0)
    basis = ideal.section_monomials(level)
    sections = set(basis)
    holes = [Monomial(i - a, a, n - i) for i in range(n + 1) for a in range(i + 1)]
    holes = [m for m in holes if m not in sections]
    rho = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    rho = (*rho, -sum(rho))
    chosen, twins = [], []
    if basis and holes and draw(st.booleans()):
        source, target = draw(st.sampled_from(basis)), draw(st.sampled_from(holes))
        rho = (target.ex - source.ex, target.ey - source.ey, target.ez - source.ez)
        chosen.append(source)
        # a twin two steps before the target: both chains can end there
        twin = [2 * e - t for e, t in zip(source.as_list(), target.as_list())]
        if min(twin) >= 0 and Monomial(*twin) in sections and draw(st.booleans()):
            twins.append((Monomial(*twin), [2]))
    weight = T.TorusWeight(rho if any(rho) else (1, -1, 0))

    def reach(mon):
        return max((j for j in (1, 2, 3) if min(e + j * r for e, r in zip(mon.as_list(), rho)) >= 0), default=0)

    def steps(mon):
        if draw(st.integers(0, 9)) == 9:
            return draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
        return draw(st.lists(st.integers(1, reach(mon)), min_size=1, max_size=3)) if reach(mon) else []

    initials = st.sampled_from(basis or holes or [Monomial(0, 0, 0)])
    if holes and draw(st.integers(0, 9)) == 9:
        initials |= st.sampled_from(holes)
    chosen += draw(st.lists(initials, max_size=4 - len(chosen)))
    return ideal, level, weight, [(mon, steps(mon)) for mon in chosen] + twins


# deformation_inputs data whose two chains end on y^2 z^2: the infinity limit
# collides, and must raise that before it checks the growth law
COLLIDING_FINALS = (GradedMonomialIdeal((4,)), 4, T.TorusWeight((-2, 1, 1)),
                    [(Monomial(4, 0, 0), [2]), (Monomial(2, 1, 1), [1])])
