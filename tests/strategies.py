"""Shared Hypothesis strategies for the staircase test modules."""

from __future__ import annotations

from hypothesis import strategies as st

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
