"""Count tables: both enumerators against partition counts from a recurrence.

A Hilbert function of colength d is the function of exactly one lex-segment
staircase, whose heights strictly decrease, so there are q(d) functions, q
counting the partitions into distinct parts.  The staircases of colength d
are the partitions of d, p(d) of them.  Neither count calls an enumerator,
and neither does the package's own ``census``, which the suites read.
"""

import pytest

from staircase_lab import census
from staircase_lab import hilbert as H
from staircase_lab import staircase as S
from staircase_lab.errors import DomainError


def partition_counts(top, distinct):
    """[P(0), ..., P(top)], P(n) the partitions of n (into distinct parts if
    ``distinct``), by the two-index recurrence over the largest part k:
    P(n, k) = P(n, k - 1) + P(n - k, k - 1 if distinct else k)."""
    table = [[1] * (top + 1)] + [[0] * (top + 1) for _ in range(top)]  # table[n][k]
    for n in range(1, top + 1):
        for k in range(1, top + 1):
            table[n][k] = table[n][k - 1] + (table[n - k][k - 1 if distinct else k] if k <= n else 0)
    return [row[top] for row in table]


Q = partition_counts(62, distinct=True)
P = partition_counts(36, distinct=False)


def test_the_recurrence_gives_the_known_values():
    assert Q[:11] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert P[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert (Q[62], P[36]) == (13_394, 17_977)


@pytest.mark.parametrize("d", range(41))
def test_hilbert_functions_are_counted_by_distinct_partitions(d):
    diffs = [phi.diff for phi in H.enumerate_hilbert_functions(d)]
    assert len(diffs) == len(set(diffs)) == Q[d]


@pytest.mark.parametrize("d", range(31))
def test_staircases_are_counted_by_partitions(d):
    heights = [ideal.heights for ideal in S.enumerate_ideals(d)]
    assert len(heights) == len(set(heights)) == P[d]


def test_spot_values():
    assert len(set(phi.diff for phi in H.enumerate_hilbert_functions(62))) == Q[62]
    assert len(set(ideal.heights for ideal in S.enumerate_ideals(36))) == P[36]


@pytest.mark.parametrize("order", ["ascending", "largest first"])
def test_the_census_is_the_recurrence(monkeypatch, order):
    # from fresh tables, grown one colength at a time or in one step
    monkeypatch.setattr(census, "_P", [1])
    monkeypatch.setattr(census, "_Q", [1])
    ds = range(63) if order == "ascending" else [62, *range(62)]
    assert {d: census.partitions(d) for d in ds} == dict(enumerate(partition_counts(62, distinct=False)))
    assert {d: census.distinct_partitions(d) for d in ds} == dict(enumerate(Q))
    assert len(census._P) == len(census._Q) == 63  # d + 1 ints each, for the largest d asked


@pytest.mark.parametrize("count", [census.partitions, census.distinct_partitions])
def test_the_census_refuses_a_negative_colength(count):
    with pytest.raises(DomainError):
        count(-1)
