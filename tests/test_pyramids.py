"""Pyramid weights: column formula, closed forms, the DP and the exhaustive searches."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_lab import pyramids as P
from staircase_lab.errors import DomainError, InternalInconsistencyError, RangeError
from staircase_lab.suites import run_suite


class TestColumnWeight:
    def test_full_and_empty_columns_vanish(self):
        assert P.column_weight(range(7)) == 0
        assert P.column_weight([]) == 0

    def test_top_segment_example(self):
        # i = 3, initial degree 1: both evaluations give 3
        assert P.column_weight({1, 2, 3}) == 3
        i, a = 3, 1
        assert i * a + a - a * a == 3

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=13))
    def test_top_segment_closed_form(self, i, a):
        if a > i + 1:
            return
        assert P.column_weight(range(a, i + 1)) == i * a + a - a * a


class TestWeight:
    def test_two_holes_pattern(self):
        # colength 2 split over the two widest columns: weight 2c - 3
        for c in range(2, 9):
            avec = [0] * c
            avec[c - 1] = 1
            avec[c - 2] = 1
            pyr = P.Pyramid.from_initial_degrees(avec)
            assert pyr.colength == 2
            assert pyr.weight() == 2 * c - 3
            assert pyr.weight() == P.max_weight_closed_form(c, 2)

    def test_one_hole_pattern(self):
        for c in range(1, 9):
            avec = [0] * c
            avec[c - 1] = 1
            pyr = P.Pyramid.from_initial_degrees(avec)
            assert pyr.colength == 1
            assert pyr.weight() == c - 1
            assert pyr.weight() == P.max_weight_closed_form(c, 1)

    def test_initial_degrees_round_trip_and_reject_other_columns(self):
        for avec in itertools.product(*(range(i + 2) for i in range(4))):
            if any(avec):  # colength >= 1
                assert P.Pyramid.from_initial_degrees(avec).initial_degrees() == avec
        # not [a, i]: a column without its top, a degree above i, a gap, a right-sized column above i
        for columns in [({0}, {0}), ({0}, {2}), ({0}, set(), {0, 2}), ({0}, {1}, {1, 3})]:
            with pytest.raises(DomainError):
                P.Pyramid(tuple(map(frozenset, columns))).initial_degrees()


def ref_nr_value(dec):
    """The d a decomposition stands for: n(n+1) - r or n^2 - r."""
    return dec.n * (dec.n + 1) - dec.r if dec.case == "square_pronic" else dec.n * dec.n - dec.r


class TestNRDecomposition:
    @pytest.mark.parametrize(
        "d,case,n,r",
        [
            (6, "square_pronic", 2, 0),
            (3, "square", 2, 1),
            (1, "square", 1, 0),
            (2, "square_pronic", 1, 0),
            (12, "square_pronic", 3, 0),
            (14, "square", 4, 2),
        ],
    )
    def test_examples(self, d, case, n, r):
        dec = P.nr_decomposition(d)
        assert (dec.case, dec.n, dec.r) == (case, n, r)
        assert ref_nr_value(dec) == d

    def test_every_d_has_exactly_one_representation(self):
        for d in range(1, 600):
            dec = P.nr_decomposition(d)
            assert ref_nr_value(dec) == d
            assert 0 <= dec.r < dec.n

    def test_cached_per_d_and_checked_for_each_new_d(self, monkeypatch):
        P.nr_decomposition.cache_clear()
        assert P.nr_decomposition(14) is P.nr_decomposition(14)
        monkeypatch.setattr(P, "isqrt", lambda d: 0)  # finds no representation
        assert ref_nr_value(P.nr_decomposition(14)) == 14  # cached
        with pytest.raises(InternalInconsistencyError, match="0 representations"):
            P.nr_decomposition(15)


class TestClosedForm:
    def test_small_frame_tables(self):
        assert [P.max_weight_closed_form(2, d) for d in (1, 2)] == [1, 1]
        assert [P.max_weight_closed_form(3, d) for d in (1, 2, 3)] == [2, 3, 3]
        assert [P.max_weight_closed_form(4, d) for d in (1, 2, 3, 4)] == [3, 5, 6, 7]

    def test_domain(self):
        with pytest.raises(DomainError):
            P.max_weight_closed_form(3, 4)
        with pytest.raises(DomainError):
            P.max_weight_closed_form(3, 0)

    def test_oracle_equality_small(self):
        for c in range(1, 8):
            for d in range(1, c + 1):
                w, witness = P.brute_force_max_weight(c, d)
                assert w == P.max_weight_closed_form(c, d)
                assert witness.weight() == w
                assert witness.colength == d

    def test_full_subset_oracle_agrees(self):
        for c in range(1, 6):
            for d in range(1, c + 1):
                w_top, _ = P.brute_force_max_weight(c, d)
                w_full, _ = P.brute_force_max_weight(c, d, full_subsets=True)
                assert w_top == w_full

    def test_oracle_budget(self):
        with pytest.raises(RangeError):
            P.brute_force_max_weight(10, 3)
        with pytest.raises(RangeError):
            P.brute_force_max_weight(6, 3, full_subsets=True)

    def test_specific_oracle_value(self):
        w, _ = P.brute_force_max_weight(9, 7)
        assert w == P.max_weight_closed_form(9, 7)

    def test_bound_at_maximal_colength(self):
        for c in range(1, 65):
            assert P.max_weight_closed_form(c, c) <= (c - 1) ** 2

    def test_monotonicity_in_frame(self):
        for d in range(1, 20):
            values = [P.max_weight_closed_form(c, d) for c in range(d, 64)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotonicity_in_colength(self):
        for c in range(5, 64):
            values = [P.max_weight_closed_form(c, d) for d in range(1, c + 1)]
            assert all(a < b for a, b in zip(values, values[1:]))
        for c in range(1, 5):
            values = [P.max_weight_closed_form(c, d) for d in range(1, c + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestKnapsackDP:
    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_top_segment_search(self, c, data):
        d = data.draw(st.integers(min_value=1, max_value=c))
        assert P.max_weight_dp(c, d) == P.brute_force_max_weight(c, d)

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_full_subset_search(self, c, data):
        # by weight: the full walk's witness may be another maximal pyramid, as at (3, 3)
        d = data.draw(st.integers(min_value=1, max_value=c))
        w, _ = P.max_weight_dp(c, d)
        w_full, witness = P.brute_force_max_weight(c, d, full_subsets=True)
        assert (w_full, witness.colength, witness.weight()) == (w, d, w)

    def test_matches_closed_form(self):
        for c in range(1, 25):
            for d in range(1, c + 1):
                w, witness = P.max_weight_dp(c, d)
                assert w == P.max_weight_closed_form(c, d)
                assert (witness.weight(), witness.colength) == (w, d)

    def test_frame_table_matches_the_per_colength_reference(self):
        for c in range(1, 25):
            table = P.WeightTable.build(c)
            assert table.frame == c
            for d in range(1, c + 1):
                want_w, want = _reference_dp(c, d)
                for w, witness in (table.witness(d), P.max_weight_dp(c, d)):
                    assert (w, witness.columns) == (want_w, want.columns), (c, d)

    def test_each_call_builds_its_own_table(self):
        assert P.WeightTable.build(6) is not P.WeightTable.build(6)
        assert P.WeightTable.build(6) == P.WeightTable.build(6)

    def test_never_consults_the_closed_form(self, monkeypatch):
        def closed_form(c, d):
            raise AssertionError(f"closed form consulted at (c={c}, d={d})")

        monkeypatch.setattr(P, "max_weight_closed_form", closed_form)
        for c in range(1, 8):
            for d in range(1, c + 1):
                P.max_weight_dp(c, d)

    def test_domain(self):
        for c in range(1, 12):
            for d in (0, c + 1):
                with pytest.raises(DomainError):
                    P.max_weight_dp(c, d)
        for d in (0, 4):
            with pytest.raises(DomainError):
                P.WeightTable.build(3).witness(d)
        with pytest.raises(DomainError):
            P.WeightTable.build(0)


class TestEndpointConsistency:
    @pytest.mark.parametrize("c,n", [(10, 3), (8, 2), (4, 1), (20, 5)])
    def test_seams_agree(self, c, n):
        assert P.endpoint_consistency(c, n)

    def test_degenerate(self):
        assert P.endpoint_consistency(3, 1)


def _reference_search(c, d, full_subsets=False):
    """The search as a plain enumeration: build every pyramid of type (c, d),
    keep the smallest (-w, picks)."""
    if full_subsets:
        pools = [
            [frozenset(sub) for k in range(i + 2) for sub in itertools.combinations(range(i + 1), k)]
            for i in range(c)
        ]
        candidates = (
            (P.Pyramid(cols), tuple(tuple(sorted(col)) for col in cols))
            for cols in itertools.product(*pools)
        )
    else:
        vectors = (avec for avec in itertools.product(*(range(i + 2) for i in range(c))) if sum(avec) == d)
        candidates = ((P.Pyramid.from_initial_degrees(avec), avec) for avec in vectors)
    neg_w, _, pyr = min((-pyr.weight(), picks, pyr) for pyr, picks in candidates if pyr.colength == d)
    return -neg_w, pyr


def _reference_walk(c, d, full_subsets=False):
    """The exhaustive walk as a plain recursion that tests every pick of
    every column at every node; ``brute_force_max_weight`` has to give the
    same weight and the same witness."""
    pools = [P._column_pool(i, i + 1, full_subsets) for i in range(c)]  # every option of each column
    room = [comb(c + 1, 2) - comb(i + 1, 2) for i in range(c + 1)]
    picks = [None] * c
    best = [-1, None]

    def walk(i, w, rest):
        if i == c:
            if w > best[0]:
                best[:] = w, tuple(picks)
            return
        for pick, missed, cw in pools[i]:
            if 0 <= rest - missed <= room[i + 1]:
                picks[i] = pick
                walk(i + 1, w + cw, rest - missed)

    walk(0, 0, d)
    weight, chosen = best
    return weight, P.Pyramid.from_columns(chosen) if full_subsets else P.Pyramid.from_initial_degrees(chosen)


def _reference_dp(c, d):
    """The knapsack DP with its own suffix table for one d, r <= d; the
    frame table has to give the same weight and the same witness."""
    options = [P._column_options(i) for i in range(c)]
    best = [None] * c + [[0] + [float("-inf")] * d]
    for i in reversed(range(c)):
        nxt = best[i + 1]
        best[i] = [max(w + nxt[r - a] for a, w, _ in options[i] if a <= r) for r in range(d + 1)]
    columns, r = [], d
    for i in range(c):
        nxt = best[i + 1]
        a, column = min(
            (a, column) for a, w, column in options[i] if a <= r and w + nxt[r - a] == best[i][r]
        )
        columns.append(column)
        r -= a
    return best[0][d], P.Pyramid.from_columns(columns)


def _fraction_rewritings(case, n, r, d, c):
    """Both closed-form rewritings of the maximal weight in exact rationals."""
    n, r = Fraction(n), Fraction(r)
    if case == "square_pronic":
        direct = n * ((c - Fraction(3, 2)) * n + (c + 2 * r - Fraction(1, 6)) - Fraction(4, 3) * n**2) - r * c
        expanded = -Fraction(4, 3) * n**3 - Fraction(3, 2) * n**2 + (2 * r - Fraction(1, 6)) * n + d * c
    else:
        direct = n * ((c + Fraction(1, 2)) * n + (2 * r - Fraction(1, 6)) - Fraction(4, 3) * n**2) - r * (c + 1)
        expanded = -Fraction(4, 3) * n**3 + Fraction(1, 2) * n**2 + (2 * r - Fraction(1, 6)) * n - r + d * c
    return direct, expanded


class TestExhaustiveWalk:
    def test_top_segments_match_the_plain_enumeration(self):
        for c in range(1, 8):
            for d in range(1, c + 1):
                assert P.brute_force_max_weight(c, d) == _reference_search(c, d), (c, d)

    def test_full_subsets_match_the_plain_enumeration(self):
        for c in range(1, 6):
            for d in range(1, c + 1):
                assert P.brute_force_max_weight(c, d, full_subsets=True) == _reference_search(c, d, True), (c, d)

    @pytest.mark.parametrize("full,cap", [(False, P.TOP_SEGMENT_FRAME_CAP), (True, P.FULL_SUBSET_FRAME_CAP)])
    def test_matches_the_recursive_reference_walk(self, full, cap):
        for c in range(1, cap + 1):
            for d in range(1, c + 1):
                w, witness = P.brute_force_max_weight(c, d, full)
                want_w, want = _reference_walk(c, d, full)
                assert (w, witness.columns) == (want_w, want.columns), (c, d)

    @pytest.mark.parametrize("full,cap", [(False, P.TOP_SEGMENT_FRAME_CAP), (True, P.FULL_SUBSET_FRAME_CAP)])
    def test_matches_the_reference_walk_under_random_weights(self, monkeypatch, full, cap):
        """Each option keeps its pick and missed count but weighs a seeded
        random int in [0, 20], the same in both searches: a suffix the search
        skips shows as a wrong maximum, and the many ties test the tie-break."""
        rng, pools, pool = random.Random(2011), {}, P._column_pool

        def random_pool(i, deficit, full_subsets):
            if (i, full_subsets) not in pools:
                pools[i, full_subsets] = [
                    (pick, missed, rng.randint(0, 20)) for pick, missed, _ in pool(i, i + 1, full_subsets)
                ]
            return [option for option in pools[i, full_subsets] if option[1] <= deficit]

        monkeypatch.setattr(P, "_column_pool", random_pool)
        for c in range(1, cap + 1):
            for d in range(1, c + 1):
                w, witness = P.brute_force_max_weight(c, d, full)
                want_w, want = _reference_walk(c, d, full)
                assert (w, witness.columns) == (want_w, want.columns), (c, d)

    @pytest.mark.parametrize("full,planted_cap,count", [(False, 6, 836), (True, 4, 433)])
    def test_a_planted_pyramid_is_found(self, monkeypatch, full, planted_cap, count):
        """For every pyramid of every type up to the frame, its own picks
        weigh 1 and every other option 0: only that pyramid weighs c, so a
        search that skips any pair of halves misses it."""
        every = [P._column_pool(i, i + 1, full) for i in range(planted_cap)]
        planted = None

        def planted_pool(i, deficit, full_subsets):
            return [(pick, missed, int(pick == planted[i])) for pick, missed, _ in every[i] if missed <= deficit]

        monkeypatch.setattr(P, "_column_pool", planted_pool)
        found = 0
        for c in range(1, planted_cap + 1):
            for options in itertools.product(*every[:c]):
                d = sum(missed for _, missed, _ in options)
                if not 1 <= d <= c:
                    continue
                planted = [pick for pick, _, _ in options]
                w, witness = P.brute_force_max_weight(c, d, full)
                want = P.Pyramid.from_columns(planted) if full else P.Pyramid.from_initial_degrees(planted)
                assert (w, witness.columns) == (c, want.columns), (c, d, planted)
                found += 1
        assert found == count

    def test_the_budget_is_checked_before_any_table_is_built(self, monkeypatch):
        def pool(i, deficit, full_subsets):
            raise AssertionError(f"pool of column {i} built")

        monkeypatch.setattr(P, "_column_pool", pool)
        with pytest.raises(RangeError):
            P.brute_force_max_weight(P.TOP_SEGMENT_FRAME_CAP + 1, 3)
        with pytest.raises(RangeError):
            P.brute_force_max_weight(P.FULL_SUBSET_FRAME_CAP + 1, 3, full_subsets=True)
        for full, cap in [(False, P.TOP_SEGMENT_FRAME_CAP), (True, P.FULL_SUBSET_FRAME_CAP)]:
            for c in range(1, cap + 1):
                for d in (0, c + 1):
                    with pytest.raises(RangeError):
                        P.brute_force_max_weight(c, d, full)

    def test_each_call_builds_its_own_tables(self, monkeypatch):
        built = []
        pool = P._column_pool

        def counted(i, deficit, full_subsets):
            built.append((i, deficit))
            return pool(i, deficit, full_subsets)

        monkeypatch.setattr(P, "_column_pool", counted)
        assert P.brute_force_max_weight(6, 4) == P.brute_force_max_weight(6, 4)
        assert built == [(i, 4) for i in range(6)] * 2

    @pytest.mark.parametrize("full", [False, True])
    def test_a_pool_holds_the_options_within_its_deficit_in_pick_order(self, full):
        for i in range(6):
            every = P._column_pool(i, i + 1, full)
            assert len(every) == (2 ** (i + 1) if full else i + 2)
            for deficit in range(i + 3):
                assert P._column_pool(i, deficit, full) == [option for option in every if option[1] <= deficit]

    def test_negative_weights_are_weighed_and_reported(self, monkeypatch):
        """Under a column weight that is negative on many columns, so that
        every pyramid of type (2, 1) weighs below zero, the search still
        returns the heaviest pyramid, and the oracle suite reports the
        weights as violations instead of raising."""
        monkeypatch.setattr(P, "column_weight", lambda column: sum(column) - comb(len(column) + 1, 2))
        P._column_options.cache_clear()
        try:
            for c in range(1, 6):
                for d in range(1, c + 1):
                    assert P.brute_force_max_weight(c, d) == _reference_search(c, d), (c, d)
            report = run_suite("pyramid-oracle", max_frame=5)
        finally:
            P._column_options.cache_clear()
        assert report.cases_run == 24
        assert {"params": {"c": 2, "d": 1}, "expected": 1, "got": -1} in report.violations

    def test_never_consults_the_closed_form_or_the_dp(self, monkeypatch):
        def consulted(*args, **kwargs):
            raise AssertionError(f"consulted at {args}")

        want = [P.max_weight_closed_form(c, d) for c in range(1, 6) for d in range(1, c + 1)]
        monkeypatch.setattr(P, "max_weight_closed_form", consulted)
        monkeypatch.setattr(P, "max_weight_dp", consulted)
        monkeypatch.setattr(P, "WeightTable", consulted)
        for full in (False, True):
            got = [P.brute_force_max_weight(c, d, full)[0] for c in range(1, 6) for d in range(1, c + 1)]
            assert got == want


class TestIntegerClosedForm:
    @given(st.integers(min_value=1, max_value=500), st.data())
    @settings(max_examples=300)
    def test_matches_the_fraction_rewritings(self, c, data):
        d = data.draw(st.integers(min_value=1, max_value=c))
        dec = P.nr_decomposition(d)
        direct, expanded = _fraction_rewritings(dec.case, dec.n, dec.r, d, c)
        assert direct == expanded and direct.denominator == 1
        assert P.max_weight_closed_form(c, d) == direct

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200)
    def test_endpoint_seams_match_the_fraction_rewritings(self, c, n):
        def direct(case, m, r):
            scaled = P._direct_closed_form(case, m, r, c)
            exact = _fraction_rewritings(case, m, r, 0, c)[0]
            assert scaled == 6 * exact
            return exact

        want = (direct("square_pronic", n, n) == direct("square", n, 0)
                and direct("square_pronic", n - 1, 0) == direct("square", n, n))
        assert P.endpoint_consistency(c, n) == want

    def test_disagreeing_rewritings_are_refused(self, monkeypatch):
        monkeypatch.setattr(P, "_expanded_closed_form", lambda *args: 0)
        with pytest.raises(InternalInconsistencyError, match="disagree"):
            P.max_weight_closed_form(4, 3)

    def test_a_value_not_divisible_by_six_is_refused(self, monkeypatch):
        monkeypatch.setattr(P, "_direct_closed_form", lambda *args: 37)
        monkeypatch.setattr(P, "_expanded_closed_form", lambda *args: 37)
        with pytest.raises(InternalInconsistencyError, match="not integral"):
            P.max_weight_closed_form(4, 3)
