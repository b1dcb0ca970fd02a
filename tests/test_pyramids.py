"""Pyramid weights: column formula, exchange moves, closed forms, oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_lab import pyramids as P
from staircase_lab.errors import DomainError, InvalidMoveError, RangeError

from .strategies import top_segment_pyramids


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

    @given(top_segment_pyramids())
    def test_shift_adds_the_size(self, pyr):
        assert pyr.shifted().weight() == pyr.weight() + pyr.size


class TestMoves:
    def test_three_step_back_move_gains_one(self):
        # a(j) = a(i) with j = i - 3 gains exactly +1
        pyr = P.Pyramid.from_initial_degrees([0, 1, 0, 0, 1])
        assert P.move_delta(pyr, 4, 1) == 1

    def test_double_step_collapse_is_neutral(self):
        # a(i+2) = a(i) + 2 with j = i + 2 changes nothing
        pyr = P.Pyramid.from_initial_degrees([0, 0, 1, 1, 2, 3])
        assert P.move_delta(pyr, 3, 5) == 0

    def test_adjacent_jump(self):
        # a(i+1) = a(i) + 2 with j = i + 1 gains 2*2 - 1 - 2 = 1
        pyr = P.Pyramid.from_initial_degrees([0, 0, 1, 0, 2])
        assert P.move_delta(pyr, 3, 4) == 1

    @given(top_segment_pyramids(), st.data())
    @settings(max_examples=200)
    def test_formula_matches_recomputation(self, pyr, data):
        avec = pyr.initial_degrees()
        movable = [i for i in range(pyr.frame) if pyr.columns[i]]
        targets = [j for j in range(pyr.frame) if avec[j] > 0]
        pairs = [(i, j) for i in movable for j in targets if i != j]
        if not pairs:
            return
        i, j = data.draw(st.sampled_from(pairs))
        moved = P.apply_move(pyr, i, j)  # asserts the recomputed agreement
        assert moved.colength == pyr.colength

    def test_invalid_moves_rejected(self):
        pyr = P.Pyramid.from_initial_degrees([0, 1, 1])
        with pytest.raises(InvalidMoveError):
            P.move_delta(pyr, 1, 1)
        with pytest.raises(InvalidMoveError):
            P.move_delta(pyr, 1, 0)  # target already starts at zero


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
        assert dec.value() == d

    def test_every_d_has_exactly_one_representation(self):
        for d in range(1, 600):
            assert P.nr_decomposition(d).value() == d


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
        d = data.draw(st.integers(min_value=1, max_value=c))
        assert P.max_weight_dp(c, d, full_subsets=True) == P.brute_force_max_weight(c, d, full_subsets=True)

    def test_matches_closed_form(self):
        for c in range(1, 25):
            for d in range(1, c + 1):
                w, witness = P.max_weight_dp(c, d)
                assert w == P.max_weight_closed_form(c, d)
                assert (witness.weight(), witness.colength) == (w, d)

    def test_never_consults_the_closed_form(self, monkeypatch):
        def closed_form(c, d):
            raise AssertionError(f"closed form consulted at (c={c}, d={d})")

        monkeypatch.setattr(P, "max_weight_closed_form", closed_form)
        for c in range(1, 8):
            for d in range(1, c + 1):
                P.max_weight_dp(c, d)
                P.max_weight_dp(c, d, full_subsets=True)

    def test_domain(self):
        with pytest.raises(DomainError):
            P.max_weight_dp(3, 4)
        with pytest.raises(DomainError):
            P.max_weight_dp(3, 0)


class TestEndpointConsistency:
    @pytest.mark.parametrize("c,n", [(10, 3), (8, 2), (4, 1), (20, 5)])
    def test_seams_agree(self, c, n):
        assert P.endpoint_consistency(c, n)

    def test_degenerate(self):
        assert P.endpoint_consistency(3, 1)
