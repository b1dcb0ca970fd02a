"""Staircase model: colength, Hilbert functions, Borel moves, JSON."""

import json
import os
import subprocess
import sys
from itertools import accumulate, chain
from math import comb
from operator import gt
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from staircase_lab import alphagrade as A
from staircase_lab import hilbert as H
from staircase_lab import staircase as S
from staircase_lab.errors import DomainError, MalformedIdealError, RangeError
from staircase_lab.monomials import Monomial

from .strategies import ideals_small, partitions

ROOT = Path(__file__).resolve().parents[1]


def full_ideal():
    return S.from_generators([(0, 0)])


def ref_from_columns(columns, stable_from):
    """Reference construction: pad to stable_from with full columns, check
    the range of every column up to stable_from, then both growth laws
    column by column, then trim trailing full columns."""
    cols = [frozenset(col) for col in columns]
    if stable_from is None:
        stable_from = len(cols)

    def column(n):
        if n < 0:
            return frozenset()
        if n >= stable_from or n >= len(cols):
            return frozenset(range(n + 1))
        return cols[n]

    if stable_from < 0:
        raise MalformedIdealError("stable_from must be nonnegative")
    for n in range(stable_from + 1):
        col = column(n)
        if any(a < 0 or a > n for a in col):
            raise MalformedIdealError(f"column {n} has exponent outside [0, {n}]: {sorted(col)}")
    for n in range(stable_from + 1):
        col, nxt = column(n), column(n + 1)
        if not col <= nxt or not {a + 1 for a in col} <= nxt:
            raise MalformedIdealError("columns are not a staircase")
    stable = stable_from
    while stable > 0 and len(column(stable - 1)) == stable:
        stable -= 1
    return tuple(column(n) for n in range(stable)), stable


def assert_matches_reference(build, columns, stable_from):
    """``build()`` raises the reference construction's error, message and all,
    or returns its staircase."""
    try:
        want = ref_from_columns(columns, stable_from)
    except MalformedIdealError as exc:
        with pytest.raises(MalformedIdealError) as got:
            build()
        assert str(got.value) == str(exc)
        return
    ideal = build()
    assert (ideal.columns, ideal.stable_from) == want


def ref_partitions(d, cap):
    if d == 0:
        yield ()
        return
    for first in range(min(d, cap), 0, -1):
        for rest in ref_partitions(d - first, first):
            yield (first,) + rest


def ref_enumerate_ideals(d):
    """Per-cell reference: every column up to len(h) + max(h), then the
    reference construction."""
    out = []
    for h in ref_partitions(d, max(d, 1)):
        top = len(h) + max(h) if h else 0
        cols = [[a for a in range(n + 1) if n - a >= len(h) or a >= h[n - a]] for n in range(top + 1)]
        columns, stable = ref_from_columns(cols, top)
        out.append(S.GradedMonomialIdeal.from_columns(columns, stable))
    return out


def ref_cells(heights):
    """Per-cell columns of the staircase with these quotient heights, up to
    len(h) + max(h), and that index."""
    top = len(heights) + max(heights) if heights else 0
    cols = [[a for a in range(n + 1) if n - a >= len(heights) or a >= heights[n - a]] for n in range(top + 1)]
    return cols, top


def ref_column_view(columns, stable):
    """column(n) of a (columns, stable_from) pair: full from stable_from on."""
    return lambda n: frozenset() if n < 0 else columns[n] if n < stable else frozenset(range(n + 1))


def ref_generators(column, stable):
    """Column-by-column minimal generators: monomials of column n not reached
    from column n - 1 by x or y."""
    gens = []
    for n in range(stable + 1):
        prev = column(n - 1)
        below = prev | {a + 1 for a in prev}
        gens.extend((n - a, a) for a in sorted(column(n) - below))
    return gens


def ref_borel_closure(column, stable):
    """Column fixpoint: add a - 1 within a column and a + 1 in the next
    column until nothing changes, then the reference construction."""
    cols = [set(column(n)) for n in range(stable + 1)]
    changed = True
    while changed:
        changed = False
        for n in range(len(cols)):
            col = cols[n]
            add = {a - 1 for a in col if a >= 1} - col
            if add:
                col |= add
                changed = True
            if n + 1 < len(cols):
                up = {a + 1 for a in col} - cols[n + 1]
                if up:
                    cols[n + 1] |= up
                    changed = True
    return ref_from_columns(cols, len(cols) - 1)


def ref_from_generators(gens):
    """Per-monomial construction: a cell lies in the ideal when some generator
    divides it, checked with ``any`` over the generators."""
    pairs = [(int(gx), int(gy)) for gx, gy in gens]
    if any(gx < 0 or gy < 0 for gx, gy in pairs):
        raise DomainError(f"negative exponent in generators {pairs}")
    x_powers = [gx for gx, gy in pairs if gy == 0]
    y_powers = [gy for gx, gy in pairs if gx == 0]
    if not x_powers or not y_powers:
        raise MalformedIdealError(f"generators {pairs} do not cut out a finite colength")
    full_at = max(min(x_powers) + min(y_powers) - 1, 0)
    cols = [
        [a for a in range(n + 1) if any(gx <= n - a and gy <= a for gx, gy in pairs)]
        for n in range(full_at + 1)
    ]
    return ref_from_columns(cols, full_at)


@st.composite
def raw_columns(draw, unique=True):
    """Arbitrary column lists, mostly malformed, with an arbitrary stable_from.
    ``from_columns`` takes columns of distinct exponents; with
    ``unique=False`` a column may repeat one, as ideal JSON may."""
    columns = draw(st.lists(st.lists(st.integers(-1, 6), max_size=5, unique=unique), max_size=6))
    stable_from = draw(st.one_of(st.none(), st.integers(-2, 8)))
    return columns, stable_from


@st.composite
def columns_of_ideals(draw):
    """Columns of a valid staircase, cut or padded at an arbitrary index."""
    ideal = draw(ideals_small)
    columns = [sorted(ideal.column(n)) for n in range(ideal.stable_from + draw(st.integers(0, 3)))]
    stable_from = draw(st.one_of(st.none(), st.integers(max(len(columns) - 3, 0), len(columns) + 2)))
    return columns, stable_from


class TestPartitionStorage:
    """The heights-backed ideal against per-cell references of every view."""

    @given(ideals_small)
    def test_views_match_the_per_cell_reference(self, ideal):
        columns, stable = ref_from_columns(*ref_cells(ideal.heights))
        column = ref_column_view(columns, stable)
        assert (ideal.columns, ideal.stable_from) == (columns, stable)
        assert all(ideal.column(n) == column(n) for n in range(-1, stable + 3))
        assert ideal.colength == sum(n + 1 - len(column(n)) for n in range(stable))
        assert ideal.hilbert_function() == H.HilbertFunction.from_diff([len(column(n)) for n in range(stable + 1)])
        gens = ref_generators(column, stable)
        assert ideal.generators() == gens
        assert str(ideal) == "(" + ", ".join(str(Monomial(gx, gy, 0)) for gx, gy in gens) + ")"
        assert ideal.to_json_dict() == {"columns": [sorted(c) for c in columns], "stable_from": stable}

    @given(partitions(max_total=12))
    def test_from_columns_reads_the_heights_back(self, heights):
        ideal = S.GradedMonomialIdeal.from_columns(*ref_cells(heights))
        assert ideal.heights == heights
        assert ideal == S.GradedMonomialIdeal(heights)

    @pytest.mark.parametrize("heights", [(0,), (2, 0), (1, 2), (2, 3, 1), (-1,)])
    def test_heights_must_be_a_partition(self, heights):
        with pytest.raises(MalformedIdealError):
            S.GradedMonomialIdeal(heights)

    @given(ideals_small)
    def test_borel_closure_matches_the_column_fixpoint(self, ideal):
        closure = ideal.borel_closure()
        assert (closure.columns, closure.stable_from) == ref_borel_closure(ideal.column, ideal.stable_from)

    @given(st.one_of(
        st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=6),
        ideals_small.map(lambda ideal: ideal.generators()),
    ))
    def test_from_generators_matches_the_per_monomial_construction(self, gens):
        try:
            want = ref_from_generators(gens)
        except (DomainError, MalformedIdealError) as exc:
            with pytest.raises(type(exc)) as got:
                S.from_generators(gens)
            assert str(got.value) == str(exc)
            return
        ideal = S.from_generators(gens)
        assert (ideal.columns, ideal.stable_from) == want

    @given(
        st.one_of(raw_columns(), columns_of_ideals()),
        st.one_of(
            st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=6),
            ideals_small.map(lambda ideal: ideal.generators()),
        ),
        ideals_small,
    )
    def test_unchecked_builders_equal_the_validating_constructor(self, columns, gens, ideal):
        """``from_columns``, ``from_generators`` and ``borel_closure`` prove their heights
        a partition and build unchecked: each ideal is one the checked constructor accepts."""
        builds = (lambda: S.GradedMonomialIdeal.from_columns(*columns), lambda: S.from_generators(gens),
                  ideal.borel_closure)
        for build in builds:
            try:
                got = build()
            except DomainError:
                continue
            assert type(got.heights) is tuple and set(map(type, got.heights)) <= {int}
            assert got == S.GradedMonomialIdeal(got.heights)


class TestColength:
    def test_full_ideal(self):
        assert full_ideal().colength == 0

    def test_even_special_ideal(self):
        ideal = S.from_generators([(2, 0), (1, 2), (0, 4)])
        assert ideal.colength == 6

    def test_handle_and_power(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        assert ideal.colength == 5

    @given(ideals_small)
    def test_matches_hilbert_function(self, ideal):
        assert ideal.colength == ideal.hilbert_function().colength

    def test_infinite_colength_rejected(self):
        with pytest.raises(MalformedIdealError):
            S.from_generators([(1, 1), (2, 0)])


class TestHilbertFunction:
    def test_full(self):
        phi = full_ideal().hilbert_function()
        assert phi.diff == (1,)
        assert list(accumulate(chain(phi.diff, range(2, 7)))) == [comb(n + 2, 2) for n in range(6)]

    def test_colength_three_staircase(self):
        ideal = S.from_generators([(0, 1), (3, 0)])  # (y, x^3)
        assert ideal.hilbert_function().diff == (0, 1, 2, 4)
        assert ideal.hilbert_function().g_star() == 1

    def test_odd_special_ideal_function(self):
        ideal = S.from_generators([(2, 0), (1, 3), (0, 4)])
        chi = ideal.hilbert_function()
        assert chi.colength == 7
        assert chi == H.special_chi(7)

    def test_even_special_ideal_function(self):
        for e in range(4, 9):
            ideal = S.from_generators([(2, 0), (1, e - 2), (0, e)])
            assert ideal.hilbert_function() == H.special_chi(2 * (e - 1))

    @given(partitions(max_total=30))
    def test_trusted_function_is_canonical_and_admissible(self, heights):
        ideal = S.GradedMonomialIdeal(heights)
        phi = ideal.hilbert_function()
        assert H.HilbertFunction.from_diff(phi.diff) == phi
        assert phi.regularity == ideal.stable_from

    def test_built_once_per_ideal(self):
        ideal = S.GradedMonomialIdeal((3, 1, 1))
        assert ideal.hilbert_function() is ideal.hilbert_function()

    @given(ideals_small)
    def test_always_admissible(self, ideal):
        diff = [len(ideal.column(n)) for n in range(ideal.stable_from + 2)]
        assert H.is_valid(diff)

    @given(ideals_small)
    def test_columns_full_from_the_colength_on(self, ideal):
        d = ideal.colength
        for n in range(d, d + 3):
            assert len(ideal.column(n)) == n + 1


def column_sum(ideal):
    """The reference: the alpha-grade summed column by column."""
    return A.alpha_grade_columns(ideal.column(n) for n in range(ideal.stable_from))


class TestAlphaGrade:
    def test_matches_the_column_sum_on_every_staircase_of_colength_up_to_21(self):
        ideals = [ideal for d in range(22) for ideal in S.enumerate_ideals(d)]
        assert len(ideals) == 3506
        assert [ideal.alpha_grade for ideal in ideals] == list(map(column_sum, ideals))

    @given(partitions(max_total=40))
    def test_matches_the_column_sum(self, heights):
        ideal = S.GradedMonomialIdeal(heights)
        assert ideal.alpha_grade == column_sum(ideal)

    def test_values(self):
        assert full_ideal().alpha_grade == 0
        assert S.from_generators([(1, 1), (0, 2), (4, 0)]).alpha_grade == 5
        assert S.from_generators([(0, 1), (5, 0)]).alpha_grade == 10


class TestBorel:
    def test_lex_segment_columns_are_fixed(self):
        assert S.from_generators([(2, 0), (1, 2), (0, 4)]).is_borel_fixed()

    def test_full_ideal_fixed(self):
        assert full_ideal().is_borel_fixed()

    def test_handle_ideal_not_fixed(self):
        assert not S.from_generators([(1, 1), (0, 2), (4, 0)]).is_borel_fixed()

    def test_the_early_stopping_walk_matches_the_check_over_all_columns(self):
        # the reference reads every column, up to two past stable_from, before it decides
        def ref_is_borel_fixed(ideal):
            cols = [ideal.column(n) for n in range(ideal.stable_from + 2)]
            return all(
                (a == 0 or a - 1 in col) and a + 1 in nxt for col, nxt in zip(cols, cols[1:]) for a in col
            )

        seen = 0
        for d in range(19):
            for ideal in S.enumerate_ideals(d):
                for case in (ideal, ideal.borel_closure()):
                    assert case.is_borel_fixed() == ref_is_borel_fixed(case), case.heights
                seen += 1
        assert seen == 1597

    def test_masks_wider_than_a_machine_word(self):
        # the walk's masks reach stable_from + 1 bits, up to 82 here.  The reference reads the
        # columns one by one, for the first that holds some y^a (a >= 1) without y^(a - 1)
        def first_failing_column(ideal):
            cols = map(ideal.column, range(ideal.stable_from + 1))
            return next((n for n, col in enumerate(cols) if any(a - 1 not in col for a in col if a)), None)

        for d in range(1, 81):
            late = (d, d, *range(d - 2, 0, -2))  # only h_0 = h_1 breaks the exchange, at degree stable_from - 1
            for heights in [(d,), (1,) * d, tuple(range(d, 0, -1)), late]:
                ideal = S.GradedMonomialIdeal(heights)
                first = first_failing_column(ideal)
                assert ideal.is_borel_fixed() == (first is None) == all(map(gt, heights, heights[1:]))
            assert first == ideal.stable_from - 1 == d

    @given(ideals_small)
    def test_closure_is_fixed_and_never_larger_colength(self, ideal):
        closure = ideal.borel_closure()
        assert closure.is_borel_fixed()
        assert closure.colength <= ideal.colength
        if ideal.is_borel_fixed():
            assert closure == ideal


class TestValidation:
    def test_growth_violation_rejected(self):
        with pytest.raises(MalformedIdealError):
            S.GradedMonomialIdeal.from_columns([[0], []], 2)

    def test_out_of_range_exponent_rejected(self):
        with pytest.raises(MalformedIdealError):
            S.GradedMonomialIdeal.from_columns([[1]], 1)

    def test_negative_stable_from_rejected(self):
        with pytest.raises(MalformedIdealError):
            S.GradedMonomialIdeal.from_columns([], -1)

    @given(st.one_of(raw_columns(), columns_of_ideals()))
    @example(([[0], [], [5]], None))  # a range error behind an earlier growth error
    @example(([[], [1], [0, 2]], None))  # heights (1, 2) account for every missing cell, yet increase
    @example(([[], [0, 1], [1, 2]], None))  # h_1 = 0, and x^2 is missing past it
    def test_matches_pad_validate_trim(self, args):
        assert_matches_reference(lambda: S.GradedMonomialIdeal.from_columns(*args), *args)


class TestJson:
    @given(ideals_small)
    def test_round_trip_is_bit_exact(self, ideal):
        text = json.dumps(ideal.to_json_dict())
        back = S.GradedMonomialIdeal.from_json_dict(json.loads(text))
        assert back == ideal
        assert json.dumps(back.to_json_dict()) == text

    def test_columns_beyond_the_array_are_full(self):
        ideal = S.GradedMonomialIdeal.from_json_dict({"columns": [[], [0]], "stable_from": 2})
        assert ideal.column(5) == frozenset(range(6))

    def test_malformed_json_rejected(self):
        with pytest.raises(DomainError):
            S.GradedMonomialIdeal.from_json_dict({"columns": [[0]]})

    @pytest.mark.parametrize("data", [
        {"columns": [[], [0.9, 1]], "stable_from": 2},
        {"columns": [[], [0, 1]], "stable_from": 2.7},
        {"columns": [[True]], "stable_from": 1},
        {"columns": [["0"]], "stable_from": 1},
        {"columns": [[0]], "stable_from": False},
        {"columns": [[0]], "stable_from": "1"},
        {"columns": "", "stable_from": 0},
        [],
    ])
    def test_non_integers_are_malformed_not_rounded(self, data):
        with pytest.raises(DomainError, match="^malformed ideal JSON"):
            S.GradedMonomialIdeal.from_json_dict(data)

    @given(raw_columns(unique=False))
    def test_json_matches_pad_validate_trim(self, args):
        columns, stable_from = args
        data = {"columns": columns, "stable_from": stable_from}
        if stable_from is None:
            with pytest.raises(DomainError, match="^malformed ideal JSON"):
                S.GradedMonomialIdeal.from_json_dict(data)
            return
        assert_matches_reference(lambda: S.GradedMonomialIdeal.from_json_dict(data), columns, stable_from)


class TestEnumeration:
    def test_counts_are_partition_numbers(self):
        assert [len(S.enumerate_ideals(d)) for d in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    @pytest.mark.parametrize("d", range(9))
    def test_agreement_with_function_enumeration(self, d):
        via_ideals = {ideal.hilbert_function() for ideal in S.enumerate_ideals(d)}
        assert via_ideals == set(H.enumerate_hilbert_functions(d))

    @pytest.mark.parametrize("d", range(13))
    def test_matches_per_cell_reference(self, d):
        assert S.enumerate_ideals(d) == ref_enumerate_ideals(d)

    @pytest.mark.parametrize("d", range(31))
    def test_unchecked_ideals_equal_the_validated_ones(self, d):
        # the walk's heights and order against the recursive reference
        assert S.enumerate_ideals(d) == [S.GradedMonomialIdeal(h) for h in ref_partitions(d, max(d, 1))]

    def test_all_distinct_and_right_colength(self):
        for d in range(8):
            ideals = S.enumerate_ideals(d)
            assert len(set(ideals)) == len(ideals)
            assert all(ideal.colength == d for ideal in ideals)

    def test_each_staircase_carries_the_stable_from_and_function_of_a_fresh_one(self):
        seen = 0
        for d in range(31):
            for walked in S.enumerate_ideals(d):
                assert {"stable_from", "_hilbert_function"} <= vars(walked).keys()  # handed over, not computed on use
                fresh = S.GradedMonomialIdeal(walked.heights)
                assert walked.stable_from == fresh.stable_from
                assert walked.hilbert_function().diff == fresh.hilbert_function().diff
                # and against the columns, a view the end counts do not build
                columns = map(fresh.column, range(fresh.stable_from + 1))
                assert walked.hilbert_function().diff == tuple(map(len, columns))
                seen += 1
        assert seen == 28629  # p(0) + ... + p(30)

    def test_the_ends_of_the_shell(self):
        (empty,) = S.enumerate_ideals(0)
        assert (empty.heights, empty.stable_from, empty.hilbert_function().diff) == ((), 0, (1,))
        assert empty == full_ideal()
        with pytest.raises(RangeError):
            S.enumerate_ideals(-1)

    def test_no_shell_outlives_its_call(self):
        # in a fresh process, so that no earlier test has filled a cache that this walk would then only read;
        # a full collection also empties the interpreter's free lists, which keep the dropped tuples' blocks
        code = ("import gc, tracemalloc\nfrom staircase_lab import staircase\ntracemalloc.start()\n"
                "for d in range(31):\n    staircase.enumerate_ideals(d)\ngc.collect()\n"
                "print(tracemalloc.get_traced_memory()[0])")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
                                check=True)
        assert int(result.stdout) < 32_000  # bytes; a cache of the shapes walked would hold about 6.5 MB


class TestGenerators:
    @pytest.mark.parametrize("bad", [(2.7, 0), (True, 1), "3"])
    def test_non_integer_exponents_are_refused_not_rounded(self, bad):
        with pytest.raises(DomainError, match="expected an array of integers"):
            S.from_generators([bad, (0, 1), (1, 0)])

    @given(ideals_small)
    def test_round_trip_through_generators(self, ideal):
        if ideal.colength == 0:
            return
        assert S.from_generators(ideal.generators()) == ideal
