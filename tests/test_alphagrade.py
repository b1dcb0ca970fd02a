"""Alpha-grades: cycle degrees, selection extremes, bounds, genus values."""

import functools
import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staircase_lab import alphagrade as A
from staircase_lab import hilbert as H
from staircase_lab import inequalities as I
from staircase_lab import staircase as S
from staircase_lab import standard_form as SF
from staircase_lab import torus as T
from staircase_lab.catalog import (
    CASES,
    build_space,
    case_by_name,
    chain_staircase,
    double_deformation_space,
    marker_deformation_space,
    zero_limit_ideal,
)
from staircase_lab.errors import (
    DegenerateSpaceError,
    DomainError,
    InternalInconsistencyError,
    RangeError,
)
from staircase_lab.monomials import Monomial
from staircase_lab.suites import run_suite
from staircase_lab.suites.families import _KERNELS

from .strategies import COLLIDING_FINALS, deformation_inputs, ideals_small


def naive_selections(space):
    """Every choice of one monomial per chain without repeats, by brute force
    over the full product; raises where the search must raise."""
    options = [chain.monomials(space.weight) for chain in space.chains]
    if math.prod(map(len, options)) > A.SELECTION_BUDGET:
        raise RangeError("selection budget exceeded")
    fixed = [opt[0] for opt in options if len(opt) == 1]
    if len(set(fixed)) != len(fixed):
        raise InternalInconsistencyError("duplicate initial monomials")
    found = False
    for sel in itertools.product(*options):
        if len(set(sel)) == len(sel):
            found = True
            yield sel
    if not found:
        raise DegenerateSpaceError("no collision-free selection")


def ref_minmax(space):
    """Two-pass reference: the extreme grades over all selections."""
    grades = [A.alpha_grade_monomials(sel) for sel in naive_selections(space)]
    return min(grades), max(grades)


def ref_spread(space, split):
    """Two-pass reference: the largest right value among the max-grade
    selections minus the smallest among the min-grade ones."""
    lo, hi = ref_minmax(space)
    at_max, at_min = [], []
    for sel in naive_selections(space):
        g = A.alpha_grade_monomials(sel)
        right = A.alpha_grade_monomials([m for m in sel if m.xy_degree > split.threshold])
        if g == hi:
            at_max.append(right)
        if g == lo:
            at_min.append(right)
    return max(at_max) - min(at_min)


def reference_spaces():
    spaces = [
        (f"{case.name}/m={m}", build_space(case, m)) for case in CASES for m in range(case.min_m, case.min_m + 3)
    ]
    spaces.append(("double-deformation", double_deformation_space()))
    # at threshold 3 the first max-grade selection has not the largest right
    # grade among the max-grade ones, nor the first min-grade one the smallest
    tied = S.from_generators([(1, 1), (4, 0), (0, 4)])
    deformations = [(Monomial(0, 4, 3), [2]), (Monomial(1, 2, 4), [1]), (Monomial(2, 2, 3), [1])]
    spaces.append(("tied-extremes", T.deformed_section_space(tied, 7, T.TorusWeight((1, -2, 1)), deformations)))
    for r in (1, 2):
        for c in range(4):
            ms = I.feasible_chains(r, c, 0)[0]
            ideal = chain_staircase(ms, _KERNELS[c])
            for target in range(1, r + 1):
                space = marker_deformation_space(ms, ideal, target)
                spaces.append((f"marker r={r} c={c} t={target}", space))
            if c >= 1:
                left = marker_deformation_space(ms, ideal, "left")
                spaces.append((f"marker r={r} c={c} left", left))
    # column form, weight (-1, 0, 1): each step goes one column left, so the chain of column 5 joins columns 5, 4
    # and 3, and the chain of column 4 starts in a column of that class; the fold walks to the class's root
    leftward = T.TorusWeight((-1, 0, 1))
    for label, second in [("joined", Monomial(3, 1, 1)), ("joined colliding", Monomial(2, 2, 1))]:
        chains = [T.Chain(Monomial(3, 2, 0), frozenset({0, 1, 2})), T.Chain(second, frozenset({0, 1})),
                  T.Chain(Monomial(3, 0, 2), frozenset({0}))]
        spaces.append((f"column form {label}", T.SemiInvariantSpace(leftward, chains)))
    return spaces


REFERENCE_SPACES = reference_spaces()
SECTION_SPACES = [(label, space) for label, space in REFERENCE_SPACES if space.staircase is not None]


def unchecked_space(weight, chains):
    """A space that skips the distinct-initials check, so that the search's
    own duplicate and empty-selection checks can be reached: a repeated
    plain chain leaves its column one monomial short of the dimension."""
    chains = tuple(chains)
    columns = {}
    for chain in chains:
        if len(chain.support) == 1:
            columns.setdefault(chain.initial.xy_degree, set()).add(chain.initial.ey)
    deformed = [chain for chain in chains if len(chain.support) > 1]
    space = object.__new__(T.SemiInvariantSpace)
    space._fill(weight, chains[0].initial.degree, deformed, len(chains), columns=columns, chains=chains)
    return space


def fresh(space):
    """A copy of ``space`` on which no search has run yet."""
    copy = object.__new__(T.SemiInvariantSpace)
    for name in T.SemiInvariantSpace.__slots__:
        setattr(copy, name, getattr(space, name))
    copy._search = None
    return copy


def unchecked_section_space(ideal, level, weight, deformed):
    """A section space whose chains the builder has not reduced: a step onto
    a plain section monomial stays an option, so that the search's and the
    limit's own membership tests on the heights are reached."""
    base = T.deformed_section_space(ideal, level, weight, ())
    space = object.__new__(T.SemiInvariantSpace)
    space._fill(weight, level, deformed, base.dimension, base.staircase)
    return space


@st.composite
def chain_spaces(draw, section_form=st.booleans()):
    """Section spaces of small staircases with 1-8 random chain supports,
    kept over the staircase's heights when ``section_form`` draws True and
    in column form otherwise.

    Small torus weights and steps make chains land on fixed monomials and on
    each other's options; sometimes a chain of a column-form space repeats
    another's initial.  Half of the draws deform 5-8 chains by one step each
    out of the section space when the staircase allows it: each such chain
    keeps both of its options, so the walk goes three or more chains deep
    while the brute-force reference stays small.
    """
    deep = draw(st.booleans())
    ideal = draw(ideals_small.filter(lambda ideal: ideal.colength >= 5) if deep else ideals_small)
    level = ideal.colength + draw(st.integers(0, 1))
    basis = ideal.section_monomials(level)
    r0, r1 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    weight = T.TorusWeight((r0, r1, -r0 - r1)) if (r0, r1) != (0, 0) else T.TorusWeight((1, -1, 0))

    def reach(mon):
        """The largest step j <= 3 that keeps the exponents nonnegative."""
        for j in (3, 2, 1):
            try:
                weight.step(mon, j)
                return j
            except DomainError:
                pass
        return 0

    def support(mon):
        top = reach(mon)
        return frozenset([0, *draw(st.sets(st.integers(1, top), min_size=1))]) if top else frozenset([0])

    sections = set(basis)
    leaving = {}  # the steps that take a section monomial out of the section space
    for mon in basis:
        if out := [j for j in range(1, reach(mon) + 1) if weight.step(mon, j) not in sections]:
            leaving[mon] = out
    if deep and len(leaving) >= 5:
        picks = draw(st.lists(st.sampled_from(list(leaving)), min_size=5, max_size=8, unique=True))
        supports = {mon: frozenset([0, draw(st.sampled_from(leaving[mon]))]) for mon in picks}
    else:
        movable = [mon for mon in basis if reach(mon)] or basis
        picks = draw(st.lists(st.sampled_from(movable), min_size=1, max_size=4, unique=True))
        supports = {mon: support(mon) for mon in picks}
    chains = [T.Chain(mon, supports.get(mon, frozenset([0]))) for mon in basis]
    if draw(section_form):
        return unchecked_section_space(ideal, level, weight, [c for c in chains if len(c.support) > 1])
    if draw(st.integers(0, 4)) == 4:
        repeat = draw(st.sampled_from(basis))
        chains.append(T.Chain(repeat, support(repeat)))
    return unchecked_space(weight, chains)


class TestAlphaGradeColumns:
    def test_full_columns_vanish(self):
        assert A.alpha_grade_columns([range(i + 1) for i in range(6)]) == 0

    def test_single_column(self):
        assert A.alpha_grade_columns([{1, 3}]) == 3

    @given(ideals_small)
    def test_matches_pyramid_weight(self, ideal):
        from staircase_lab import pyramids as P

        d = ideal.colength
        if d == 0:
            return
        cols = [ideal.column(i) for i in range(d)]
        assert A.alpha_grade_columns(cols) == P.Pyramid.from_columns(cols).weight()

    @given(ideals_small)
    def test_shift_covariance(self, ideal):
        d = max(ideal.colength, 1)
        cols = [ideal.column(i) for i in range(d)]
        shifted = [set()] + [{a + 1 for a in col} for col in cols]
        count = sum(len(col) for col in cols)
        assert A.alpha_grade_columns(shifted) == A.alpha_grade_columns(cols) + count


class TestCycleDegree:
    def test_handle_and_coordinate_axis(self):
        handle = S.from_generators([(1, 1), (0, 2), (4, 0)])
        axis = S.from_generators([(0, 1), (5, 0)])
        for n in range(4, 9):
            assert A.cycle_degree(handle, n) == 5
        for n in range(4, 9):
            assert A.cycle_degree(axis, n) == 10

    def test_lex_segment_pattern_vanishes(self):
        for d in range(2, 7):
            ideal = S.from_generators([(1, 0), (0, d)])  # (x, y^d)
            assert A.cycle_degree(ideal, d) == 0

    def test_below_range_rejected(self):
        handle = S.from_generators([(1, 1), (0, 2), (4, 0)])
        with pytest.raises(RangeError):
            A.cycle_degree(handle, 3)

    @given(ideals_small)
    def test_stabilization(self, ideal):
        d = ideal.colength
        base = A.cycle_degree(ideal, max(d - 1, 0))
        assert all(A.cycle_degree(ideal, n) == base for n in range(d, d + 4))


class TestQValue:
    def test_values(self):
        assert H.q_value(5, 3) == 5
        assert H.q_value(14, 7) == 22
        assert H.q_value(0, 3) == 10


class TestMinMax:
    def test_all_monomial_space(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        space = T.deformed_section_space(ideal, 5, T.TorusWeight((-1, 0, 1)), ())
        g = A.cycle_degree(ideal, 5)
        assert A.minmax_alpha_grade(space) == (g, g)

    def test_handle_deformation(self):
        space = build_space(case_by_name("7.3"), 4)
        assert A.minmax_alpha_grade(space) == (5, 10)

    def test_double_deformation(self):
        assert A.minmax_alpha_grade(double_deformation_space()) == (13, 21)

    def test_budget(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        weight = T.TorusWeight((0, -1, 1))
        chains = tuple(
            T.Chain(mon, frozenset(range(8))) if mon.ey >= 8 else T.Chain(mon, frozenset([0]))
            for mon in ideal.section_monomials(30)
        )
        with pytest.raises(RangeError):
            A.minmax_alpha_grade(T.SemiInvariantSpace(weight, chains))

    def test_colliding_steps_contribute_nothing(self):
        # the first chain's only step lands on the second chain's initial, so
        # the all-initials selection is the single admissible one
        weight = T.TorusWeight((-1, 1, 0))
        chains = (
            T.Chain(Monomial(2, 0, 0), frozenset([0, 1])),
            T.Chain(Monomial(1, 1, 0), frozenset([0])),
        )
        lo, hi = A.minmax_alpha_grade(T.SemiInvariantSpace(weight, chains))
        assert lo == hi == A.alpha_grade_monomials([Monomial(2, 0, 0), Monomial(1, 1, 0)])

    def test_sandwich_on_all_fixtures(self):
        for case in CASES:
            for m in (case.min_m, case.min_m + 2):
                space = build_space(case, m)
                lo, hi = A.minmax_alpha_grade(space)
                for direction in ("zero", "infinity"):
                    limit = T.limit_ideal(space, direction)
                    deg = A.alpha_grade_columns(limit.column(i) for i in range(space.degree + 1))
                    assert lo <= deg <= hi


class TestOnePassExtremes:
    @pytest.mark.parametrize("label, space", REFERENCE_SPACES, ids=[label for label, _ in REFERENCE_SPACES])
    def test_matches_the_two_pass_reference(self, label, space):
        assert A.minmax_alpha_grade(space) == ref_minmax(space)
        for threshold in range(space.degree + 1):
            split = A.DomainSplit(threshold)
            assert A.right_domain_spread(space, split) == ref_spread(space, split), threshold

    def test_spread_enumerates_the_selections_once(self, monkeypatch):
        """One space folds its options once, across minmax_alpha_grade and
        right_domain_spread at every threshold: one fold, and at most one
        option pass per deformed chain."""
        calls, folds = [], []
        monomials, fold = T.Chain.monomials, A._fold
        space = double_deformation_space()
        monkeypatch.setattr(T.Chain, "monomials", lambda chain, weight: calls.append(chain) or monomials(chain, weight))
        monkeypatch.setattr(A, "_fold", lambda space: folds.append(space) or fold(space))
        A.minmax_alpha_grade(space)
        for threshold in range(space.degree + 1):
            A.right_domain_spread(space, A.DomainSplit(threshold))
        A.minmax_alpha_grade(space)
        assert folds == [space]
        assert set(Counter(calls).values()) <= {1}


SHIFT = T.TorusWeight((-1, 1, 0))  # x^a y^b -> x^(a-j) y^(b+j): every step stays in one column layer
X2, XY, Y2 = Monomial(2, 0, 0), Monomial(1, 1, 0), Monomial(0, 2, 0)


def make_chain(initial, *steps):
    return T.Chain(initial, frozenset([0, *steps]))


def no_walk(*args):
    raise AssertionError("the walk was entered")


class TestSlotWalk:
    def test_all_forced_chains_skip_the_walk(self, monkeypatch):
        # the step of x^2 lands on the plain xy, so x^2 is forced and nothing is walked
        space = T.SemiInvariantSpace(SHIFT, [make_chain(X2, 1), make_chain(XY)])
        monkeypatch.setattr(A, "_walk", no_walk)
        grade = A.alpha_grade_monomials([X2, XY])
        assert A.minmax_alpha_grade(space) == (grade, grade)
        for threshold in range(space.degree + 1):
            assert A.right_domain_spread(space, A.DomainSplit(threshold)) == 0

    def test_a_pick_is_freed_for_the_next_sibling(self):
        # selections (x^2, xy), (x^2, y^2), (xy, y^2) grade 0, 1, 2: the
        # maximum needs xy again in the second chain after the first chain tried it
        space = T.SemiInvariantSpace(SHIFT, [make_chain(X2, 1), make_chain(XY, 1)])
        assert A.minmax_alpha_grade(space) == ref_minmax(space) == (0, 2)

    @pytest.mark.parametrize(
        "chains",
        [
            # three chains share the options x^2 and xy: the first two walked take both
            [make_chain(X2, 1), make_chain(X2, 1), make_chain(X2, 1)],
            # y^2 is plain, so xy and x^2 are forced picks and take both options of the walked chain
            [make_chain(Y2), make_chain(XY, 1), make_chain(X2, 2), make_chain(X2, 1)],
        ],
        ids=["by-walked-picks", "by-forced-picks"],
    )
    def test_last_chain_with_every_option_taken_is_degenerate(self, chains):
        space = unchecked_space(SHIFT, chains)
        with pytest.raises(DegenerateSpaceError, match="no collision-free selection exists"):
            A.minmax_alpha_grade(space)
        with pytest.raises(DegenerateSpaceError, match="no collision-free selection exists"):
            A.right_domain_spread(space, A.DomainSplit(1))

    def test_two_forced_picks_on_one_monomial_are_degenerate(self, monkeypatch):
        # xy is plain, so both repeats of x^2 are left with x^2 alone
        space = unchecked_space(SHIFT, [make_chain(XY), make_chain(X2, 1), make_chain(X2, 1), make_chain(Y2)])
        monkeypatch.setattr(A, "_walk", no_walk)
        with pytest.raises(DegenerateSpaceError, match="no collision-free selection exists"):
            A.minmax_alpha_grade(space)
        with pytest.raises(DegenerateSpaceError, match="no collision-free selection exists"):
            A.right_domain_spread(space, A.DomainSplit(0))

    @pytest.mark.parametrize("label, space", REFERENCE_SPACES[::4], ids=[label for label, _ in REFERENCE_SPACES[::4]])
    def test_one_grading_call_per_search(self, monkeypatch, label, space):
        """The first search on a space makes one alpha_grade_monomials call
        (the per-layer benchmark counts it), whichever search it is, and the
        later searches on that space make none."""
        calls = []
        grade = A.alpha_grade_monomials
        monkeypatch.setattr(A, "alpha_grade_monomials", lambda monomials: calls.append(1) or grade(monomials))
        space, spread_first = fresh(space), fresh(space)
        A.minmax_alpha_grade(space)
        assert len(calls) == 1
        for threshold in range(space.degree + 1):
            A.right_domain_spread(space, A.DomainSplit(threshold))
        A.minmax_alpha_grade(space)
        assert len(calls) == 1
        A.right_domain_spread(spread_first, A.DomainSplit(space.degree // 2))
        A.minmax_alpha_grade(spread_first)
        assert len(calls) == 2


def outcome(compute):
    """The value, or the type of the search error raised instead."""
    try:
        return compute()
    except (RangeError, DegenerateSpaceError, InternalInconsistencyError) as exc:
        return type(exc)


class TestIncrementalMatchesNaive:
    @settings(max_examples=100, deadline=None)
    @given(chain_spaces(), st.integers(1, 64) | st.just(A.SELECTION_BUDGET))
    @example(  # both options of the repeated chain are fixed monomials
        unchecked_space(
            T.TorusWeight((-1, 1, 0)),
            [T.Chain(Monomial(2, 0, 0), frozenset([0])), T.Chain(Monomial(1, 1, 0), frozenset([0])),
             T.Chain(Monomial(2, 0, 0), frozenset([0, 1]))],
        ),
        A.SELECTION_BUDGET,
    )
    @example(  # two repeated chains are each left with the same single option
        unchecked_space(
            T.TorusWeight((-1, 1, 0)),
            [T.Chain(Monomial(1, 1, 0), frozenset([0])), T.Chain(Monomial(2, 0, 0), frozenset([0, 1])),
             T.Chain(Monomial(2, 0, 0), frozenset([0, 1]))],
        ),
        A.SELECTION_BUDGET,
    )
    def test_extremes_and_errors(self, space, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(A, "SELECTION_BUDGET", budget)
            assert outcome(lambda: A.minmax_alpha_grade(space)) == outcome(lambda: ref_minmax(space))
            for threshold in range(space.degree + 1):
                split = A.DomainSplit(threshold)
                got = outcome(lambda: A.right_domain_spread(space, split))
                assert got == outcome(lambda: ref_spread(space, split)), threshold


class TestSearchesOnOneSpace:
    @settings(max_examples=60, deadline=None)
    @given(chain_spaces(), st.data())
    def test_any_order_matches_a_fresh_space_and_the_reference(self, space, data):
        """The fold kept by one search serves the next at any threshold; a
        search that raises keeps nothing, and raises again."""
        queries = [None, *range(space.degree + 1)]  # None: minmax_alpha_grade
        order = data.draw(st.permutations(queries)) + data.draw(st.lists(st.sampled_from(queries), max_size=4))
        for threshold in order:
            if threshold is None:
                search, ref = A.minmax_alpha_grade, ref_minmax
            else:
                split = A.DomainSplit(threshold)
                search, ref = (lambda s: A.right_domain_spread(s, split)), (lambda s: ref_spread(s, split))
            got = outcome(lambda: search(space))
            assert got == outcome(lambda: search(fresh(space))) == outcome(lambda: ref(space)), threshold
            assert (space._search is None) == isinstance(got, type)


@st.composite
def multi_class_spaces(draw):
    """Column-form spaces of the weight SHIFT whose walked chains lie in two
    or three columns: every option of a SHIFT chain lies in its initial's
    column, so the search sees one class per column.

    Each column gets a chain from x^col with a step that no plain monomial
    of the column takes, so it is always walked.  Plain monomials and up to
    two more one-step chains, sometimes on the same initials, make options
    drop and collide, so that some classes have no collision-free selection.
    """
    n = draw(st.integers(3, 5))
    chains = [make_chain(Monomial(0, 0, n))] if draw(st.booleans()) else []
    for col in draw(st.lists(st.integers(1, n), min_size=2, max_size=3, unique=True)):
        steps = draw(st.sets(st.integers(1, col), min_size=1, max_size=2))
        plain = draw(st.sets(st.integers(1, col).filter(lambda ey: ey != min(steps))))
        chains += [make_chain(Monomial(col - ey, ey, n - col)) for ey in plain]
        chains.append(make_chain(Monomial(col, 0, n - col), *steps))
        for a in draw(st.lists(st.sampled_from([a for a in range(1, col + 1) if col - a not in plain]), max_size=2)):
            chains.append(make_chain(Monomial(a, col - a, n - col), draw(st.integers(1, a))))
    return unchecked_space(SHIFT, draw(st.permutations(chains)))


def walk_entries(monkeypatch):
    """Patch ``_walk`` to record the number of chains of each top-level
    call, not of the calls it makes on itself."""
    entries, depth, walk = [], [0], A._walk

    def counted(choices, i, *rest):
        if not depth[0]:
            entries.append(len(choices))
        depth[0] += 1
        try:
            return walk(choices, i, *rest)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(A, "_walk", counted)
    return entries


def at(col, ey, degree=3):
    """The degree-3 monomial of x,y-degree ``col`` and y-degree ``ey``."""
    return Monomial(col - ey, ey, degree - col)


class TestColumnClasses:
    @settings(max_examples=100, deadline=None)
    @given(multi_class_spaces())
    @example(  # column 2 is degenerate (three chains share x^2 z and xyz), column 3 is not
        unchecked_space(SHIFT, [make_chain(at(2, 0), 1), make_chain(at(2, 0), 1), make_chain(at(2, 0), 1),
                                make_chain(at(3, 0), 1), make_chain(at(3, 1), 1)])
    )
    def test_classes_match_the_reference_at_every_threshold(self, space):
        fold = outcome(lambda: A._fold(fresh(space)))
        assert fold is DegenerateSpaceError or len(fold[3]) >= 2
        assert outcome(lambda: A.minmax_alpha_grade(space)) == outcome(lambda: ref_minmax(space))
        for threshold in range(space.degree + 1):
            split = A.DomainSplit(threshold)
            got = outcome(lambda: A.right_domain_spread(space, split))
            assert got == outcome(lambda: ref_spread(space, split)), threshold

    def test_one_degenerate_class_makes_the_space_degenerate(self):
        # column 3 alone has selections; column 2 has three chains for its two options x^2 z and xyz
        healthy = [make_chain(at(3, 0), 1), make_chain(at(3, 1), 1)]
        space = unchecked_space(SHIFT, [*healthy, make_chain(at(2, 0), 1), make_chain(at(2, 0), 1),
                                        make_chain(at(2, 0), 1)])
        assert len(A._fold(fresh(space))[3]) == 2
        assert outcome(lambda: A.minmax_alpha_grade(space)) is DegenerateSpaceError
        assert outcome(lambda: ref_minmax(space)) is DegenerateSpaceError
        assert A.minmax_alpha_grade(unchecked_space(SHIFT, healthy)) == ref_minmax(unchecked_space(SHIFT, healthy))

    def test_each_search_walks_each_class_once(self, monkeypatch):
        # column 2: two chains, column 3: three chains in a row of shared options
        space = T.SemiInvariantSpace(SHIFT, [
            make_chain(at(0, 0)),
            make_chain(at(2, 0), 1, 2), make_chain(at(2, 1), 1),
            make_chain(at(3, 0), 1), make_chain(at(3, 1), 1), make_chain(at(3, 2), 1),
        ])
        want = ref_minmax(space), [ref_spread(space, A.DomainSplit(t)) for t in range(space.degree + 1)]
        entries = walk_entries(monkeypatch)
        assert A.minmax_alpha_grade(space) == want[0]
        assert entries == [2, 3]
        for threshold in range(space.degree + 1):
            entries.clear()
            assert A.right_domain_spread(space, A.DomainSplit(threshold)) == want[1][threshold]
            assert entries == [2, 3], threshold

    @pytest.mark.parametrize("label, space", REFERENCE_SPACES, ids=[label for label, _ in REFERENCE_SPACES])
    def test_the_classes_are_the_components_of_the_column_graph(self, label, space):
        # the walked chains' options, off the space itself; two chains are joined when they reach a common column
        is_plain = space.plain_part()[2]
        walked = [frozenset((m.xy_degree, m.ey) for m in chain.monomials(space.weight)
                            if not is_plain(m.xy_degree, m.ey)) for chain in space.deformed]
        unseen, components = {options for options in walked if len(options) > 1}, set()
        while unseen:  # breadth first from any chain not yet reached
            queue = [unseen.pop()]
            component = set(queue)
            while queue:
                columns = {col for col, _ in queue.pop(0)}
                joined = {options for options in unseen if columns & {col for col, _ in options}}
                unseen -= joined
                component |= joined
                queue += joined
            components.add(frozenset(component))
        _, _, _, classes, numbered = A._fold(fresh(space))
        assert {frozenset(frozenset((numbered[col], ey) for _, col, ey, _ in options) for options in group)
                for group in classes} == components

    def test_one_class_keeps_the_walk_order(self):
        # every chain steps within column 3: one class, the chain with the most options first, ties in chain order
        space = T.SemiInvariantSpace(SHIFT, [
            make_chain(at(3, 1), 1), make_chain(at(3, 0), 1, 2, 3), make_chain(at(0, 0)), make_chain(at(3, 2), 1),
        ])
        (walked,) = A._fold(space)[3]
        assert [[ey for _, _, ey, _ in options] for options in walked] == [[0, 1, 2, 3], [1, 2], [2, 3]]
        assert A.minmax_alpha_grade(space) == ref_minmax(space)


def limit_outcome(space, direction):
    """The limit staircase, or the class and message of the error raised instead."""
    try:
        return T.limit_ideal(space, direction)
    except DomainError as exc:
        return type(exc), str(exc)


def assert_agrees_with_its_column_form(space):
    """A section space and the column-form space of its chains give the same
    dimension, plain part (grade, count, and each membership and column count
    up to the degree), JSON, extremes, spreads and limits, or raise the same
    errors."""
    twin = T.SemiInvariantSpace(space.weight, space.chains)
    assert (space.staircase is None, twin.staircase is None) == (False, True)
    assert space.dimension == twin.dimension
    grade, count, is_plain, count_of = space.plain_part()
    twin_grade, twin_count, twin_is_plain, twin_count_of = twin.plain_part()
    assert (grade, count) == (twin_grade, twin_count)
    for col in range(space.degree + 1):
        assert count_of(col) == twin_count_of(col), col
        assert [is_plain(col, ey) for ey in range(col + 1)] == [twin_is_plain(col, ey) for ey in range(col + 1)], col
    assert space.to_json_dict() == twin.to_json_dict()
    assert outcome(lambda: A.minmax_alpha_grade(space)) == outcome(lambda: A.minmax_alpha_grade(twin))
    for threshold in range(space.degree + 1):
        split = A.DomainSplit(threshold)
        got = outcome(lambda: A.right_domain_spread(space, split))
        assert got == outcome(lambda: A.right_domain_spread(twin, split)), threshold
    for direction in ("zero", "infinity"):
        assert limit_outcome(space, direction) == limit_outcome(twin, direction), direction


SECTION_BUILDS = [
    (f"{case.name}/m={m}", functools.partial(build_space, case, m))
    for case in CASES for m in range(case.min_m, case.min_m + 6)
]
SECTION_BUILDS.append(("double-deformation", double_deformation_space))


class TestSectionSpaces:
    """Spaces built by ``deformed_section_space`` keep their staircase's
    heights; the column form of the same chains is the reference."""

    @pytest.mark.parametrize("label, space", SECTION_SPACES, ids=[label for label, _ in SECTION_SPACES])
    def test_catalog_and_marker_spaces(self, label, space):
        assert_agrees_with_its_column_form(fresh(space))

    @settings(max_examples=150, deadline=None)
    @given(deformation_inputs())
    @example(COLLIDING_FINALS)
    def test_generated_spaces(self, data):
        try:
            space = T.deformed_section_space(*data)
        except DomainError:
            return  # the builder's own checks: tests/test_torus.py
        assert_agrees_with_its_column_form(space)

    @settings(max_examples=100, deadline=None)
    @given(chain_spaces(section_form=st.just(True)))
    def test_unreduced_chains(self, space):
        assert_agrees_with_its_column_form(space)

    @pytest.mark.parametrize("level", range(2, 10))
    def test_a_space_keeps_its_staircase_truncated_at_the_level(self, level):
        ideal = S.from_generators([(2, 0), (1, 2), (0, 6)])  # heights (6, 2), colength 8
        space = T.deformed_section_space(ideal, level, T.TorusWeight((1, -1, 0)), ())
        assert (space.staircase is ideal) == (level >= 5)  # from level 5 on, h_i <= level + 1 - i leaves it whole
        assert_agrees_with_its_column_form(space)

    def test_searches_and_limits_read_no_column(self, monkeypatch):
        def never(*args):
            raise AssertionError("a staircase column was built")

        monkeypatch.setattr(S.GradedMonomialIdeal, "column", never)
        monkeypatch.setattr(S.GradedMonomialIdeal, "columns", property(never))
        for suite, caps in [("ch7-catalog", {"max_m": 8}), ("bang", {"max_m": 8}), ("sandwich", {"max_m": 8}),
                            ("a-bound", {"max_r": 2, "max_c": 3})]:
            assert run_suite(suite, **caps).ok, suite
        space = build_space(case_by_name("7.3"), 6)
        A.minmax_alpha_grade(space)
        A.right_domain_spread(space, A.DomainSplit(3))
        for direction in ("zero", "infinity"):
            T.limit_ideal(space, direction)
        assert (space._columns, space._chains) == (None, None)

    @pytest.mark.parametrize("label, build", SECTION_BUILDS, ids=[label for label, _ in SECTION_BUILDS])
    def test_a_section_space_searched_and_limited_builds_no_column_or_chain_list(self, label, build):
        """The section form exists so that searches and limits cost O(degree +
        options): none of them may fall back on the columns or the chain list."""
        space = build()
        outcome(lambda: A.minmax_alpha_grade(space))
        for threshold in range(space.degree + 1):
            outcome(lambda: A.right_domain_spread(space, A.DomainSplit(threshold)))
        for direction in ("zero", "infinity"):
            limit_outcome(space, direction)
        assert space.staircase is not None
        assert (space._columns, space._chains) == (None, None)


class TestBang:
    def test_exceptional_configuration(self):
        case = case_by_name("7.3")
        space = build_space(case, 4)
        assert A.check_bang(space, zero_limit_ideal(case, 4).hilbert_function()) is False

    @pytest.mark.parametrize("m", range(5, 11))
    def test_larger_regularities_pass(self, m):
        case = case_by_name("7.3")
        assert A.check_bang(build_space(case, m), zero_limit_ideal(case, m).hilbert_function()) is True

    def test_all_monomial_space_passes(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        space = T.deformed_section_space(ideal, 5, T.TorusWeight((-1, 0, 1)), ())
        assert A.check_bang(space, ideal.hilbert_function()) is True


class TestABound:
    def test_type_zero_first_regime_vanishes(self):
        assert I.a_bound("I1", c=3, r=0) == 0
        assert I.a_bound("I2", c=3, r=0) == 0

    def test_values(self):
        assert I.a_bound("II1", c=0, r=1, ms=(7, 5)) == 31
        assert I.a_bound("I2", c=2, r=1, ms=(8, 4)) == 7
        assert I.a_bound("I1", c=1, r=2, ms=(14, 5, 3)) == 18

    def test_wrong_regime_rejected(self):
        with pytest.raises(DomainError):
            I.a_bound("II1", c=0, r=0, ms=(7,))
        with pytest.raises(DomainError):
            I.a_bound("I1", c=0, r=2, ms=(14, 5))
        with pytest.raises(DomainError):
            I.a_bound("nope", c=0, r=1, ms=(7, 5))

    def test_marker_deformations_respect_the_bound(self):
        # type 1, empty kernel: chain x^9 -> lower vice-marker of level 1
        ideal = S.from_generators([(0, 2), (5, 1), (9, 0)])
        weight = T.TorusWeight((-5, 1, 4))
        space = T.deformed_section_space(
            ideal, 14, weight, [(Monomial(9, 0, 5), [1])]
        )
        spread = A.right_domain_spread(space, A.DomainSplit(1))
        assert spread <= I.a_bound("II1", c=0, r=1, ms=(9, 5))

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("c", [0, 1, 2, 3])
    def test_marker_grid_respects_the_bounds(self, r, c):
        report = run_suite("a-bound", max_r=r, max_c=c)
        assert report.ok, report.violations

    @pytest.mark.parametrize("target", [0, 3, "right", None])
    def test_a_marker_target_is_a_chain_level_or_the_left_domain(self, target):
        ms = I.feasible_chains(2, 1, 0)[0]
        with pytest.raises(DomainError, match=r"target must be a level in 1\.\.2 or 'left'"):
            marker_deformation_space(ms, chain_staircase(ms, _KERNELS[1]), target)

    def test_marker_deformation_type_two(self):
        # type 2, empty kernel: chain x^14 -> x^4 y^2 z^8 (two torus steps)
        ideal = S.from_generators([(0, 3), (5, 2), (7, 1), (14, 0)])
        weight = T.TorusWeight((-5, 1, 4))
        space = T.deformed_section_space(ideal, 17, weight, [(Monomial(14, 0, 3), [2])])
        spread = A.right_domain_spread(space, A.DomainSplit(2))
        assert spread <= I.a_bound("II1", c=0, r=2, ms=(14, 7, 5))


class TestGenus:
    def test_values(self):
        assert H.genus_nu(1, 1) == 0
        assert H.genus_nu(6, 4) == -1

    def test_domain(self):
        with pytest.raises(DomainError):
            H.genus_nu(4, 0)

    @pytest.mark.parametrize("d, nu", [(-1, 3), (-5, 3), (-1, 0)])
    def test_a_negative_colength_is_outside_the_domain(self, d, nu):
        with pytest.raises(DomainError, match=r"need d >= 0 and nu >= 1"):
            H.genus_nu(d, nu)

    def test_negativity_window(self):
        for c in range(0, 21):
            for m in range(c + 2, c + 31):
                d = c + m
                for nu in (m, m + 3, m + 10):
                    assert H.genus_nu(d, nu) < 0


class TestChapter14:
    def test_row_values(self):
        assert A.chapter14_degrees(5) == (3, 7, 10, 9, 1)
        assert A.chapter14_degrees(4) == (1, 4, 5, 4, 1)

    def test_degree_gap(self):
        for e in range(4, 11):
            degs = A.chapter14_degrees(e)
            assert degs[1] - degs[0] == e - 1

    def test_first_case_regime(self):
        degs = A.chapter14_degrees(6)
        assert degs[0] > 6 - 1  # the degree of the smallest cycle dominates e - 1

    def test_domain(self):
        with pytest.raises(DomainError):
            A.chapter14_degrees(3)


class TestCatalogDegrees:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_limit_degrees_match_the_closed_forms(self, case):
        for m in range(case.min_m, 11):
            space = build_space(case, m)
            level = space.degree
            zero = T.limit_ideal(space, "zero")
            infinity = T.limit_ideal(space, "infinity")
            assert (
                A.alpha_grade_columns(zero.column(i) for i in range(level + 1))
                == case.deg_zero(m)
            )
            assert (
                A.alpha_grade_columns(infinity.column(i) for i in range(level + 1))
                == case.deg_infinity(m)
            )

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_the_zero_limit_splits_off_a_kernel_of_the_declared_colength(self, case):
        splits = 0
        for m in range(case.min_m, 41):
            phi = zero_limit_ideal(case, m).hilbert_function()
            assert phi.colength == case.kernel_c + m, m
            split = SF.decompose(phi)
            if split is not None:
                splits += 1
                assert (split[0].colength, split[1]) == (case.kernel_c, m), m
        assert splits

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_zero_limit_is_the_declared_staircase(self, case):
        m = case.min_m + 1
        space = build_space(case, m)
        assert T.limit_ideal(space, "zero") == zero_limit_ideal(case, m)
