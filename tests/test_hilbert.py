"""Hilbert function validity, catalog values, and the genus functional."""

import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_lab import hilbert as H
from staircase_lab.errors import DomainError, InternalInconsistencyError

from .strategies import hf_small, valid_diffs

ROOT = Path(__file__).resolve().parents[1]


# References written from the raw difference sequence, independent of the package.


def ref_colength(diff):
    return sum(n + 1 - v for n, v in enumerate(diff))


def ref_phi(diff, n):
    return sum(diff[k] if k < len(diff) else k + 1 for k in range(n + 1))


def ref_g_star(diff):
    """sum_{n<=d} phi(n) - C(d+3, 3) + d^2 + 1, phi accumulated pointwise."""
    d = ref_colength(diff)
    total = phi = 0
    for n in range(d + 1):
        phi += diff[n] if n < len(diff) else n + 1
        total += phi
    return total - comb(d + 3, 3) + d * d + 1


def ref_is_valid(seq):
    """Admissibility entry by entry: each entry in [0, n + 1], strictly
    increasing after the first nonzero one, and diagonal from the first
    diagonal entry on."""
    started = False
    prev = 0
    on_diagonal = False
    for n, v in enumerate(seq):
        if v < 0 or v > n + 1:
            return False
        if on_diagonal and v != n + 1:
            return False
        if started and not on_diagonal and v < prev + 1:
            return False
        if v > 0:
            started = True
        if v == n + 1:
            on_diagonal = True
        prev = v
    return True


def ref_canonical(seq):
    """Trimmed or extended to the first diagonal entry."""
    e = next((n for n, v in enumerate(seq) if v == n + 1), len(seq))
    return tuple(seq[:e]) + (e + 1,)


# arbitrary int lists: length 0-12, entry n in [-2, n + 2]
raw_lists = st.integers(min_value=0, max_value=12).flatmap(
    lambda size: st.tuples(*(st.integers(min_value=-2, max_value=n + 2) for n in range(size))).map(list)
)


def ref_verdict(a, b):
    # past the colength both functions sit on the diagonal, so n <= d suffices
    top = ref_colength(a.diff) + 1
    pa = [ref_phi(a.diff, n) for n in range(top)]
    pb = [ref_phi(b.diff, n) for n in range(top)]
    le = all(x <= y for x, y in zip(pa, pb))
    ge = all(x >= y for x, y in zip(pa, pb))
    return {(True, True): "equal", (True, False): "less", (False, True): "greater"}.get((le, ge), "incomparable")


def ref_pair(a, b):
    """What ``pairwise_comparable([a, b])`` must return: the ordered pair of a
    strict comparison, nothing for equal or incomparable functions."""
    return {"less": [(a, b)], "greater": [(b, a)]}.get(ref_verdict(a, b), [])


def ref_enumerate(d):
    """The validated enumerator: extend each prefix by every value the
    admissibility rules allow, rescanning the prefix, and check every result."""
    out = []

    def extend(prefix, deficit):
        n = len(prefix)
        started = any(v > 0 for v in prefix)
        lo = prefix[-1] + 1 if started else 0
        for v in range(lo, n + 2):
            rest = deficit - (n + 1 - v)
            if rest < 0:
                continue
            if v == n + 1:
                if rest == 0:
                    out.append(H.HilbertFunction(tuple(prefix + [v])))
                continue
            extend(prefix + [v], rest)

    extend([], d)
    return out


@st.composite
def equal_colength_lists(draw, max_size=8):
    """A function from hf_small and further functions of its colength."""
    phi = draw(hf_small)
    peers = H.enumerate_hilbert_functions(phi.colength)
    return [phi] + draw(st.lists(st.sampled_from(peers), max_size=max_size - 1))


@st.composite
def lists_with_repeats(draw):
    """Functions of one colength in which some function occurs twice or more."""
    functions = draw(equal_colength_lists(max_size=6))
    repeats = draw(st.lists(st.sampled_from(functions), min_size=1, max_size=4))
    return draw(st.permutations(functions + repeats))


class TestValidity:
    @pytest.mark.parametrize(
        "diff,ok",
        [
            ((0, 0, 3), True),
            ((0, 1, 1), False),  # must increase strictly after the first step
            ((0, 2), True),
            ((0, 3), False),  # exceeds n + 1
            ((0, 1, 2, 4), True),
            ((1,), True),
            ((0, 1, 3, 3), False),  # falls off the diagonal
        ],
    )
    def test_examples(self, diff, ok):
        assert H.is_valid(diff) is ok

    @given(valid_diffs())
    def test_generated_sequences_are_valid(self, diff):
        assert H.is_valid(diff)
        phi = H.HilbertFunction.from_diff(diff)
        assert phi.diff[phi.regularity] == phi.regularity + 1

    @settings(max_examples=400)
    @given(st.one_of(raw_lists, valid_diffs()))
    def test_scan_matches_the_entrywise_reference(self, seq):
        ok = ref_is_valid(seq)
        assert H.is_valid(seq) is ok
        if ok:
            assert H.HilbertFunction.from_diff(seq).diff == ref_canonical(seq)
            return
        message = "negative entry" if min(seq) < 0 else "not a valid"
        with pytest.raises(DomainError, match=message):
            H.HilbertFunction.from_diff(seq)

    def test_canonical_trims_the_diagonal_tail(self):
        assert H.HilbertFunction.from_diff([0, 0, 3, 4, 5]).diff == (0, 0, 3)
        assert H.HilbertFunction.from_diff([0, 1]).diff == (0, 1, 3)

    @pytest.mark.parametrize("raw", [[0, 0, 2.9], [0, True, 2], (0, 0, 3.0), [0, 0, "3"], "003", None])
    def test_non_integers_are_refused_not_rounded(self, raw):
        with pytest.raises(DomainError):
            H.HilbertFunction.from_diff(raw)
        assert H.is_valid(raw) is False

    def test_constructor_rejects_non_canonical_tuples(self):
        for diff in [(0, 2, 3), (0, 1), (0, 1, 1, 4), (-1, 2)]:
            with pytest.raises(DomainError):
                H.HilbertFunction(diff)

    def test_from_diff_validates_once(self, monkeypatch):
        calls = []
        canonical = H._canonical_diff
        monkeypatch.setattr(H, "_canonical_diff", lambda raw: calls.append(raw) or canonical(raw))
        assert H.HilbertFunction.from_diff([0, 0, 3, 4]).diff == (0, 0, 3)
        assert len(calls) == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            H.HilbertFunction.parse("0,1,1")
        with pytest.raises(DomainError):
            H.HilbertFunction.parse("0,x")


class TestCatalog:
    def test_counts_and_genus_values_small(self):
        expected = {1: [0], 2: [0], 3: [0, 1], 4: [1, 3]}
        for d, gs in expected.items():
            functions = H.enumerate_hilbert_functions(d)
            assert [phi.g_star() for phi in functions] == gs

    def test_enumeration_is_lexicographic_and_duplicate_free(self):
        for d in range(10):
            functions = H.enumerate_hilbert_functions(d)
            diffs = [phi.diff for phi in functions]
            assert diffs == sorted(diffs)
            assert len(set(diffs)) == len(diffs)

    @pytest.mark.parametrize("d", range(17))
    def test_enumeration_matches_the_validated_reference(self, d):
        functions = H.enumerate_hilbert_functions(d)
        assert [phi.diff for phi in functions] == [phi.diff for phi in ref_enumerate(d)]
        assert all(phi.colength == ref_colength(phi.diff) == d for phi in functions)
        # each function is canonical and admissible, as the validated path builds it
        assert all(H.HilbertFunction.from_diff(phi.diff) == phi for phi in functions)

    def test_colength_one_regularities(self):
        # regularity values of the small catalog
        assert [phi.regularity for phi in H.enumerate_hilbert_functions(3)] == [2, 3]
        assert [phi.regularity for phi in H.enumerate_hilbert_functions(4)] == [3, 4]

    @given(hf_small)
    def test_regularity_below_colength(self, phi):
        if phi.colength > 0:
            assert phi.regularity <= phi.colength


def thresholds(d):
    """The prune thresholds checked at colength d."""
    return [-1, 0, 3, d] + ([H.deformation_bound(d)] if d >= 5 else [])


class TestPrunedWalk:
    """``enumerate_hilbert_functions(d, above)`` walks only the functions with
    g* > above, which must be the full enumeration filtered by ``g_star``."""

    @pytest.mark.parametrize("d", range(41))
    def test_pruned_walk_is_the_filtered_enumeration(self, d):
        functions = H.enumerate_hilbert_functions(d)
        for above in thresholds(d):
            want = [phi for phi in functions if phi.g_star() > above]
            assert H.enumerate_hilbert_functions(d, above=above) == want, above

    @given(st.integers(0, 24).flatmap(lambda d: st.tuples(st.just(d), st.integers(-d - 2, comb(d, 2) + 2))))
    @settings(max_examples=60)
    def test_pruned_walk_property(self, case):
        d, above = case
        want = [phi for phi in H.enumerate_hilbert_functions(d) if ref_g_star(phi.diff) > above]
        assert H.enumerate_hilbert_functions(d, above=above) == want

    def test_above_the_largest_genus_nothing_is_walked(self):
        # the largest g* at colength d is (d - 1)(d - 2)/2, reached by the lex-most function
        for d in range(1, 20):
            top = (d - 1) * (d - 2) // 2
            assert H.enumerate_hilbert_functions(d, above=top) == []
            assert H.enumerate_hilbert_functions(d, above=top - 1) == [H.lex_most(d)]

    @pytest.mark.parametrize("d", range(21))
    def test_the_floor_keeps_a_function_just_below_its_genus_and_drops_it_at_its_genus(self, d):
        for phi in H.enumerate_hilbert_functions(d):
            g = ref_g_star(phi.diff)
            assert phi in H.enumerate_hilbert_functions(d, above=g - 1), phi
            assert phi not in H.enumerate_hilbert_functions(d, above=g), phi

    def test_nothing_is_sized_by_the_colength(self):
        # above the largest genus at d = 10**12 the root's floor is past its last entry: a walk, or any
        # scratch space, sized by d would not return.  A fresh process with 256 MB of address space and a
        # time limit makes such a walk fail the test instead of filling the host's memory
        code = ("import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))\n"
                "from staircase_lab import hilbert\nd = 10**12\n"
                "assert hilbert.enumerate_hilbert_functions(d, above=(d - 1) * (d - 2) // 2) == []")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=30, check=True)

    def test_colength_zero(self):
        # the full ideal has g* = 1
        assert H.enumerate_hilbert_functions(0, above=0) == [H.HilbertFunction((1,))]
        assert H.enumerate_hilbert_functions(0, above=1) == []


class TestGenusFunctional:
    def test_printed_values(self):
        phi2_d3 = H.HilbertFunction.from_diff([0, 1, 2, 4])
        assert phi2_d3.g_star() == 1
        phi2_d4 = H.HilbertFunction.from_diff([0, 1, 2, 3, 5])
        assert phi2_d4.g_star() == 3
        assert H.HilbertFunction.from_diff([0, 2]).g_star() == 0

    def test_full_ideal(self):
        assert H.HilbertFunction((1,)).g_star() == 1

    @given(hf_small)
    def test_both_formulas_agree(self, phi):
        phi.g_star()  # raises InternalInconsistencyError on mismatch

    def test_mismatch_raises(self):
        # an inadmissible diff, built past validation, makes the two formulas disagree
        phi = object.__new__(H.HilbertFunction)
        object.__setattr__(phi, "diff", (0, 0, 2))
        with pytest.raises(InternalInconsistencyError):
            phi.g_star()

    @given(valid_diffs())
    def test_matches_the_reference(self, diff):
        assert H.HilbertFunction.from_diff(diff).g_star() == ref_g_star(diff)

    def test_long_lex_most(self):
        assert H.lex_most(3000).g_star() == 2999 * 2998 // 2

    def test_long_single_step(self):
        diff = [0] * 399 + [400]  # colength 79800, regularity 399
        phi = H.HilbertFunction.from_diff(diff)
        assert phi.colength == ref_colength(diff) == 79800
        assert phi.g_star() == ref_g_star(diff) == 21093801

    def test_monotone_under_pointwise_order(self):
        for d in range(1, 11):
            functions = H.enumerate_hilbert_functions(d)
            for phi, psi in H.pairwise_comparable(functions):
                assert phi.g_star() < psi.g_star()

    def test_maximum_is_reached_by_the_lex_most_function(self):
        for d in range(1, 13):
            functions = H.enumerate_hilbert_functions(d)
            top = max(phi.g_star() for phi in functions)
            assert top == (d - 1) * (d - 2) // 2
            assert H.lex_most(d).g_star() == top


class TestCompare:
    def test_equal(self):
        phi = H.HilbertFunction.from_diff([0, 0, 3])
        assert H.pairwise_comparable([phi, phi]) == []
        assert H.pairwise_comparable([phi, H.HilbertFunction.from_diff([0, 0, 3])]) == []

    def test_small_catalog_pair_is_comparable(self):
        phi1, phi2 = H.enumerate_hilbert_functions(3)
        assert H.pairwise_comparable([phi1, phi2]) == [(phi1, phi2)]
        assert H.pairwise_comparable([phi2, phi1]) == [(phi1, phi2)]

    def test_colength_four_consistency(self):
        phi1, phi2 = H.enumerate_hilbert_functions(4)
        assert H.pairwise_comparable([phi1, phi2]) == [(phi1, phi2)]
        assert phi1.g_star() == 1 < phi2.g_star() == 3

    def test_incomparable_pair(self):
        # colengths below 9 happen to be totally ordered; 9 is not
        phi = H.HilbertFunction.from_diff([0, 0, 0, 3, 4, 5, 7])
        psi = H.HilbertFunction.from_diff([0, 0, 1, 2, 3, 6])
        assert ref_verdict(phi, psi) == "incomparable"
        assert H.pairwise_comparable([phi, psi]) == H.pairwise_comparable([psi, phi]) == []

    def test_different_colengths_rejected(self):
        phi, psi = H.HilbertFunction.from_diff([0, 2]), H.HilbertFunction.from_diff([0, 1, 3])
        with pytest.raises(DomainError):
            H.pairwise_comparable([phi, psi])
        with pytest.raises(DomainError):
            H.pairwise_comparable([psi, phi, phi])

    @given(equal_colength_lists(max_size=2))
    def test_compare_matches_the_reference(self, functions):
        phi, psi = functions if len(functions) == 2 else functions * 2
        assert H.pairwise_comparable([phi, psi]) == ref_pair(phi, psi)

    @settings(max_examples=50)
    @given(st.one_of(equal_colength_lists(), lists_with_repeats()))
    def test_pairwise_matches_the_reference(self, functions):
        expected = [(a, b) for a, b in itertools.permutations(functions, 2) if ref_verdict(a, b) == "less"]
        assert H.pairwise_comparable(functions) == expected

    @pytest.mark.parametrize("d", range(17))
    def test_every_pair_matches_the_reference(self, d):
        functions = H.enumerate_hilbert_functions(d)
        for phi, psi in itertools.product(functions, repeat=2):
            assert H.pairwise_comparable([phi, psi]) == ref_pair(phi, psi)
        expected = [(a, b) for a, b in itertools.permutations(functions, 2) if ref_verdict(a, b) == "less"]
        assert H.pairwise_comparable(functions) == expected

    @pytest.mark.parametrize(
        "d,low,high",
        [
            # phi(16) = C(18, 2) - d is the largest value: 128 at d = 25 and 127 at d = 26, either side of a byte
            (25, (0, 0, 0, 0, 0, 0, 3, 8), (0, 0, 0, 0, 1, 5, *range(6, 16), 17)),
            (26, (0, 0, 0, 0, 0, 0, 2, 8), (0, 0, 0, 0, 0, *range(5, 16), 17)),
        ],
    )
    def test_lane_width_boundary(self, d, low, high):
        phi, psi = H.HilbertFunction(low), H.HilbertFunction(high)
        assert phi.colength == psi.colength == d
        assert ref_phi(high, 16) == comb(18, 2) - d
        for a, b in itertools.product([phi, psi], repeat=2):
            assert H.pairwise_comparable([a, b]) == ref_pair(a, b)
        assert ref_verdict(phi, psi) == "less"
        assert H.pairwise_comparable([phi, psi]) == H.pairwise_comparable([psi, phi]) == [(phi, psi)]

    @settings(max_examples=50)
    @given(st.one_of(equal_colength_lists(), lists_with_repeats()))
    def test_above_masks_match_the_reference(self, functions):
        masks = H.above_masks(functions)
        assert len(masks) == len(functions)
        for mask, a in zip(masks, functions):
            assert [mask >> j & 1 for j in range(len(functions))] == [ref_verdict(a, b) == "less" for b in functions]
        assert max(masks).bit_length() <= len(functions)

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12))
    def test_at_least_matches_the_reference(self, values):
        got = list(H.at_least(values))
        assert sorted(got) == [(k, sum(1 << j for j, u in enumerate(values) if u >= v))
                               for k, v in enumerate(values) if v > min(values)]
        assert [values[k] for k, _ in got] == sorted((v for v in values if v > min(values)), reverse=True)

    def test_pairwise_keeps_the_ordered_pair_order(self):
        # phi < psi, each given twice as distinct equal objects; equal copies make no pair
        psi0, phi0, psi1, phi1 = (H.HilbertFunction.from_diff(d) for d in [(0, 1, 2), (0, 0, 3)] * 2)
        got = H.pairwise_comparable([psi0, phi0, psi1, phi1])
        want = [(phi0, psi0), (phi0, psi1), (phi1, psi0), (phi1, psi1)]
        assert [(id(a), id(b)) for a, b in got] == [(id(a), id(b)) for a, b in want]


class TestDeformationBound:
    def test_values(self):
        assert H.deformation_bound(6) == 4
        assert H.deformation_bound(5) == 2
        assert H.deformation_bound(7) == 6

    def test_domain(self):
        with pytest.raises(DomainError):
            H.deformation_bound(4)

    @pytest.mark.parametrize("d", range(5, 51))
    def test_special_function_attains_the_bound(self, d):
        chi = H.special_chi(d)
        assert chi.colength == d
        expected_reg = d // 2 + 1 if d % 2 == 0 else (d + 1) // 2
        assert chi.regularity == expected_reg
        assert chi.g_star() == H.deformation_bound(d)

    def test_special_values(self):
        assert H.special_chi(6).g_star() == 4
        assert H.special_chi(5).g_star() == 2
        assert H.special_chi(40).g_star() == 361

    def test_odd_special_function_counts_binomials(self):
        # chi(n) = n(n-1)/2 below the regularity, for the odd-colength family
        chi = H.special_chi(7)
        for n in range(1, 4):
            assert sum(chi.diff[: n + 1]) == n * (n - 1) // 2
