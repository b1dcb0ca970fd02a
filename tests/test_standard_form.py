"""Decomposition, type chains, and standard-form detection."""

import pytest
from hypothesis import given

from staircase_lab import hilbert as H
from staircase_lab import staircase as S
from staircase_lab import standard_form as SF
from staircase_lab import torus as T
from staircase_lab.catalog import build_space, case_by_name
from staircase_lab.errors import DomainError, InternalInconsistencyError

from .strategies import hf_small

FULL = H.HilbertFunction((1,))


def ref_detect_standard_form(ideal):
    """Column-based detection: x (resp. y) divides every column below the
    regularity m, and the kernel (I : y) (resp. (I : x)) is read column by
    column off column n + 1."""
    phi = ideal.hilbert_function()
    d = phi.colength
    if d <= 4 or phi.g_star() <= H.deformation_bound(d):
        return None
    m = phi.regularity
    x_divides = all(n not in ideal.column(n) for n in range(m))
    y_divides = all(0 not in ideal.column(n) for n in range(m))
    assert not (x_divides and y_divides)
    if not x_divides and not y_divides:
        return None
    shift = 1 if y_divides else 0
    kernel_cols = [
        [a for a in range(n + 1) if a + shift in ideal.column(n + 1)] for n in range(ideal.stable_from + 1)
    ]
    kernel = S.GradedMonomialIdeal.from_columns(kernel_cols, ideal.stable_from + 1)
    return SF.StandardForm("y" if y_divides else "x", kernel, m)


class TestDecompose:
    def test_special_function_has_no_split(self):
        for d in range(5, 16):
            assert SF.decompose(H.special_chi(d)) is None

    def test_small_colength_has_no_split(self):
        for d in range(0, 5):
            for phi in H.enumerate_hilbert_functions(d):
                assert SF.decompose(phi) is None

    def test_inverts_compose(self):
        psi = H.enumerate_hilbert_functions(1)[0]
        phi = SF.compose(psi, 4)
        assert phi.colength == 5 and phi.g_star() == 3
        assert SF.decompose(phi) == (psi, 4)

    @pytest.mark.parametrize("diff", [(0, 0, 2, 1, 5), (0, 1, 1, 1, 5)])
    def test_rejects_a_non_admissible_kernel(self, diff):
        # built past validation; both genus evaluations agree and exceed the bound
        phi = H.HilbertFunction._trusted(diff)
        assert phi.g_star() > H.deformation_bound(phi.colength)
        with pytest.raises(InternalInconsistencyError, match="shifted kernel"):
            SF.decompose(phi)

    @given(hf_small)
    def test_round_trip_when_defined(self, phi):
        split = SF.decompose(phi)
        if split is None:
            return
        psi, m = split
        assert SF.compose(psi, m) == phi
        assert m >= psi.colength + 2
        assert psi.colength + m == phi.colength

    def test_ladder_over_enumeration(self):
        for d in range(5, 15):
            bound = H.deformation_bound(d)
            for phi in H.enumerate_hilbert_functions(d):
                if phi.g_star() > bound:
                    psi, m = SF.decompose(phi)
                    assert m >= psi.colength + 2

    def test_kernel_below_its_bound_forces_doubled_m(self):
        hits = 0
        for d in range(12, 19):
            for phi in H.enumerate_hilbert_functions(d):
                if phi.g_star() <= H.deformation_bound(d):
                    continue
                psi, m = SF.decompose(phi)
                c = psi.colength
                if c >= 5 and psi.g_star() <= H.deformation_bound(c):
                    hits += 1
                    assert m >= 2 * c + 1
        assert hits > 0


class TestCompose:
    def test_empty_kernel(self):
        phi = SF.compose(FULL, 5)
        assert phi.colength == 5
        assert phi.g_star() == 6  # = g(full) + 5*2/2 + 0 with g(full) = 1

    def test_colength_two_kernel(self):
        psi = H.enumerate_hilbert_functions(2)[0]
        phi = SF.compose(psi, 5)
        assert phi.colength == 7
        assert phi.g_star() == psi.g_star() + 5 + 2

    def test_m_too_small_rejected(self):
        psi = H.enumerate_hilbert_functions(2)[0]
        with pytest.raises(DomainError):
            SF.compose(psi, psi.regularity + 1)


class TestTypeChain:
    def test_special_function_is_type_minus_one(self):
        for d in range(5, 12):
            assert SF.type_of(H.special_chi(d)).r == -1

    def test_small_colength_is_type_minus_one(self):
        for d in range(0, 5):
            for phi in H.enumerate_hilbert_functions(d):
                chain = SF.type_of(phi)
                assert chain.r == -1
                assert chain.kernel_c == d

    def test_two_level_chain(self):
        phi = SF.compose(SF.compose(FULL, 5), 12)
        chain = SF.type_of(phi)
        assert (chain.r, chain.ms, chain.kernel_c, chain.kernel_kappa) == (1, (12, 5), 0, 0)

    def test_smallest_type_two_chain_exists(self):
        # oracle search: grow the top regularity until the ladder is valid
        inner = SF.compose(SF.compose(FULL, 5), 12)
        for m0 in range(14, 40):
            phi = SF.compose(inner, m0)
            chain = SF.type_of(phi)
            if chain.r == 2:
                assert chain.ms == (m0, 12, 5)
                return
        raise AssertionError("no type-2 chain with empty kernel found")

    def test_invariants_over_enumeration(self):
        for d in range(5, 15):
            for phi in H.enumerate_hilbert_functions(d):
                SF.type_of(phi).check_invariants()

    def test_rendering(self):
        # no function determines the linear-form labels, so none is ever printed
        chain = SF.TypeChain((14, 5), 0, 0)
        assert chain.as_text() == "r=1; ells=-; ms=14,5; c=0; kappa=0"
        assert chain.to_json_dict() == {"r": 1, "ms": [14, 5], "kernel_c": 0, "kernel_kappa": 0, "ells": None}


def detect(ideal):
    return SF.detect_standard_form(ideal, ideal.hilbert_function())


class TestDetect:
    def test_handle_ideal_is_y_form(self):
        form = detect(S.from_generators([(1, 1), (0, 2), (4, 0)]))
        assert form.ell == "y"
        assert form.m == 4
        assert form.kernel.colength == 1

    def test_mirror_ideal_is_x_form(self):
        form = detect(S.from_generators([(1, 1), (2, 0), (0, 4)]))
        assert form.ell == "x"
        assert form.m == 4

    def test_special_ideal_has_no_form(self):
        ideal = S.from_generators([(2, 0), (1, 2), (0, 4)])
        assert detect(ideal) is None

    def test_agreement_with_function_level_split(self):
        for d in range(5, 12):
            for ideal in S.enumerate_ideals(d):
                phi = ideal.hilbert_function()
                split = SF.decompose(phi)
                form = SF.detect_standard_form(ideal, phi)
                if split is None:
                    assert form is None
                else:
                    psi, m = split
                    assert form is not None
                    assert (form.kernel.colength, form.m) == (psi.colength, m)
                    assert form.kernel.hilbert_function() == psi

    @pytest.mark.parametrize("d", range(5, 15))
    def test_matches_the_column_based_detection(self, d):
        for ideal in S.enumerate_ideals(d):
            assert detect(ideal) == ref_detect_standard_form(ideal)

    def test_a_function_not_the_staircases_is_a_domain_error(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        with pytest.raises(DomainError, match="0,0,1,4 is not the Hilbert function of"):
            SF.detect_standard_form(ideal, H.HilbertFunction.parse("0,0,1,4"))

    @pytest.mark.parametrize("name,m", [("7.3", 4), ("7.3", 6), ("7.4a", 5), ("7.5e", 6)])
    def test_limits_keep_the_y_form(self, name, m):
        space = build_space(case_by_name(name), m)
        for direction in ("zero", "infinity"):
            limit = T.limit_ideal(space, direction)
            form = detect(limit)
            assert form is not None and form.ell == "y"
