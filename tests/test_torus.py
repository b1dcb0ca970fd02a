"""Semi-invariant spaces, chains, and their limit staircases."""

import json

import pytest
from hypothesis import example, given, settings

from staircase_lab import staircase as S
from staircase_lab import torus as T
from staircase_lab.catalog import build_space, case_by_name, double_deformation_space, zero_limit_ideal
from staircase_lab.errors import DegenerateLimitError, DomainError
from staircase_lab.monomials import Monomial

from .strategies import COLLIDING_FINALS, deformation_inputs


def handle_space(m=4):
    return build_space(case_by_name("7.3"), m)


class TestSpaces:
    def test_dimension_matches_the_section_count(self):
        space = handle_space()
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        assert space.dimension == len(ideal.section_monomials(space.degree))

    def test_duplicate_initials_rejected(self):
        weight = T.TorusWeight((-1, 0, 1))
        chain = T.Chain(Monomial(2, 0, 0), frozenset([0]))
        with pytest.raises(DomainError):
            T.SemiInvariantSpace(weight, (chain, chain))

    def test_mixed_degrees_rejected(self):
        weight = T.TorusWeight((-1, 0, 1))
        with pytest.raises(DomainError):
            T.SemiInvariantSpace(
                weight,
                (T.Chain(Monomial(2, 0, 0), frozenset([0])), T.Chain(Monomial(1, 0, 0), frozenset([0]))),
            )

    def test_bad_weight_rejected(self):
        with pytest.raises(DomainError):
            T.TorusWeight((1, 1, 1))
        with pytest.raises(DomainError):
            T.TorusWeight((0, 0, 0))

    def test_json_round_trip(self):
        space = handle_space()
        text = json.dumps(space.to_json_dict())
        back = T.SemiInvariantSpace.from_json(text)
        assert back == space
        assert json.dumps(back.to_json_dict()) == text


class TestLimits:
    def test_binomial_deformation_limits(self):
        space = handle_space(m=4)
        zero = T.limit_ideal(space, "zero")
        infinity = T.limit_ideal(space, "infinity")
        assert zero == S.from_generators([(1, 1), (0, 2), (4, 0)])
        assert infinity == S.from_generators([(0, 1), (5, 0)])

    def test_all_monomial_space_is_fixed(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        space = T.deformed_section_space(ideal, 6, T.TorusWeight((-1, 0, 1)), ())
        assert T.limit_ideal(space, "zero") == ideal
        assert T.limit_ideal(space, "infinity") == ideal

    def test_single_monomial_chain_is_fixed_both_ways(self):
        weight = T.TorusWeight((-2, 1, 1))
        chains = (T.Chain(Monomial(0, 3, 0), frozenset([0])),)
        space = T.SemiInvariantSpace(weight, chains)
        assert T.limit_ideal(space, "zero") == T.limit_ideal(space, "infinity")

    def test_colliding_finals_degenerate(self):
        space = double_deformation_space()
        T.limit_ideal(space, "zero")  # distinct initials are fine
        with pytest.raises(DegenerateLimitError):
            T.limit_ideal(space, "infinity")

    def test_unknown_direction_rejected(self):
        with pytest.raises(DomainError):
            T.limit_ideal(handle_space(), "sideways")

    def test_limits_independent_of_the_level(self):
        case = case_by_name("7.3")
        for level in (5, 6, 8):
            initial, rho = case.chain(4, level)
            space = T.deformed_section_space(zero_limit_ideal(case, 4), level, T.TorusWeight(rho), [(initial, [1])])
            assert T.limit_ideal(space, "zero") == S.from_generators([(1, 1), (0, 2), (4, 0)])
            assert T.limit_ideal(space, "infinity") == S.from_generators([(0, 1), (5, 0)])


class TestBuilder:
    def test_steps_inside_the_section_space_reduce_away(self):
        # over the handle staircase, x * f steps into a plain section monomial
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        weight = T.TorusWeight((-4, 1, 3))
        space = T.deformed_section_space(
            ideal, 6, weight, [(Monomial(5, 0, 1), [1]), (Monomial(4, 0, 2), [1])]
        )
        by_initial = {c.initial: c for c in space.chains}
        assert by_initial[Monomial(5, 0, 1)].support == frozenset([0])
        assert by_initial[Monomial(4, 0, 2)].support == frozenset([0, 1])

    def test_initial_outside_the_sections_rejected(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        weight = T.TorusWeight((-4, 1, 3))
        with pytest.raises(DomainError):
            T.deformed_section_space(ideal, 6, weight, [(Monomial(0, 0, 6), [1])])

    def test_step_onto_another_initial_rejected(self):
        ideal = S.from_generators([(0, 1), (2, 0)])
        weight = T.TorusWeight((-1, 1, 0))
        with pytest.raises(DomainError):
            T.deformed_section_space(
                ideal, 3, weight, [(Monomial(2, 0, 1), [1]), (Monomial(1, 1, 1), [1])]
            )

    def test_error_messages_and_their_order(self):
        ideal = S.from_generators([(1, 1), (0, 2), (4, 0)])
        weight = T.TorusWeight((-4, 1, 3))
        # initials are checked before any step, whatever the order given; x^4 z is a section of degree 5
        with pytest.raises(
            DomainError, match=r"^deformation initials outside the section space: \['x\^4\*z', 'z\^6'\]$"
        ):
            T.deformed_section_space(
                ideal, 6, weight, [(Monomial(4, 0, 2), [0]), (Monomial(0, 0, 6), [1]), (Monomial(4, 0, 1), [1])]
            )
        # then the chains in basis order (x^4 z^2 before x^5 z), each step in the order given
        with pytest.raises(DomainError, match=r"^step indices must be positive, got 0$"):
            T.deformed_section_space(ideal, 6, weight, [(Monomial(5, 0, 1), [-1]), (Monomial(4, 0, 2), [1, 0])])
        with pytest.raises(DomainError, match=r"^step indices must be positive, got -1$"):
            T.deformed_section_space(ideal, 6, weight, [(Monomial(5, 0, 1), [-1]), (Monomial(4, 0, 2), [1])])
        clash = S.from_generators([(0, 1), (2, 0)])
        with pytest.raises(DomainError, match=r"^chain step x\*y\*z collides with another initial$"):
            T.deformed_section_space(
                clash, 3, T.TorusWeight((-1, 1, 0)), [(Monomial(1, 1, 1), [0]), (Monomial(2, 0, 1), [1])]
            )


def reference_chains(ideal, level, weight, deformations):
    """The section space as a basis-order chain list, one chain per section
    monomial, checked the way the builder must check it."""
    basis = ideal.section_monomials(level)
    deformations = {initial: list(steps) for initial, steps in deformations}
    missing = set(deformations) - set(basis)
    if missing:
        raise DomainError(f"deformation initials outside the section space: {sorted(str(m) for m in missing)}")
    chains = []
    for mon in basis:
        support = {0}
        for j in deformations.get(mon, []):
            if j <= 0:
                raise DomainError(f"step indices must be positive, got {j}")
            stepped = weight.step(mon, j)
            if stepped in deformations:
                raise DomainError(f"chain step {stepped} collides with another initial")
            if stepped not in basis:
                support.add(j)
        chains.append(T.Chain(mon, frozenset(support)))
    if not chains:
        raise DomainError("semi-invariant space needs at least one chain")
    return chains


def reference_limit(chains, weight, direction):
    monomials = [c.initial if direction == "zero" else c.final(weight) for c in chains]
    if len(set(monomials)) != len(monomials):
        raise DegenerateLimitError(f"colliding {direction}-limit monomials")
    degree = chains[0].initial.degree
    cols = [{m.ey for m in monomials if m.xy_degree == i} for i in range(degree + 1)]
    return S.GradedMonomialIdeal.from_columns(cols, degree + 1)


def outcome(compute):
    try:
        return compute()
    except DomainError as exc:
        return type(exc), str(exc)


class TestColumnForm:
    @settings(max_examples=200, deadline=None)
    @given(deformation_inputs())
    @example(COLLIDING_FINALS)
    def test_matches_the_chain_list_reference(self, data):
        ideal, level, weight, deformations = data
        space = outcome(lambda: T.deformed_section_space(ideal, level, weight, deformations))
        chains = outcome(lambda: reference_chains(ideal, level, weight, deformations))
        if isinstance(chains, tuple):
            assert space == chains
            return
        assert space.chains == tuple(chains)
        assert space.dimension == len(chains) == len(ideal.section_monomials(level))
        assert space.degree == level
        assert space.to_json_dict() == {
            "rho": list(weight.rho),
            "chains": [{"initial": c.initial.as_list(), "support": sorted(c.support)} for c in chains],
        }
        assert space == T.SemiInvariantSpace(weight, chains)
        for direction in ("zero", "infinity"):
            got = outcome(lambda: T.limit_ideal(space, direction))
            assert got == outcome(lambda: reference_limit(chains, weight, direction)), direction

    def test_chain_order_of_a_given_space_is_kept(self):
        weight = T.TorusWeight((-1, 0, 1))
        chains = (T.Chain(Monomial(0, 2, 0), frozenset([0])), T.Chain(Monomial(2, 0, 0), frozenset([0, 1])),
                  T.Chain(Monomial(1, 1, 0), frozenset([0])))
        space = T.SemiInvariantSpace(weight, chains)
        assert space.chains == chains
        assert space != T.SemiInvariantSpace(weight, chains[::-1])
        assert space.columns == {2: {1, 2}} and space.deformed == chains[1:2]
