"""Semi-invariant spaces: monomial chains for a one-parameter torus weight.

A space of degree-n forms invariant under the torus subgroup of weight
rho = (rho0, rho1, rho2), sum zero, has a standard basis of chains
M * (1 + a_1 X^rho + ... + a_nu X^(nu*rho)) with pairwise distinct initial
monomials M.  Only the support of the coefficients matters here, so a chain
is its initial monomial plus the set of step indices carrying a nonzero
coefficient (0 always included).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DegenerateLimitError, DomainError
from .monomials import Monomial, monomial_from_list
from .staircase import GradedMonomialIdeal


@dataclass(frozen=True)
class TorusWeight:
    rho: tuple[int, int, int]

    def __post_init__(self):
        if len(self.rho) != 3 or sum(self.rho) != 0:
            raise DomainError(f"torus weight must have three entries summing to zero: {self.rho}")
        if self.rho == (0, 0, 0):
            raise DomainError("torus weight must be nonzero")

    def step(self, mon: Monomial, j: int) -> Monomial:
        """mon * X^(j * rho); raises if an exponent would go negative."""
        r0, r1, r2 = self.rho
        return mon.shift(j * r0, j * r1, j * r2)


@dataclass(frozen=True)
class Chain:
    initial: Monomial
    support: frozenset[int]

    def __post_init__(self):
        if 0 not in self.support or any(j < 0 for j in self.support):
            raise DomainError(f"chain support must contain 0 and be nonnegative: {sorted(self.support)}")

    @property
    def nu(self) -> int:
        return max(self.support)

    def monomials(self, weight: TorusWeight) -> list[Monomial]:
        return [weight.step(self.initial, j) for j in sorted(self.support)]

    def final(self, weight: TorusWeight) -> Monomial:
        return weight.step(self.initial, self.nu)


@dataclass(frozen=True)
class SemiInvariantSpace:
    weight: TorusWeight
    chains: tuple[Chain, ...]

    def __post_init__(self):
        if not self.chains:
            raise DomainError("semi-invariant space needs at least one chain")
        degrees = {c.initial.degree for c in self.chains}
        if len(degrees) != 1:
            raise DomainError(f"chains of mixed total degree: {sorted(degrees)}")
        initials = [c.initial for c in self.chains]
        if len(set(initials)) != len(initials):
            raise DomainError("chains must have pairwise distinct initial monomials")
        for chain in self.chains:
            chain.monomials(self.weight)  # raises on a negative exponent

    @property
    def degree(self) -> int:
        return self.chains[0].initial.degree

    @property
    def dimension(self) -> int:
        return len(self.chains)

    def initial_monomials(self) -> list[Monomial]:
        return [c.initial for c in self.chains]

    def final_monomials(self) -> list[Monomial]:
        return [c.final(self.weight) for c in self.chains]

    def to_json_dict(self) -> dict:
        return {
            "rho": list(self.weight.rho),
            "chains": [
                {"initial": c.initial.as_list(), "support": sorted(c.support)}
                for c in self.chains
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @staticmethod
    def from_json_dict(data: dict) -> "SemiInvariantSpace":
        try:
            weight = TorusWeight(tuple(int(v) for v in data["rho"]))
            chains = tuple(
                Chain(monomial_from_list(c["initial"]), frozenset(int(j) for j in c["support"]))
                for c in data["chains"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed semi-invariant space JSON: {data!r}") from exc
        return SemiInvariantSpace(weight, chains)

    @staticmethod
    def from_json(text: str) -> "SemiInvariantSpace":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, an over-long integer, deep nesting
            raise DomainError(f"malformed semi-invariant space JSON: {exc}") from exc
        return SemiInvariantSpace.from_json_dict(data)


def _columns_of_monomials(monomials, degree: int) -> list[set[int]]:
    cols = [set() for _ in range(degree + 1)]
    for mon in monomials:
        cols[mon.xy_degree].add(mon.ey)
    return cols


def limit_ideal(space: SemiInvariantSpace, direction: str) -> GradedMonomialIdeal:
    """Staircase spanned by the initial ("zero") or final ("infinity")
    monomials of the chains.  The selected monomials must be pairwise
    distinct, and the span must satisfy the staircase growth law (it does
    whenever the space is a section space of an ideal).
    """
    if direction == "zero":
        monomials = space.initial_monomials()
    elif direction == "infinity":
        monomials = space.final_monomials()
    else:
        raise DomainError(f"direction must be 'zero' or 'infinity', got {direction!r}")
    if len(set(monomials)) != len(monomials):
        raise DegenerateLimitError(f"colliding {direction}-limit monomials")
    cols = _columns_of_monomials(monomials, space.degree)
    return GradedMonomialIdeal.from_columns(cols, space.degree + 1)


def section_space(ideal: GradedMonomialIdeal, level: int, weight: TorusWeight) -> SemiInvariantSpace:
    """The all-monomial space of degree-``level`` sections of a staircase."""
    chains = tuple(Chain(mon, frozenset([0])) for mon in ideal.section_monomials(level))
    return SemiInvariantSpace(weight, chains)


def deformed_section_space(
    ideal: GradedMonomialIdeal,
    level: int,
    weight: TorusWeight,
    deformations,
) -> SemiInvariantSpace:
    """Section space of a staircase with some monomials replaced by chains.

    ``deformations`` maps initial monomials (which must be sections) to the
    step indices carrying nonzero coefficients.  Steps whose monomial is
    already a plain section are dropped (they reduce away against the
    monomial basis); a step hitting another chain's initial is rejected.
    """
    basis = ideal.section_monomials(level)
    basis_set = set(basis)
    deformations = {initial: list(steps) for initial, steps in deformations}
    initials = set(deformations)
    if not initials <= basis_set:
        missing = sorted(str(m) for m in initials - basis_set)
        raise DomainError(f"deformation initials outside the section space: {missing}")
    chains = []
    for mon in basis:
        if mon not in deformations:
            chains.append(Chain(mon, frozenset([0])))
            continue
        support = {0}
        for j in deformations[mon]:
            if j <= 0:
                raise DomainError(f"step indices must be positive, got {j}")
            stepped = weight.step(mon, j)
            if stepped in initials:
                raise DomainError(f"chain step {stepped} collides with another initial")
            if stepped in basis_set:
                continue  # reduces away against the monomial basis
            support.add(j)
        chains.append(Chain(mon, frozenset(support)))
    return SemiInvariantSpace(weight, tuple(chains))
