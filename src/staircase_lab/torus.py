"""Semi-invariant spaces: monomial chains for a one-parameter torus weight.

A space of degree-n forms invariant under the torus subgroup of weight
rho = (rho0, rho1, rho2), sum zero, has a standard basis of chains
M * (1 + a_1 X^rho + ... + a_nu X^(nu*rho)) with pairwise distinct initial
monomials M.  Only the support of the coefficients matters here, so a chain
is its initial monomial plus the set of step indices carrying a nonzero
coefficient (0 always included).

Most chains of a space are plain (support {0}): a single monomial.  A space
keeps a ``Chain`` only for each deformed chain, and its plain chains in one
of two forms.  A space given by its chains (a ``--space`` file, a test) is in
column form: one set of y-exponents per x,y-degree, like a staircase column.
A section space built by :func:`deformed_section_space` keeps its
staircase's heights, truncated to the degree n (h_i -> min(h_i, n + 1 - i)),
and the cells its chains take out.  Its ``plain_part`` is graded in closed
form (``alpha_grade`` of the staircase, less each taken cell), and its
limits move cells on the heights.  Building a space, grading it and taking
its limits then cost O(degree + options) rather than O(dimension); the
columns and the chain list are built only when asked for.
"""

from __future__ import annotations

import json
from math import comb
from operator import lt

from .errors import DegenerateLimitError, DomainError, MalformedIdealError, Record, int_array
from .monomials import Monomial, column_weight, monomial_from_list
from .staircase import GradedMonomialIdeal


class TorusWeight(Record):
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


class Chain(Record):
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


_PLAIN = frozenset([0])


class SemiInvariantSpace:
    """A space of chains of one degree.  ``deformed`` lists the chains with
    more than one supported step; the plain chains are kept

    * in column form: ``columns`` maps an x,y-degree to the y-exponents of
      the plain chains of that degree (``staircase`` and ``taken`` are None);
    * or, for a section space, as ``staircase``, the ideal truncated at the
      degree, whose section monomials of this degree are the plain chains
      and the deformed chains' initials, and ``taken``, which maps an
      x,y-degree to the y-exponents of those initials.  ``columns`` is built
      on first use.

    ``chains`` is every chain, in the order given or, for a section space,
    in basis order (built on first use).
    """

    __slots__ = ("weight", "degree", "dimension", "deformed", "staircase", "taken", "_columns", "_chains", "_search")

    def __init__(self, weight: TorusWeight, chains):
        chains = tuple(chains)
        if not chains:
            raise DomainError("semi-invariant space needs at least one chain")
        degrees = {c.initial.degree for c in chains}
        if len(degrees) != 1:
            raise DomainError(f"chains of mixed total degree: {sorted(degrees)}")
        initials = [c.initial for c in chains]
        if len(set(initials)) != len(initials):
            raise DomainError("chains must have pairwise distinct initial monomials")
        columns: dict[int, set[int]] = {}
        deformed = []
        for chain in chains:
            if len(chain.support) == 1:
                columns.setdefault(chain.initial.xy_degree, set()).add(chain.initial.ey)
            else:
                chain.monomials(weight)  # raises on a negative exponent
                deformed.append(chain)
        self._fill(weight, chains[0].initial.degree, deformed, len(chains), columns=columns, chains=chains)

    def _fill(self, weight, degree, deformed, dimension, staircase=None, columns=None, chains=None) -> None:
        """Every slot, from parts the caller has checked: a section space's
        ``staircase``, or a column-form space's ``columns`` and ``chains``."""
        self.weight = weight
        self.degree = degree
        self.deformed = tuple(deformed)
        self.dimension = dimension
        self.staircase = staircase
        self.taken = None
        if staircase is not None:
            self.taken = {}
            for chain in self.deformed:
                self.taken.setdefault(chain.initial.xy_degree, []).append(chain.initial.ey)
        self._columns = columns
        self._chains = chains
        self._search = None  # the selection search's fold, kept by alphagrade

    @property
    def columns(self) -> dict:
        if self._columns is None:
            ideal, taken = self.staircase, self.taken
            columns = {}
            for i in range(self.degree + 1):
                col = ideal.column(i) if i < ideal.stable_from else range(i + 1)  # a full column stays a range
                if col:
                    columns[i] = frozenset(col).difference(taken[i]) if i in taken else col
            self._columns = columns
        return self._columns

    @property
    def chains(self) -> tuple[Chain, ...]:
        if self._chains is None:
            deformed = {(c.initial.xy_degree, c.initial.ey): c for c in self.deformed}
            keys = sorted([*((i, a) for i, col in self.columns.items() for a in col), *deformed])
            n = self.degree
            self._chains = tuple(
                deformed[key] if key in deformed else Chain(Monomial(key[0] - key[1], key[1], n - key[0]), _PLAIN)
                for key in keys
            )
        return self._chains

    def plain_part(self):
        """The plain monomials: their alpha-grade, their number, and tests of
        an (x,y-degree, y-degree) pair's membership and of a column's count.
        A section space reads them off its staircase (heights h, diff and
        closed-form grade, each worked out once): column n holds y^b iff
        b >= h_(n-b), it has diff[n] members, and taking y^b out of a column
        of k members lowers the grade by b - (k - 1)."""
        if self.staircase is None:
            columns = self.columns
            return (
                sum(map(column_weight, columns.values())),
                sum(map(len, columns.values())),
                lambda col, ey: ey in columns.get(col, ()),
                lambda col: len(columns.get(col, ())),
            )
        ideal, taken = self.staircase, self.taken
        h, diff = ideal.heights, ideal.hilbert_function().diff

        def members(col):
            return diff[col] if col < len(diff) else col + 1

        grade = ideal.alpha_grade
        for col, eys in taken.items():
            for k, ey in enumerate(eys):
                grade -= ey - (members(col) - k - 1)
        return (
            grade,
            self.dimension - len(self.deformed),
            lambda col, ey: ey >= (h[col - ey] if col - ey < len(h) else 0) and ey not in taken.get(col, ()),
            lambda col: members(col) - len(taken.get(col, ())),
        )

    def __eq__(self, other):
        if not isinstance(other, SemiInvariantSpace):
            return NotImplemented
        return self.weight == other.weight and self.chains == other.chains

    def __hash__(self):
        return hash((self.weight, self.chains))

    def __repr__(self) -> str:
        return f"SemiInvariantSpace(weight={self.weight!r}, chains={self.chains!r})"

    def to_json_dict(self) -> dict:
        return {
            "rho": list(self.weight.rho),
            "chains": [
                {"initial": c.initial.as_list(), "support": sorted(c.support)}
                for c in self.chains
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SemiInvariantSpace":
        """``rho``, each ``initial`` and each ``support`` pass ``int_array``."""
        try:
            weight = TorusWeight(tuple(int_array(data["rho"])))
            chains = tuple(
                Chain(monomial_from_list(int_array(c["initial"])), frozenset(int_array(c["support"])))
                for c in data["chains"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed semi-invariant space JSON: {data!r}") from exc
        return SemiInvariantSpace(weight, chains)

    @staticmethod
    def from_json(text: str | bytes) -> "SemiInvariantSpace":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad bytes or syntax, an over-long integer, deep nesting
            raise DomainError(f"malformed semi-invariant space JSON: {exc}") from exc
        return SemiInvariantSpace.from_json_dict(data)


def limit_ideal(space: SemiInvariantSpace, direction: str) -> GradedMonomialIdeal:
    """Staircase spanned by the initial ("zero") or final ("infinity")
    monomials of the chains.  The selected monomials must be pairwise
    distinct, and the span must satisfy the staircase growth law (it does
    whenever the space is a section space of an ideal).
    """
    if direction == "zero":
        tops = [c.initial for c in space.deformed]
    elif direction == "infinity":
        tops = [c.final(space.weight) for c in space.deformed]
    else:
        raise DomainError(f"direction must be 'zero' or 'infinity', got {direction!r}")
    if space.staircase is not None:
        return _moved_limit(space, tops, direction)
    grown: dict[int, set[int]] = {}
    for mon in tops:
        i = mon.xy_degree
        if i not in grown:
            grown[i] = set(space.columns.get(i, ()))
        if mon.ey in grown[i]:
            raise DegenerateLimitError(f"colliding {direction}-limit monomials")
        grown[i].add(mon.ey)
    cols = [grown[i] if i in grown else space.columns.get(i, ()) for i in range(space.degree + 1)]
    return GradedMonomialIdeal.from_columns(cols, space.degree + 1)


def _moved_limit(space: SemiInvariantSpace, tops, direction: str) -> GradedMonomialIdeal:
    """``limit_ideal`` of a section space, by moving cells on its staircase's
    heights: the chains' initial cells leave the ideal and the tops join it.
    Every top is checked before any height moves, so that this raises what
    the column form raises: a top on a plain monomial or on an earlier top
    collides, and otherwise the cells missing over each x^i must be the
    segment 0..h_i - 1, with h non-increasing.
    """
    h = space.staircase.heights
    leave: dict[int, set[int]] = {}  # x-exponent -> y-exponents of the cells leaving the ideal
    join: dict[int, set[int]] = {}
    for chain in space.deformed:
        leave.setdefault(chain.initial.ex, set()).add(chain.initial.ey)
    for mon in tops:
        i, b = mon.ex, mon.ey
        joined = join.setdefault(i, set())
        if b in joined or (b >= (h[i] if i < len(h) else 0) and b not in leave.get(i, ())):
            raise DegenerateLimitError(f"colliding {direction}-limit monomials")
        joined.add(b)
    heights = list(h)
    for i in leave.keys() | join.keys():
        gone, back = leave.get(i, set()), join.get(i, set())
        up, down = gone - back, back - gone  # the initials are above h_i, the other tops below it
        if i >= len(heights):
            heights += [0] * (i + 1 - len(heights))
        base = heights[i]
        if (up and down) or up != set(range(base, base + len(up))) or down != set(range(base - len(down), base)):
            raise MalformedIdealError("columns are not a staircase")
        heights[i] = base + len(up) - len(down)
    if any(map(lt, heights, heights[1:])):
        raise MalformedIdealError("columns are not a staircase")
    while heights and not heights[-1]:
        heights.pop()
    return GradedMonomialIdeal._trusted(tuple(heights))


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
    The chains are checked in basis order.  Pass no deformations for the
    all-monomial section space.  The space keeps the staircase truncated at
    the level, which has the same section monomials of that degree, and
    ``ideal`` itself, with what it has cached, where the truncation changes
    nothing (at any level >= its colength).
    """
    heights = tuple(map(min, ideal.heights, range(level + 1, 0, -1)))

    def is_section(mon):  # of degree level: x^i y^b is a section iff b >= h_i
        return mon.ey >= (heights[mon.ex] if mon.ex < len(heights) else 0)

    deformations = {initial: list(steps) for initial, steps in deformations}
    missing = [m for m in deformations if m.degree != level or not is_section(m)]
    if missing:
        raise DomainError(f"deformation initials outside the section space: {sorted(str(m) for m in missing)}")
    chains = []
    for mon in sorted(deformations, key=lambda m: (m.xy_degree, m.ey)):
        support = {0}
        for j in deformations[mon]:
            if j <= 0:
                raise DomainError(f"step indices must be positive, got {j}")
            stepped = weight.step(mon, j)
            if stepped in deformations:
                raise DomainError(f"chain step {stepped} collides with another initial")
            if is_section(stepped):
                continue  # reduces away against the monomial basis
            support.add(j)
        if len(support) > 1:
            chains.append(Chain(mon, frozenset(support)))
    dimension = comb(level + 2, 2) - sum(heights) if level >= 0 else 0
    if not dimension:
        raise DomainError("semi-invariant space needs at least one chain")
    staircase = ideal if heights == ideal.heights else GradedMonomialIdeal._trusted(heights)
    space = object.__new__(SemiInvariantSpace)
    space._fill(weight, level, chains, dimension, staircase)
    return space
