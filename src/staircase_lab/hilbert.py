"""Hilbert functions of finite-colength ideals in the plane.

A Hilbert function is stored through its difference sequence
``diff[n] = phi(n) - phi(n-1)``.  A sequence is admissible iff
``diff[n] <= n + 1`` everywhere and ``diff`` increases strictly from the
minimal degree alpha onwards until it reaches the diagonal value ``n + 1``,
where it stays.  The colength is the total deficiency
``sum(n + 1 - diff[n])``.

A sequence from outside the package (the constructor, ``from_diff``,
``parse``) is validated once, where it enters, by one scan: it finds alpha
and the first diagonal index and checks each stretch in a C-level pass.  The
kernels and glued sequences of ``standard_form`` enter through ``from_diff``
and pass the same scan.  The enumerator and the staircases build admissible
sequences directly and skip it; every function derives its colength from
its diff on first use.

The enumerator walks the sequences of one colength in place: one list holds
the prefix, and each step down or back up changes its last entry, the
deficit left and a running part of g*, so its memory grows with the depth,
never with d.  With D(n) the cells missing up to degree n,
g* = d^2 + 1 - sum_(n<=d) D(n); read this way, g* lets the walk skip the
functions at or below a threshold: it bounds every completion of a prefix,
and the bound becomes a floor on the prefix's next entry.

The pointwise order of n functions of one colength, regularity below L, is
read from bitmasks in O(n L) big-int operations, not O(n^2) pair steps: one
mask per degree and value (``at_least``), ANDed over the degrees.

``q_value`` (the complementary Hilbert polynomial) and ``genus_nu`` (the genus
of the cone family) live here so that their callers load nothing else.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count
from math import comb, isqrt
from operator import eq, le, lt, or_

from .errors import DomainError, InternalInconsistencyError, Record, int_array


class cached:
    """A value computed on first access and stored in the instance's dict,
    where it then shadows this descriptor.  It takes no lock: a race at worst
    computes the same value twice."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _canonical_diff(raw) -> tuple[int, ...]:
    """A list or tuple of ints checked admissible in one scan, and trimmed or
    extended to its first diagonal index e (seq[e] == e + 1).  With alpha its
    first nonzero index: below e each entry is at most its index, from alpha
    to e the entries increase strictly, and from e on they stay diagonal."""
    seq = int_array(raw)
    if min(seq, default=0) < 0:
        raise DomainError(f"negative entry in difference sequence {seq}")
    size = len(seq)
    e = next(compress(count(), map(eq, seq, count(1))), size)
    alpha = next(compress(count(), seq), size)
    if not (
        all(map(le, seq[:e], count()))
        and all(map(lt, seq[alpha:e], seq[alpha + 1 : e]))
        and all(map(eq, seq[e:], count(e + 1)))
    ):
        raise DomainError(f"not a valid difference sequence: {seq}")
    return tuple(seq[:e]) + (e + 1,)


def is_valid(raw) -> bool:
    """Whether ``raw`` is a list or tuple of ints that is an admissible difference sequence."""
    try:
        _canonical_diff(raw)
    except DomainError:
        return False
    return True


class HilbertFunction(Record):
    """A Hilbert function, canonically stored up to its regularity index."""

    diff: tuple[int, ...]

    @staticmethod
    def _trusted(diff: tuple[int, ...]) -> "HilbertFunction":
        """The function of a canonical, admissible tuple, built unchecked: only
        for sequences the package has validated or built admissible itself."""
        phi = object.__new__(HilbertFunction)
        object.__setattr__(phi, "diff", diff)
        return phi

    @staticmethod
    def from_diff(raw) -> "HilbertFunction":
        return HilbertFunction._trusted(_canonical_diff(raw))

    @staticmethod
    def parse(text: str) -> "HilbertFunction":
        """Parse the comma-separated textual form, e.g. ``"0,0,3"``."""
        try:
            raw = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise DomainError(f"cannot parse difference sequence {text!r}") from exc
        return HilbertFunction.from_diff(raw)

    def __post_init__(self):
        if self.diff != _canonical_diff(self.diff):
            raise DomainError(f"non-canonical difference sequence {self.diff}")

    def __eq__(self, other):  # ``Record``'s equality and hash, without its generic walk over the fields
        return self.diff == other.diff if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.diff,))

    @cached
    def colength(self) -> int:
        return comb(len(self.diff) + 1, 2) - sum(self.diff)

    @property
    def alpha(self) -> int:
        """Minimal degree with a nonzero value."""
        return next(compress(count(), self.diff))

    @property
    def regularity(self) -> int:
        """Smallest n with diff[n] = n + 1 (0 for the full ideal)."""
        return len(self.diff) - 1

    def g_star(self) -> int:
        """The genus functional.

        Evaluated through two independent formulas that must agree exactly:
        a cumulative sum of phi(n) over n = 0..d, and a closed form in the
        partial sum of phi below the regularity e.  The sum is O(d): one
        ``accumulate`` over diff up to e and over the diagonal values n + 1
        past it.  It uses no closed form past the regularity, which would turn
        it into the other evaluation.  The closed form is O(e).  The value is
        cached.
        """
        return self._g_star

    @cached
    def _g_star(self) -> int:
        d = self.colength
        e = self.regularity
        by_sum = sum(accumulate(chain(self.diff, range(e + 2, d + 2)))) - comb(d + 3, 3) + d * d + 1
        s = sum(accumulate(self.diff[: max(e - 1, 0)]))  # phi(0..e-2)
        by_closed = s - comb(e + 1, 3) + d * (e - 2) + 1
        if by_sum != by_closed:
            raise InternalInconsistencyError(
                f"genus functional mismatch on {self.diff}: {by_sum} != {by_closed}"
            )
        return by_sum

    def as_text(self) -> str:
        return ",".join(str(v) for v in self.diff)

    def __str__(self) -> str:
        return self.as_text()


def enumerate_hilbert_functions(d: int, above: int | None = None) -> list[HilbertFunction]:
    """All Hilbert functions of colength d, in lexicographic diff order; with
    ``above``, only those whose genus functional exceeds it.

    Every sequence is built admissible: after the first nonzero entry v the
    next entry is at least v + 1, and an entry below the diagonal may not
    miss more than the deficit left.  So no result is validated again.  The
    entry that spends the whole deficit is followed only by the diagonal
    value, so its function is appended in place.

    The walk is depth first over one list of entries, the prefix.  Going
    down appends an entry and spends its missing cells from the deficit;
    going back up pops it and undoes that step exactly, so the deficit and g
    of each level need no copy, and the next sibling is the popped entry
    plus one.  Memory grows with the depth, which is at most the regularity,
    and nothing is sized by d.

    The prune reads the genus functional a third way.  With D(n) the cells
    missing up to degree n, phi(n) = C(n + 2, 2) - D(n), so
    g* = d^2 + 1 - sum_(n<=d) D(n) = 1 - d + sum_n left(n), where
    left(n) = d - D(n) is the deficit left after entry n.  Every degree
    before the diagonal misses a cell, so the pointwise largest completion of
    a prefix misses one cell per degree; its lefts count down to 0 and bound
    every leaf below by g + C(left + 1, 2) over the prefix's sum g.  The
    bound grows with the next entry, which sets left, so a node computes
    once the least entry whose bound exceeds ``above``: with
    s = above - g >= 0 and k = (isqrt(8 s + 1) - 1) // 2 the largest k with
    C(k + 1, 2) <= s, left must exceed k.  Every child from that floor on is
    walked without a further test.  At a leaf left is 0 and the bound is its
    g*, so a node with s >= 0 appends no leaf.
    """
    if d < 0:
        raise DomainError("colength must be nonnegative")
    trusted = HilbertFunction._trusted
    if above is None:
        above = -d  # every g* is at least 1 - d: nothing is pruned
    if d == 0:
        return [trusted((1,))] if 1 > above else []
    out: list[HilbertFunction] = []
    append = out.append
    entries: list[int] = []  # the prefix; entry n is the child walked at level n
    n, lo, deficit, g = 0, 0, d, 1 - d  # g: 1 - d plus the deficits left after the prefix's entries
    while True:
        first = n + 1 - deficit  # the entry that spends the whole deficit
        slack = above - g
        if slack >= 0:  # no leaf here, and a child needs C(left + 1, 2) > slack
            v = first + 1 + (isqrt(8 * slack + 1) - 1) // 2
            if v < lo:
                v = lo
        elif lo <= first:
            append(trusted((*entries, first, n + 2)))
            v = first + 1
        else:
            v = lo
        while v > n:  # no child left here: undo the last step, on to its next entry
            if not n:
                return out
            n -= 1
            v = entries.pop()
            g -= deficit
            deficit += n + 1 - v
            v += 1
        entries.append(v)
        lo = v + 1 if v else 0
        deficit += v - n - 1
        g += deficit
        n += 1


def deformation_bound(d: int) -> int:
    """The threshold value separating the two genus regimes, defined for d >= 5."""
    if d < 5:
        raise DomainError(f"deformation bound is defined only for colength >= 5, got {d}")
    if d % 2 == 0:
        assert (d - 2) ** 2 % 4 == 0
        return (d - 2) ** 2 // 4
    assert (d - 1) * (d - 3) % 4 == 0
    return (d - 1) * (d - 3) // 4


def q_value(d: int, n: int) -> int:
    """Complementary Hilbert polynomial value in the plane: C(n+2, 2) - d."""
    return comb(n + 2, 2) - d


def genus_nu(d: int, nu: int) -> int:
    """Genus of the cone family: (nu - 1) d - C(nu + 2, 3) + 1, d >= 0, nu >= 1."""
    if d < 0 or nu < 1:
        raise DomainError(f"need d >= 0 and nu >= 1, got d={d}, nu={nu}")
    return (nu - 1) * d - comb(nu + 2, 3) + 1


def special_chi(d: int) -> HilbertFunction:
    """The Hilbert function of the extremal three-generator ideal of colength d.

    For even d this is the function of (x^2, x*y^(e-2), y^e) with e = d/2 + 1;
    for odd d the function of (x^2, x*y^(e-1), y^e) with e = (d+1)/2.  Its
    genus functional equals the deformation bound.
    """
    if d < 5:
        raise DomainError(f"special Hilbert function needs colength >= 5, got {d}")
    if d % 2 == 0:
        e = d // 2 + 1
        diff = [0, 0] + list(range(1, e - 2)) + [e - 1, e + 1]
    else:
        e = (d + 1) // 2
        diff = [0, 0] + list(range(1, e - 1)) + [e + 1]
    return HilbertFunction.from_diff(diff)


def lex_most(d: int) -> HilbertFunction:
    """The lexicographically largest function of colength d (regularity d)."""
    if d == 0:
        return HilbertFunction((1,))
    return HilbertFunction.from_diff([0] + list(range(1, d)) + [d + 1])


def at_least(values):
    """The positions k of the nonempty list ``values`` above its lowest value,
    each with the bitmask of the positions holding values[k] or more (bit j
    for position j): ORed up in descending value, a value keeping its last
    mask.  The lowest value's mask, every position, would AND to no change."""
    low = min(values)
    order = sorted(compress(count(), map(low.__ne__, values)), key=values.__getitem__, reverse=True)
    held = list(map(values.__getitem__, order))
    masks = dict(zip(held, accumulate(map((1).__lshift__, order), or_)))
    return zip(order, map(masks.__getitem__, held))


def above_masks(functions) -> list[int]:
    """Per function of a list of one colength, the bitmask of the functions
    strictly above it pointwise (bit k for the k-th): the AND of its values'
    ``at_least`` masks over the degrees below the largest regularity less
    one, where functions of one colength can differ, less those equal to it."""
    functions = list(functions)
    if len({phi.colength for phi in functions}) > 1:
        raise DomainError("comparing Hilbert functions of different colengths")
    length = max((phi.regularity for phi in functions), default=1) - 1  # from phi(length) on, all agree
    equal = {}
    for k, phi in enumerate(functions):
        equal[phi.diff] = equal.get(phi.diff, 0) | 1 << k
    masks = [((1 << len(functions)) - 1) ^ equal[phi.diff] for phi in functions]
    rows = (accumulate(chain(phi.diff, range(len(phi.diff) + 1, length + 1))) for phi in functions)
    for column in zip(*rows):
        for k, above in at_least(column):
            masks[k] &= above
    return masks


def pairwise_comparable(functions) -> list[tuple[HilbertFunction, HilbertFunction]]:
    """All strictly comparable ordered pairs (phi, psi) with phi < psi, from ``above_masks``."""
    functions = list(functions)
    return [(phi, psi) for phi, mask in zip(functions, above_masks(functions))
            for psi in compress(functions, map(int, reversed(f"{mask:b}")))]
