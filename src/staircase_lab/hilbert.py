"""Hilbert functions of finite-colength ideals in the plane.

A Hilbert function is stored through its difference sequence
``diff[n] = phi(n) - phi(n-1)``.  A sequence is admissible iff
``diff[n] <= n + 1`` everywhere and ``diff`` increases strictly from the
minimal degree alpha onwards until it reaches the diagonal value ``n + 1``,
where it stays.  The colength is the total deficiency
``sum(n + 1 - diff[n])``.

A sequence from outside the package (the constructor, ``from_diff``,
``parse``) is validated once, where it enters.  The enumerator and the
staircases build admissible sequences directly and skip that check.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import DomainError, InternalInconsistencyError, int_array

Verdict = str  # "less" | "equal" | "greater" | "incomparable"


def _canonical_diff(raw) -> tuple[int, ...]:
    """Validate a raw difference sequence and trim/extend it to the first
    diagonal index (diff[e] == e + 1), with the diagonal tail implied."""
    seq = int_array(raw)
    if any(v < 0 for v in seq):
        raise DomainError(f"negative entry in difference sequence {seq}")
    if not _diff_is_valid(seq):
        raise DomainError(f"not a valid difference sequence: {seq}")
    e = next((n for n, v in enumerate(seq) if v == n + 1), len(seq))
    return tuple(seq[:e]) + (e + 1,)


def _diff_is_valid(seq) -> bool:
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


def is_valid(raw) -> bool:
    """Whether ``raw`` is a list or tuple of ints that is an admissible difference sequence."""
    try:
        return _diff_is_valid(int_array(raw))
    except DomainError:
        return False


@dataclass(frozen=True)
class HilbertFunction:
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

    def diff_at(self, n: int) -> int:
        if n < 0:
            return 0
        return self.diff[n] if n < len(self.diff) else n + 1

    @cached_property
    def colength(self) -> int:
        return sum(n + 1 - v for n, v in enumerate(self.diff))

    @property
    def alpha(self) -> int:
        """Minimal degree with a nonzero value."""
        return next(n for n, v in enumerate(self.diff) if v > 0)

    @property
    def regularity(self) -> int:
        """Smallest n with diff[n] = n + 1 (0 for the full ideal)."""
        return len(self.diff) - 1

    def g_star(self) -> int:
        """The genus functional.

        Evaluated through two independent formulas that must agree exactly:
        a cumulative sum of phi(n) over n = 0..d, and a closed form in the
        partial sum of phi below the regularity e.  The sum is O(d): it
        accumulates diff up to e and then steps phi(n) = phi(n-1) + n + 1.
        It uses no closed form past the regularity, which would turn it into
        the other evaluation.  The closed form is O(e).  The value is cached.
        """
        return self._g_star

    @cached_property
    def _g_star(self) -> int:
        d = self.colength
        e = self.regularity
        prefix = list(itertools.accumulate(self.diff))  # phi(0..e)
        by_sum = sum(prefix)
        v = prefix[-1]
        for n in range(e + 1, d + 1):
            v += n + 1
            by_sum += v
        by_sum += -comb(d + 3, 3) + d * d + 1
        s = sum(prefix[: max(e - 1, 0)])
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


def _values(phi: HilbertFunction, length: int) -> tuple[int, ...]:
    """phi(0), ..., phi(length - 1), for length past the regularity."""
    values = list(itertools.accumulate(phi.diff))
    v = values[-1]
    for n in range(len(values), length):
        v += n + 1
        values.append(v)
    return tuple(values)


def _verdict(a: tuple[int, ...], b: tuple[int, ...]) -> Verdict:
    if a == b:
        return "equal"
    if all(map(operator.le, a, b)):
        return "less"
    if all(map(operator.ge, a, b)):
        return "greater"
    return "incomparable"


def compare(phi: HilbertFunction, psi: HilbertFunction) -> Verdict:
    """Pointwise partial-order verdict between equal-colength functions."""
    if phi.colength != psi.colength:
        raise DomainError("comparing Hilbert functions of different colengths")
    length = max(phi.regularity, psi.regularity) + 1
    return _verdict(_values(phi, length), _values(psi, length))


def enumerate_hilbert_functions(d: int) -> list[HilbertFunction]:
    """All Hilbert functions of colength d, in lexicographic diff order.

    Every sequence is built admissible: after the first nonzero entry v the
    next entry is at least v + 1, and an entry below the diagonal may not
    miss more than the deficit left.  So no result is validated again.
    """
    if d < 0:
        raise DomainError("colength must be nonnegative")
    out: list[HilbertFunction] = []
    trusted = HilbertFunction._trusted

    def extend(prefix: tuple[int, ...], lo: int, deficit: int):
        n = len(prefix)
        for v in range(max(lo, n + 1 - deficit), n + 1):
            extend(prefix + (v,), v + 1 if v else 0, deficit - (n + 1 - v))
        if deficit == 0:  # only the diagonal value fits, and it ends the sequence
            out.append(trusted(prefix + (n + 1,)))

    extend((), 0, d)
    return out


def deformation_bound(d: int) -> int:
    """The threshold value separating the two genus regimes, defined for d >= 5."""
    if d < 5:
        raise DomainError(f"deformation bound is defined only for colength >= 5, got {d}")
    if d % 2 == 0:
        assert (d - 2) ** 2 % 4 == 0
        return (d - 2) ** 2 // 4
    assert (d - 1) * (d - 3) % 4 == 0
    return (d - 1) * (d - 3) // 4


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


def pairwise_comparable(functions) -> list[tuple[HilbertFunction, HilbertFunction]]:
    """All strictly comparable ordered pairs (phi, psi) with phi < psi."""
    functions = list(functions)
    if len({phi.colength for phi in functions}) > 1:
        raise DomainError("comparing Hilbert functions of different colengths")
    # past both regularities two functions of one colength agree, so one
    # padding length serves every pair
    length = max((phi.regularity for phi in functions), default=0) + 1
    values = [_values(phi, length) for phi in functions]
    # one verdict per unordered pair; sorting the index pairs restores the
    # order of the ordered pairs (i, j)
    pairs = []
    for i, j in itertools.combinations(range(len(functions)), 2):
        verdict = _verdict(values[i], values[j])
        if verdict == "less":
            pairs.append((i, j))
        elif verdict == "greater":
            pairs.append((j, i))
    return [(functions[i], functions[j]) for i, j in sorted(pairs)]
