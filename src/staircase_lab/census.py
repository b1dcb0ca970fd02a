"""Shell census: how many staircases and Hilbert functions a colength has,
from recurrences that walk no shell.

The staircases of colength d are the partitions of d, p(d) of them.  The
Hilbert functions of colength d are in bijection with the strictly
decreasing staircases, the lex-segment ideals (Macaulay), so there are
q(d) of them, the partitions of d into distinct parts.  p comes from
Euler's pentagonal recurrence, and q from the coefficients of the product
of (1 + x^k) over k >= 1, truncated at x^d.  Each table holds d + 1 ints for
the largest d asked, grown on demand, and no shell.  This module imports
neither enumerator, so a suite can check the size of a shell against it.
"""

from __future__ import annotations

from .errors import DomainError

_P = [1]  # p(0), p(1), ...
_Q = [1]  # q(0), q(1), ...


def partitions(d: int) -> int:
    """p(d) by p(n) = sum_(k >= 1) (-1)^(k + 1) (p(n - k(3k - 1)/2) + p(n - k(3k + 1)/2))."""
    if d < 0:
        raise DomainError(f"colength must be nonnegative, got {d}")
    while len(_P) <= d:
        n, total, k = len(_P), 0, 1
        while (pentagonal := k * (3 * k - 1) // 2) <= n:
            sign = 1 if k % 2 else -1
            total += sign * (_P[n - pentagonal] + (_P[n - pentagonal - k] if pentagonal + k <= n else 0))
            k += 1
        _P.append(total)
    return _P[d]


def distinct_partitions(d: int) -> int:
    """q(d), the coefficient of x^d in the product of (1 + x^k) over k = 1..d;
    a larger d than held so far multiplies the product out again."""
    if d < 0:
        raise DomainError(f"colength must be nonnegative, got {d}")
    if d >= len(_Q):
        coefficients = [1] + [0] * d
        for k in range(1, d + 1):
            for n in range(d, k - 1, -1):
                coefficients[n] += coefficients[n - k]
        _Q[:] = coefficients
    return _Q[d]
