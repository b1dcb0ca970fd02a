"""Standard-form decompositions of Hilbert functions and staircases.

A Hilbert function whose genus functional exceeds the deformation bound
splits off a kernel function and a regularity m (the difference sequence is
the kernel's shifted by one degree below m, diagonal from m on).  Iterating
the split yields the type chain (m_0 > m_1 > ... > m_r plus the residual
kernel); on the ideal side the same split identifies an x- or y-standard
form.
"""

from __future__ import annotations

from typing import Optional

from .errors import DomainError, InternalInconsistencyError, Record
from .hilbert import HilbertFunction, deformation_bound

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: splitting a function needs no staircase
    from .staircase import GradedMonomialIdeal


def decompose(phi: HilbertFunction) -> Optional[tuple[HilbertFunction, int]]:
    """Split phi into (kernel psi, m) when its genus functional exceeds the
    deformation bound; otherwise (colength <= 4 or below the bound) None."""
    d = phi.colength
    if d <= 4:
        return None
    if phi.g_star() <= deformation_bound(d):
        return None
    m = phi.regularity
    try:  # the kernel is diff shifted down one degree below m, checked as any entering sequence
        psi = HilbertFunction.from_diff(phi.diff[1:m])
    except DomainError as exc:
        raise InternalInconsistencyError(
            f"shifted kernel of {phi.diff} is not a Hilbert function"
        ) from exc
    c = psi.colength
    if c + m != d or m < psi.regularity + 2:
        raise InternalInconsistencyError(
            f"decomposition shape violated on {phi.diff}: kernel {psi.diff}, m={m}"
        )
    if m < c + 2:
        raise InternalInconsistencyError(f"m={m} < c+2={c + 2} on {phi.diff}")
    return psi, m


def compose(psi: HilbertFunction, m: int) -> HilbertFunction:
    """Glue a kernel function below degree m to a diagonal tail from m on.

    Requires m >= regularity(psi) + 2.  The genus functional of the result
    equals g(psi) + m(m-3)/2 + colength(psi), which is checked exactly.
    """
    if m < psi.regularity + 2:
        raise DomainError(f"need m >= regularity + 2 = {psi.regularity + 2}, got {m}")
    k = len(psi.diff)  # psi's diagonal values n + 1 fill the degrees k + 1..m - 1
    phi = HilbertFunction.from_diff((0,) + psi.diff + tuple(range(k + 1, m)) + (m + 1,))
    c = psi.colength
    if phi.colength != c + m or phi.regularity != m:
        raise InternalInconsistencyError(f"glued function has wrong shape: {phi.diff}")
    lhs = phi.g_star()
    rhs = psi.g_star() + m * (m - 3) // 2 + c  # m(m-3) is even: opposite parities
    if lhs != rhs:
        raise InternalInconsistencyError(
            f"genus identity failed: g({phi.diff})={lhs} but kernel side gives {rhs}"
        )
    return phi


class TypeChain(Record):
    """Chain data of the iterated decomposition.

    ``ms`` lists m_0 > m_1 > ... > m_r (empty for type -1); ``kernel_c`` and
    ``kernel_kappa`` are the colength and regularity of the residual kernel.
    No function determines the levels' linear-form labels: text and JSON print ``ells=-``/``null``.
    """

    ms: tuple[int, ...]
    kernel_c: int
    kernel_kappa: int

    @property
    def r(self) -> int:
        return len(self.ms) - 1

    def check_invariants(self) -> None:
        r = self.r
        if r < 0:
            return
        c = self.kernel_c
        if self.ms[-1] < c + 2:
            raise InternalInconsistencyError(f"m_r={self.ms[-1]} < c+2={c + 2}")
        if self.ms[0] < 2**r * (c + 2):
            raise InternalInconsistencyError(f"m_0={self.ms[0]} < 2^r(c+2)={2**r * (c + 2)}")
        if r >= 1:
            for i in range(r + 1):
                for j in range(i + 1, r + 1):
                    if not self.ms[j] + j < self.ms[i] + i - 1:
                        raise InternalInconsistencyError(
                            f"m_{j}+{j} >= m_{i}+{i}-1 in chain {self.ms}"
                        )

    def as_text(self) -> str:
        ms = ",".join(str(m) for m in self.ms)
        return f"r={self.r}; ells=-; ms={ms}; c={self.kernel_c}; kappa={self.kernel_kappa}"

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "ms": list(self.ms),
            "kernel_c": self.kernel_c,
            "kernel_kappa": self.kernel_kappa,
            "ells": None,
        }


def type_of(phi: HilbertFunction) -> TypeChain:
    """Iterate the decomposition down to a residual kernel of type -1."""
    ms = []
    cur = phi
    while True:
        split = decompose(cur)
        if split is None:
            chain = TypeChain(tuple(ms), cur.colength, cur.regularity)
            chain.check_invariants()
            return chain
        cur, m = split[0], split[1]
        ms.append(m)


class StandardForm(Record):
    """Ideal-level split I = ell * K(-1) + (monomial) * O(-m)."""

    ell: str  # 'x' or 'y'
    kernel: GradedMonomialIdeal
    m: int


def detect_standard_form(ideal: GradedMonomialIdeal, phi: HilbertFunction) -> Optional[StandardForm]:
    """Detect the x- or y-standard form of a staircase, when defined.

    ``phi`` is the staircase's Hilbert function, which the caller holds: the
    staircases of one function can then share one object, and so its cached
    genus functional.  Returns None when that does not exceed the
    deformation bound (including colength <= 4), where the form is not
    defined.  The two outcomes are mutually exclusive.
    """
    if phi.diff != ideal.hilbert_function().diff:
        raise DomainError(f"{phi} is not the Hilbert function of {ideal}")
    d = phi.colength
    if d <= 4 or phi.g_star() <= deformation_bound(d):
        return None
    m = phi.regularity
    h = ideal.heights
    # x divides every form of degree < m iff no y^n (n < m) lies in the ideal:
    # h_0 >= m; likewise y divides them iff no x^n does: at least m heights
    x_divides = h[0] >= m  # d > 4, so h is not empty
    y_divides = len(h) >= m
    if x_divides and y_divides:
        raise InternalInconsistencyError(f"both forms detected on {ideal}")
    if not x_divides and not y_divides:
        return None
    # the kernel is (I : y), heights h_i - 1, or (I : x), heights h_1, h_2, ...
    kernel = type(ideal)(tuple(b - 1 for b in h if b > 1) if y_divides else h[1:])
    if kernel.colength + m != d:
        raise InternalInconsistencyError(
            f"kernel colength {kernel.colength} + m {m} != {d} on {ideal}"
        )
    return StandardForm("y" if y_divides else "x", kernel, m)
