"""Reference values the benchmark checks the program's outputs against.

Everything here is computed from the definitions with the benchmark's own
code, never by calling the package, so a wrong answer from the package cannot
also become the expected answer.  Hilbert functions are plain difference
sequences (tuples of ints); monomials are ``(ex, ey, ez)`` tuples.
"""

from __future__ import annotations

from math import comb


# -- Hilbert functions ------------------------------------------------------

def canonical(seq) -> tuple[int, ...]:
    """Trim or extend a difference sequence to its first diagonal entry."""
    out = []
    n = 0
    while True:
        v = seq[n] if n < len(seq) else n + 1
        out.append(v)
        if v == n + 1:
            return tuple(out)
        n += 1


def colength(diff) -> int:
    return sum(n + 1 - v for n, v in enumerate(diff))


def regularity(diff) -> int:
    return len(diff) - 1


def alpha(diff) -> int:
    return next(n for n, v in enumerate(diff) if v > 0)


def g_star(diff) -> int:
    """Genus functional: sum_{n<=d} phi(n) - C(d+3, 3) + d^2 + 1."""
    d = colength(diff)
    e = regularity(diff)
    total = 0
    running = 0
    for n in range(min(d, e) + 1):
        running += diff[n]
        total += running
    if d > e:
        # phi(n) = C(n+2, 2) - d past the regularity
        total += comb(d + 3, 3) - comb(e + 3, 3) - d * (d - e)
    return total - comb(d + 3, 3) + d * d + 1


def deformation_bound(d: int) -> int:
    return (d - 2) ** 2 // 4 if d % 2 == 0 else (d - 1) * (d - 3) // 4


def above_bound(diff) -> bool:
    d = colength(diff)
    return d >= 5 and g_star(diff) > deformation_bound(d)


def compose(kernel, m: int) -> tuple[int, ...]:
    """Kernel shifted up one degree below m, diagonal from m on."""
    k = canonical(kernel)
    shifted = [k[n - 1] if n - 1 < len(k) else n for n in range(1, m)]
    return canonical([0] + shifted + [m + 1])


def type_chain(diff) -> dict:
    """Iterated split above the deformation bound, as the CLI prints it."""
    ms = []
    cur = canonical(diff)
    while above_bound(cur):
        m = regularity(cur)
        ms.append(m)
        cur = canonical(cur[1:m])
    return {
        "r": len(ms) - 1,
        "ms": ms,
        "kernel_c": colength(cur),
        "kernel_kappa": regularity(cur),
        "ells": None,
    }


def _parts(total: int, cap: int):
    """Non-increasing sequences of positive parts <= cap summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _parts(total - first, first):
            yield (first,) + rest


def hilbert_functions(d: int) -> list[tuple[int, ...]]:
    """All difference sequences of colength d, in lexicographic order.

    Zero up to alpha, then deficiencies n + 1 - diff[n] that never increase,
    start at most at alpha and end at zero on the diagonal.
    """
    if d == 0:
        return [(1,)]
    out = []
    a = 1
    while a * (a + 1) // 2 <= d:
        for hs in _parts(d - a * (a + 1) // 2, a):
            diff = [0] * a + [a + i + 1 - h for i, h in enumerate(hs)]
            out.append(tuple(diff) + (a + len(hs) + 1,))
        a += 1
    return sorted(out)


def hf_enum_payload(d: int) -> dict:
    return {
        "colength": d,
        "functions": [
            {"diff": list(f), "g_star": g_star(f), "regularity": regularity(f)}
            for f in hilbert_functions(d)
        ],
    }


def hf_info_payload(diff) -> dict:
    diff = canonical(diff)
    d = colength(diff)
    return {
        "diff": list(diff),
        "colength": d,
        "alpha": alpha(diff) if d > 0 else 0,
        "regularity": regularity(diff),
        "g_star": g_star(diff),
        "deformation_bound": deformation_bound(d) if d >= 5 else None,
        "type_chain": type_chain(diff),
    }


# -- pyramids ---------------------------------------------------------------

def nr_decomposition(d: int) -> tuple[str, int, int]:
    """The unique (case, n, r) with d = n(n+1) - r or d = n^2 - r, 0 <= r < n."""
    found = []
    for n in range(1, d + 2):
        if 0 <= n * n - d < n:
            found.append(("square", n, n * n - d))
        if 0 <= n * (n + 1) - d < n:
            found.append(("square_pronic", n, n * (n + 1) - d))
    (only,) = found
    return only


def _column_weight(i: int, a: int) -> int:
    """Weight of column i of a top-segment pyramid with initial degree a."""
    return sum(range(a, i + 1)) - comb(i + 1 - a, 2)


def pyramid_max_payload(c: int, d: int) -> dict:
    """Maximal top-segment weight of type (c, d) and the lexicographically
    smallest maximizing initial-degree vector.

    best[i][r] is the largest weight of columns i..c-1 missing r entries;
    the witness then takes, column by column, the smallest initial degree
    that still reaches the maximum.
    """
    none = float("-inf")
    best = [[none] * (d + 1) for _ in range(c + 1)]
    best[c][0] = 0
    for i in reversed(range(c)):
        for r in range(d + 1):
            best[i][r] = max(
                (_column_weight(i, a) + best[i + 1][r - a] for a in range(min(i + 1, r) + 1)),
                default=none,
            )
    witness, r = [], d
    for i in range(c):
        a = next(a for a in range(min(i + 1, r) + 1)
                 if _column_weight(i, a) + best[i + 1][r - a] == best[i][r])
        witness.append(a)
        r -= a
    case, n, rr = nr_decomposition(d)
    weight = best[0][d]
    return {"c": c, "d": d, "case": case, "n": n, "r": rr, "weight": weight,
            "oracle": weight, "witness": witness}


# -- small closed forms -------------------------------------------------------

def genus_payload(d: int, nu: int) -> dict:
    return {"d": d, "nu": nu, "genus": (nu - 1) * d - comb(nu + 2, 3) + 1}


def ch14_payload(e: int) -> dict:
    b = comb(e - 2, 2)
    return {"e": e, "degrees": [b, b + e - 1, 2 * b + e - 1, 2 * b + e - 2, 1]}


# -- alpha-grades of chain spaces ---------------------------------------------

def space_options(space: dict) -> list[list[tuple[int, int, int]]]:
    """Supported monomials of each chain of a space in its JSON form."""
    rho = space["rho"]
    return [
        [tuple(e + j * r for e, r in zip(chain["initial"], rho)) for j in sorted(chain["support"])]
        for chain in space["chains"]
    ]


def space_extremes(space: dict, threshold: int) -> dict:
    """(min, max) alpha-grade over collision-free selections, the spread of
    the part right of ``threshold`` between the extreme selections, and the
    number of selections.

    Depth-first over the chains with more than one option, updating the
    column counts incrementally: adding y-degree b to a column already
    holding k monomials adds b - k to the grade.
    """
    options = space_options(space)
    fixed = [opts[0] for opts in options if len(opts) == 1]
    variable = [opts for opts in options if len(opts) > 1]
    counts: dict[int, int] = {}
    used = set(fixed)
    grade = right = 0
    for ex, ey, _ in fixed:
        k = counts.get(ex + ey, 0)
        counts[ex + ey] = k + 1
        grade += ey - k
        if ex + ey > threshold:
            right += ey - k
    best = {"min": None, "max": None, "right_at_min": None, "right_at_max": None, "leaves": 0}

    def leaf(g, rg):
        best["leaves"] += 1
        if best["min"] is None or g < best["min"]:
            best["min"], best["right_at_min"] = g, rg
        elif g == best["min"]:
            best["right_at_min"] = min(best["right_at_min"], rg)
        if best["max"] is None or g > best["max"]:
            best["max"], best["right_at_max"] = g, rg
        elif g == best["max"]:
            best["right_at_max"] = max(best["right_at_max"], rg)

    def visit(i, g, rg):
        if i == len(variable):
            leaf(g, rg)
            return
        for mon in variable[i]:
            if mon in used:
                continue
            ex, ey, _ = mon
            col = ex + ey
            k = counts.get(col, 0)
            delta = ey - k
            used.add(mon)
            counts[col] = k + 1
            visit(i + 1, g + delta, rg + (delta if col > threshold else 0))
            counts[col] = k
            used.discard(mon)

    visit(0, grade, right)
    return {
        "min": best["min"],
        "max": best["max"],
        "spread": best["right_at_max"] - best["right_at_min"],
        "selections": best["leaves"],
    }


def count_selections(space: dict) -> int:
    """Number of collision-free selections of one option per chain."""
    options = space_options(space)
    used = {opts[0] for opts in options if len(opts) == 1}
    variable = [opts for opts in options if len(opts) > 1]

    def visit(i):
        if i == len(variable):
            return 1
        total = 0
        for mon in variable[i]:
            if mon not in used:
                used.add(mon)
                total += visit(i + 1)
                used.discard(mon)
        return total

    return visit(0)


def alphagrade_payload(space: dict) -> dict:
    ext = space_extremes(space, 0)
    degree = sum(space["chains"][0]["initial"])
    return {"min": ext["min"], "max": ext["max"], "degree": degree, "chains": len(space["chains"])}
