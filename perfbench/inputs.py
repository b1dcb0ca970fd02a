"""Seeded input generators for the workloads.

Each generator takes the benchmark seed and returns plain JSON-ready data, so
the same seed gives byte-identical inputs (``json.dumps(..., sort_keys=True)``
is what the determinism test compares).  They use the package only through
public functions (``staircase.enumerate_ideals`` and
``GradedMonomialIdeal.section_monomials``); everything else is the
benchmark's own arithmetic from ``oracle``.

The seed picks the inputs, not their size: run-to-run comparisons use
different seeds, so every generator fixes the shape of the batch (sizes on a
fixed ladder, counts per kind) and lets the seed vary the details.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle


def rng_for(seed: int, stream: str) -> random.Random:
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{stream}:{seed}")


# -- long Hilbert functions -----------------------------------------------------

def _random_long(rng: random.Random, e: int, a: int) -> dict:
    """Regularity e, alpha a, deficiencies in [1, a] with mean (a + 1) / 2."""
    length = e - a
    h = sorted((rng.randint(1, a) for _ in range(length)), reverse=True)
    target = length * (a + 1) // 2
    while sum(h) < target:  # raise the leftmost step that keeps h non-increasing
        i = next(i for i in range(length) if h[i] < a and (i == 0 or h[i - 1] > h[i]))
        h[i] += 1
    while sum(h) > target:  # lower the rightmost such step
        i = next(i for i in reversed(range(length)) if h[i] > 1 and (i == length - 1 or h[i + 1] < h[i]))
        h[i] -= 1
    diff = [0] * a + [a + i + 1 - hi for i, hi in enumerate(h)] + [e + 1]
    return {"kind": "random", "diff": diff}


def _composed(rng: random.Random, top: int, c: int, r: int) -> dict | None:
    """A type -1 kernel of colength c glued r + 1 times, each level above the
    deformation bound, the last at regularity >= top."""
    kernel = rng.choice([f for f in oracle.hilbert_functions(c) if not oracle.above_bound(f)])
    cur, ms = kernel, []
    for level in range(r + 1):
        m = max(oracle.regularity(cur) + 2, ms[-1] + 3 if ms else 0)
        if level == r:
            m = max(m, top)
        while not oracle.above_bound(oracle.compose(cur, m)):
            m += 1
        if level < r:
            m += rng.randint(0, 6)
        cur = oracle.compose(cur, m)
        ms.append(m)
    if oracle.type_chain(cur)["ms"] != ms[::-1]:
        return None
    return {"kind": "composed", "kernel": list(kernel), "ms": ms, "diff": list(cur)}


def long_hilbert_functions(seed: int, count: int, reg_range=(50, 200)) -> list[dict]:
    """Alternately a random long function and an iterated gluing, with
    regularities spread evenly over ``reg_range``; alpha, kernel colength and
    chain length follow the index, so the batch costs the same for every
    seed."""
    rng = rng_for(seed, "long-hf")
    lo, hi = reg_range
    out = []
    for i in range(count):
        e = lo + (hi - lo) * i // max(count - 1, 1)
        if i % 2 == 0:
            out.append(_random_long(rng, e, 6 + 2 * ((i // 2) % 10)))
            continue
        spec = None
        while spec is None:
            spec = _composed(rng, e, (i // 2) % 7, 1 + (i // 2) % 2)
        out.append(spec)
    return out


# -- chain spaces ------------------------------------------------------------

_WEIGHTS = sorted(
    (r0, r1, -r0 - r1)
    for r0 in range(-3, 4)
    for r1 in range(-3, 4)
    if (r0, r1) != (0, 0) and abs(r0 + r1) <= 4
)

# Relative cost of one product element of the selection search against one
# monomial graded in one selection (least squares over 60 spaces on the
# reference host: 8.9 us against 1.2 us, residual 8%).
_OPTION_WEIGHT = 7.4


def space_cost(spec: dict) -> int:
    """Cost units of minmax_alpha_grade plus right_domain_spread on a space:
    graded selections times dimension, plus the product the search walks."""
    return spec["selections"] * len(spec["space"]["chains"]) + _OPTION_WEIGHT * spec["options"]


def _space_attempt(rng, ideals, max_chains, target):
    """Deform section monomials whose steps leave the section space.

    Steps into the section space reduce away and steps onto another initial
    are rejected, so every chain here steps only onto the colength-many
    monomials outside it; chains sharing such a target collide.
    """
    d = rng.choice(sorted(ideals))
    ideal = rng.choice(ideals[d])
    level = d
    basis = [tuple(m.as_list()) for m in ideal.section_monomials(level)]
    basis_set = set(basis)
    rho = rng.choice(_WEIGHTS)
    outside = [(a, b, level - a - b) for a in range(level + 1) for b in range(level + 1 - a)
               if (a, b, level - a - b) not in basis_set]
    steps = {}
    for out in outside:
        for j in (1, 2, 3):
            mon = tuple(e - j * r for e, r in zip(out, rho))
            if mon in basis_set:
                steps.setdefault(mon, []).append(j)
    for js in steps.values():
        js.sort()
    order = sorted(steps)
    rng.shuffle(order)
    deformations = []
    options = 1
    for mon in order[:max_chains]:
        if options * len(basis) >= 1.5 * target:
            break
        deformations.append([list(mon), steps[mon]])
        options *= 1 + len(steps[mon])
    support = {tuple(mon): [0] + js for mon, js in deformations}
    space = {
        "rho": list(rho),
        "chains": [{"initial": list(mon), "support": support.get(mon, [0])} for mon in basis],
    }
    threshold = rng.randint(1, level - 1)
    return {
        "ideal": ideal.to_json_dict(),
        "level": level,
        "rho": list(rho),
        "deformations": sorted(deformations),
        "threshold": threshold,
        "options": options,
        # undeformed chains cannot collide: their monomials are sections, steps are not
        "selections": oracle.count_selections({"rho": list(rho), "chains": [
            {"initial": mon, "support": [0] + js} for mon, js in deformations]}),
        "space": space,
    }


def chain_spaces(seed: int, targets, staircase, colengths=(12, 16), max_chains: int = 16,
                 tolerance: float = 0.1, stream: str = "spaces") -> list[dict]:
    """One section space with several deformed chains per cost target.

    A space is kept when its ``space_cost`` is within ``tolerance`` of its
    target, so the batch costs the same whatever the seed.  ``options`` is
    the product of the chains' option counts and ``selections`` the number
    of collision-free selections among them.
    """
    rng = rng_for(seed, stream)
    ideals = {d: staircase.enumerate_ideals(d) for d in range(colengths[0], colengths[1] + 1)}
    out = []
    for target in targets:
        while True:
            spec = _space_attempt(rng, ideals, max_chains, target)
            if abs(space_cost(spec) / target - 1) <= tolerance:
                out.append(spec)
                break
    return out


# -- CLI request mix -------------------------------------------------------------

# verify requests: suite and caps, each small enough for an interactive call
CLI_VERIFY_MENU = [
    ("pyramid-oracle", {"max_frame": 7}),
    ("special-chi", {"max_colength": 80}),
    ("gstar-monotonic", {"max_colength": 12}),
    ("ineq", {"name": "5.2", "max_c": 50}),
    ("borel", {"max_colength": 10}),
    ("ch14", {"max_e": 15}),
    ("form-agreement", {"max_colength": 12}),
    ("a-bound", {}),
]

CAP_FLAGS = {
    "max_colength": "--max-colength",
    "max_frame": "--max-frame",
    "max_c": "--max-c",
    "name": "--name",
    "max_e": "--max-e",
}

# requests of each kind in one pass; "verify" runs the first entries of the menu
CLI_MIX = {
    "hf-enum": 5,
    "hf-info": 5,
    "pyramid": 5,
    "genus": 3,
    "ch14": 3,
    "alphagrade": 4,
    "verify": len(CLI_VERIFY_MENU),
    "error": 6,
    "malformed-space": 1,
}

MALFORMED_SPACE = '{"rho": [-4, 1, 3], "chains": [{"initial": [4, 0, 1], "support": [0, 1]}'


def _domain_error(rng: random.Random, out_dir: str) -> list[str]:
    """A request outside some command's domain; the contract says exit 2."""
    choice = rng.randrange(7)
    if choice == 0:
        return ["genus", "--d", str(rng.randint(5, 40)), "--nu", str(rng.randint(-3, 0))]
    if choice == 1:
        return ["ch14", "--e", str(rng.randint(0, 3))]
    if choice == 2:
        return ["hf", "info", "--phi", rng.choice(["0,1,1", "0,2,1,4", "1,0", "0,0,x"])]
    if choice == 3:
        c = rng.randint(2, 7)
        return ["pyramid", "max", "--frame", str(c), "--colength", str(c + rng.randint(1, 4))]
    if choice == 4:
        return ["pyramid", "max", "--frame", str(rng.randint(10, 12)), "--colength", "4", "--oracle"]
    if choice == 5:
        return ["hf", "enum", "--colength", str(-rng.randint(1, 5))]
    return ["alphagrade", "--space", f"{out_dir}/missing-{rng.randint(0, 99)}.json", "--json"]


def cli_requests(seed: int, out_dir: str, staircase, mix=None) -> tuple[list[dict], dict]:
    """One pass of the seeded request mix and the ``--space`` files it reads.

    Returns (requests, files).  Each request has ``kind``, ``argv`` (after
    ``staircase-lab``) and ``expect``, the data its golden output is computed
    from; ``files`` maps a path to its content.
    """
    mix = mix or CLI_MIX
    rng = rng_for(seed, "cli")
    spaces = chain_spaces(seed, [400, 800, 1500, 2500][:mix["alphagrade"]], staircase,
                          colengths=(5, 8), max_chains=6, tolerance=0.5, stream="cli-spaces")
    long_fns = long_hilbert_functions(seed, mix["hf-info"], reg_range=(20, 60))
    files = {f"{out_dir}/space-{i}.json": json.dumps(s["space"], sort_keys=True)
             for i, s in enumerate(spaces)}
    malformed = f"{out_dir}/malformed.json"
    files[malformed] = MALFORMED_SPACE
    requests = []
    for spec in long_fns:
        diff = spec["diff"]
        requests.append({"kind": "hf-info", "expect": diff,
                         "argv": ["hf", "info", "--phi", ",".join(map(str, diff)), "--json"]})
    for i, spec in enumerate(spaces):
        requests.append({"kind": "alphagrade", "expect": spec["space"],
                         "argv": ["alphagrade", "--space", f"{out_dir}/space-{i}.json", "--json"]})
    for suite, caps in CLI_VERIFY_MENU[:mix["verify"]]:
        argv = ["verify", "--suite", suite]
        for key, value in caps.items():
            argv += [CAP_FLAGS[key], str(value)]
        requests.append({"kind": "verify", "expect": [suite, caps], "argv": argv + ["--json"]})
    for _ in range(mix["hf-enum"]):
        d = rng.randint(6, 11)
        requests.append({"kind": "hf-enum", "expect": d,
                         "argv": ["hf", "enum", "--colength", str(d), "--json"]})
    for _ in range(mix["pyramid"]):
        c = rng.randint(5, 7)
        d = rng.randint(1, c)
        requests.append({"kind": "pyramid", "expect": [c, d],
                         "argv": ["pyramid", "max", "--frame", str(c), "--colength", str(d),
                                  "--oracle", "--witness", "--json"]})
    for _ in range(mix["genus"]):
        d, nu = rng.randint(5, 60), rng.randint(1, 30)
        requests.append({"kind": "genus", "expect": [d, nu],
                         "argv": ["genus", "--d", str(d), "--nu", str(nu), "--json"]})
    for _ in range(mix["ch14"]):
        e = rng.randint(4, 30)
        requests.append({"kind": "ch14", "expect": e, "argv": ["ch14", "--e", str(e), "--json"]})
    for _ in range(mix["error"]):
        requests.append({"kind": "error", "expect": None, "argv": _domain_error(rng, out_dir)})
    requests.append({"kind": "malformed-space", "expect": None,
                     "argv": ["alphagrade", "--space", malformed, "--json"]})
    rng.shuffle(requests)
    return requests, files


def write_files(files: dict) -> None:
    for path, text in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
