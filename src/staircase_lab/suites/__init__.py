"""Runnable verification suites: formulas against oracles, with reports.

A suite is a generator over its parameter range.  It yields once per case,
and what it yields is that case's violations as ``(params, expected, got)``
triples, empty when the case passes; violation data is built only for a
case that fails.  A suite that already holds a count of passing cases may
yield it as one int n >= 1 instead of n empty items.  Keyword caps set the
range; :data:`SUITES` declares them once per suite, with a default and a
deep value each, so a fast profile and a deep profile share code, the lower
end of a suite that checks one shell (colength, frame, m or r) per call, and
the whole :data:`SHELLS` of a colength it reads.  :func:`run_suite` walks the
shells, builds and sizes each whole one against the ``census``, and is the
only tally: it rejects a negative cap or one the suite does not take before it
imports anything, fills in the defaults, names, counts and times the cases,
and rejects a run that covers nothing.

The suites live in one group module per set of modules they call (``hf``,
``forms``, ``pyramid``, ``scans``, ``alpha``, ``families``).  This module holds
the runner and the registry, and imports a group, with what it calls, only when
one of its suites runs, and the ``census`` only for a suite that reads a shell.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import chain

from ..errors import DomainError


class VerificationReport:
    def __init__(self, suite: str):
        self.suite, self.cases_run, self.violations, self.elapsed = suite, 0, [], 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "violations": self.violations,
            "elapsed": round(self.elapsed, 6),
            "ok": self.ok,
        }


def passed(n: int):
    """A batch of n passing cases, as ``run_suite`` counts it: nothing for none."""
    if n:
        yield n


# shell name -> (its module, the enumerator there of the whole shell of colength d, the ``census`` count of its members)
SHELLS = {
    "ideals": ("staircase", "enumerate_ideals", "partitions"),
    "functions": ("hilbert", "enumerate_hilbert_functions", "distinct_partitions"),
}


# suite name -> (its group module, the lower end of its sweep, the SHELLS it reads, {cap: (default, deep value)}), in
# report order.  The group defines ``suite_`` + the name with "-" as "_", taking these caps in this order, a swept suite
# one shell of its first cap in that cap's place and then the whole shells it reads of that colength; the deep values
# are scripts/deep_verify.py's, None leaving the cap unset.  A lower end of None runs a suite once: catalog-small has no
# cap; the pyramid oracles end on the hand table, and -full carries its top row between frames; prop-4-1 runs two
# sweeps; pyramid-monotonic builds one table of all frames; ineq walks scan names; ch7-catalog and sandwich run case by
# case, so a sweep over m would reorder their violations.
SUITES = {
    "catalog-small": ("hf", None, (), {}),
    "special-chi": ("hf", 5, (), {"max_colength": (50, 4600)}),
    "pyramid-oracle": ("pyramid", None, (), {"max_frame": (9, 90)}),
    "pyramid-oracle-full": ("pyramid", None, (), {"max_frame": (9, 780)}),
    "prop-4-1": ("pyramid", None, (), {"max_frame_closed": (64, 256), "max_frame_oracle": (9, 120)}),
    "pyramid-monotonic": ("pyramid", None, (), {"max_frame": (64, 1300)}),
    "endpoint": ("pyramid", 1, (), {"max_frame": (32, 2432), "max_n": (8, 456)}),
    "gstar-crosscheck": ("hf", 0, ("functions",), {"max_colength": (12, 68)}),
    "gstar-monotonic": ("hf", 1, ("functions",), {"max_colength": (12, 56)}),
    "regularity-bound": ("hf", 0, ("functions",), {"max_colength": (12, 73)}),
    "hf-ideal-agreement": ("forms", 0, ("ideals", "functions"), {"max_colength": (8, 42)}),
    "lemma-2-4": ("forms", 5, (), {"max_colength": (14, 96)}),
    "corollary-2-2": ("forms", 5, (), {"max_colength": (18, 98)}),
    "chain-invariants": ("forms", 5, ("functions",), {"max_colength": (14, 63)}),
    "form-agreement": ("forms", 5, ("ideals",), {"max_colength": (12, 42)}),
    "ineq": ("scans", None, (), {"name": (None, None), "max_c": (50, 8000), "max_r": (6, 7), "m_span": (25, 40)}),
    "genus-negativity": ("scans", 0, (), {"max_c": (20, 4800), "m_extent": (30, 40), "nu_extent": (10, 15)}),
    "ch14": ("alpha", 4, (), {"max_e": (10, 260)}),
    "ch7-catalog": ("families", None, (), {"max_m": (10, 400)}),
    "bang": ("families", 4, (), {"max_m": (10, 1600)}),
    "stabilization": ("alpha", 1, ("ideals",), {"max_colength": (8, 30), "extra_levels": (3, 4)}),
    "sandwich": ("families", None, (), {"max_m": (9, 340)}),
    "pyramid-alpha-link": ("alpha", 1, ("ideals",), {"max_colength": (8, 28)}),
    "a-bound": ("families", 1, (), {"max_r": (2, 12), "max_c": (3, 3)}),
    "borel": ("forms", 1, ("ideals",), {"max_colength": (8, 37)}),
}


def _lookup(module: str, name: str):
    """``name`` as the package's ``module`` holds it now, importing the module on first use."""
    # by the import statement's own hook, which ``-X importtime`` reports and importlib.import_module bypasses
    return getattr(__import__(f"{__name__.rpartition('.')[0]}.{module}", fromlist=[name]), name)


def suite_function(suite: str):
    """The generator function of a registered suite, from its group module,
    which this imports on first use."""
    return _lookup(f"suites.{SUITES[suite][0]}", "suite_" + suite.replace("-", "_"))


def _walk(function, sources, n: int, *rest):
    """The cases of colength n: each whole shell the suite reads, sized against its census count (one case with one
    violation, named by the count, if it is not, none if it is), then the suite's own on them, which alone keep them."""
    shells = [enumerate_shell(n) for enumerate_shell, _ in sources]
    short = [(({"d": n, "census": count.__name__}, count(n), len(shell)),)
             for shell, (_, count) in zip(shells, sources) if len(shell) != count(n)]
    return chain(short, function(n, *shells, *rest))


def run_suite(suite: str, **caps) -> VerificationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    _, low, reads, declared = SUITES[suite]
    if not caps.keys() <= declared.keys():
        raise DomainError(f"suite {suite!r} does not take the caps {caps}; it takes {sorted(declared)}")
    if any(isinstance(value, int) and value < 0 for value in caps.values()):
        raise DomainError(f"suite {suite!r} takes no negative cap, got {caps}")
    function = suite_function(suite)
    if reads:  # looked up at each run, so that a patched enumerator or count is the one called
        sources = [(_lookup(module, name), _lookup("census", count)) for module, name, count in map(SHELLS.get, reads)]
        function = partial(_walk, function, sources)
    start = time.perf_counter()
    values = [caps.get(cap, default) for cap, (default, _) in declared.items()]
    shells = [values] if low is None else ([n, *values[1:]] for n in range(low, values[0] + 1))
    cases = chain.from_iterable(function(*shell) for shell in shells)
    report = VerificationReport(f"{suite}:{caps.get('name') or 'all'}" if "name" in declared else suite)
    cases_run = batched = 0
    for cases_run, found in enumerate(cases, 1):
        if found:
            if isinstance(found, int):  # a batch of passing cases, counted once above
                batched += found - 1
                continue
            report.violations += [{"params": p, "expected": e, "got": g} for p, e, g in found]
    cases_run += batched
    report.cases_run = cases_run
    report.elapsed = time.perf_counter() - start
    if cases_run == 0:
        raise DomainError(f"suite {suite!r} covered no cases with caps {caps}")
    return report
