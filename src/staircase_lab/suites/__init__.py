"""Runnable verification suites: formulas against oracles, with reports.

A suite is a generator over its parameter range.  It yields once per case,
and what it yields is that case's violations as ``(params, expected, got)``
triples, empty when the case passes; violation data is built only for a
case that fails.  A suite that already holds a count of passing cases may
yield it as one int n >= 1 instead of n empty items.  Keyword caps set the
range, so a fast profile and a deep profile share code.  :func:`run_suite`
is the only tally: it names, counts and times the cases, and rejects a run
that covers nothing or a cap the suite does not take.

The suites live in one group module per set of modules they call (``hf``,
``forms``, ``pyramid``, ``scans``, ``alpha``, ``families``).  This module holds
the runner and the registry, and imports a group, with what it calls, only when
one of its suites runs.
"""

from __future__ import annotations

import time

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


# suite name -> its group module, in report order; the group defines the
# suite as ``suite_`` + the name with "-" as "_"
SUITES = {
    "catalog-small": "hf", "special-chi": "hf",
    "pyramid-oracle": "pyramid", "pyramid-oracle-full": "pyramid", "prop-4-1": "pyramid",
    "pyramid-monotonic": "pyramid", "endpoint": "pyramid",
    "gstar-crosscheck": "hf", "gstar-monotonic": "hf", "regularity-bound": "hf", "hf-ideal-agreement": "forms",
    "lemma-2-4": "forms", "corollary-2-2": "forms", "chain-invariants": "forms", "form-agreement": "forms",
    "ineq": "scans", "genus-negativity": "scans",
    "ch14": "alpha", "ch7-catalog": "families", "bang": "families", "stabilization": "alpha",
    "sandwich": "families", "pyramid-alpha-link": "alpha", "a-bound": "families",
    "borel": "forms",
}


def suite_function(suite: str):
    """The generator function of a registered suite, from its group module,
    which this imports on first use."""
    name = "suite_" + suite.replace("-", "_")
    # by the import statement's own hook, which ``-X importtime`` reports and importlib.import_module bypasses
    group = __import__(f"{__name__}.{SUITES[suite]}", fromlist=[name])
    return getattr(group, name)


def run_suite(suite: str, **caps) -> VerificationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    function = suite_function(suite)
    start = time.perf_counter()
    try:
        cases = function(**caps)  # binds the caps; no case runs before the loop
    except TypeError:
        import inspect

        takes = sorted(inspect.signature(function).parameters)
        raise DomainError(f"suite {suite!r} does not take the caps {caps}; it takes {takes}") from None
    report = VerificationReport(f"ineq:{caps.get('name') or 'all'}" if suite == "ineq" else suite)
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
