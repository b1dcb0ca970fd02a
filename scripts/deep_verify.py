#!/usr/bin/env python3
"""Nightly profile: every verification suite at its deep range caps.

Prints one line per suite, in the order of the registry ``suites.SUITES``,
ending with the caps it ran with, and a final summary with the total wall
time; exit code 1 on any violation.  The deep values are declared in that
registry.  They were picked to finish in about 2 s per suite on a 2-core
Python 3.11 host, but only six fits are recorded, each the largest cap whose
minimum of 5 repeats stayed under 2 s: ``gstar-monotonic``'s in
``BENCH_gstar_monotonic.json``, and ``hf-ideal-agreement``'s,
``form-agreement``'s, ``borel``'s, ``stabilization``'s and
``pyramid-alpha-link``'s in ``BENCH_staircase_walk.json`` (``borel``'s first
in ``BENCH_staircase_shells.json``).  In one run on such a host, whose speed
drifts by up to 2x within minutes, the suites other than ``catalog-small``
took from 0.33 s (``a-bound``) to 2.33 s (``gstar-crosscheck``) each, four
of them over 2 s, and the whole run 35.9 s at a peak RSS of 96 MB.
"""

import json
import sys
import time

from staircase_lab import suites


def main() -> int:
    failures = 0
    start = time.perf_counter()
    for name, (_, _, declared) in suites.SUITES.items():
        caps = {cap: deep for cap, (_, deep) in declared.items() if deep is not None}
        report = suites.run_suite(name, **caps)
        status = "ok" if report.ok else f"{len(report.violations)} VIOLATION(S)"
        print(f"{name:22s} cases={report.cases_run:8d} elapsed={report.elapsed:7.2f}s {status} caps={json.dumps(caps)}")
        if not report.ok:
            failures += 1
            for violation in report.violations[:5]:
                print(f"    {violation}")
    verdict = "all suites ok" if failures == 0 else f"{failures} suite(s) failed"
    print(f"{verdict} in {time.perf_counter() - start:.2f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
