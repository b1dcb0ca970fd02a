#!/usr/bin/env python3
"""Nightly profile: every verification suite at its deep range caps.

Prints one line per suite, in the order of the registry ``suites.SUITES``,
ending with the caps it ran with, and a final summary with the total wall
time; exit code 1 on any violation, 2 when a key of ``DEEP_CAPS`` names no
suite (nothing runs then: reading the names imports no suite group). The
caps follow one rule: each is the largest that finishes in about 2 s (best
of 3) on a 2-core Python 3.11 host, with the suite's other caps fixed
(endpoint's frame and seam caps grow together in the ratio 64:12, a-bound
keeps max_c at 3, stabilization extra_levels at 4, ineq max_r at 7 and
m_span at 40, genus-negativity m_extent at 40 and nu_extent at 15). The
host's speed drifts by up to 2x within minutes, so a probe is timed in
rounds that alternate it with a fixed reference run.
"""

import json
import sys
import time

from staircase_lab import suites

DEEP_CAPS = {
    "special-chi": {"max_colength": 4600},
    "pyramid-oracle": {"max_frame": 90},
    "pyramid-oracle-full": {"max_frame": 780},
    "prop-4-1": {"max_frame_closed": 256, "max_frame_oracle": 120},
    "pyramid-monotonic": {"max_frame": 1300},
    "endpoint": {"max_frame": 2432, "max_n": 456},
    "gstar-crosscheck": {"max_colength": 66},
    "gstar-monotonic": {"max_colength": 39},
    "regularity-bound": {"max_colength": 71},
    "hf-ideal-agreement": {"max_colength": 36},
    "lemma-2-4": {"max_colength": 94},
    "corollary-2-2": {"max_colength": 94},
    "chain-invariants": {"max_colength": 63},
    "form-agreement": {"max_colength": 37},
    "ineq": {"max_c": 8000, "max_r": 7, "m_span": 40},
    "genus-negativity": {"max_c": 4800, "m_extent": 40, "nu_extent": 15},
    "ch14": {"max_e": 260},
    "ch7-catalog": {"max_m": 400},
    "bang": {"max_m": 1600},
    "stabilization": {"max_colength": 27, "extra_levels": 4},
    "sandwich": {"max_m": 340},
    "pyramid-alpha-link": {"max_colength": 28},
    "a-bound": {"max_r": 12, "max_c": 3},
    "borel": {"max_colength": 33},
}


def main() -> int:
    unknown = sorted(set(DEEP_CAPS) - set(suites.SUITES))
    if unknown:
        print(f"error: DEEP_CAPS keys name no suite: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    start = time.perf_counter()
    for name in suites.SUITES:
        caps = DEEP_CAPS.get(name, {})
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
