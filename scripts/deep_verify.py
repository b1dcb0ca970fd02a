#!/usr/bin/env python3
"""Nightly profile: every verification suite at its deep range caps.

Prints one line per suite and a final summary; exit code 1 on any violation,
2 when a key of ``DEEP_CAPS`` names no suite (nothing runs then).
The caps of the pyramid suites (the DP oracle; pyramid-monotonic; endpoint,
whose frame and seam caps grow together in the ratio 64:12), of the
staircase suites (hf-ideal-agreement, form-agreement, borel,
pyramid-alpha-link) and of the suites built on semi-invariant spaces
(a-bound with max_c fixed at 3, ch7-catalog, sandwich, bang) are the largest
that finish in about 2 s (best of 3) on a 2-core Python 3.11 host.  The
Hilbert-function caps (special-chi, gstar-*, lemma-2-4, corollary-2-2,
chain-invariants) are the largest that finish within the wall time of the
O(d*e) genus functional at the earlier caps.
"""

import sys

from staircase_lab import suites

DEEP_CAPS = {
    "special-chi": {"max_colength": 600},
    "pyramid-oracle": {"max_frame": 48},
    "pyramid-oracle-full": {"max_frame": 5},
    "prop-4-1": {"max_frame_closed": 256, "max_frame_oracle": 116},
    "pyramid-monotonic": {"max_frame": 600},
    "endpoint": {"max_frame": 2432, "max_n": 456},
    "gstar-crosscheck": {"max_colength": 17},
    "gstar-monotonic": {"max_colength": 21},
    "regularity-bound": {"max_colength": 16},
    "hf-ideal-agreement": {"max_colength": 35},
    "lemma-2-4": {"max_colength": 20},
    "corollary-2-2": {"max_colength": 25},
    "chain-invariants": {"max_colength": 19},
    "form-agreement": {"max_colength": 32},
    "ineq": {"max_c": 80, "max_r": 7, "m_span": 40},
    "genus-negativity": {"max_c": 40, "m_extent": 40, "nu_extent": 15},
    "ch14": {"max_e": 20},
    "ch7-catalog": {"max_m": 80},
    "bang": {"max_m": 480},
    "stabilization": {"max_colength": 10, "extra_levels": 4},
    "sandwich": {"max_m": 82},
    "pyramid-alpha-link": {"max_colength": 26},
    "a-bound": {"max_r": 7, "max_c": 3},
    "borel": {"max_colength": 28},
}


def main() -> int:
    unknown = sorted(set(DEEP_CAPS) - set(suites.SUITES))
    if unknown:
        print(f"error: DEEP_CAPS keys name no suite: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for name in suites.SUITES:
        report = suites.run_suite(name, **DEEP_CAPS.get(name, {}))
        status = "ok" if report.ok else f"{len(report.violations)} VIOLATION(S)"
        print(f"{name:22s} cases={report.cases_run:8d} elapsed={report.elapsed:7.2f}s {status}")
        if not report.ok:
            failures += 1
            for violation in report.violations[:5]:
                print(f"    {violation}")
    print("all suites ok" if failures == 0 else f"{failures} suite(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
