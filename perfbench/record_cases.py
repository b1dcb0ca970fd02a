#!/usr/bin/env python3
"""Record the case count of every suite the benchmark runs, at its caps.

Run from the repository root when the suites or their caps change on
purpose: ``python3 perfbench/record_cases.py``.  The benchmark fails a suite
run that covers fewer cases than recorded here, which catches a sweep that
passes because it checked nothing.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from staircase_lab import suites  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    entries = [pair for per_profile in workloads.SUITES.values() for pairs in per_profile.values() for pair in pairs]
    entries += inputs.CLI_VERIFY_MENU
    cases = {}
    for suite, caps in entries:
        cases[workloads.cases_key(suite, caps)] = suites.run_suite(suite, **caps).cases_run
    workloads.GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} case counts in {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
