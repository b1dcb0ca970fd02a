#!/usr/bin/env python3
"""One measured process of a workload; started by ``run.py``.

Imports the package (``run.py`` puts ``src`` on PYTHONPATH), generates the
seeded inputs, prints the clock reading at which set-up ended, and (unless
``--setup-only``) runs the workload's passes and prints one JSON object with
raw timings, op counts and, with ``--trace 1``, the per-layer aggregates.

The load is a closed loop with one client and no extra threads: operations
run one after another, each starting when the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

import clock
import spans
import workloads


def _load_package():
    """Import the package with the modules the workloads call on it."""
    import staircase_lab
    from staircase_lab import (  # noqa: F401 - importing binds them on the package
        alphagrade, catalog, hilbert, inequalities, monomials, pyramids, staircase, standard_form,
        suites, torus,
    )
    return staircase_lab


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Passes in a run: as many as fit ``seconds`` on the reference host,
    and at least three for the per-operation medians.  The count depends on
    nothing measured, so every run of a workload does the same work."""
    return max(3, round(seconds / nominal_pass_s))


def run_passes(workload, passes: int, tracer=None) -> dict:
    """Time every operation of every pass and check its output.

    The workload's calibration runs before the first operation and after
    every operation, so each time is scaled by the samples that bracket it.  With a
    tracer, untraced and traced passes alternate, so the tracing overhead is
    measured under the same host conditions.
    """
    schedule = [False, True] * passes if tracer else [False] * passes
    out = {"op_s": [], "traced_op_s": [], "raw_pass_s": [], "calibration_s": [], "trace_scale": [],
           "attempted": 0, "failed": 0, "known_defects": {}, "problems": []}
    for traced in schedule:
        if traced:
            tracer.begin_pass()
            tracer.install()
        cal = workload.calibration
        times, raw, calib = [], 0.0, [cal.measure()]
        try:
            for op in workload.ops:
                span = tracer.open(op.span) if traced else None
                start = clock.now()
                try:
                    result, problem = op.call(), None
                except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
                    result, problem = None, f"raised {type(exc).__name__}: {exc}"
                elapsed = clock.now() - start
                if traced:
                    tracer.close(span)
                calib.append(cal.measure())
                times.append(elapsed * cal.scale(calib[-2], calib[-1]))
                raw += elapsed
                if problem is None:
                    try:
                        problem = op.check(result)
                    except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
                        problem = f"check raised {type(exc).__name__}: {exc}"
                out["attempted"] += 1
                if isinstance(problem, workloads.KnownDefect):
                    out["known_defects"][problem] = out["known_defects"].get(problem, 0) + 1
                elif problem is not None:
                    out["failed"] += 1
                    if len(out["problems"]) < 10:
                        out["problems"].append(f"{op.name}: {problem}")
        finally:
            if traced:
                tracer.uninstall()
        out["traced_op_s" if traced else "op_s"].append(times)
        out["calibration_s"] += calib
        if traced:
            out["trace_scale"].append(cal.nominal_s / statistics.median(calib))
        else:
            out["raw_pass_s"].append(raw)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lab = _load_package()
    workload = workloads.build(lab, args.workload, args.seed, args.profile, args.out_dir)
    ready = clock.now()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    passes = pass_count(args.seconds, workload.nominal_pass_s)
    tracer = spans.Tracer() if args.trace else None
    result = run_passes(workload, passes, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result.update(
        passes=passes,
        ops=len(workload.ops),
        caps=workload.caps,
        peak_rss_kb=resource.getrusage(who).ru_maxrss,
        threads_env=os.environ.get("STAIRCASE_LAB_THREADS"),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(result["trace_scale"])
        spans_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
