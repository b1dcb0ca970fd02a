#!/usr/bin/env python3
"""Benchmark of staircase-lab: oracle coverage paid for in seconds.

Run from the repository root:

    python3 perfbench/run.py --workload hf-ladder --seed 1 --seconds 12 --trace 0

Workloads: ``hf-ladder``, ``pyramid-oracle``, ``alpha-search`` and
``cli-cold`` (see ``workloads.py`` for what each one stresses and why).
The package is imported from ``src`` of the current directory; it is not
installed.  Every child process runs without ``STAIRCASE_LAB_THREADS``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (time of one pass
over the workload's operations, each operation at its median over passes), ``setup_s`` (spawn to first timed
operation, median of several spawns), ``peak_rss_mb`` (max RSS of the
workload process, or of the largest CLI child), and ``latency_p50_ms`` and
``latency_tail_ms`` over the operations of a pass (a suite, a generated
input or a CLI request), each timed by its median over the passes; the tail
is the highest percentile with ten operations beyond it.
``--trace 1`` runs traced and untraced passes alternately and prints the
per-layer metrics named after the package modules.  Times are scaled to the
reference host (see ``clock.py``).  Failed operations are counted in
``attempted``/``failed``; the run record line before the result holds the
raw numbers, the caps, the percentile and the known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import clock
import spans
import workloads

SETUP_SPAWNS = 7
CLI_PROBES = 5
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
HERE = Path(__file__).resolve().parent


class RunError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STAIRCASE_LAB_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_child(argv: list, env: dict) -> tuple[float, float, str]:
    """Run a child to completion; returns (spawn time, exit time, stdout)."""
    start = clock.now()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    end = clock.now()
    if proc.returncode != 0:
        raise RunError(f"{' '.join(argv[:4])} ... exited {proc.returncode}")
    return start, end, stdout


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    idx = len(ordered) - 11
    if idx < 0:
        raise RunError(f"{len(ordered)} latency samples; the tail needs at least 11")
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def source_identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _bracketed(argv: list, env: dict) -> tuple[float, float, float, str]:
    """Run a child between two probe starts: (spawn time, exit time, scale
    to reference-host seconds, stdout)."""
    before = clock.SPAWN.measure()
    start, end, stdout = _run_child(argv, env)
    after = clock.SPAWN.measure()
    return start, end, clock.SPAWN.scale(before, after), stdout


def cli_probes(env: dict) -> dict:
    """Scaled spawn-to-exit of a bare interpreter and of ``import staircase_lab.cli``."""
    runs = {"interpreter": [], "import": []}
    for _ in range(CLI_PROBES):
        for key, code in (("interpreter", "pass"), ("import", "import staircase_lab.cli")):
            start, end, scale, _ = _bracketed([sys.executable, "-c", code], env)
            runs[key].append((end - start) * scale)
    return {key: statistics.median(values) for key, values in runs.items()}


def measure(args, root: Path) -> tuple[dict, dict]:
    env = child_env(root)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--profile", args.profile, "--out-dir", OUT_DIR]
    setup, raw_setup = [], []
    for _ in range(SETUP_SPAWNS):
        start, _, scale, stdout = _bracketed(worker + ["--setup-only"], env)
        ready = json.loads(stdout.strip().splitlines()[-1])["ready"]
        setup.append((ready - start) * scale)
        raw_setup.append(ready - start)
    _, _, stdout = _run_child(worker, env)
    res = json.loads(stdout.strip().splitlines()[-1])
    probes = cli_probes(env) if args.trace else None

    passes = res["op_s"]
    # one latency per operation: its median over the passes
    latencies = [statistics.median(op) for op in zip(*passes)]
    tail_s, tail_pct = tail(latencies)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **source_identity(root),
        "caps": res["caps"],
        "passes": res["passes"],
        "ops_per_pass": res["ops"],
        "latency_samples": len(latencies),
        "tail_percentile": round(tail_pct, 2),
        "ops_attempted": res["attempted"],
        "ops_failed": res["failed"],
        "ops_failed_share": res["failed"] / res["attempted"],
        "known_defects": res["known_defects"],
        "problems": res["problems"],
        "staircase_lab_threads_unset": res["threads_env"] is None and "STAIRCASE_LAB_THREADS" not in env,
        "calibration_median_s": statistics.median(res["calibration_s"]),
        "raw_wall_s": statistics.median(res["raw_pass_s"]),
        "raw_setup_s": statistics.median(raw_setup),
    }
    if not args.trace:
        metrics = {
            # the pass assembled from each operation's median over the passes
            "wall_s": (sum(latencies), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_tail_ms": (tail_s * 1000, "ms"),
        }
        return metrics, record
    layers = res["layers"]
    values = {name: (layers.get(name, 0), unit) for name, unit in spans.metric_names(all_suites())}
    values["cli.interpreter_s"] = (probes["interpreter"], "s")
    values["cli.import_s"] = (probes["import"] - probes["interpreter"], "s")
    command = statistics.median(latencies) - probes["import"] if args.workload == "cli-cold" else 0.0
    values["cli.command_s"] = (command, "s")
    traced = statistics.median(sum(times) for times in res["traced_op_s"])
    values["trace.overhead_s"] = (traced - statistics.median(sum(times) for times in passes), "s")
    record["spans_file"] = res["spans_file"]
    return values, record


def all_suites() -> list:
    out = []
    for per_profile in workloads.SUITES.values():
        out += [suite for suite, _ in per_profile["full"] if suite not in out]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny caps, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "staircase_lab" / "__init__.py").is_file():
        print(f"no package source at {root / 'src' / 'staircase_lab'}; run from the repository root",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    try:
        metrics, record = measure(args, root)
    except (RunError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
