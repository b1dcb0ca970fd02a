"""Tests of the benchmark itself: smoke runs, the failure gate, the tracer
and the seeded generators.  Run from the repository root with pytest."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", ["hf-ladder", "cli-cold"])
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])["run_record"]
    assert record["staircase_lab_threads_unset"] and record["nproc"] >= 1
    assert record["latency_samples"] == record["ops_per_pass"]
    assert result["attempted"] == record["passes"] * record["ops_per_pass"]


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "alpha-search", "--seed", "3", "--seconds", "1", "--trace", "1", "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["alphagrade.minmax_alpha_grade.calls"]["value"] > 0
    assert 0 < metrics["alphagrade.selections.useful_ratio"]["value"] <= 1
    assert metrics["pyramids.brute_force_max_weight.calls"]["value"] == 0  # not on this workload


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == spans.metric_names(run.all_suites())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "hf-ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failure_gate_trips_on_one_wrong_golden_value(tmp_path, monkeypatch):
    workload = workloads.build(worker._load_package(), "hf-ladder", 5, "tiny", str(tmp_path))
    clean = worker.run_passes(workload, 1)
    assert clean["failed"] == 0 and clean["attempted"] == len(workload.ops)

    workload = workloads.build(worker._load_package(), "hf-ladder", 5, "tiny", str(tmp_path))
    wrong = inputs.long_hilbert_functions(5, workloads.LONG_HF_COUNT["tiny"])[0]["diff"]
    true_g_star = oracle.g_star
    monkeypatch.setattr(oracle, "g_star", lambda diff: true_g_star(diff) + (list(diff) == wrong))
    gated = worker.run_passes(workload, 1)
    assert gated["failed"] == 1
    assert gated["problems"][0].startswith("long-hf:0: g_star")


def test_failure_gate_trips_on_a_vacuous_suite(tmp_path, monkeypatch):
    golden = workloads.load_golden()
    key = workloads.cases_key("gstar-monotonic", {"max_colength": 8})
    golden["cases"][key] += 1
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    workload = workloads.build(worker._load_package(), "hf-ladder", 5, "tiny", str(tmp_path))
    gated = worker.run_passes(workload, 1)
    assert gated["failed"] == 1
    assert "recorded for these caps" in gated["problems"][0]


def test_tracer_catches_calls_through_every_binding():
    lab = worker._load_package()
    tracer = spans.Tracer()
    tracer.begin_pass()
    original = lab.torus.deformed_section_space
    tracer.install()
    try:
        # catalog binds deformed_section_space by name; from_diff is a staticmethod
        lab.catalog.build_space(lab.catalog.case_by_name("7.3"), 5)
        lab.hilbert.HilbertFunction.from_diff([0, 0, 3])
        lab.suites.run_suite("ch14", max_e=5)
    finally:
        tracer.uninstall()
    assert lab.torus.deformed_section_space is original
    assert lab.catalog.deformed_section_space is original
    metrics = tracer.metrics()
    assert metrics["torus.deformed_section_space.calls"] == 1
    assert metrics["catalog.build_space.calls"] == 1
    assert metrics["hilbert.HilbertFunction.from_diff.calls"] >= 1
    assert metrics["alphagrade.chapter14_degrees.calls"] == 2
    assert metrics["pyramids.Pyramid.weight.calls"] == 0
    assert metrics["pyramids.Pyramid.weight.self_s"] == 0
    assert metrics["catalog.build_space.self_s"] > 0


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True)


def test_generators_are_deterministic_per_seed(tmp_path):
    lab = worker._load_package()
    for seed in (1, 2):
        assert _dump(inputs.long_hilbert_functions(seed, 6)) == _dump(inputs.long_hilbert_functions(seed, 6))
        a = inputs.chain_spaces(seed, [20_000, 50_000], lab.staircase)
        assert _dump(a) == _dump(inputs.chain_spaces(seed, [20_000, 50_000], lab.staircase))
        out = str(tmp_path / "cli")
        assert _dump(inputs.cli_requests(seed, out, lab.staircase)) == _dump(inputs.cli_requests(seed, out, lab.staircase))
    assert _dump(inputs.long_hilbert_functions(1, 6)) != _dump(inputs.long_hilbert_functions(2, 6))
    requests, files = inputs.cli_requests(1, str(tmp_path), lab.staircase)
    assert sum(r["kind"] == "malformed-space" for r in requests) == 1
    assert len(requests) == sum(inputs.CLI_MIX.values())
    assert all(path.startswith(str(tmp_path)) for path in files)


def test_generated_spaces_have_several_deformed_chains():
    specs = inputs.chain_spaces(4, workloads.SPACE_TARGETS["full"], worker._load_package().staircase)
    assert all(len(s["deformations"]) >= 3 for s in specs)
    assert max(s["options"] for s in specs) >= 1000
    assert all(s["options"] < 10**6 for s in specs)  # below SELECTION_BUDGET
