"""The four workloads: operations of one pass, their caps and their checks.

An operation is one call into the package (a verification suite, one
generated input, or one CLI request in a fresh process).  Its check compares
the output with golden values from ``oracle`` or with the case counts in
``golden.json`` and returns None, a problem string, or a ``KnownDefect``.
Golden values are computed on first use, outside the timed region.

Why each workload exists:

* ``hf-ladder``: exhaustive suites over short Hilbert functions and
  staircases, plus seeded long functions (regularity 50..200, half of them
  glued with ``standard_form.compose``).  Time sits in ``hilbert``,
  ``standard_form`` and ``staircase``; the long functions have the long
  difference sequences that make ``g_star`` expensive, the suites do not.
* ``pyramid-oracle``: the exhaustive pyramid searches next to the
  ``Fraction`` closed-form sweeps, so a change to the oracle and a change to
  the closed form show up apart; plus witness queries at frames 7..9 in the
  order the seed gives (the in-process form of ``pyramid max --oracle
  --witness``), which give the latency percentiles enough operations.
* ``alpha-search``: the alpha-grade suites plus seeded multi-chain spaces.
  The catalog fixtures have at most two selections per space; only the
  generated spaces make the selection search do real work.
* ``cli-cold``: fresh-process requests, the only workload that pays import
  and start-up per call and the only one that measures the ``cli`` layer.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import clock
import inputs
import oracle

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class KnownDefect(str):
    """A failed check that documents a known, recorded defect of the program."""


@dataclass
class Op:
    name: str
    span: str  # span name in the traced run
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Workload:
    name: str
    ops: list
    nominal_pass_s: float  # one pass on the reference host; sets the pass count
    caps: dict
    calibration: clock.Calibration


# (suite, caps) per workload and profile; "tiny" is for the benchmark's own tests
SUITES = {
    "hf-ladder": {
        "full": [
            ("catalog-small", {}),
            ("special-chi", {"max_colength": 300}),
            ("gstar-crosscheck", {"max_colength": 24}),
            ("gstar-monotonic", {"max_colength": 22}),
            ("regularity-bound", {"max_colength": 24}),
            ("hf-ideal-agreement", {"max_colength": 16}),
            ("lemma-2-4", {"max_colength": 26}),
            ("corollary-2-2", {"max_colength": 30}),
            ("chain-invariants", {"max_colength": 26}),
            ("form-agreement", {"max_colength": 20}),
            ("borel", {"max_colength": 16}),
        ],
        "tiny": [
            ("catalog-small", {}),
            ("gstar-monotonic", {"max_colength": 8}),
            ("form-agreement", {"max_colength": 8}),
        ],
    },
    "pyramid-oracle": {
        "full": [
            ("pyramid-oracle", {"max_frame": 9}),
            ("pyramid-oracle-full", {"max_frame": 5}),
            ("prop-4-1", {"max_frame_closed": 128, "max_frame_oracle": 9}),
            ("pyramid-monotonic", {"max_frame": 64}),
            ("endpoint", {"max_frame": 64, "max_n": 12}),
        ],
        "tiny": [
            ("pyramid-oracle", {"max_frame": 5}),
            ("pyramid-oracle-full", {"max_frame": 3}),
            ("prop-4-1", {"max_frame_closed": 16, "max_frame_oracle": 5}),
            ("pyramid-monotonic", {"max_frame": 12}),
            ("endpoint", {"max_frame": 8, "max_n": 4}),
        ],
    },
    "alpha-search": {
        "full": [
            ("ch7-catalog", {"max_m": 14}),
            ("bang", {"max_m": 14}),
            ("sandwich", {"max_m": 10}),
            ("a-bound", {"max_r": 3, "max_c": 3}),
            ("stabilization", {"max_colength": 10, "extra_levels": 4}),
            ("pyramid-alpha-link", {"max_colength": 10}),
            ("ch14", {"max_e": 20}),
            ("genus-negativity", {"max_c": 40, "m_extent": 40, "nu_extent": 15}),
            ("ineq", {"max_c": 80, "max_r": 7, "m_span": 40}),
        ],
        "tiny": [
            ("ch7-catalog", {"max_m": 7}),
            ("a-bound", {"max_r": 1, "max_c": 1}),
            ("ineq", {"max_c": 10, "max_r": 2, "m_span": 5}),
        ],
    },
    "cli-cold": {"full": [], "tiny": []},
}

LONG_HF_COUNT = {"full": 40, "tiny": 10}
# interactive oracle queries (frame, colength), as ``pyramid max --oracle --witness`` makes them
PYRAMID_QUERIES = {
    "full": [(c, d) for c in range(5, 10) for d in range(1, c + 1)],
    "tiny": [(c, d) for c in range(2, 6) for d in range(1, c + 1)],
}
# cost targets (space_cost units) of the generated spaces, one space each: a
# small tier and two plateaus, so that the median and the tail latency fall
# among spaces of one size rather than on the edge between two sizes
SPACE_TARGETS = {
    "full": [round(10_000 * 2 ** (i / 7)) for i in range(8)] + [30_000] * 12 + [65_000] * 12,
    "tiny": [2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 14_000, 16_000],
}
NOMINAL_PASS_S = {
    "full": {"hf-ladder": 2.1, "pyramid-oracle": 3.2, "alpha-search": 2.2, "cli-cold": 4.1},
    "tiny": {"hf-ladder": 0.1, "pyramid-oracle": 0.1, "alpha-search": 0.1, "cli-cold": 1.0},
}
CLI_MIX = {"full": inputs.CLI_MIX, "tiny": dict(inputs.CLI_MIX, **{
    "hf-enum": 2, "hf-info": 2, "pyramid": 2, "genus": 2, "ch14": 2, "alphagrade": 2, "verify": 2, "error": 2})}

WORKLOADS = tuple(SUITES)


def cases_key(suite: str, caps: dict) -> str:
    return f"{suite} {json.dumps(caps, sort_keys=True)}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _suite_op(lab, suite: str, caps: dict, recorded: dict) -> Op:
    want = recorded.get(cases_key(suite, caps))

    def check(report):
        if report.violations:
            return f"{len(report.violations)} violation(s), first {report.violations[0]}"
        if want is None:
            return f"no recorded case count for {cases_key(suite, caps)}"
        if report.cases_run < want:
            return f"covered {report.cases_run} cases, {want} recorded for these caps"
        return None

    return Op(f"suite:{suite}", f"suites.{suite}", lambda: lab.suites.run_suite(suite, **caps), check)


def _long_hf_op(lab, i: int, spec: dict) -> Op:
    HilbertFunction = lab.hilbert.HilbertFunction

    def call():
        if spec["kind"] == "composed":
            phi = HilbertFunction.from_diff(spec["kernel"])
            for m in spec["ms"]:
                phi = lab.standard_form.compose(phi, m)
        else:
            phi = HilbertFunction.from_diff(spec["diff"])
        return phi, phi.g_star(), lab.standard_form.type_of(phi)

    golden = functools.cache(lambda: (spec["diff"], oracle.g_star(spec["diff"]), oracle.type_chain(spec["diff"])))

    def check(out):
        phi, g, chain = out
        diff, want_g, want_chain = golden()
        if list(phi.diff) != diff:
            return f"compose gave {list(phi.diff)[:8]}..., expected {diff[:8]}..."
        if g != want_g:
            return f"g_star {g}, expected {want_g}"
        if chain.to_json_dict() != want_chain:
            return f"type chain {chain.to_json_dict()}, expected {want_chain}"
        return None

    return Op(f"long-hf:{i}", "bench.long_hf", call, check)


def _pyramid_op(lab, c: int, d: int) -> Op:
    def call():
        closed = lab.pyramids.max_weight_closed_form(c, d)
        weight, witness = lab.pyramids.brute_force_max_weight(c, d)
        return closed, weight, list(witness.initial_degrees())

    golden = functools.cache(lambda: oracle.pyramid_max_payload(c, d))

    def check(out):
        want = golden()
        want = (want["weight"], want["weight"], want["witness"])
        return None if out == want else f"(closed form, oracle, witness) {out}, expected {want}"

    return Op(f"pyramid-query:{c},{d}", "bench.pyramid_query", call, check)


def _space_op(lab, i: int, spec: dict) -> Op:
    Monomial = lab.monomials.Monomial

    def call():
        ideal = lab.staircase.GradedMonomialIdeal.from_json_dict(spec["ideal"])
        weight = lab.torus.TorusWeight(tuple(spec["rho"]))
        deformations = [(Monomial(*mon), steps) for mon, steps in spec["deformations"]]
        space = lab.torus.deformed_section_space(ideal, spec["level"], weight, deformations)
        lo, hi = lab.alphagrade.minmax_alpha_grade(space)
        spread = lab.alphagrade.right_domain_spread(space, lab.alphagrade.DomainSplit(spec["threshold"]))
        return space, (lo, hi, spread)

    golden = functools.cache(lambda: oracle.space_extremes(spec["space"], spec["threshold"]))

    def check(out):
        space, got = out
        if space.to_json_dict() != spec["space"]:
            return "deformed section space differs from the generated chains"
        ref = golden()
        want = (ref["min"], ref["max"], ref["spread"])
        return None if got == want else f"(min, max, spread) {got}, expected {want}"

    return Op(f"space:{i}", "bench.space", call, check)


def _cli_golden(req: dict, recorded: dict):
    kind, arg = req["kind"], req["expect"]
    if kind == "hf-enum":
        return oracle.hf_enum_payload(arg)
    if kind == "hf-info":
        return oracle.hf_info_payload(arg)
    if kind == "pyramid":
        return oracle.pyramid_max_payload(*arg)
    if kind == "genus":
        return oracle.genus_payload(*arg)
    if kind == "ch14":
        return oracle.ch14_payload(arg)
    if kind == "alphagrade":
        return oracle.alphagrade_payload(arg)
    if kind == "verify":
        suite, caps = arg
        label = f"ineq:{caps['name']}" if suite == "ineq" else suite
        return {"suite": label, "cases_run": recorded.get(cases_key(suite, caps)), "violations": [], "ok": True}
    return None


def _cli_op(i: int, req: dict, recorded: dict) -> Op:
    argv = [sys.executable, "-m", "staircase_lab", *req["argv"]]

    def call():
        return subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)

    golden = functools.cache(lambda: _cli_golden(req, recorded))

    def check(proc):
        if "Traceback" in proc.stderr and req["kind"] != "malformed-space":
            return f"traceback, exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}"
        if req["kind"] in ("error", "malformed-space"):
            if proc.returncode == 2:
                return None
            if req["kind"] == "malformed-space" and proc.returncode == 1 and "JSONDecodeError" in proc.stderr:
                return KnownDefect("malformed --space file exits 1 with a JSONDecodeError traceback; the contract says 2")
            return f"exit {proc.returncode}, expected 2"
        if proc.returncode != 0:
            return f"exit {proc.returncode}, expected 0: {proc.stderr.strip()[-200:]}"
        got = json.loads(proc.stdout)
        want = golden()
        if req["kind"] == "verify":
            elapsed = got.pop("elapsed", None)
            if not isinstance(elapsed, (int, float)):
                return f"verify output without elapsed: {proc.stdout[:200]}"
            if want["cases_run"] is not None and got.get("cases_run", -1) >= want["cases_run"]:
                want = dict(want, cases_run=got["cases_run"])
        return None if got == want else f"output {proc.stdout[:200]} differs from golden {json.dumps(want)[:200]}"

    return Op(f"cli:{i}:{req['kind']}", f"bench.cli.{req['kind']}", call, check)


def build(lab, name: str, seed: int, profile: str, out_dir: str) -> Workload:
    """Generate the seeded inputs of a workload and its operations.

    ``lab`` is the imported package; the caller imports it, so that set-up
    time includes the import.
    """
    recorded = load_golden()["cases"]
    caps = {suite: c for suite, c in SUITES[name][profile]}
    ops = [_suite_op(lab, suite, c, recorded) for suite, c in SUITES[name][profile]]
    if name == "hf-ladder":
        specs = inputs.long_hilbert_functions(seed, LONG_HF_COUNT[profile])
        ops += [_long_hf_op(lab, i, s) for i, s in enumerate(specs)]
        caps["long_hilbert_functions"] = {"count": len(specs), "regularity": [50, 200]}
    elif name == "pyramid-oracle":
        ops += [_pyramid_op(lab, c, d) for c, d in PYRAMID_QUERIES[profile]]
        caps["pyramid_queries"] = [list(q) for q in PYRAMID_QUERIES[profile]]
    elif name == "alpha-search":
        specs = inputs.chain_spaces(seed, SPACE_TARGETS[profile], lab.staircase)
        ops += [_space_op(lab, i, s) for i, s in enumerate(specs)]
        caps["chain_spaces"] = {
            "cost_targets": SPACE_TARGETS[profile],
            "options": [s["options"] for s in specs],
            "selections": [s["selections"] for s in specs],
        }
    elif name == "cli-cold":
        requests, files = inputs.cli_requests(seed, f"{out_dir}/cli-seed{seed}", lab.staircase, CLI_MIX[profile])
        inputs.write_files(files)
        ops += [_cli_op(i, r, recorded) for i, r in enumerate(requests)]
        caps["cli_mix"] = CLI_MIX[profile]
        caps["cli_verify"] = [list(entry) for entry in inputs.CLI_VERIFY_MENU[:CLI_MIX[profile]["verify"]]]
    inputs.rng_for(seed, f"order:{name}").shuffle(ops)
    calibration = clock.SPAWN if name == "cli-cold" else clock.LOOP
    return Workload(name, ops, NOMINAL_PASS_S[profile][name], caps, calibration)
