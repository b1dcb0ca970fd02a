"""Command-line surface: inspectable computations and verification suites.

Exit codes: 0 success, 1 a verification suite found violations, 2 usage or
domain error, 3 internal inconsistency (two formulas that must agree do not).

Every request starts a fresh interpreter, which compiles from source each
package module it imports when no bytecode cache exists.  So each command
imports inside its own function only the modules it runs: ``hf enum`` and
``genus`` compile ``hilbert``, ``hf info`` adds ``standard_form``, ``pyramid max``
compiles ``pyramids``, ``ch14`` and ``alphagrade`` the alpha-grade modules
(``torus`` only to read a space), and ``verify`` the suite runner and its
suite's group module with what that group calls (see ``suites``).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, InternalInconsistencyError, RangeError

USAGE_EXIT = 2
INTERNAL_EXIT = 3
VIOLATION_EXIT = 1


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_hf_enum(args) -> int:
    from . import hilbert

    functions = hilbert.enumerate_hilbert_functions(args.colength)
    payload = {
        "colength": args.colength,
        "functions": [
            {"diff": list(phi.diff), "g_star": phi.g_star(), "regularity": phi.regularity}
            for phi in functions
        ],
    }
    lines = [f"{phi.as_text()}\tg*={phi.g_star()}" for phi in functions]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_hf_info(args) -> int:
    from . import hilbert, standard_form

    phi = hilbert.HilbertFunction.parse(args.phi)
    d = phi.colength
    chain = standard_form.type_of(phi)
    payload = {
        "diff": list(phi.diff),
        "colength": d,
        "alpha": phi.alpha,
        "regularity": phi.regularity,
        "g_star": phi.g_star(),
        "deformation_bound": hilbert.deformation_bound(d) if d >= 5 else None,
        "type_chain": chain.to_json_dict(),
    }
    lines = [
        f"phi'={phi.as_text()}",
        f"d={d}",
        f"alpha={payload['alpha']}",
        f"reg={phi.regularity}",
        f"g*={payload['g_star']}",
    ]
    if d >= 5:
        lines.append(f"g(d)={payload['deformation_bound']}")
    lines.append(f"type: {chain.as_text()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_pyramid_max(args) -> int:
    from . import pyramids

    c, d = args.frame, args.colength
    weight = pyramids.max_weight_closed_form(c, d)
    dec = pyramids.nr_decomposition(d)
    payload = {"c": c, "d": d, "case": dec.case, "n": dec.n, "r": dec.r, "weight": weight}
    if args.oracle or args.witness:
        # kept at the exhaustive search's budget: the cli-cold benchmark expects exit 2 beyond it
        if c > pyramids.TOP_SEGMENT_FRAME_CAP:
            raise RangeError(f"frame {c} beyond the search budget ({pyramids.TOP_SEGMENT_FRAME_CAP})")
        oracle_weight, witness = pyramids.max_weight_dp(c, d)
        if oracle_weight != weight:
            raise InternalInconsistencyError(
                f"oracle weight {oracle_weight} != closed form {weight} at (c={c}, d={d})"
            )
        payload["oracle"] = oracle_weight
    text = str(weight)
    if args.witness:  # the DP above has set the witness
        payload["witness"] = list(witness.initial_degrees())
        text += "  witness a(i)=" + ",".join(str(a) for a in payload["witness"])
    _emit(args, payload, text)
    return 0


def cmd_alphagrade(args) -> int:
    with open(args.space, "rb") as handle:  # from_json decodes: undecodable bytes are a DomainError
        data = handle.read()
    from . import alphagrade
    from .torus import SemiInvariantSpace

    space = SemiInvariantSpace.from_json(data)
    lo, hi = alphagrade.minmax_alpha_grade(space)
    payload = {"min": lo, "max": hi, "degree": space.degree, "chains": space.dimension}
    _emit(args, payload, f"min-alpha-grade={lo}\nmax-alpha-grade={hi}")
    return 0


def cmd_genus(args) -> int:
    from . import hilbert

    value = hilbert.genus_nu(args.d, args.nu)
    _emit(args, {"d": args.d, "nu": args.nu, "genus": value}, str(value))
    return 0


def cmd_ch14(args) -> int:
    from . import alphagrade

    degs = alphagrade.chapter14_degrees(args.e)
    _emit(args, {"e": args.e, "degrees": list(degs)}, " ".join(str(v) for v in degs))
    return 0


# sorted(suites.SUITES), spelled out so that parsing a command does not import
# the suites; tests/test_cli.py keeps the two equal
SUITE_NAMES = (
    "a-bound", "bang", "borel", "catalog-small", "ch14", "ch7-catalog", "chain-invariants",
    "corollary-2-2", "endpoint", "form-agreement", "genus-negativity", "gstar-crosscheck",
    "gstar-monotonic", "hf-ideal-agreement", "ineq", "lemma-2-4", "prop-4-1", "pyramid-alpha-link",
    "pyramid-monotonic", "pyramid-oracle", "pyramid-oracle-full", "regularity-bound", "sandwich",
    "special-chi", "stabilization",
)

_SUITE_CAP_FLAGS = {
    "max_colength": "--max-colength",
    "max_frame": "--max-frame",
    "max_c": "--max-c",
    "max_r": "--max-r",
    "m_span": "--m-span",
    "max_e": "--max-e",
    "max_m": "--max-m",
}


def cmd_verify(args) -> int:
    from . import suites

    caps = {attr: getattr(args, attr) for attr in [*_SUITE_CAP_FLAGS, "name"] if getattr(args, attr) is not None}
    report = suites.run_suite(args.suite, **caps)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        status = "ok" if report.ok else f"{len(report.violations)} violation(s)"
        print(f"suite={report.suite} cases={report.cases_run} {status} elapsed={report.elapsed:.3f}s")
        for violation in report.violations:
            print(f"  violation: {violation}")
    return 0 if report.ok else VIOLATION_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase-lab",
        description="Staircase combinatorics of plane monomial ideals, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hf = sub.add_parser("hf", help="Hilbert function catalog and inspection")
    hf_sub = hf.add_subparsers(dest="hf_command", required=True)
    hf_enum = hf_sub.add_parser("enum", help="list all functions of a colength")
    hf_enum.add_argument("--colength", type=int, required=True)
    hf_enum.add_argument("--json", action="store_true")
    hf_enum.set_defaults(func=cmd_hf_enum)
    hf_info = hf_sub.add_parser("info", help="invariants of one function")
    hf_info.add_argument("--phi", type=str, required=True, help="comma-separated difference values")
    hf_info.add_argument("--json", action="store_true")
    hf_info.set_defaults(func=cmd_hf_info)

    pyr = sub.add_parser("pyramid", help="pyramid weight computations")
    pyr_sub = pyr.add_subparsers(dest="pyramid_command", required=True)
    pyr_max = pyr_sub.add_parser("max", help="maximal weight of type (c, d)")
    pyr_max.add_argument("--frame", type=int, required=True)
    pyr_max.add_argument("--colength", type=int, required=True)
    pyr_max.add_argument("--oracle", action="store_true", help="cross-check with the knapsack DP")
    pyr_max.add_argument("--witness", action="store_true", help="print a maximizing pyramid")
    pyr_max.add_argument("--json", action="store_true")
    pyr_max.set_defaults(func=cmd_pyramid_max)

    alpha = sub.add_parser("alphagrade", help="min/max alpha-grade of a semi-invariant space")
    alpha.add_argument("--space", type=str, required=True, help="JSON file with rho and chains")
    alpha.add_argument("--json", action="store_true")
    alpha.set_defaults(func=cmd_alphagrade)

    genus = sub.add_parser("genus", help="genus of the cone family over a plane ideal")
    genus.add_argument("--d", type=int, required=True)
    genus.add_argument("--nu", type=int, required=True)
    genus.add_argument("--json", action="store_true")
    genus.set_defaults(func=cmd_genus)

    ch14 = sub.add_parser("ch14", help="cycle degrees of the even-colength degeneration family")
    ch14.add_argument("--e", type=int, required=True)
    ch14.add_argument("--json", action="store_true")
    ch14.set_defaults(func=cmd_ch14)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", type=str, required=True, choices=SUITE_NAMES)
    verify.add_argument("--name", type=str, help="inequality name for the ineq suite")
    for attr, flag in _SUITE_CAP_FLAGS.items():
        verify.add_argument(flag, dest=attr, type=int)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
