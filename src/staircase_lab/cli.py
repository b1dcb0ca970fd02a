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

The same holds for the command line itself.  Its grammar is declared once,
in ``COMMANDS``.  ``read_request`` reads a plain request straight from that
table: the command words, then full flag names of that command, each with its
value in the next token.  It returns the attributes argparse would set, or
None.  Every other request goes to argparse, which ``build_parser`` imports
and builds from the same table only then, and which prints the help or the
usage error.  Such requests are ``-h``/``--help``, an abbreviated flag,
``--flag=value``, ``--``, a value starting with ``-`` (a negative integer for
an integer flag excepted), text ``int`` rejects, an unknown suite, a missing
required flag and a stray token.  Importing argparse (and through it
``gettext``), its ``locale`` lookups and building its sub-parsers would cost
each request more than compiling ``hilbert``, all that ``genus`` runs.
``json`` is loaded only for ``--json``, for ``alphagrade`` (to read its
space file) and for the ``families`` suites, through ``torus``.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .errors import DomainError, InternalInconsistencyError, RangeError

USAGE_EXIT = 2
INTERNAL_EXIT = 3
VIOLATION_EXIT = 1


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json

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

# the suites' int caps, each given as its flag: the cap with "-" for "_"
_SUITE_CAPS = ("max_colength", "max_frame", "max_c", "max_r", "m_span", "max_e", "max_m")


def cmd_verify(args) -> int:
    from . import suites

    caps = {attr: getattr(args, attr) for attr in [*_SUITE_CAPS, "name"] if getattr(args, attr) is not None}
    report = suites.run_suite(args.suite, **caps)
    if args.json:
        import json

        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        status = "ok" if report.ok else f"{len(report.violations)} violation(s)"
        print(f"suite={report.suite} cases={report.cases_run} {status} elapsed={report.elapsed:.3f}s")
        for violation in report.violations:
            print(f"  violation: {violation}")
    return 0 if report.ok else VIOLATION_EXIT


SWITCH = "switch"  # the kind of a flag that takes no value (argparse's store_true)


def _flag(name: str, kind=SWITCH, required: bool = False, help: str | None = None, choices=None) -> tuple:
    """One flag of a command: its dest is derived from the name as argparse derives it."""
    return name, name[2:].replace("-", "_"), kind, required, help, choices


JSON = _flag("--json")

# The grammar, declared once.  Command path -> (help, handler, flags); a
# group of sub-commands has no handler and no flags.  argparse lists the
# commands of a group, and the flags of a command, in this order.
COMMANDS = {
    ("hf",): ("Hilbert function catalog and inspection", None, ()),
    ("hf", "enum"): ("list all functions of a colength", cmd_hf_enum, (_flag("--colength", int, True), JSON)),
    ("hf", "info"): (
        "invariants of one function", cmd_hf_info, (_flag("--phi", str, True, "comma-separated difference values"), JSON)
    ),
    ("pyramid",): ("pyramid weight computations", None, ()),
    ("pyramid", "max"): ("maximal weight of type (c, d)", cmd_pyramid_max, (
        _flag("--frame", int, True),
        _flag("--colength", int, True),
        _flag("--oracle", help="cross-check with the knapsack DP"),
        _flag("--witness", help="print a maximizing pyramid"),
        JSON,
    )),
    ("alphagrade",): (
        "min/max alpha-grade of a semi-invariant space", cmd_alphagrade,
        (_flag("--space", str, True, "JSON file with rho and chains"), JSON),
    ),
    ("genus",): (
        "genus of the cone family over a plane ideal", cmd_genus, (_flag("--d", int, True), _flag("--nu", int, True), JSON)
    ),
    ("ch14",): ("cycle degrees of the even-colength degeneration family", cmd_ch14, (_flag("--e", int, True), JSON)),
    ("verify",): ("run a verification suite", cmd_verify, (
        _flag("--suite", str, True, choices=SUITE_NAMES),
        _flag("--name", str, help="inequality name for the ineq suite"),
        *(_flag("--" + cap.replace("_", "-"), int) for cap in _SUITE_CAPS),
        JSON,
    )),
}


def _command_dest(group: tuple) -> str:
    """Attribute naming the command chosen in a group: ``command`` at the top."""
    return "_".join((*group, "command"))


def read_request(argv: list) -> dict | None:
    """The attributes argparse sets for a plain request, in its order, or None
    when the request is not plain (see the module docstring)."""
    values, path = {}, ()
    for word in argv:
        entry = COMMANDS.get(path + (word,))
        if entry is None:
            return None
        values[_command_dest(path)] = word
        path += (word,)
        if entry[1] is not None:
            break
    else:
        return None  # no command, or a group without its sub-command
    _, handler, flags = entry
    by_name = {}
    for flag in flags:
        by_name[flag[0]] = flag
        values[flag[1]] = False if flag[2] is SWITCH else None
    values["func"] = handler
    tokens = iter(argv[len(path):])
    for token in tokens:
        if token not in by_name:
            return None
        _, dest, kind, _, _, choices = by_name[token]
        if kind is SWITCH:
            values[dest] = True
            continue
        value = next(tokens, None)
        # argparse takes a token starting with "-" as a value only when it
        # reads as a negative number (its pattern ^-\d+$; \d is isdecimal)
        if value is None or value.startswith("-") and not (kind is int and value[1:].isdecimal()):
            return None
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(values[dest] is None for _, dest, _, required, _, _ in flags if required):
        return None
    return values


def build_parser():
    """The argparse parser of ``COMMANDS``, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="staircase-lab",
        description="Staircase combinatorics of plane monomial ideals, with verification suites.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (help_text, handler, flags) in COMMANDS.items():
        sub = groups[path[:-1]].add_parser(path[-1], help=help_text)
        if handler is None:
            groups[path] = sub.add_subparsers(dest=_command_dest(path), required=True)
            continue
        for name, dest, kind, required, flag_help, choices in flags:
            if kind is SWITCH:
                sub.add_argument(name, dest=dest, action="store_true", help=flag_help)
            else:
                sub.add_argument(name, dest=dest, type=kind, required=required, help=flag_help, choices=choices)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    values = read_request(argv)
    if values is not None:
        args = SimpleNamespace(**values)
    else:
        try:
            args = build_parser().parse_args(argv)
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
