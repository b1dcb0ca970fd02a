"""CLI behavior: output formats, exit codes, and determinism."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staircase_lab import cli

from .strategies import valid_diffs

BASE = [sys.executable, "-m", "staircase_lab"]
PHI_400 = ",".join(["0"] * 399 + ["400"])  # colength 79800
ENUM_12_JSON = (
    '{"colength": 12, "functions": [{"diff": [0, 0, 0, 0, 3, 6], "g_star": 17, "regularity": 5}, '
    '{"diff": [0, 0, 0, 0, 4, 5, 7], "g_star": 18, "regularity": 6}, '
    '{"diff": [0, 0, 0, 1, 2, 6], "g_star": 18, "regularity": 5}, '
    '{"diff": [0, 0, 0, 1, 3, 5, 7], "g_star": 19, "regularity": 6}, '
    '{"diff": [0, 0, 0, 1, 4, 5, 6, 8], "g_star": 21, "regularity": 7}, '
    '{"diff": [0, 0, 0, 2, 3, 4, 7], "g_star": 21, "regularity": 6}, '
    '{"diff": [0, 0, 0, 2, 3, 5, 6, 8], "g_star": 22, "regularity": 7}, '
    '{"diff": [0, 0, 0, 2, 4, 5, 6, 7, 9], "g_star": 25, "regularity": 8}, '
    '{"diff": [0, 0, 0, 3, 4, 5, 6, 7, 8, 10], "g_star": 30, "regularity": 9}, '
    '{"diff": [0, 0, 1, 2, 3, 4, 6, 8], "g_star": 25, "regularity": 7}, '
    '{"diff": [0, 0, 1, 2, 3, 5, 6, 7, 9], "g_star": 27, "regularity": 8}, '
    '{"diff": [0, 0, 1, 2, 4, 5, 6, 7, 8, 10], "g_star": 31, "regularity": 9}, '
    '{"diff": [0, 0, 1, 3, 4, 5, 6, 7, 8, 9, 11], "g_star": 37, "regularity": 10}, '
    '{"diff": [0, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12], "g_star": 45, "regularity": 11}, '
    '{"diff": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13], "g_star": 55, "regularity": 12}]}\n'
)


def run_cli(*args, env=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=120, env=env, check=False
    )


def run_in_process(*args):
    """Exit code of ``cli.main``; an exception it lets through fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(args))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
RHOS = st.sampled_from([[1, -1, 0], [0, -1, 1], [-2, 1, 1], [1, 1, -2]])


@st.composite
def near_valid_spaces(draw):
    """Chains with distinct initials of one degree and small supports."""
    n = draw(st.integers(1, 6))
    initials = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda ab: sum(ab) <= n)
    initials = draw(st.lists(initials, min_size=1, max_size=5, unique=True))
    chains = [
        {"initial": [a, b, n - a - b], "support": [0] + draw(st.lists(st.integers(1, 2), max_size=2))}
        for a, b in initials
    ]
    return {"rho": draw(RHOS), "chains": chains}


SPACE_DOCUMENTS = (
    JSON_VALUES
    | near_valid_spaces()
    | st.fixed_dictionaries({
        "rho": RHOS | st.lists(st.integers(-3, 3), max_size=4) | JSON_VALUES,
        "chains": st.lists(
            st.fixed_dictionaries({
                "initial": st.lists(st.integers(-1, 6), max_size=4) | JSON_VALUES,
                "support": st.lists(st.integers(-1, 4), max_size=4) | JSON_VALUES,
            }),
            max_size=4,
        ) | JSON_VALUES,
    })
)


@st.composite
def space_texts(draw):
    """A JSON document for ``--space``, sometimes cut off."""
    text = json.dumps(draw(SPACE_DOCUMENTS))
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def over_budget_space():
    """Three chains of 101 options each: 101**3 > 10**6 selections."""
    chains = [{"initial": [i, 200 - i, 0], "support": list(range(101))} for i in range(3)]
    return json.dumps({"rho": [0, -1, 1], "chains": chains})


OVER_LIMIT = "9" * 5000  # past the int-string digit limit (4300 digits)
# text an integer flag or a --phi entry may carry; none of it parses to more than 3
ODD_INTEGER_TEXTS = st.sampled_from(
    ["", " ", "+3", "-0", " 2 ", "0_3", "0x3", "1e3", "1.0", "\u0663", "\uff13", "\u00b2", OVER_LIMIT, "-" + OVER_LIMIT]
)


def int_texts(safe_max=None):
    """An integer flag value: negative, zero, positive up to ``safe_max``
    (any size when None), or odd text."""
    positive = st.integers(min_value=1) if safe_max is None else st.integers(1, safe_max)
    return (st.integers(max_value=0) | positive).map(str) | ODD_INTEGER_TEXTS


@st.composite
def phi_texts(draw):
    """A ``--phi`` value: an admissible sequence or arbitrary entries, signed,
    padded or not, joined by one separator."""
    if draw(st.booleans()):
        tokens = [draw(st.sampled_from(["", "+", " "])) + str(v) for v in draw(valid_diffs())]
    else:
        tokens = draw(st.lists(st.integers(-2, 9).map(str) | ODD_INTEGER_TEXTS | st.text(max_size=2), max_size=9))
    return draw(st.sampled_from([",", ", ", ";", " ", ",,", "\t"])).join(tokens)


JSON_FLAG = st.sampled_from([[], ["--json"]])
# Each command with its integer flags.  Caps that size a computation stay
# small; pyramid and genus caps are O(1) at any size.
CLI_REQUESTS = st.one_of(
    st.tuples(st.just(["hf", "enum", "--colength"]), int_texts(9), JSON_FLAG),
    st.tuples(st.just(["hf", "info", "--phi"]), phi_texts(), JSON_FLAG),
    st.tuples(
        st.just(["pyramid", "max", "--frame"]), int_texts(), st.just("--colength"), int_texts(),
        st.lists(st.sampled_from(["--oracle", "--witness", "--json"]), unique=True),
    ),
    st.tuples(st.just(["genus", "--d"]), int_texts(), st.just("--nu"), int_texts(), JSON_FLAG),
    st.tuples(st.just(["ch14", "--e"]), int_texts(12), JSON_FLAG),
    st.tuples(
        st.just(["verify", "--suite"]), st.sampled_from(cli.SUITE_NAMES),
        st.sampled_from(["--" + cap.replace("_", "-") for cap in cli._SUITE_CAPS]), int_texts(3), JSON_FLAG,
    ),
)


class TestHf:
    def test_enum_small_catalog(self):
        result = run_cli("hf", "enum", "--colength", "3")
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["0,0,3\tg*=0", "0,1,2,4\tg*=1"]

    def test_enum_json_round_trips(self):
        result = run_cli("hf", "enum", "--colength", "4", "--json")
        payload = json.loads(result.stdout)
        assert [f["g_star"] for f in payload["functions"]] == [1, 3]

    def test_info_fields(self):
        result = run_cli("hf", "info", "--phi", "0,0,3")
        assert result.returncode == 0
        assert "g*=0" in result.stdout
        assert "reg=2" in result.stdout

    def test_info_reports_the_bound_and_chain(self):
        result = run_cli("hf", "info", "--phi", "0,0,2,3,5", "--json")
        payload = json.loads(result.stdout)
        assert payload["colength"] == 5
        assert payload["deformation_bound"] == 2
        assert payload["type_chain"]["ms"] == [4]

    def test_invalid_phi_is_a_usage_error(self):
        result = run_cli("hf", "info", "--phi", "0,1,1")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "phi,extra,stdout",
        [
            (
                "0,0,1,3,4,6",
                (),
                "phi'=0,0,1,3,4,6\nd=7\nalpha=2\nreg=5\ng*=7\ng(d)=6\n"
                "type: r=0; ells=-; ms=5; c=2; kappa=2\n",
            ),
            (
                PHI_400,
                ("--json",),
                '{"alpha": 399, "colength": 79800, "deformation_bound": 1591930201, "diff": ['
                + ", ".join(PHI_400.split(","))
                + '], "g_star": 21093801, "regularity": 399, "type_chain": {"ells": null, '
                '"kernel_c": 79800, "kernel_kappa": 399, "ms": [], "r": -1}}\n',
            ),
            (
                "1",
                ("--json",),
                '{"alpha": 0, "colength": 0, "deformation_bound": null, "diff": [1], "g_star": 1, '
                '"regularity": 0, "type_chain": {"ells": null, "kernel_c": 0, "kernel_kappa": 0, "ms": [], "r": -1}}\n',
            ),
        ],
        ids=["short", "400-entries-json", "full-ideal-json"],
    )
    def test_info_output_is_pinned(self, phi, extra, stdout):
        result = run_cli("hf", "info", "--phi", phi, *extra)
        assert result.returncode == 0
        assert result.stdout == stdout

    def test_enum_json_output_is_pinned(self):
        result = run_cli("hf", "enum", "--colength", "12", "--json")
        assert result.returncode == 0
        assert result.stdout == ENUM_12_JSON


class TestComputations:
    def test_pyramid_max(self):
        result = run_cli("pyramid", "max", "--frame", "4", "--colength", "4")
        assert result.returncode == 0
        assert result.stdout.strip() == "7"

    def test_pyramid_max_json_schema(self):
        result = run_cli(
            "pyramid", "max", "--frame", "9", "--colength", "7", "--oracle", "--witness", "--json"
        )
        payload = json.loads(result.stdout)
        assert set(payload) == {"c", "d", "case", "n", "r", "weight", "oracle", "witness"}
        assert payload["weight"] == payload["oracle"]

    @pytest.mark.parametrize(
        "extra,stdout",
        [
            ((), "41  witness a(i)=0,0,0,0,0,1,1,2,3\n"),
            (
                ("--json",),
                '{"c": 9, "case": "square", "d": 7, "n": 3, "oracle": 41, "r": 2, "weight": 41, '
                '"witness": [0, 0, 0, 0, 0, 1, 1, 2, 3]}\n',
            ),
        ],
    )
    def test_pyramid_witness_output_is_pinned(self, extra, stdout):
        result = run_cli("pyramid", "max", "--frame", "9", "--colength", "7", "--oracle", "--witness", *extra)
        assert result.returncode == 0
        assert result.stdout == stdout

    def test_pyramid_domain_error(self):
        assert run_cli("pyramid", "max", "--frame", "3", "--colength", "9").returncode == 2

    def test_pyramid_oracle_beyond_frame_nine_is_a_usage_error(self):
        assert run_cli("pyramid", "max", "--frame", "10", "--colength", "4", "--oracle").returncode == 2

    def test_ch14(self):
        result = run_cli("ch14", "--e", "5")
        assert result.stdout.strip() == "3 7 10 9 1"

    def test_genus(self):
        result = run_cli("genus", "--d", "6", "--nu", "4")
        assert result.stdout.strip() == "-1"

    def test_genus_of_a_negative_colength_is_a_usage_error(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["genus", "--d", "-5", "--nu", "3"]) == 2
        assert (out.getvalue(), err.getvalue()) == ("", "error: need d >= 0 and nu >= 1, got d=-5, nu=3\n")

    def test_alphagrade_from_file(self, tmp_path):
        from staircase_lab.catalog import build_space, case_by_name

        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(build_space(case_by_name("7.3"), 4).to_json_dict()))
        result = run_cli("alphagrade", "--space", str(space_file))
        assert result.stdout.splitlines() == ["min-alpha-grade=5", "max-alpha-grade=10"]
        as_json = json.loads(run_cli("alphagrade", "--space", str(space_file), "--json").stdout)
        assert (as_json["min"], as_json["max"]) == (5, 10)

    def test_missing_space_file(self):
        assert run_cli("alphagrade", "--space", "/nonexistent.json").returncode == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"rho": [-4, 1, 3], "chains": [{"initial": [4, 0, 1], "support": [0, 1]}',  # truncated
            '{"rho": [1e400, -1, 0], "chains": [{"initial": [4, 0, 1], "support": [0, 1]}]}',  # infinite weight
            pytest.param('{"rho": [' + "1" * 5000 + ', -1, 0], "chains": []}', id="long-integer"),
            pytest.param("[" * 5000, id="deep-nesting"),
            pytest.param(over_budget_space(), id="over-budget"),
            pytest.param(b"\x80{", id="not-utf-8"),
            pytest.param('{"rho": [1, -1, 0], "chains": [{"initial": [1, 0, 0], "support": [0, 1.9]}]}', id="float"),
            pytest.param('{"rho": [1, -1, 0], "chains": [{"initial": "010", "support": [0]}]}', id="string"),
            pytest.param('{"rho": [1.5, -1.5, 0], "chains": [{"initial": [1, 0, 0], "support": [0]}]}', id="float-rho"),
            pytest.param('{"rho": [1, -1, 0], "chains": [{"initial": [true, 0, 0], "support": [0]}]}', id="bool"),
        ],
    )
    def test_malformed_space_file_is_a_usage_error(self, tmp_path, text):
        space_file = tmp_path / "space.json"
        space_file.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = run_cli("alphagrade", "--space", str(space_file))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @settings(max_examples=150, deadline=None)
    @given(text=space_texts() | st.binary(), as_json=st.booleans())
    @example(text='{"rho": [1, -1, 0], "chains": []}', as_json=False)
    @example(text='{"rho": [0, -1, 1], "chains": [{"initial": [0, %d, 0], "support": [0, %d]}]}' % (10**30, 10**30),
             as_json=True)  # degree 10**30: nothing may be sized by the degree
    def test_space_input_never_escapes_the_exit_codes(self, tmp_path_factory, text, as_json):
        space_file = tmp_path_factory.getbasetemp() / "fuzz-space.json"
        space_file.write_bytes(text if isinstance(text, bytes) else text.encode())
        args = ["alphagrade", "--space", str(space_file)] + (["--json"] if as_json else [])
        assert run_in_process(*args) in (0, 2)  # no violation outcome, and bad input is no inconsistency


class TestExitCodes:
    @settings(max_examples=300, deadline=None)
    @given(request=CLI_REQUESTS)
    @example(request=(["hf", "info", "--phi"], "", []))
    @example(request=(["hf", "info", "--phi"], "0,0," + OVER_LIMIT, ["--json"]))
    @example(request=(["hf", "info", "--phi"], "\u0660,\u0660,\u0663", []))  # Arabic-Indic 0,0,3
    @example(request=(["pyramid", "max", "--frame"], str(10**40), "--colength", str(10**40 - 1), []))
    @example(request=(["ch14", "--e"], OVER_LIMIT, []))
    @example(request=(["verify", "--suite"], "ineq", "--max-c", "0", []))
    def test_requests_exit_zero_or_two(self, request):
        args = [a for part in request for a in ([part] if isinstance(part, str) else part)]
        assert run_in_process(*args) in (0, 2)

    @pytest.mark.parametrize(
        "args",
        [
            ("--suite", "borel", "--name", "5.2"),  # --name on a suite other than ineq
            ("--suite", "borel", "--max-frame", "3"),  # a cap the suite does not take
            ("--suite", "ineq", "--name", "0.0"),  # an unknown inequality
            ("--suite", "ch14", "--max-e", "3"),  # caps that cover no cases
            ("--suite", "a-bound", "--max-r", "0"),
            ("--suite", "a-bound", "--max-c", "4"),  # beyond the kernels the suite builds
            ("--suite", "special-chi", "--max-colength", "8", "--max-colength", "3"),
        ],
    )
    def test_verify_flag_combinations_are_usage_errors(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["verify", *args]) == 2
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
        assert out.getvalue() == ""

    def test_a_repeated_cap_takes_the_last_value(self):
        def cases(*caps):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["verify", "--suite", "special-chi", *caps, "--json"]) == 0
            return json.loads(out.getvalue())["cases_run"]

        assert cases("--max-colength", "3", "--max-colength", "9") == cases("--max-colength", "9") > 0


class TestVerify:
    def test_suite_passes_with_exit_zero(self):
        result = run_cli("verify", "--suite", "pyramid-oracle", "--max-frame", "8")
        assert result.returncode == 0
        assert "ok" in result.stdout

    def test_lemma_suite(self):
        result = run_cli("verify", "--suite", "lemma-2-4", "--max-colength", "12")
        assert result.returncode == 0

    def test_named_inequality(self):
        result = run_cli("verify", "--suite", "ineq", "--name", "5.2", "--max-c", "50", "--json")
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["violations"] == []

    @pytest.mark.parametrize(
        "args",
        [
            ("--suite", "special-chi", "--max-colength", "3"),
            ("--suite", "pyramid-oracle", "--max-frame", "-5"),
            ("--suite", "sandwich", "--max-m", "3"),  # below every catalog case: the fixed fixture alone
            ("--suite", "ineq", "--max-c", "-1"),  # a negative cap empties some scans, not all
            ("--suite", "ineq", "--max-r", "-1"),
            ("--suite", "ineq", "--m-span", "-5"),
        ],
    )
    def test_empty_sweep_is_usage_error(self, args):
        result = run_cli("verify", *args)
        assert result.returncode == 2
        assert "ok" not in result.stdout

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "--suite", "nope").returncode == 2

    def test_unknown_inequality_is_usage_error(self):
        assert run_cli("verify", "--suite", "ineq", "--name", "0.0").returncode == 2

    def test_suite_choices_are_the_suites(self):
        from staircase_lab import suites

        assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))


# Help and usage-error requests with their stdout, stderr and exit code at
# COLUMNS=80, recorded from the hand-written argparse builder that the
# command table replaced.
USAGE_PINS = json.loads((Path(__file__).parent / "cli_usage.json").read_text(encoding="utf-8"))
PATHS = list(cli.COMMANDS)
FLAGS = sorted({flag[0] for _, _, flags in cli.COMMANDS.values() for flag in flags})
# values argparse reads in several ways: negative, padded, non-ASCII digits,
# past the int digit limit, flag-like, empty
ODD_TOKENS = [
    "--col", "--max", "--js", "--json=1", "--d=3", "--", "-h", "--help", "-", "-3", "-0", " 4", "+3", "0x3",
    "\u0663", "-\u0663", "\u00b2", "-\u00b2", "", "-1, 2", OVER_LIMIT, "-" + OVER_LIMIT,
    "3", "0,0,3", "nope",
]
TOKENS = st.sampled_from(sorted({w for path in PATHS for w in path}) + FLAGS + ODD_TOKENS + list(cli.SUITE_NAMES))


@st.composite
def argv_lists(draw):
    """Free token lists, and command paths followed by tokens or by flags of
    that command with values; these may repeat a flag and carry one fault: a
    flag left out, a value missing or odd, or a value after a switch."""
    kind = draw(st.sampled_from(["free", "path", "flags"]))
    if kind == "free":
        return draw(st.lists(TOKENS, max_size=8))
    path = draw(st.sampled_from(PATHS))
    flags = cli.COMMANDS[path][2]
    if kind == "path" or not flags:
        return list(path) + draw(st.lists(TOKENS, max_size=8))
    chosen = [flag for flag in draw(st.permutations(flags)) if flag[3] or draw(st.integers(0, 3))]
    entries = []
    for name, _, flag_kind, _, _, choices in chosen + draw(st.lists(st.sampled_from(flags), max_size=2)):
        value = st.sampled_from(choices) if choices else st.integers(-5, 12).map(str)
        entries.append([name] if flag_kind is cli.SWITCH else [name, draw(value)])
    if draw(st.booleans()):
        i, fault = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, 2))
        if fault == 0:
            del entries[i]
        else:
            entries[i][1:] = [draw(TOKENS)] if fault == 2 else []
    return list(path) + [token for entry in entries for token in entry]


class TestParsing:
    PARSER = cli.build_parser()  # parsing leaves the parser as it is

    @settings(max_examples=1500, deadline=None)
    @given(argv=argv_lists())
    @example(argv=["genus", "--d", "-\u0663", "--nu", "4", "--d", " 5"])
    @example(argv=["verify", "--suite", "borel", "--max-c", "-3", "--json", "--json", "--name", ""])
    @example(argv=["verify", "--suite", "Borel", "--max-c", "3"])
    def test_the_reader_agrees_with_argparse(self, argv):
        values = cli.read_request(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = vars(self.PARSER.parse_args(argv))
            except SystemExit:
                expected = None
        if values is not None:
            assert expected is not None, "the reader accepted a request argparse rejects"
            assert list(values.items()) == list(expected.items())

    @pytest.mark.parametrize("pin", USAGE_PINS, ids=[" ".join(pin["argv"]) or "no-arguments" for pin in USAGE_PINS])
    def test_help_and_usage_errors_are_pinned(self, monkeypatch, pin):
        monkeypatch.setenv("COLUMNS", "80")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(pin["argv"])
        assert (out.getvalue(), err.getvalue(), code) == (pin["stdout"], pin["stderr"], pin["code"])


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("hf", "enum", "--colength", "6", "--json"),
            ("pyramid", "max", "--frame", "7", "--colength", "5", "--witness"),
            ("ch14", "--e", "6", "--json"),
        ],
    )
    def test_identical_invocations_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


# what grading a staircase loads: a space's type is only an annotation there
GRADE_MODULES = ("alphagrade", "hilbert", "monomials", "staircase")
# standard modules whose import no request needs to pay: ``dataclasses``
# (and through it ``inspect``), and ``fractions`` (with ``decimal``)
NOT_IMPORTED = {"dataclasses", "inspect", "fractions", "decimal"}
# what only help and usage errors pay: argparse, with ``gettext`` and the
# ``locale`` its message lookups import
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
# what only a request that reads or writes JSON pays
JSON_MODULES = {"json"}


def imported_modules(*args):
    """Exit code of one fresh ``python -m staircase_lab`` request, the
    package modules it imported and the ``NOT_IMPORTED``, ``ARGPARSE_MODULES``
    and ``JSON_MODULES`` ones it imported (read from ``-X importtime``)."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *BASE[1:], *args], capture_output=True, text=True, timeout=120, check=False
    )
    names = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
    package = {name for name in names if name.split(".")[0] == "staircase_lab"}
    return result.returncode, package, names & (NOT_IMPORTED | ARGPARSE_MODULES | JSON_MODULES)


class TestColdStart:
    @pytest.mark.parametrize(
        "args,code,modules",
        [
            (("hf", "enum", "--colength", "3"), 0, ("hilbert",)),
            (("hf", "info", "--phi", "0,0,2,3,5"), 0, ("hilbert", "standard_form")),
            (("pyramid", "max", "--frame", "4", "--colength", "4", "--oracle"), 0, ("monomials", "pyramids")),
            (("genus", "--d", "6", "--nu", "4"), 0, ("hilbert",)),
            (("ch14", "--e", "5"), 0, GRADE_MODULES),
            (("alphagrade", "--space", "{space}"), 0, GRADE_MODULES + ("torus",)),
            (("alphagrade", "--space", "{missing}"), 2, ()),
            (("verify", "--suite", "special-chi", "--max-colength", "8"), 0, ("census", "hilbert", "suites", "suites.hf")),
            (
                ("verify", "--suite", "pyramid-oracle", "--max-frame", "4"),
                0,
                ("monomials", "pyramids", "suites", "suites.pyramid"),
            ),
            (
                ("verify", "--suite", "ineq", "--name", "5.2", "--max-c", "4"),
                0,
                ("hilbert", "inequalities", "suites", "suites.scans"),
            ),
            (
                ("verify", "--suite", "ch14", "--max-e", "5"),
                0,
                GRADE_MODULES + ("census", "suites", "suites.alpha"),
            ),
            (
                ("verify", "--suite", "borel", "--max-colength", "6"),
                0,
                ("census", "hilbert", "monomials", "staircase", "standard_form", "suites", "suites.forms"),
            ),
            (("verify", "--suite", "nope"), 2, ()),
            (("verify", "--help"), 0, ()),
        ],
        ids=["hf-enum", "hf-info", "pyramid", "genus", "ch14", "alphagrade", "alphagrade-missing-file", "verify",
             "verify-pyramid", "verify-scans", "verify-alpha", "verify-forms", "verify-unknown-suite", "verify-help"],
    )
    def test_a_request_imports_only_what_its_command_runs(self, tmp_path, args, code, modules):
        from staircase_lab.catalog import build_space, case_by_name

        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(build_space(case_by_name("7.3"), 4).to_json_dict()))
        # a plain request is read without argparse; help and usage errors build it;
        # of these requests (none asks for --json) only reading a space file loads json
        standard = (ARGPARSE_MODULES if args[-1] in ("--help", "nope") else set()) | (
            JSON_MODULES if "{space}" in args else set()
        )
        args = [a.format(space=space_file, missing=tmp_path / "missing.json") for a in args]
        base = {"staircase_lab", "staircase_lab.cli", "staircase_lab.errors"}
        assert imported_modules(*args) == (code, base | {f"staircase_lab.{m}" for m in modules}, standard)

    def test_no_module_of_the_package_imports_the_unneeded_standard_modules(self):
        import pkgutil

        import staircase_lab

        names = [m.name for m in pkgutil.walk_packages(staircase_lab.__path__, "staircase_lab.")
                 if m.name != "staircase_lab.__main__"]
        assert len(names) >= 16 and "staircase_lab.suites.alpha" in names
        code = f"import sys, {', '.join(names)}\nprint(sorted(set(sys.modules) & {NOT_IMPORTED!r}))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout == "[]\n"
