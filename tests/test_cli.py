"""CLI behavior: output formats, exit codes, and determinism."""

import contextlib
import hashlib
import importlib
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

# sha256 of the ``hf enum --colength d`` stdout for d = 0..22, text and --json, recorded at commit a68f06a,
# whose enumerator was the recursive walk that the in-place one replaced
ENUM_TEXT_SHA256 = (
    "92f8972fa57a04dd851b31b4930f64b8ccd8305526be5905879861a5481647cd",
    "d42420298a81f7252454b5b1b2e0beb34b8091e6ce08ff7a20192563094adb4d",
    "68ab654132b1bc4d64eab7af2276cfffed8f8b780bb14eec8c232978bb2ca18d",
    "7d0417a581d9500717b371ca972be230e2f1e0aa7d94c6268dcd762f72128988",
    "53629a1bb003607702e67c7090ce9d96780337d51e02cf78188196e50abca169",
    "35e4cf91fb4a3714ecab8671fe3d936dae5bf3b385f59475aa11f43a9dc4f8d7",
    "4daa598197be813ac674fa6c0a97342a9c49435a4bd2dd66adca11d24b44313e",
    "1622f7484892c611c1d41c60f10436b0e227ffd8720f2c71656caf2b1883d9be",
    "9e6e766c0945376b4508d0c5792d4dd0d688ed58d71ee49e4a44fe737e7a913e",
    "88ff9329f02858ebba2c760c97d3168166fa8979b623d7e056de882c1550f94b",
    "ae339154767651e5796551ddcfeaba9da008e87d3eab7b30ebfb5a75becdab0e",
    "38e465f9c00215d8cf995d98b77fea327544e23e856b13e99ff0087ab16f4611",
    "eb77368268075ef9a963f9a91feb23bcd1da25b22599c3c6cbfa2d11aa6351e8",
    "6e6ccb2beb24f2f67c7bd7eab3b5d3e71704966370f19f62424f4b9c913ebd74",
    "f1c94f5f0f81d797025e86f8233611f1c48bc2528649e320eec0627a30ffc592",
    "dcd00567714f0b61ec8ea0ad2795cc4c685a37615a4c8de6c1f0271cba97b756",
    "12ce4158284054436c3a39b5ae81803b28ea8c3ed46a3d7eb19aaed78fe112e3",
    "a521f4b31b9f3a4740c7c02b49e363f0e9b45b6c2e906a6916d9be50a0862ce9",
    "814a17eecb9e91ee4630e7cd4e9bce4383bb09bb0b10c7bc285f86899090b75a",
    "c642bbc50ed9763d615115b319267a11c2af2344e6c135b1339c6075e713cba1",
    "3532b976087b1f75287307096594f388f1c4be9f992bbb0f14b7d9c275bb08b5",
    "318fb30ad767984720c491307d2ea36a7e587ad1d609d5a7d804b3b90a9c8c4f",
    "33bd53c1ce15d7fddc930a39b586108c9e3d5f8306edbf43e3501fee860aa92a",
)
ENUM_JSON_SHA256 = (
    "b6c1fd36b72fd8acb4b9065bf58e5758ee12f314ad8d82345a563911ad325218",
    "319e60d05b41e0f776130bbd6ab1fa2718fecacbe2e916c9e993f5c9e3ebb636",
    "53aeca913deacea7611051981e181b86c0d983d35796eca5c8c5c52bcb7fdd56",
    "7e76259d472a591b184bdaf5d59f7edcdd471cf3682f88423d37e0d320b857c6",
    "ae2f38b2faf44ece3ecf0c06f0680d2922a335c12840527853354483a857a2f6",
    "20e7346cd142b80242256682cb17677f2d22dae4f188ae7727c442cd2116fedc",
    "bc0327dcb754aa4d4aae4c9e55b140d91a1b0a26f60591de5ddd9ee93c63b1f8",
    "a394be07a5754c8b38df595767f7e84aaab1d17aad4a152efdb9e5c8e403e114",
    "a3a6acc17cda23ce2a15dc32c446219f309c06186780b7ed583dd33394c94f74",
    "ee04679c5a6c121b26da45c866b10e5e9f90660d2d0f3b4a52959d0e2992db11",
    "c80e62d6970d5d771a7fee62ce32df256971580972080706393191dc8d0cd2a9",
    "92d19387164b84a72e8ef060fafe152cd6382b394c857bbef066297568835eb5",
    "53b8987611918252e9a29fcb849c555287e9c0717773f63316899b30040575c3",
    "974360f365b78a088dfd25b0abd9139cf3f58c99c765d1f85ec5b5511e1dcd4f",
    "579985cf9a0bbfe79ddbf3d6c72183e1c4c7e2db1f63816db6daad1c33f3b89a",
    "3252d641d6f764c6bd0e5f1582cf18633be2cf35bf387b31fef0a07c5a988d67",
    "7d5ec1e47bef8f25ac9aba7b989fb71f73884706c5cdadc05d5cde2db1b80038",
    "26c5fa209bc6270577d186faebe21a00a6fa23f4c952dfb179345ff7651d87f2",
    "e6a1fef3fbf2b6101af2942bdfec24fb44a85d2c87adcc287e20a2328231ae66",
    "ddc5ff8ff43ee33e4a86d242747169325f53d1bab2524c541c8ade35732e6222",
    "ab503371dfe055120862e18bb85a05c689837ab4a63d996826a50c23d4769620",
    "a098e0c5c42f70607a8fd44504c2fb85123eecf841da1e80b9cbbad3721a2e15",
    "af1fd6b145b586c8a6cb402f2be683c7ad79199e0d5f7cfb529ae60587621b5d",
)


def run_cli(*args, env=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=120, env=env, check=False
    )


def run_in_process(*args):
    """Exit code of ``cli.main``, which maps any exception to 2 or 3."""
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

    @pytest.mark.parametrize("d", range(23))
    def test_enum_output_hashes_are_pinned(self, d):
        for extra, want in (([], ENUM_TEXT_SHA256[d]), (["--json"], ENUM_JSON_SHA256[d])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["hf", "enum", "--colength", str(d), *extra]) == 0
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want, extra

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

    @pytest.mark.parametrize("args,module,name,exc", [
        (["verify", "--suite", "lemma-2-4"], "staircase_lab.suites.forms", "suite_lemma_2_4", ZeroDivisionError),
        (["hf", "enum", "--colength", "6"], "staircase_lab.hilbert", "enumerate_hilbert_functions", ValueError),
    ])
    def test_an_unexpected_exception_is_an_internal_error(self, monkeypatch, args, module, name, exc):
        def broken(*_):
            raise exc("broken on purpose")

        monkeypatch.setattr(importlib.import_module(module), name, broken)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(args) == cli.INTERNAL_EXIT == 3
        assert err.getvalue() == f"internal error: {exc.__name__}: broken on purpose\n"
        assert out.getvalue() == ""

    # the oracle given one more than its weight; the sum evaluation of g* given one more than C(9, 3), which only
    # colength 6 reads (the closed evaluation reads C(e + 1, 3) with e <= d)
    @pytest.mark.parametrize("args,module,name,broken,message", [
        (["pyramid", "max", "--frame", "4", "--colength", "4", "--oracle"], "staircase_lab.pyramids", "max_weight_dp",
         lambda dp: lambda c, d: (dp(c, d)[0] + 1, dp(c, d)[1]), "oracle weight 8 != closed form 7 at (c=4, d=4)"),
        (["verify", "--suite", "gstar-crosscheck", "--max-colength", "6"], "staircase_lab.hilbert", "comb",
         lambda comb: lambda n, k: comb(n, k) + ((n, k) == (9, 3)),
         "genus functional mismatch on (0, 0, 0, 4): 2 != 3"),
    ], ids=["pyramid-max", "verify"])
    def test_an_internal_inconsistency_exits_three(self, monkeypatch, args, module, name, broken, message):
        module = importlib.import_module(module)
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(args) == cli.INTERNAL_EXIT == 3
        assert err.getvalue() == f"internal inconsistency: {message}\n"
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
            (("verify", "--suite", "special-chi", "--max-colength", "8"), 0, ("hilbert", "suites", "suites.hf")),
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
                GRADE_MODULES + ("suites", "suites.alpha"),
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
