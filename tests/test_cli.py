"""Command-line interface tests."""

import ast
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chesscount import anassa_quasipolynomial, bishop_quasipolynomial, cli, count_table

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "chesscount", *args],
        capture_output=True,
        env=env,
        text=False,
        preexec_fn=preexec_fn,
    )


# --- count ---


def test_count_bishop(capsys):
    assert cli.main(["count", "bishop", "8", "2"]) == 0
    assert capsys.readouterr().out == "1736\n"


def test_count_anassa_below(capsys):
    assert cli.main(["count", "anassa", "4", "2", "--below", "2"]) == 0
    assert capsys.readouterr().out == "7\n"


def test_count_negative_board_size(capsys):
    assert cli.main(["count", "anassa", "-1", "3"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_count_json(capsys):
    assert cli.main(["count", "anassa", "4", "2", "--below", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"piece": "anassa", "m": 4, "k": 2, "below": 2, "count": 7}


# --- table ---


def test_table_csv(capsys):
    assert cli.main(["table", "bishop", "2"]) == 0
    assert capsys.readouterr().out == "1\n1,1\n1,4,4\n"
    assert cli.main(["table", "anassa", "2"]) == 0
    assert capsys.readouterr().out == "1\n1,1\n1,4,3\n"


def test_table_tsv(capsys):
    assert cli.main(["table", "anassa", "2", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "1\n1\t1\n1\t4\t3\n"


def test_table_rect(capsys):
    assert cli.main(["table", "anassa", "2", "--rect"]) == 0
    assert capsys.readouterr().out == "1,0,0\n1,1,0\n1,4,3\n"


def test_table_json(capsys):
    assert cli.main(["table", "bishop", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["piece"] == "bishop"
    assert payload["rows"][2] == [1, 4, 4]
    assert payload["rows"][3] == [1, 9, 26, 26, 8]


def test_table_bfile_round_trip(capsys):
    assert cli.main(["table", "anassa", "4", "--format", "bfile", "--offset", "5"]) == 0
    text = capsys.readouterr().out
    start, values = cli.parse_bfile(text)
    assert start == 5
    assert values == count_table("anassa", 4).flatten()


def test_parse_bfile_rejects_index_gaps():
    with pytest.raises(ValueError):
        cli.parse_bfile("0 1\n2 5\n")


# --- coeffs ---


def test_coeffs_csv_collapses_equal_parities(capsys):
    assert cli.main(["coeffs", "bishop", "2"]) == 0
    assert capsys.readouterr().out == "0,-1/3,1/2,-2/3,1/2\n"
    assert cli.main(["coeffs", "anassa", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_coeffs_json_schema(capsys):
    assert cli.main(["coeffs", "bishop", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"piece", "k", "period", "coeffs"}
    assert payload["piece"] == "bishop" and payload["k"] == 3
    assert payload["period"] == 2 and len(payload["coeffs"]) == 2
    for vec in payload["coeffs"]:
        assert len(vec) == 7
        for entry in vec:
            assert re.fullmatch(r"-?\d+/\d+", entry)


def test_coeffs_anassa_period_one(capsys):
    assert cli.main(["coeffs", "anassa", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["period"] == 1 and len(payload["coeffs"]) == 1


# SHA-256 of the JSON stdout at k = 30 and 40, past the k = 20 that the
# interpolation tests reach; taken from the earlier all-Fraction route.
COEFFS_SHA256 = {
    ("bishop", 30): "5aaddc603f402931a2b4c9bb6954d252378e525be11856741853d2401f225d07",
    ("bishop", 40): "13849e830157cd7ffc4058008d07e157a0ddd8a4d3e412a17741a64cd9dbe189",
    ("anassa", 30): "656eec9bea612120480336256c040c65b1f76b271d131a735b6f9f96faa451e1",
    ("anassa", 40): "a58869b89f64eea469da75bcf78117079266c9144599f8469cf9d71f20ecd89a",
}


@pytest.mark.parametrize("piece, k", COEFFS_SHA256)
def test_coeffs_json_is_pinned_up_to_k_40(capsys, piece, k):
    assert cli.main(["coeffs", piece, str(k), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == COEFFS_SHA256[piece, k]


# --- output redirection ---


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert cli.main(["table", "bishop", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == "1\n1,1\n1,4,4\n"


def test_out_failure_reports_path_and_cause(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.csv"
    assert cli.main(["table", "bishop", "2", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert str(target) in err and "cannot write" in err


# --- usage errors exit with status 2 ---


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "queen", "4", "1"],
        ["count", "bishop", "4", "-1"],
        ["count", "bishop", "4", "2", "--below", "1"],
        ["count", "anassa", "4", "2", "--below", "-1"],
        ["count", "bishop", "4", "2", "--format", "bfile"],
        ["coeffs", "bishop", "-2"],
        ["coeffs", "bishop", "2", "--format", "bfile"],
        ["table", "bishop", "-3"],
        ["table", "bishop", "4", "--format", "yaml"],
        ["table", "bishop", "3", "--offset", "5"],
        ["verify", "everything"],
        ["verify", "identities", "--m-max", "-1"],
        ["verify", "coeffs", "--k-max", "-1"],
        ["verify", "oracle", "--k-max", "3"],
        ["verify", "coeffs", "--m-max", "2"],
        ["verify", "collapse", "--m-max", "3", "--format", "json"],
    ],
)
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "oracle", "--k-max", "3"],
        ["verify", "collapse", "--m-max", "3", "--format", "json"],
        ["count", "bishop", "3", "2", "--bogus"],
    ],
)
def test_usage_error_shows_the_subcommands_usage(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: chesscount {argv[0]}")


# --- imports: each subcommand loads only the layers it runs ---


def modules_after(code):
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``.

    ``-S`` skips ``site``, so no ``.pth`` file preloads modules of its own.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"import sys\n{code}\nprint(sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, env=env, text=True
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def test_count_and_table_load_no_other_layer_or_heavy_library():
    runs = [
        ["count", "bishop", "8", "2"],
        ["count", "anassa", "8", "3", "--below", "1"],
        ["table", "bishop", "12", "--format", "bfile"],
    ]
    loaded = modules_after(f"from chesscount import cli\nfor argv in {runs!r}: cli.main(argv)")
    unwanted = {
        "dataclasses", "inspect", "fractions", "decimal", "json", "typing",
        "chesscount.board", "chesscount.quasipoly", "chesscount.verify",
    }
    assert loaded & unwanted == set()
    assert "chesscount.formulas" in loaded


def test_coeffs_loads_no_dataclasses_inspect_or_json():
    loaded = modules_after("from chesscount import cli\ncli.main(['coeffs', 'bishop', '3'])")
    assert loaded & {"dataclasses", "inspect", "json"} == set()
    assert "chesscount.quasipoly" in loaded


@pytest.mark.parametrize(
    "argv, unwanted",
    [
        (["verify", "oracle", "--m-max", "4"], {"chesscount.quasipoly", "fractions", "decimal"}),
        (["verify", "collapse", "--m-max", "4"], {"chesscount.quasipoly", "fractions", "decimal"}),
        (
            ["verify", "identities", "--m-max", "2", "--k-max", "1"],
            {"chesscount.quasipoly", "fractions", "decimal"},
        ),
        (["verify", "coeffs", "--k-max", "2"], {"chesscount.board"}),
    ],
)
def test_verify_loads_only_the_layers_its_suite_uses(argv, unwanted):
    loaded = modules_after(f"from chesscount import cli\ncli.main({argv!r})")
    assert loaded & unwanted == set()
    assert "chesscount.verify" in loaded


def test_bare_package_import_loads_no_submodule():
    loaded = modules_after("import chesscount")
    assert "chesscount" in loaded
    assert {name for name in loaded if name.startswith("chesscount.")} == set()


# --- reach: large boards in bounded memory ---


def _limit_address_space():
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "piece, quasipolynomial",
    [("bishop", bishop_quasipolynomial), ("anassa", anassa_quasipolynomial)],
)
def test_large_board_count_fits_in_512_mib(piece, quasipolynomial):
    # The closed form at m = 4000 against the quasipolynomial, a third route.
    result = run_cli("count", piece, "4000", "2", preexec_fn=_limit_address_space)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{quasipolynomial(2).evaluate(4000)}\n".encode()


# --- verify ---


def test_verify_fast_suites_pass(capsys):
    assert cli.main(["verify", "coeffs", "--k-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out and "FAIL" not in out


VERIFY_ALL = """\
ok    bishop closed form vs brute force (39 checks)
ok    anassa closed form vs brute force (33 checks)
ok    anassa diagonal split vs brute force (77 checks)
ok    bishop counts factor over the two colors (27 checks)
ok    extended binomials: Pascal rule and symmetry (881 checks)
ok    extended Stirling: first/second kind duality (169 checks)
ok    first-kind alternating row sums vanish (13 checks)
ok    central binomial alternating sum (21 checks)
ok    second-kind Stirling via block-size expansion (189 checks)
ok    one-color rook counts: three routes agree (693 checks)
ok    even boards: the two colors agree (121 checks)
ok    bishop counts: three routes agree (286 checks)
ok    anassa split: recurrence, closed form, and total agree (819 checks)
ok    two bishops: explicit quartic (21 checks)
ok    size -1 evaluates to k! for both pieces (18 checks)
ok    saturated anassa count: two summations and the closed form (18 checks)
ok    binomial basis change identity (825 checks)
ok    inductive subset collapse (12 checks)
ok    bishop quasipolynomial round trip (55 checks)
ok    anassa polynomial round trip (55 checks)
ok    one-color rook coefficient round trip (110 checks)
ok    coefficient structure: periods, divisibility, denominators (44 checks)
summary: 22 check groups, 4526 checks, 0 failures
"""


def test_verify_output_is_frozen(capsys):
    # Every group keeps its name and its number of checked points.
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL
    assert cli.main(["verify", "identities", "--m-max", "28", "--k-max", "10"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "summary: 13 check groups, 4849 checks, 0 failures"


@pytest.mark.parametrize("route", ["white_rooks_alt", "black_rooks_alt"])
def test_verify_reports_failures(monkeypatch, capsys, route):
    monkeypatch.setattr(f"chesscount.formulas.{route}", lambda m, k: -7)
    assert cli.main(["verify", "identities", "--m-max", "4", "--k-max", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  bishop counts: three routes agree" in out
    if route == "white_rooks_alt":
        assert "got -7" in out


def test_verify_fails_a_group_that_checked_nothing(capsys):
    # The collapse runs from m = 1, so a bound of 0 leaves it no points.
    assert cli.main(["verify", "collapse", "--m-max", "0"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  inductive subset collapse (0 checks, 0 failed)\n")


# --- determinism across processes ---


def test_byte_identical_runs():
    for args in (
        ["table", "bishop", "7", "--format", "bfile"],
        ["coeffs", "bishop", "3", "--format", "json"],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout
