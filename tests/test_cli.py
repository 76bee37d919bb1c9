"""Command-line interface tests."""

import ast
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc

import pytest

from chesscount import (
    anassa_quasipolynomial,
    anassas_split,
    bishop_quasipolynomial,
    board,
    cli,
    commands,
    count,
    count_table,
    effective_period,
    verify,
)
from helpers import SRC, child_env, read_bfile, run_cli, uncapped

ROOT = SRC.parent


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


def test_counts_past_the_int_text_cap_print():
    # 1700! has 4,760 digits, past the interpreter's default cap of 4,300 on
    # int-to-text conversion.  The CLI runs in a child with the default cap;
    # this process lifts it only to write the answer.
    with uncapped():
        value = str(math.factorial(1700))
    payload = f'{{"piece": "anassa", "m": -1, "k": 1700, "count": {value}}}\n'
    for fmt, want in (("csv", f"{value}\n"), ("json", payload)):
        done = run_cli("count", "anassa", "-1", "1700", "--format", fmt)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode() == want, fmt


def test_argv_stays_capped_after_a_call(capsys):
    # The CLI lifts the int-to-text cap only while a request runs, so a later
    # call in the same process still refuses a 5,001-digit m as a usage error.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-text cap")
    cap = sys.get_int_max_str_digits()
    assert cli.main(["count", "anassa", "1", "0"]) == 0
    assert sys.get_int_max_str_digits() == cap
    with pytest.raises(SystemExit) as exited:
        cli.main(["count", "anassa", "1" * 5001, "0"])
    assert exited.value.code == 2
    assert sys.get_int_max_str_digits() == cap
    capsys.readouterr()


@pytest.mark.parametrize(
    "piece, m, k, below",
    [
        ("bishop", 8, 2, None),
        ("anassa", 8, 3, None),
        ("anassa", 4, 2, 2),
        ("anassa", 8, 3, 1),
        ("bishop", -3, 4, None),
        ("anassa", -5, 4, None),
        ("anassa", -2, 3, 1),
        ("anassa", -1, 1700, None),  # 1700!, past the cap; as in the test above
    ],
)
def test_count_json_is_the_bytes_of_json_dumps(piece, m, k, below, capsys):
    argv = ["count", piece, str(m), str(k), "--format", "json"]
    payload = {"piece": piece, "m": m, "k": k}
    if below is None:
        payload["count"] = count(piece, m, k)
    else:
        argv += ["--below", str(below)]
        payload["below"] = below
        payload["count"] = anassas_split(m, k, below)
    assert cli.main(argv) == 0
    with uncapped():
        assert capsys.readouterr().out == json.dumps(payload) + "\n"


@pytest.mark.parametrize("piece", ["bishop", "anassa"])
def test_coeffs_json_is_the_bytes_of_json_dumps(piece, capsys):
    # k = 0..6 holds negative, whole-number and zero coefficients, and both periods.
    quasipolynomial = bishop_quasipolynomial if piece == "bishop" else anassa_quasipolynomial
    for k in range(7):
        assert cli.main(["coeffs", piece, str(k), "--format", "json"]) == 0
        coeffs = quasipolynomial(k).coeffs
        period = effective_period(coeffs)
        payload = {
            "piece": piece,
            "k": k,
            "period": period,
            "coeffs": [[f"{c.numerator}/{c.denominator}" for c in vec] for vec in coeffs[:period]],
        }
        assert capsys.readouterr().out == json.dumps(payload) + "\n", k


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
    start, values = read_bfile(text)
    assert start == 5
    assert values == [value for row in count_table("anassa", 4) for value in row]


def test_table_writes_stdout_once_per_row(monkeypatch):
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    rows = [list(row) for row in count_table("anassa", 30)]
    assert cli.main(["table", "anassa", "30"]) == 0
    assert writes == [",".join(map(str, row)) + "\n" for row in rows]
    # json: the head, then one chunk per row, then the tail.
    writes.clear()
    assert cli.main(["table", "anassa", "30", "--format", "json"]) == 0
    head, *body, tail = writes
    assert head.endswith('"rows": [') and tail == "]}\n"
    assert [json.loads(chunk.removeprefix(", ")) for chunk in body] == rows
    # bfile: the header, then one chunk per row.
    writes.clear()
    assert cli.main(["table", "anassa", "30", "--format", "bfile"]) == 0
    header, *body = writes
    assert header.startswith("# ") and "\n# single running index" in header
    assert [[int(line.split()[1]) for line in chunk.splitlines()] for chunk in body] == rows


@pytest.mark.parametrize("fmt", ["csv", "tsv", "bfile", "json"])
def test_bfile_table_peaks_below_the_size_of_its_file(tmp_path, fmt):
    # Each row is made, formatted and written before the next, so neither
    # the table nor the output is ever held whole.  ``rows`` is loaded
    # already, so its import is not traced.
    path = tmp_path / "anassa.txt"
    tracemalloc.start()
    try:
        assert cli.main(["table", "anassa", "200", "--format", fmt, "--out", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8


@pytest.mark.parametrize("piece", ["bishop", "anassa"])
def test_table_json_is_the_bytes_of_json_dumps(piece, capsys):
    for m_max in (0, 1, 2, 7, 40):
        for rect in (False, True):
            argv = ["table", piece, str(m_max), "--format", "json"] + ["--rect"] * rect
            assert cli.main(argv) == 0
            rows = [list(row) for row in count_table(piece, m_max, rect=rect)]
            payload = {"piece": piece, "m_max": m_max, "rect": rect, "rows": rows}
            assert capsys.readouterr().out == json.dumps(payload) + "\n", (m_max, rect)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_pipe_exits_1_without_a_traceback(fmt, unbuffered):
    # The table runs to megabytes, far past what the pipe buffers, so the
    # child meets the closed pipe on a write, not only at its exit flush.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "chesscount", "table", "anassa", "300", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert b"Traceback" not in stderr, stderr.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [["count", "bishop", "8", "2"], ["table", "bishop", "8"], ["verify", "collapse", "--m-max", "3"]],
)
def test_unwritable_stdout_exits_1_with_a_message(argv):
    with open("/dev/full", "wb") as full:
        done = run_cli(*argv, stdout=full)
    assert done.returncode == 1
    stderr = done.stderr.decode()
    assert stderr.startswith("cannot write stdout: "), stderr
    assert "Traceback" not in stderr, stderr


# --- the process entry: main, then gc.freeze ---


@pytest.mark.parametrize(
    "argv, code, out",
    [(["count", "bishop", "8", "2"], 0, b"1736\n"), (["count", "bishop", "8", "-1"], 2, b"")],
)
def test_entry_freezes_and_still_runs_atexit_handlers(argv, code, out):
    script = (
        "import atexit, gc, sys\n"
        "from chesscount import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['chesscount', *{argv!r}]\n"
        "sys.exit(cli.run())\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=child_env())
    assert done.returncode == code
    assert done.stdout == out
    *_, last = done.stderr.decode().splitlines()
    assert last.startswith("frozen ") and int(last.split()[1]) > 0, done.stderr.decode()


def test_main_leaves_the_collector_unfrozen(capsys):
    # Tests and the benchmark's tracer call main many times in one process;
    # frozen objects would never be collected there.
    before = gc.get_freeze_count()
    assert cli.main(["count", "bishop", "8", "2"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


# The last two are refusals raised outside ``cli``, by ``rows`` and ``verify``.
@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["count", "bishop", "8", "-1"],
        ["table", "bishop", "-3"],
        ["verify", "oracle", "--k-max", "3"],
    ],
)
def test_entry_prints_what_main_prints_for_help_and_usage_errors(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    captured = capsys.readouterr()
    done = run_cli(*argv)
    assert done.returncode == excinfo.value.code
    assert (done.stdout.decode(), done.stderr.decode()) == (captured.out, captured.err)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_entry_output_arrives_complete(unbuffered, capsys, monkeypatch):
    # 75 KB, more than a pipe holds, so the child's writes wait on the reader.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    assert cli.main(["table", "anassa", "60"]) == 0
    done = run_cli("table", "anassa", "60")
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == capsys.readouterr().out


def test_every_launch_calls_the_one_entry():
    # An installed script pointing elsewhere would skip the freeze, and a
    # module run as a script is a second copy of itself, whose ``main`` does
    # not catch the refusals the package raises.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts["chesscount"] == "chesscount.cli:run"
    launches = {}
    for path in sorted((SRC / "chesscount").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"
                or isinstance(node, ast.Compare) and "__name__" in ast.unparse(node)
            ):
                launches.setdefault(path.name, []).append(node)
    assert list(launches) == ["__main__.py"]
    [call] = launches["__main__.py"]
    assert f"chesscount.cli:{call.args[0].func.id}" == scripts["chesscount"]


# --- coeffs ---


def test_coeffs_csv_collapses_equal_parities(capsys):
    assert cli.main(["coeffs", "bishop", "2"]) == 0
    assert capsys.readouterr().out == "0,-1/3,1/2,-2/3,1/2\n"
    assert cli.main(["coeffs", "anassa", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


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


# --- usage errors exit with status 2 and print the subcommand's usage ---


# SHA-256 of [exit code, stdout, stderr] as JSON, at 80 columns, that each
# argv printed when the CLI still read every request with argparse.
# argparse's wording changes between Python versions, so the digests hold
# only for the version they were taken under; every line but the help
# requests is also a usage error checked on every version.
ARGPARSE_ONLY_SHA256 = {
    "--help": "5e431a1cbc53e58cfdf8e789e2aacb322f5b1228c422930f2525e7ef02ccfd2d",
    "count --help": "d39f95824b9f1865efadcff80b6dca58c21623f909913bac268b7d2a283905d7",
    "table --help": "8e54758708ceb6ec9b063ba9376ffae6e2fbf4e295dd1a2f2c34f7706e44a258",
    "coeffs --help": "09678a4ae7824ce4ea77ba61ba4d62d89ed815b22d35e00a23ad9dded322b81e",
    "verify --help": "0f6483aa18b9108a582c1e95e49b3b01c6b53d6e6f72b370990b6a7f65f2d8d6",
    "count queen 4 1": "68bf999ca69a5c76bdd2be430848b05f874d49885bea9ae357d5d2a45a6ec6d7",
    "count bishop 4 -1": "863b588e2a425d74a02b48c568e721746e86a824cd16dfddf894f9f3c076560e",
    "count bishop 4 2 --below 1": "1a4b48acceff0094dd826274dab34195ad51fc0242681ea549ce6753643b0e0d",
    "count anassa 4 2 --below -1": "3dbf9d342f9213aa36148b29d49b0a0c6c79640e76ed20a75cebeb0c25258fa6",
    "count bishop 4 2 --format bfile": "4b6243718087c3580c8b78f8445de58c992f6240d2cdac5a5a5b4ecab351e766",
    "coeffs bishop -2": "dd6920ac6fafa6150faf60df54a45d9a9849d9f938dec0e29fdd319d53ade699",
    "coeffs bishop 2 --format bfile": "d2ba9199fbb3003233ca8ed208730380436336428a1c6c1c43f3102ac2d9f983",
    "table bishop -3": "cd43953732d6d0f1659fe4e81253bfd6bc979085b86ed8dc368cc53e53b874b4",
    "table bishop 4 --format yaml": "ff7014a2d93800f1c7b97103c790a3fd1a00b0758ee89288224bc4b17b50aa0a",
    "table bishop 3 --offset 5": "4b69120e1de11d9afe040f9859732e643abb2401d513c30e5ac5af97e185c331",
    "verify everything": "e3812db03edd5708af50ed8fb3a2b3fedf8f43d37d1af3037c9d9b9b29b735e9",
    "verify identities --m-max -1": "255906471ad5c9b08ae076626eeefec9f09feeacd66f1480d91712f1fbdc4d88",
    "verify coeffs --k-max -1": "a8c1a6cb4c68385ad37ae760ea9adda89b1290d781874ab4a0de4fff563d46af",
    "verify oracle --k-max 3": "abbcfeaeb0078f68d3be604e8c615536dd0b2ee9ccc78be1bb6efced417057c8",
    "verify coeffs --m-max 2": "4e9492088a7bec8f9b458ac81067b6604311cb64c92f2348e0f1c82c4efb6825",
    "verify collapse --m-max 3 --format json": "2758a0b97516ddb65efbfed2321dfddb8ebc79e868529dc28cb51d556c3b785c",
    "count bishop 3 2 --bogus": "e496e2496297f273dd4b8dc776a8410a77d2d4e60bfe0dbfe5980a04ae8c0cd8",
}


@pytest.mark.parametrize(
    "argv", [line.split() for line in ARGPARSE_ONLY_SHA256 if "--help" not in line]
)
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: chesscount {argv[0]}")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests taken under Python 3.11")
@pytest.mark.parametrize("line", ARGPARSE_ONLY_SHA256)
def test_help_and_usage_errors_print_what_argparse_alone_printed(line, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(line.split())
    captured = capsys.readouterr()
    printed = json.dumps([excinfo.value.code, captured.out, captured.err])
    assert hashlib.sha256(printed.encode()).hexdigest() == ARGPARSE_ONLY_SHA256[line]


# --- the direct reader: plain argv without argparse ---


def argparse_fields(parser, argv):
    """The fields argparse reads from ``argv``, without the subcommand parser it records."""
    args, extra = parser.parse_known_args(argv)
    assert not extra
    fields = vars(args)
    del fields["parser"]
    return fields


def test_reader_reads_every_benchmark_request_as_argparse_does():
    parser = commands.build_parser()
    pins = json.loads((ROOT / "bench" / "pins.json").read_text())["pins"]
    for line in pins:
        request = cli._read(line.split())
        assert request is not None, line
        assert vars(request) == argparse_fields(parser, line.split()), line


@pytest.mark.parametrize(
    "argv, read",
    [
        (["count", "--format", "json", "--below", "1", "anassa", "5", "3"], True),
        (["table", "anassa", "--rect", "3", "--offset", "2", "--format", "bfile"], True),
        (["count", "anassa", "1_000", "2"], True),
        (["count", "anassa", " 7", "2"], True),
        (["verify", "all", "--k-max", "2", "--m-max", "3"], True),
        (["count", "anassa", "-1", "3"], False),
        (["count", "bishop", "3", "2", "--format=json"], False),
        (["count", "bishop", "3", "2", "--form", "json"], False),
        (["count", "bishop", "3", "2", "--format", "json", "--format", "tsv"], False),
        (["table", "anassa", "3", "--rect", "--rect"], False),
        (["count", "bishop", "3", "2", "--out", "-"], False),
        (["coeffs", "bishop", "3", "--help"], False),
        (["-h"], False),
        ([], False),
        (["tally", "bishop", "3"], False),
        (["count", "queen", "3", "2"], False),
        (["count", "bishop", "three", "2"], False),
        (["count", "bishop", "3"], False),
        (["count", "bishop", "3", "2", "1"], False),
        (["count", "bishop", "3", "2", "--below"], False),
        (["verify", "all", "--format", "json"], False),
    ],
)
def test_reader_reads_plain_argv_as_argparse_does_and_declines_the_rest(argv, read):
    request = cli._read(argv)
    if not read:
        assert request is None
    else:
        assert vars(request) == argparse_fields(commands.build_parser(), argv)


# --- imports: each subcommand loads only the layers it runs ---


def test_each_subcommand_has_one_home_that_defines_its_handler():
    for name, (home, _, _) in cli.GRAMMAR.items():
        module = importlib.import_module(f"chesscount.{home}")
        assert callable(vars(module).get(f"_cmd_{name}")), (name, home)


def test_the_grammars_copied_lists_match_their_owners():
    # cli spells out the pieces and the suites, as importing board or verify
    # would compile them on every request.
    arguments = {name: dict(entry[2]) for name, entry in cli.GRAMMAR.items()}
    for name in ("count", "table", "coeffs"):
        assert arguments[name]["piece"]["choices"] == tuple(board.PIECES), name
    assert arguments["verify"]["suite"]["choices"] == (*verify.SUITES, "all")


def modules_after(code):
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``.

    ``-S`` skips ``site``, so no ``.pth`` file preloads modules of its own.
    """
    script = f"import sys\n{code}\nprint(sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, env=child_env(), text=True
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def _request(package, *argv):
    code = f"from chesscount import cli\ncli.main({list(argv)!r})"
    return pytest.param(code, package, id="-".join(argv).replace("--", ""))


COUNT = {"cli", "formulas", "kernel"}
TABLE = {"cli", "rows", "poly"}
COEFFS = {"cli", "quasipoly", "kernel", "poly"}

# Each request and exactly the package modules it loads.  A request in plain
# form loads neither ``commands`` nor argparse, and no layer it does not run.
# The ``verify`` requests are pinned in ``VERIFY_LAYERS`` below.
MODULE_SETS = [
    _request(COUNT, "count", "bishop", "8", "2"),
    _request(COUNT, "count", "bishop", "8", "2", "--format", "json"),
    _request(COUNT, "count", "anassa", "8", "3", "--below", "1"),
    _request(COUNT, "count", "anassa", "8", "3", "--below", "1", "--format", "json"),
    _request(TABLE, "table", "bishop", "12", "--format", "bfile"),
    *(
        _request(TABLE, "table", piece, "6", "--format", fmt)
        for fmt in ("csv", "tsv", "bfile", "json")
        for piece in ("bishop", "anassa")
    ),
    _request(TABLE, "table", "bishop", "6", "--rect"),
    _request(TABLE, "table", "anassa", "6", "--format", "bfile", "--offset", "3"),
    _request(COEFFS, "coeffs", "bishop", "3"),
    _request(COEFFS, "coeffs", "anassa", "3", "--format", "json"),
    _request(COEFFS, "coeffs", "anassa", "3", "--format", "tsv"),
    pytest.param("import chesscount", set(), id="import-chesscount"),
    pytest.param(
        "from chesscount import verify\n"
        "try:\n    verify.check_bounds('everything', m_max=3)\n"
        "except ValueError as exc:\n    assert 'unknown suite' in str(exc)\n"
        "else:\n    raise AssertionError('accepted')",
        {"verify"},
        id="check-bounds-unknown-suite",
    ),
]

# No request loads these.  A request in plain form is read without argparse,
# and so without the gettext and locale it imports; nothing in the package
# starts a thread; the CLI writes its own JSON.
UNWANTED = {"dataclasses", "inspect", "typing", "json", "argparse", "gettext", "locale", "threading"}


def loads_exactly(code, package):
    """What ``code`` loads, checked to be exactly the ``chesscount`` modules in
    ``package`` and no module beyond what importing those loads: the code run
    imports nothing more."""
    loaded = modules_after(code)
    modules = {f"chesscount.{name}" for name in package}
    assert {name for name in loaded if name.startswith("chesscount.")} == modules
    assert loaded == modules_after("\n".join(["import chesscount", *map("import {}".format, modules)]))
    return loaded


@pytest.mark.parametrize("code, package", MODULE_SETS)
def test_each_request_loads_exactly_its_layers(code, package):
    # Fractions and decimals come only with quasipoly.
    loaded = loads_exactly(code, package)
    unwanted = UNWANTED if "quasipoly" in package else UNWANTED | {"fractions", "decimal"}
    assert loaded & unwanted == set()


# Each ``verify`` request and the suite module and layers it loads besides
# ``cli`` and ``verify``: no ``commands``, and no suite module it does not run.
# The oracle suite takes its bounds from its own search, so it loads no ``rows``.
VERIFY_LAYERS = [
    (["verify", "oracle", "--m-max", "4"], {"verify_board", "formulas", "kernel", "board", "poly"}),
    (["verify", "collapse", "--m-max", "4"], {"verify_board", "board"}),
    (
        ["verify", "identities", "--m-max", "2", "--k-max", "1"],
        {"verify_identities", "formulas", "rows", "kernel", "poly"},
    ),
    (
        ["verify", "coeffs", "--k-max", "2"],
        {"verify_coeffs", "formulas", "quasipoly", "kernel", "poly"},
    ),
    (
        ["verify", "all", "--k-max", "2"],
        {
            "verify_board", "verify_identities", "verify_coeffs",
            "formulas", "rows", "kernel", "board", "quasipoly", "poly",
        },
    ),
]


@pytest.mark.parametrize("argv, layers", VERIFY_LAYERS)
def test_board_suites_load_their_layers_and_nothing_else(argv, layers):
    loads_exactly(f"from chesscount import cli\ncli.main({argv!r})", {"cli", "verify", *layers})


@pytest.mark.parametrize(
    "argv, unwanted",
    [
        (argv, set() if "quasipoly" in layers else {"fractions", "decimal"})
        for argv, layers in VERIFY_LAYERS
    ],
)
def test_verify_loads_only_the_layers_its_suite_uses(argv, unwanted):
    # The libraries no request loads; fractions and decimals come only with quasipoly.
    loaded = modules_after(f"from chesscount import cli\ncli.main({argv!r})")
    assert loaded & (unwanted | UNWANTED) == set()


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
    monkeypatch.setattr(f"chesscount.verify_identities.{route}", lambda m, k: -7)
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
