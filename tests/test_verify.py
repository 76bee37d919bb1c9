"""Every ``verify`` group as its own test, at the bounds in conftest.py.

The groups are the only copy of the identity and cross-route batteries;
select one with ``pytest -k <group id>``.  A test fails when its group
failed, checked nothing, or its suite raised.
"""

import ast
import importlib
import inspect
import re
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from chesscount import (
    board, cli, formulas, kernel, poly, quasipoly, rows, verify, verify_coeffs, verify_identities
)
from chesscount.verify import SUITES
from chesscount.verify_board import suite_oracle
from chesscount.verify_coeffs import suite_coeffs
from chesscount.verify_identities import suite_identities

# The runner and every suite module: ``verify.py`` and its ``verify_*.py`` siblings.
VERIFY_FILES = sorted(Path(verify.__file__).parent.glob("verify*.py"))

GROUPS = [
    ("oracle", "bishop closed form vs brute force"),
    ("oracle", "anassa closed form vs brute force"),
    ("oracle", "anassa diagonal split vs brute force"),
    ("oracle", "bishop counts factor over the two colors"),
    ("identities", "extended binomials: Pascal rule and symmetry"),
    ("identities", "extended Stirling: first/second kind duality"),
    ("identities", "first-kind alternating row sums vanish"),
    ("identities", "central binomial alternating sum"),
    ("identities", "second-kind Stirling via block-size expansion"),
    ("identities", "one-color rook counts: three routes agree"),
    ("identities", "even boards: the two colors agree"),
    ("identities", "bishop counts: three routes agree"),
    ("identities", "anassa split: recurrence, closed form, and total agree"),
    ("identities", "two bishops: explicit quartic"),
    ("identities", "size -1 evaluates to k! for both pieces"),
    ("identities", "saturated anassa count: two summations and the closed form"),
    ("identities", "binomial basis change identity"),
    ("collapse", "inductive subset collapse"),
    ("coeffs", "bishop quasipolynomial round trip"),
    ("coeffs", "anassa polynomial round trip"),
    ("coeffs", "one-color rook coefficient round trip"),
    ("coeffs", "coefficient structure: periods, divisibility, denominators"),
]


def group_id(name: str) -> str:
    """The group name with each run of non-alphanumerics as '-', so ``-k`` takes it whole."""
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


@pytest.mark.parametrize("suite, group", GROUPS, ids=[group_id(g) for _, g in GROUPS])
def test_group(verify_suite, suite, group):
    result = verify_suite(suite)[group]
    assert result.ok, f"{result.checks} checks, failures {result.failures[:5]}"


def test_groups_are_the_engines_groups(verify_suite):
    engine = [(suite, name) for suite in SUITES for name in verify_suite(suite)]
    assert engine == GROUPS
    assert len({group_id(g) for _, g in GROUPS}) == len(GROUPS)


@pytest.mark.parametrize("broken_z", [-1, 0, 1])
def test_basis_change_identity_catches_a_wrong_row(monkeypatch, broken_z):
    # One entry off at each z in turn, so the group must check all three.
    def group():
        results = suite_identities(m_max=2, k_max=1)
        return next(r for r in results if r.name == "binomial basis change identity")

    assert group().ok
    rows = verify_identities._basis_change_rows

    def one_entry_off(q, z, p_max):
        for p, row in enumerate(rows(q, z, p_max)):
            yield [w + 1 if (p, q, z, i) == (3, 2, broken_z, 2) else w for i, w in enumerate(row)]

    monkeypatch.setattr(verify_identities, "_basis_change_rows", one_entry_off)
    broken = group()
    assert broken.checks == 825
    assert broken.failures and all(f.startswith(f"p=3 q=2 z={broken_z} ") for f in broken.failures)


def test_coeffs_suite_builds_each_rook_vector_once(monkeypatch):
    calls = []
    build = quasipoly._rook_vectors

    def counted(k, z):
        calls.append((k, z))
        return build(k, z)

    monkeypatch.setattr(quasipoly, "_rook_vectors", counted)
    assert all(r.ok for r in suite_coeffs(6))
    assert sorted(calls) == [(k, z) for k in range(7) for z in (-1, 0, 1)]


def test_verify_reads_no_private_quasipoly_name():
    for path in VERIFY_FILES:
        assert "quasipoly._" not in path.read_text(encoding="utf-8")


def test_verify_reads_no_private_board_name():
    # The suites read ``board`` through one handle, as ``board.<name>``.
    nodes = [
        node
        for path in VERIFY_FILES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not [n for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "board"]
    names = [
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "board"
    ]
    assert "placement_profile" in names
    assert not [name for name in names if name.startswith("_")]


def test_verify_files_are_the_runner_and_its_suite_modules():
    assert [path.stem for path in VERIFY_FILES] == sorted({"verify", *SUITES.values()})


@pytest.mark.parametrize("suite", SUITES)
def test_check_bounds_accepts_exactly_the_suites_parameters(suite):
    # The registry names a module, not the bounds: they are read from the
    # suite function's parameters, so the two cannot drift apart.
    function = getattr(importlib.import_module(f"chesscount.{SUITES[suite]}"), f"suite_{suite}")
    parameters = set(inspect.signature(function).parameters)
    for bound in ("m_max", "k_max"):
        if bound in parameters:
            assert verify.check_bounds(suite, **{bound: 1}) == [(function, {bound: 1})]
        else:
            with pytest.raises(ValueError, match=f"takes no {bound}"):
                verify.check_bounds(suite, **{bound: 1})


def test_the_plan_of_all_passes_each_bound_to_the_suites_that_take_it():
    plan = verify.check_bounds("all", k_max=2)
    assert [(suite.__name__, kwargs) for suite, kwargs in plan] == [
        ("suite_oracle", {}),
        ("suite_identities", {"k_max": 2}),
        ("suite_collapse", {}),
        ("suite_coeffs", {"k_max": 2}),
    ]


def test_verify_plans_each_request_once(monkeypatch):
    calls = []
    planner = verify.check_bounds

    def counted(*args):
        calls.append(args)
        return planner(*args)

    monkeypatch.setattr(verify, "check_bounds", counted)
    assert cli.main(["verify", "collapse", "--m-max", "3"]) == 0
    assert calls == [("collapse", 3, None)]


def test_run_suite_runs_the_plan_it_is_given(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_suite planned again")

    monkeypatch.setattr(verify, "check_bounds", refuse)
    first, second = verify.CheckResult("first"), verify.CheckResult("second")
    plan = [(lambda: [first], {}), (lambda m_max: [second, m_max], {"m_max": 4})]
    assert verify.run_suite(plan) == [first, second, 4]


def test_every_suite_function_is_registered():
    defined = {
        name[len("suite_"):]
        for module in set(SUITES.values())
        for name in vars(importlib.import_module(f"chesscount.{module}"))
        if name.startswith("suite_")
    }
    assert defined == set(SUITES)


def test_duality_compares_against_the_rising_factorial(monkeypatch):
    def group():
        results = suite_identities(m_max=2, k_max=1)
        return next(r for r in results if r.name == "extended Stirling: first/second kind duality")

    assert group().ok
    # One interior first-kind entry off, c(5, 3), and every entry built from it.
    monkeypatch.setattr(
        kernel, "_STIRLING1", kernel._Diagonals(lambda t, c: (t + c - 1 + ((t, c) == (2, 3)), 1))
    )
    broken = group()
    assert broken.checks == 169
    assert broken.failures and broken.failures[0].startswith("duality n=3 k=5:")


def _searches(monkeypatch):
    # Every board search, as its (board, moves) pair whatever squares it
    # splits on; nothing caches them.
    calls = []
    search = board.placement_profile

    def counted(board_, moves, marked):
        calls.append((board_, moves))
        return search(board_, moves, marked)

    monkeypatch.setattr(board, "placement_profile", counted)
    return calls


def test_oracle_computes_each_profile_once(monkeypatch):
    calls = _searches(monkeypatch)
    assert all(r.ok for r in suite_oracle(10))
    # At m = 1 the empty black board is the set that the 0 x 0 board was.
    assert (len(calls), len(set(calls))) == (41, 40)


def test_oracle_and_collapse_search_as_often_as_they_read(monkeypatch):
    # The collapse suite reads 20 square boards that the oracle read before,
    # and at m = 1 each piece's reduced board is the empty 0 x 0 board; each
    # suite keeps only what it reads twice itself.
    calls = _searches(monkeypatch)
    assert all(r.ok for r in verify.run_suite(verify.check_bounds("all", m_max=10)))
    assert (len(calls), len(set(calls))) == (81, 58)


def test_oracle_builds_each_square_board_once_per_reader(monkeypatch):
    # Only the suite's own board: the color boards split it, and the anassa
    # split reads the profile of the suite's board.
    sizes = []
    build = board.square_board

    def counted(m):
        sizes.append(m)
        return build(m)

    monkeypatch.setattr(board, "square_board", counted)
    assert all(r.ok for r in suite_oracle(10))
    assert sizes == list(range(11))


def test_oracle_compares_the_named_closed_forms(monkeypatch):
    # "closed form vs brute force" stays true whatever route ``count`` takes.
    def refuse(piece, m, k):
        raise AssertionError("suite_oracle called formulas.count")

    monkeypatch.setattr(formulas, "count", refuse)
    results = suite_oracle(5)
    assert all(r.ok for r in results)
    assert [r.checks for r in results] == [39, 33, 77, 27]


def test_color_split_compares_each_color_with_its_rook_count(monkeypatch):
    # A split that leaves white empty still factors the bishop counts.
    monkeypatch.setattr(board, "bishop_color_board", lambda square: (frozenset(), square))
    failed = [r for r in suite_oracle(5) if not r.ok]
    assert [r.name for r in failed] == ["bishop counts factor over the two colors"]
    assert failed[0].failures[0].startswith("color split m=1 k=1:")


def test_oracle_groups_stay_apart(monkeypatch):
    anassas = formulas.anassas
    monkeypatch.setattr(formulas, "anassas", lambda m, k: anassas(m, k) + ((m, k) == (4, 2)))
    failed = [r for r in suite_oracle(5) if not r.ok]
    assert [r.name for r in failed] == ["anassa closed form vs brute force"]
    assert len(failed[0].failures) == 1
    assert failed[0].failures[0].startswith("anassa m=4 k=2:")


def test_rook_round_trip_names_the_broken_color(monkeypatch):
    black_rooks = formulas.black_rooks
    monkeypatch.setattr(
        formulas, "black_rooks", lambda m, k: black_rooks(m, k) + ((m, k) == (5, 2))
    )
    group = next(r for r in suite_coeffs(3) if r.name == "one-color rook coefficient round trip")
    assert group.failures and group.failures[0].startswith("black k=2 m=5:")
    assert all(f.startswith("black ") for f in group.failures)


def test_coefficient_structure_names_the_broken_k(monkeypatch):
    divide, anassa = verify_coeffs.divide_by_falling_factorial, quasipoly.anassa_quasipolynomial

    def indivisible_at_k2(vec, k):
        if k == 2:
            raise ArithmeticError("remainder 1")
        return divide(vec, k)

    def skewed_at_k2(k):
        # m(m-1)/5 joins the vector: still divisible, the same lead and, by the
        # true evaluate, the same values, but a denominator past (2k)! * 4^k.
        # 5 divides (3k)! * 4^k and (2k)! * 5^k at k = 2: either wrong bound lets it through.
        qp = anassa(k)
        vec = tuple(c + Fraction((i == 2) - (i == 1), 5) for i, c in enumerate(qp.coeffs[0]))
        return qp if k != 2 else SimpleNamespace(coeffs=(vec,), evaluate=qp.evaluate)

    for module, name, patch, want in (
        (verify_coeffs, "divide_by_falling_factorial", indivisible_at_k2, "anassa k=2 not divisible"),
        (quasipoly, "anassa_quasipolynomial", skewed_at_k2, "k=2: denominators"),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(module, name, patch)
            group = next(r for r in suite_coeffs(3) if r.name.startswith("coefficient structure"))
        assert len(group.failures) == 1 and group.failures[0].startswith(want), group.failures


def _plus_one(row):
    """The row with its last entry one too large."""
    return (*row[:-1], row[-1] + 1)


def _rows_off(route, *args, **kwargs):
    return map(_plus_one, route(*args, **kwargs))


def _one_row_short(route, m_max):
    return islice(route(m_max), m_max)


def _table_off(piece):
    def wrong(route, p, *args, **kwargs):
        table = route(p, *args, **kwargs)
        return map(_plus_one, table) if p == piece else table

    return wrong


def _shifted(qp):
    """The quasipolynomial with each constant term one too large."""
    return quasipoly.QuasiPolynomial(tuple((vec[0] + 1, *vec[1:]) for vec in qp.coeffs))


def _bishop_off(route, k):
    families = route(k)
    return families._replace(bishop=_shifted(families.bishop))


# Each route whose value a handler prints: the module and name it is read
# through, the wrong route given the right one, and a request that prints it.
# Exempt, with the reason:
# - ``formulas.count``: verify calls the closed forms by name, never through
#   the dispatcher that ``count`` prints, so the two stay independent;
# - the ``board`` routes: they are the oracle's side of every comparison.
PRINTED_ROUTES = [
    pytest.param(
        rows, "rook_rows",
        lambda route, m_max: ((white, _plus_one(black)) for white, black in route(m_max)),
        "table bishop 3", id="rook_rows",
    ),
    pytest.param(
        rows, "convolve", lambda route, *args: _plus_one(route(*args)), "table bishop 3",
        id="convolve",
    ),
    pytest.param(
        rows, "rook_rows", _one_row_short, "table bishop 3", id="rook_rows-one-row-short"
    ),
    pytest.param(rows, "anassa_rows", _rows_off, "table anassa 3", id="anassa_rows"),
    pytest.param(
        rows, "anassa_rows", _one_row_short, "table anassa 3", id="anassa_rows-one-row-short"
    ),
    *(
        pytest.param(
            rows, "count_table", _table_off(piece), f"table {piece} 3", id=f"count_table-{piece}"
        )
        for piece in ("bishop", "anassa")
    ),
    *(
        pytest.param(
            rows, "max_pieces", lambda route, p, m, piece=piece: route(p, m) + (p == piece),
            f"table {piece} 3 --rect", id=f"max_pieces-{piece}",
        )
        for piece in ("bishop", "anassa")
    ),
    pytest.param(
        quasipoly, "rook_and_bishop_quasipolynomials", _bishop_off, "coeffs bishop 2",
        id="bishop_quasipolynomial",
    ),
    pytest.param(
        quasipoly, "anassa_quasipolynomial", lambda route, k: _shifted(route(k)), "coeffs anassa 2",
        id="anassa_quasipolynomial",
    ),
    pytest.param(
        quasipoly, "effective_period", lambda route, vectors: route(vectors) + 1,
        "coeffs bishop 2", id="effective_period",
    ),
]


@pytest.mark.parametrize("module, name, wrong, argv", PRINTED_ROUTES)
def test_verify_all_fails_on_a_wrong_printed_route(capsys, monkeypatch, module, name, wrong, argv):
    # ``verify all`` is the user's check of what the CLI prints, so it must
    # read every route that a handler prints, not only the closed forms.
    # The request shows that the handler prints the route patched here.
    assert cli.main(argv.split()) == 0
    right = capsys.readouterr().out
    route = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: wrong(route, *args, **kwargs))
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out != right
    assert not all(r.ok for r in verify.run_suite(verify.check_bounds("all")))


# Requests that print each route: both pieces, every format, negative m and
# ``--below`` among them.
PRINTING_REQUESTS = [
    "count bishop 8 2", "count anassa 5 3", "count bishop -3 4", "count anassa -5 4",
    "count anassa 5 3 --below 1", "count anassa -2 3 --below 1",
    "table bishop 5", "table anassa 5", "table bishop 5 --format bfile",
    "table anassa 5 --format json", "table bishop 5 --rect", "table anassa 5 --rect",
    "coeffs bishop 3", "coeffs anassa 3",
    "coeffs bishop 3 --format json", "coeffs anassa 3 --format json",
]


def _public_calls(run, modules=(formulas, rows, quasipoly, kernel, poly, board, verify_identities)):
    """The public functions of ``modules`` that ``run()`` calls, as ``module.name``."""
    # The modules are imported before the call, so no frame here runs at
    # import time.  ``co_qualname`` is 3.11 and later: a function is known
    # by ``co_name``.
    files = {module.__file__: module.__name__.rpartition(".")[2] for module in modules}
    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files and code.co_name[0] not in "_<":
            called.add(f"{files[code.co_filename]}.{code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return called


def test_every_printed_route_is_one_verify_all_calls(capsys):
    # Exempt, as in PRINTED_ROUTES: ``formulas.count``, the dispatcher that
    # ``count`` prints, which verify never calls so that the two stay apart.
    statuses = []
    printed = _public_calls(lambda: statuses.extend(cli.main(a.split()) for a in PRINTING_REQUESTS))
    assert statuses == [0] * len(PRINTING_REQUESTS), capsys.readouterr().err
    assert {"formulas.count", "rows.count_table", "quasipoly.effective_period"} <= printed
    verified = _public_calls(lambda: verify.run_suite(verify.check_bounds("all")))
    assert printed - verified - {"formulas.count"} == set()


def test_every_public_function_of_a_handler_home_is_one_a_request_calls(capsys):
    # A request compiles the whole home module of its handler, so a public
    # function there that no request calls is compiled for nothing: it
    # belongs in the module that reads it.  Classes and their methods are
    # exempt.  The homes are read from the grammar, so they follow a handler
    # that moves.
    homes = {
        importlib.import_module(f"chesscount.{cli.GRAMMAR[command][0]}")
        for command in ("count", "table", "coeffs")
    }
    statuses = []
    called = _public_calls(
        lambda: statuses.extend(cli.main(a.split()) for a in PRINTING_REQUESTS), homes
    )
    assert statuses == [0] * len(PRINTING_REQUESTS), capsys.readouterr().err
    defined = {
        f"{home.__name__.rpartition('.')[2]}.{name}"
        for home in homes
        for name, value in vars(home).items()
        if inspect.isfunction(value) and value.__module__ == home.__name__ and name[0] != "_"
    }
    assert {"formulas.count", "rows.count_table", "quasipoly.effective_period"} <= defined
    assert defined - called == set()
