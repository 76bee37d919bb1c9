"""Every ``verify`` group as its own test, at the bounds in conftest.py.

The groups are the only copy of the identity and cross-route batteries;
select one with ``pytest -k <group id>``.  A test fails when its group
failed, checked nothing, or its suite raised.
"""

import ast
import re

import pytest

from chesscount import board, formulas, kernel, quasipoly, verify
from chesscount.verify import SUITES, suite_coeffs, suite_identities, suite_oracle

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


def test_basis_change_identity_catches_a_wrong_row(monkeypatch):
    def group():
        results = suite_identities(m_max=2, k_max=1)
        return next(r for r in results if r.name == "binomial basis change identity")

    assert group().ok
    rows = verify._basis_change_rows

    def one_entry_off(q, z, p_max):
        for p, row in enumerate(rows(q, z, p_max)):
            yield [w + 1 if (p, q, z, i) == (3, 2, 1, 2) else w for i, w in enumerate(row)]

    monkeypatch.setattr(verify, "_basis_change_rows", one_entry_off)
    broken = group()
    assert broken.checks == 825
    assert broken.failures and all(f.startswith("p=3 q=2 z=1 ") for f in broken.failures)


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
    with open(verify.__file__, encoding="utf-8") as handle:
        assert "quasipoly._" not in handle.read()


def test_verify_reads_no_private_board_name():
    with open(verify.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "board"
        for alias in node.names
    ]
    assert "placement_profile" in names
    assert not [name for name in names if name.startswith("_")]


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
    assert all(r.ok for r in verify.run_suite("all", m_max=10))
    assert (len(calls), len(set(calls))) == (81, 58)


def test_oracle_builds_each_square_board_once_per_reader(monkeypatch):
    # Only the suite's own board: the color boards are built from coordinates,
    # and the anassa split reads the profile of the suite's board.
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
