"""Acceptance suite: nine exact criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS/FAIL lines directly).  Every comparison is exact; there are no
tolerances anywhere.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from chesscount import (
    ANASSA_MOVES,
    BISHOP_MOVES,
    anassa_coeffs,
    anassa_quasipolynomial,
    anassa_split_rows,
    anassas,
    anassas_diagonal,
    anassas_split,
    assoc_stirling2,
    basis_change_coeff,
    binomial,
    binomial_basis_to_monomials,
    bishop_coeffs,
    bishop_quasipolynomial,
    bishops,
    bishops_classic,
    black_rooks,
    count_nonattacking,
    count_nonattacking_below_diag,
    count_table,
    divide_by_falling_factorial,
    effective_period,
    rook_rows,
    square_board,
    stirling2,
    verify_collapse,
    white_rooks,
    white_rooks_alt,
)

from helpers import entry

SRC = Path(__file__).resolve().parent.parent / "src"


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert not failures, f"criterion {number} ({description}): {failures[:5]}"


def _quartic(m: int) -> int:
    return 12 * binomial(m, 4) + 14 * binomial(m, 3) + 4 * binomial(m, 2)


def test_criterion_1_bishop_oracle_equivalence():
    failures = []
    for m in range(9):
        board = square_board(m)
        for k in range(max(2 * m - 2, 0) + 1):
            if bishops(m, k) != count_nonattacking(board, BISHOP_MOVES, k):
                failures.append(("closed vs oracle", m, k))
        if m * m != count_nonattacking(board, BISHOP_MOVES, 1):
            failures.append(("one-piece polynomial vs oracle", m))
        if _quartic(m) != count_nonattacking(board, BISHOP_MOVES, 2):
            failures.append(("two-piece polynomial vs oracle", m))
    if not (bishops(8, 1) == 8 * 8 == 64):
        failures.append("eight-board one-piece count")
    if not (bishops(8, 2) == _quartic(8) == 1736):
        failures.append("eight-board two-piece count")
    _report(1, "bishop closed form = brute force (m <= 8), plus m = 8 spot values", failures)


def test_criterion_2_anassa_oracle_equivalence():
    failures = []
    for m in range(9):
        board = square_board(m)
        for k in range(m + 1):
            if anassas(m, k) != count_nonattacking(board, ANASSA_MOVES, k):
                failures.append(("total", m, k))
    for m in range(8):
        for k in range(m + 1):
            for p in range(k + 1):
                if anassas_split(m, k, p) != count_nonattacking_below_diag(m, k, p):
                    failures.append(("split", m, k, p))
    _report(2, "anassa closed forms = brute force (m <= 8; diagonal split m <= 7)", failures)


def test_criterion_3_formula_cross_agreement():
    failures = []
    for m, row in enumerate(count_table("bishop", 12).rows):
        for k in range(11):
            closed = bishops(m, k)
            if entry(row, k) != closed:
                failures.append(("bishop convolution", m, k))
            if bishops_classic(m, k) != closed:
                failures.append(("bishop classic", m, k))
    for m, (white, black) in enumerate(zip(rook_rows(20, "white"), rook_rows(20, "black"))):
        for k in range(11):
            if entry(white, k) != white_rooks(m, k):
                failures.append(("white rec", m, k))
            if entry(black, k) != black_rooks(m, k):
                failures.append(("black rec", m, k))
            if white_rooks_alt(m, k) != white_rooks(m, k):
                failures.append(("white alt", m, k))
    for m, tri in enumerate(anassa_split_rows(12)):
        for k in range(9):
            for p in range(k + 1):
                got = tri[k][p] if k <= m else 0
                if got != anassas_split(m, k, p):
                    failures.append(("anassa split rec", m, k, p))
            if sum(anassas_split(m, k, p) for p in range(k + 1)) != anassas(m, k):
                failures.append(("anassa split sum", m, k))
    _report(3, "independent formula routes agree (bishops, one-color rooks, anassas)", failures)


def test_criterion_4_inductive_collapse():
    failures = []
    for piece, bound in (("bishop", lambda m: max(2 * m - 2, m)), ("anassa", lambda m: m)):
        for m in range(1, 9):
            if not verify_collapse(m, piece, bound(m)):
                failures.append((piece, m))
    _report(4, "removing the inductive subset collapses counts one board size down (m <= 8)", failures)


def test_criterion_5_combinatorial_types():
    failures = []
    for k in range(9):
        if bishops(-1, k) != math.factorial(k):
            failures.append(("bishop", k))
        if anassas(-1, k) != math.factorial(k):
            failures.append(("anassa", k))
    _report(5, "board size -1 evaluates to k! for both pieces (k <= 8)", failures)


def test_criterion_6_coefficient_round_trip():
    failures = []
    for k in range(6):
        bq = bishop_quasipolynomial(k)
        aq = anassa_quasipolynomial(k)
        for m in range(2 * k + 7):
            if bq.evaluate(m) != bishops(m, k):
                failures.append(("bishop", k, m))
            if aq.evaluate(m) != anassas(m, k):
                failures.append(("anassa", k, m))
    if bishop_coeffs(1, 0) != [Fraction(0), Fraction(0), Fraction(1)]:
        failures.append("one-piece coefficient vector")
    quartic_expanded = binomial_basis_to_monomials(
        [Fraction(0), Fraction(0), Fraction(4), Fraction(14), Fraction(12)]
    )
    if bishop_coeffs(2, 0) != quartic_expanded or bishop_coeffs(2, 1) != quartic_expanded:
        failures.append("two-piece coefficient vector")
    for k, want in ((1, 1), (2, 1), (3, 2)):
        if effective_period([bishop_coeffs(k, 0), bishop_coeffs(k, 1)]) != want:
            failures.append(("period", k))
    _report(6, "coefficient vectors reproduce counts (k <= 5), frozen k <= 2 vectors, periods", failures)


def test_criterion_7_falling_factorial_divisibility():
    failures = []
    for k in range(6):
        try:
            divide_by_falling_factorial(anassa_coeffs(k), k)
        except ArithmeticError as exc:
            failures.append((k, str(exc)))
    _report(7, "anassa coefficient vectors divisible by the falling factorial", failures)


def test_criterion_8_identity_battery():
    failures = []
    for p in range(5):
        for q in range(5):
            for z in (-1, 0, 1):
                weights = [basis_change_coeff(p, q, z, i) for i in range(p + q + 1)]
                for x in range(11):
                    lhs = binomial(2 * x + z - q, p) * binomial(x, q)
                    if sum(w * binomial(2 * x + z, i) for i, w in enumerate(weights)) != lhs:
                        failures.append(("basis change", p, q, z, x))
    for k in range(9):
        for m in range(21):
            expansion = sum(assoc_stirling2(k + p, p) * binomial(m, k + p) for p in range(k + 1))
            if expansion != stirling2(m, m - k):
                failures.append(("block-size expansion", m, k))
    for k in range(21):
        total = sum(
            Fraction((-1) ** j * binomial(k - j, k - 2 * j)) * Fraction(2) ** (k - 2 * j)
            for j in range((k + 1) // 2 + 1)
        )
        if total != k + 1:
            failures.append(("alternating central sum", k))
    for m in range(11):
        for k in range(m + 1):
            if anassas_split(m, k, k) != stirling2(m, m - k):
                failures.append(("telescoped split", m, k))
    for m in range(9):
        first, second = anassas_diagonal(m)
        if not (first == second == anassas(m, m)):
            failures.append(("saturated diagonal", m))
    _report(8, "identity battery (basis change, expansions, alternating sums, diagonal)", failures)


def test_criterion_9_cli_determinism():
    failures = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "chesscount", *args],
            capture_output=True,
            env=env,
        )

    for args in (
        ("table", "bishop", "8", "--format", "bfile"),
        ("table", "anassa", "8", "--format", "csv"),
        ("coeffs", "bishop", "3", "--format", "json"),
        ("coeffs", "anassa", "4", "--format", "csv"),
    ):
        first, second = run(*args), run(*args)
        if first.returncode or second.returncode:
            failures.append(("exit", args))
        elif first.stdout != second.stdout or not first.stdout:
            failures.append(("bytes", args))
    verdict = run("verify", "all")
    if verdict.returncode != 0:
        failures.append(("verify all", verdict.returncode, verdict.stdout[-400:]))
    _report(9, "CLI output byte-identical across runs; verify all exits 0", failures)
