"""Acceptance suite: nine exact criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS/FAIL lines directly).  Every comparison is exact; there are no
tolerances anywhere.  Batteries that a ``verify`` group already runs are
read from the session fixture in conftest.py rather than written again.
"""

from fractions import Fraction

from chesscount import (
    BISHOP_MOVES,
    binomial,
    bishops,
    placement_counts,
    rook_and_bishop_quasipolynomials,
    square_board,
)
from helpers import binomial_basis_to_monomials, run_cli


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert not failures, f"criterion {number} ({description}): {failures[:5]}"


def _quartic(m: int) -> int:
    return 12 * binomial(m, 4) + 14 * binomial(m, 3) + 4 * binomial(m, 2)


def _groups(verify_suite, suite: str, *names: str) -> list:
    """Failures of the named verify groups; a group that checked nothing fails."""
    results = verify_suite(suite)
    return [
        (name, results[name].failures[:3] or "no checks")
        for name in names
        if not results[name].ok
    ]


def test_criterion_1_bishop_oracle_equivalence(verify_suite):
    failures = _groups(verify_suite, "oracle", "bishop closed form vs brute force")
    for m in range(12):
        # The counts stop at the largest feasible size; the zeros pad m <= 1.
        counts = (*placement_counts(square_board(m), BISHOP_MOVES), 0, 0)
        if m * m != counts[1]:
            failures.append(("one-piece polynomial vs oracle", m))
        if _quartic(m) != counts[2]:
            failures.append(("two-piece polynomial vs oracle", m))
    if not (bishops(8, 1) == 8 * 8 == 64):
        failures.append("eight-board one-piece count")
    if not (bishops(8, 2) == _quartic(8) == 1736):
        failures.append("eight-board two-piece count")
    _report(1, "bishop closed form = brute force (m <= 11), plus m = 8 spot values", failures)


def test_criterion_2_anassa_oracle_equivalence(verify_suite):
    failures = _groups(
        verify_suite,
        "oracle",
        "anassa closed form vs brute force",
        "anassa diagonal split vs brute force",
    )
    _report(2, "anassa closed forms = brute force (m <= 11, diagonal split included)", failures)


def test_criterion_3_formula_cross_agreement(verify_suite):
    failures = _groups(
        verify_suite,
        "identities",
        "bishop counts: three routes agree",
        "one-color rook counts: three routes agree",
        "anassa split: recurrence, closed form, and total agree",
    )
    _report(3, "independent formula routes agree (bishops, one-color rooks, anassas)", failures)


def test_criterion_4_inductive_collapse(verify_suite):
    failures = _groups(verify_suite, "collapse", "inductive subset collapse")
    _report(4, "removing the inductive subset collapses counts one board size down (m <= 11)", failures)


def test_criterion_5_combinatorial_types(verify_suite):
    failures = _groups(verify_suite, "identities", "size -1 evaluates to k! for both pieces")
    _report(5, "board size -1 evaluates to k! for both pieces (k <= 10)", failures)


def test_criterion_6_coefficient_round_trip(verify_suite):
    failures = _groups(
        verify_suite,
        "coeffs",
        "bishop quasipolynomial round trip",
        "anassa polynomial round trip",
        "coefficient structure: periods, divisibility, denominators",
    )
    one, two = (rook_and_bishop_quasipolynomials(k).bishop for k in (1, 2))
    if one.coeffs[0] != (Fraction(0), Fraction(0), Fraction(1)):
        failures.append("one-piece coefficient vector")
    quartic_expanded = tuple(binomial_basis_to_monomials([0, 0, 4, 14, 12]))
    if two.coeffs != (quartic_expanded, quartic_expanded):
        failures.append("two-piece coefficient vector")
    _report(6, "coefficient vectors reproduce counts (k <= 5), frozen k <= 2 vectors, periods", failures)


def test_criterion_7_falling_factorial_divisibility(verify_suite):
    failures = _groups(
        verify_suite, "coeffs", "coefficient structure: periods, divisibility, denominators"
    )
    _report(7, "anassa coefficient vectors divisible by the falling factorial (k <= 5)", failures)


def test_criterion_8_identity_battery(verify_suite):
    failures = _groups(
        verify_suite,
        "identities",
        "binomial basis change identity",
        "second-kind Stirling via block-size expansion",
        "central binomial alternating sum",
        "anassa split: recurrence, closed form, and total agree",
        "saturated anassa count: two summations and the closed form",
    )
    _report(8, "identity battery (basis change, expansions, alternating sums, diagonal)", failures)


def test_criterion_9_cli_determinism():
    failures = []
    for args in (
        ("table", "bishop", "8", "--format", "bfile"),
        ("table", "anassa", "8", "--format", "csv"),
        ("coeffs", "bishop", "3", "--format", "json"),
        ("coeffs", "anassa", "4", "--format", "csv"),
    ):
        first, second = run_cli(*args), run_cli(*args)
        if first.returncode or second.returncode:
            failures.append(("exit", args))
        elif first.stdout != second.stdout or not first.stdout:
            failures.append(("bytes", args))
    verdict = run_cli("verify", "all")
    if verdict.returncode != 0:
        failures.append(("verify all", verdict.returncode, verdict.stdout[-400:]))
    _report(9, "CLI output byte-identical across runs; verify all exits 0", failures)
