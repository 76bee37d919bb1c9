"""Quasipolynomial coefficient tests.

The main oracle is exact Newton interpolation (tests/helpers.py): fitting
the unique degree-2k polynomial through closed-form counts on one parity
class must reproduce the coefficient vectors produced directly.
"""

import math
from fractions import Fraction

import pytest

from chesscount import (
    QuasiPolynomial,
    anassa_coeffs,
    anassa_quasipolynomial,
    anassas,
    binomial,
    bishop_quasipolynomial,
    bishops,
    black_rooks,
    divide_by_falling_factorial,
    effective_period,
    rook_and_bishop_quasipolynomials,
    white_rooks,
)
from chesscount import kernel, quasipoly
from helpers import (
    anassa_rows_backward,
    anassa_rows_cut,
    binomial_basis_to_monomials,
    interpolate,
    polyval,
    rook_rows_backward,
    rook_rows_cut,
)

# --- basis change coefficients ---


def _solve_basis_change(p, q, z):
    # Independent oracle: solve for the weights from evaluations at
    # x = 0..p+q (the binomial-basis Gram matrix, exact Gaussian elimination).
    n = p + q + 1
    rows = [
        [Fraction(binomial(2 * x + z, i)) for i in range(n)]
        + [Fraction(binomial(2 * x + z - q, p) * binomial(x, q))]
        for x in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _weights(p, q, z):
    # The kernel's basis-change row (q, z, p), as the weights themselves.
    *_, row = kernel._basis_change_rows(q, z, p)
    return [Fraction(w, 4**q) for w in row]


def test_basis_change_frozen_values():
    assert _weights(0, 0, 0) == [1]
    assert _solve_basis_change(1, 1, 0) == [0, 0, 1]
    assert _weights(1, 1, 0) == [0, 0, 1]


def test_basis_change_expands_the_product_on_a_wide_grid():
    # The expansion has degree p + q in x, so the points x = 0..p+q fix it.
    for p in range(13):
        for q in range(13):
            for z in range(-2, 3):
                weights = _weights(p, q, z)
                for x in range(p + q + 1):
                    got = sum(w * binomial(2 * x + z, i) for i, w in enumerate(weights))
                    assert got == binomial(2 * x + z - q, p) * binomial(x, q), (p, q, z, x)


def test_basis_change_out_of_range_and_denominator():
    # Row p holds the p + q + 1 weights, each times 4^q an integer, and
    # rows p = 0..p_max come out in order.
    for q in range(5):
        for z in (-1, 0, 1):
            rows = list(kernel._basis_change_rows(q, z, 4))
            assert [len(row) for row in rows] == [p + q + 1 for p in range(5)]
            for p, row in enumerate(rows):
                assert all(type(w) is int for w in row)
                assert [Fraction(w, 4**q) for w in row] == _solve_basis_change(p, q, z)


def test_binomial_basis_conversion():
    # C(x, 2) = x(x-1)/2, in numerators over 2!.
    assert quasipoly._monomial_numerators([0, 0, 1]) == [0, -1, 1]
    assert binomial_basis_to_monomials([0, 0, 1]) == [0, Fraction(-1, 2), Fraction(1, 2)]
    weights = [3, -2, 5, 7]
    coeffs = [Fraction(n, math.factorial(3)) for n in quasipoly._monomial_numerators(weights)]
    assert coeffs == binomial_basis_to_monomials(weights)
    for x in range(8):
        want = sum(w * binomial(x, i) for i, w in enumerate(weights))
        assert polyval(coeffs, x) == want


# --- one-color rook coefficients ---


def _interpolated(fn, k, par, step=2):
    # 2k + 2 points, one more than degree 2k needs: the top coefficient
    # must come out 0.
    points = [(m, fn(m, k)) for m in range(par, par + step * (2 * k + 2), step)]
    coeffs = interpolate(points)
    assert coeffs[2 * k + 1] == 0, (k, par)
    return coeffs[: 2 * k + 1]


def test_rook_coeffs_match_interpolation():
    for k in (*range(13), 20):
        white, black, _ = rook_and_bishop_quasipolynomials(k)
        for par in (0, 1):
            assert list(white.coeffs[par]) == _interpolated(white_rooks, k, par), (k, par)
            assert list(black.coeffs[par]) == _interpolated(black_rooks, k, par), (k, par)


def test_rook_coeffs_leading_term():
    for k in range(6):
        lead = Fraction(1, 2**k * math.factorial(k))
        white, black, _ = rook_and_bishop_quasipolynomials(k)
        assert white.coeffs[0][2 * k] == lead
        assert white.coeffs[1][2 * k] == lead
        assert black.coeffs[1][2 * k] == lead


def test_rook_coeffs_even_parity_colors_agree():
    for k in range(6):
        white, black, _ = rook_and_bishop_quasipolynomials(k)
        assert white.coeffs[0] == black.coeffs[0]


def test_parity_classes_first_differ_where_pinned():
    # Both bishop classes share the coefficients of m^2k .. m^(2k-5) and
    # differ at m^(2k-6); the white-rook classes already differ at m^(2k-2)
    # and agree above it.
    for k in (*range(3, 21), 40):
        white, _, bishop = rook_and_bishop_quasipolynomials(k)
        even, odd = bishop.coeffs
        assert even[2 * k - 5:] == odd[2 * k - 5:], k
        assert even[2 * k - 6] != odd[2 * k - 6], k
        even, odd = white.coeffs
        assert even[2 * k - 1:] == odd[2 * k - 1:], k
        assert even[2 * k - 2] != odd[2 * k - 2], k


# --- bishop coefficients ---


def test_bishop_coeffs_frozen_vectors():
    assert bishop_quasipolynomial(0).coeffs == ((1,), (1,))
    assert bishop_quasipolynomial(1).coeffs == ((0, 0, 1), (0, 0, 1))


def test_bishop_coeffs_match_interpolation():
    for k in (*range(13), 20):
        bishop = bishop_quasipolynomial(k)
        for par in (0, 1):
            assert list(bishop.coeffs[par]) == _interpolated(bishops, k, par), (k, par)


def test_one_constructor_gives_every_rook_and_bishop_vector():
    for k in range(9):
        white, black, bishop = rook_and_bishop_quasipolynomials(k)
        assert bishop == bishop_quasipolynomial(k)
        for qp in (white, black, bishop):
            assert len(qp.coeffs) == 2
            assert {len(vec) for vec in qp.coeffs} == {2 * k + 1}
            assert all(type(c) is Fraction for vec in qp.coeffs for c in vec)


def test_one_constructor_rejects_negative_k():
    with pytest.raises(ValueError):
        rook_and_bishop_quasipolynomials(-1)
    with pytest.raises(ValueError, match="piece count must be >= 0"):
        anassa_coeffs(-1)


def test_quasipolynomials_match_the_row_recurrences_at_large_m():
    # ``verify coeffs`` compares each quasipolynomial with the closed form
    # only at m <= 2k + 6, fewer points than a degree-2k class needs.  The
    # helpers' recurrences share no arithmetic with either route.
    k, sizes = 12, (10**4, 10**4 + 1)
    white_qp, black_qp, bishop_qp = rook_and_bishop_quasipolynomials(k)
    anassa_qp = anassa_quasipolynomial(k)
    rows = zip(
        rook_rows_cut(sizes[-1], k + 1, white=True),
        rook_rows_cut(sizes[-1], k + 1, white=False),
        anassa_rows_cut(sizes[-1], k + 1),
    )
    checked = 0
    for m, (white, black, anassa) in enumerate(rows):
        if m in sizes:
            assert white_qp.evaluate(m) == white[k], m
            assert black_qp.evaluate(m) == black[k], m
            assert bishop_qp.evaluate(m) == sum(black[j] * white[k - j] for j in range(k + 1)), m
            assert anassa_qp.evaluate(m) == anassa[k], m
            checked += 1
    assert checked == len(sizes)


def test_class_vectors_equal_the_closed_forms_at_negative_board_sizes():
    # ``verify coeffs`` meets each class at 0 <= m <= 2k + 6 only, fewer points
    # than a degree-2k class needs from k = 3 on.  The closed forms are
    # defined at every integer m, and the 2k + 6 negative sizes below raise
    # each class to at least 2k + 6 points.  The cost grows about as k^4, so
    # past k = 20 only k = 40 runs.
    for k in (*range(21), 40):
        white, black, bishop = rook_and_bishop_quasipolynomials(k)
        families = [
            (white, white_rooks),
            (black, black_rooks),
            (bishop, bishops),
            (anassa_quasipolynomial(k), anassas),
        ]
        for qp, closed in families:
            for m in range(-(2 * k + 6), 0):
                assert qp.evaluate(m) == closed(m, k), (closed.__name__, k, m)


def test_class_vectors_equal_the_backward_recurrences_at_negative_board_sizes():
    # The backward recurrences use no Stirling number and no closed form, so
    # they meet every class vector from a side that shares no arithmetic with it.
    white_rows, black_rows = (list(rook_rows_backward(-30, 13, white)) for white in (True, False))
    anassa_rows = list(anassa_rows_backward(-30, 13))
    for k in range(13):
        white, black, bishop = rook_and_bishop_quasipolynomials(k)
        anassa = anassa_quasipolynomial(k)
        for i, (w, b, a) in enumerate(zip(white_rows, black_rows, anassa_rows)):
            assert white.evaluate(-i) == w[k], ("white", k, -i)
            assert black.evaluate(-i) == b[k], ("black", k, -i)
            product = sum(b[j] * w[k - j] for j in range(k + 1))
            assert bishop.evaluate(-i) == product, ("bishop", k, -i)
            assert anassa.evaluate(-i) == a[k], ("anassa", k, -i)
    assert len(anassa_rows) == 31


def test_bishop_coeffs_leading_term():
    for k in range(6):
        assert bishop_quasipolynomial(k).coeffs[0][2 * k] == Fraction(1, math.factorial(k))


# --- anassa coefficients ---


def test_anassa_coeffs_frozen_vectors():
    assert anassa_coeffs(0) == [Fraction(1)]
    assert anassa_coeffs(1) == [Fraction(0), Fraction(0), Fraction(1)]


def test_anassa_coeffs_match_interpolation():
    for k in (*range(13), 20):
        assert anassa_coeffs(k) == _interpolated(anassas, k, 0, step=1), k


def test_anassa_coeffs_leading_term():
    for k in range(7):
        assert anassa_coeffs(k)[2 * k] == Fraction(1, math.factorial(k))


def test_anassa_single_vector_serves_both_parities():
    for k in range(6):
        assert len(anassa_quasipolynomial(k).coeffs) == 1


# --- quasipolynomial objects ---


def test_quasipolynomial_validation():
    assert QuasiPolynomial._fields == ("coeffs",)
    with pytest.raises(ValueError):
        QuasiPolynomial(())
    with pytest.raises(ValueError):
        QuasiPolynomial(((Fraction(1),), (Fraction(1), Fraction(2))))


def test_evaluation_integrality_guard():
    broken = QuasiPolynomial(((Fraction(1, 2),),))
    with pytest.raises(ArithmeticError, match="came out non-integral: 1/2$"):
        broken.evaluate(1)
    # 1/4 + 1/4 is summed over the denominator 4; the message shows it reduced.
    quarters = QuasiPolynomial(((Fraction(1, 4), Fraction(1, 4)),))
    with pytest.raises(ArithmeticError, match="came out non-integral: 1/2$"):
        quarters.evaluate(1)


def test_evaluate_matches_term_by_term_sum():
    # Integer-valued in m, with entries of both signs over the denominators
    # 1, 4, 6 and 24.
    even = binomial_basis_to_monomials([3, -2, 5, -7, 4])
    odd = binomial_basis_to_monomials([-1, 6, 0, 9, -11])
    assert {c.denominator for c in even + odd} == {1, 4, 6, 24}
    assert {c > 0 for c in even + odd} == {True, False}
    qp = QuasiPolynomial((tuple(even), tuple(odd)))
    for m in (*range(-40, 40), 10**12, 10**12 + 1, -(10**12) - 1):
        assert qp.evaluate(m) == polyval((even, odd)[m % 2], m), m


# --- falling-factorial division ---


def test_anassa_vectors_divisible_by_falling_factorial():
    for k in range(6):
        quotient = divide_by_falling_factorial(anassa_coeffs(k), k)
        assert len(quotient) == k + 1
        # Reassemble: quotient * (m)_k must reproduce the counts.
        for m in range(2 * k + 5):
            falling = math.prod(m - i for i in range(k))
            assert polyval(quotient, m) * falling == anassas(m, k)


def test_bishop_two_piece_vector_divisible():
    assert divide_by_falling_factorial(bishop_quasipolynomial(2).coeffs[0], 2) == [
        Fraction(1, 3),
        Fraction(-1, 6),
        Fraction(1, 2),
    ]


def test_division_reports_nonzero_remainder():
    with pytest.raises(ArithmeticError, match="remainder"):
        divide_by_falling_factorial([Fraction(0), Fraction(0), Fraction(1)], 2)
    with pytest.raises(ArithmeticError):
        divide_by_falling_factorial([Fraction(1)], 1)
    with pytest.raises(ValueError):
        divide_by_falling_factorial([Fraction(1)], -1)


def test_effective_period():
    assert effective_period([[Fraction(1)], [Fraction(1)]]) == 1
    assert effective_period([[Fraction(1)], [Fraction(2)]]) == 2
    with pytest.raises(ValueError):
        effective_period([])
