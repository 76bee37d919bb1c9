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
    basis_change_coeff,
    binomial,
    binomial_basis_to_monomials,
    bishop_coeffs,
    bishop_quasipolynomial,
    bishops,
    black_rook_coeffs,
    black_rooks,
    divide_by_falling_factorial,
    effective_period,
    rook_and_bishop_quasipolynomials,
    white_rook_coeffs,
    white_rooks,
)
from chesscount import kernel, quasipoly
from helpers import interpolate, polyval

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


def test_basis_change_frozen_values():
    assert basis_change_coeff(0, 0, 0, 0) == 1
    assert _solve_basis_change(1, 1, 0) == [0, 0, 1]
    assert basis_change_coeff(1, 1, 0, 2) == 1


def test_basis_change_matches_linear_solve():
    for p in range(4):
        for q in range(4):
            for z in (-1, 0, 1):
                solved = _solve_basis_change(p, q, z)
                direct = [basis_change_coeff(p, q, z, i) for i in range(p + q + 1)]
                assert direct == solved, (p, q, z)


def test_basis_change_expands_the_product_on_a_wide_grid():
    # The expansion has degree p + q in x, so the points x = 0..p+q fix it.
    for p in range(13):
        for q in range(13):
            for z in range(-2, 3):
                weights = [basis_change_coeff(p, q, z, i) for i in range(p + q + 1)]
                for x in range(p + q + 1):
                    got = sum(w * binomial(2 * x + z, i) for i, w in enumerate(weights))
                    assert got == binomial(2 * x + z - q, p) * binomial(x, q), (p, q, z, x)


def test_basis_change_out_of_range_and_denominator():
    assert basis_change_coeff(2, 1, 0, -1) == 0
    assert basis_change_coeff(2, 1, 0, 4) == 0
    for p in range(5):
        for q in range(5):
            for z in (-1, 0, 1):
                for i in range(p + q + 1):
                    assert 4**q % basis_change_coeff(p, q, z, i).denominator == 0
    with pytest.raises(ValueError):
        basis_change_coeff(-1, 0, 0, 0)


def test_binomial_basis_conversion():
    # C(x, 2) = x(x-1)/2.
    assert binomial_basis_to_monomials([Fraction(0), Fraction(0), Fraction(1)]) == [
        Fraction(0),
        Fraction(-1, 2),
        Fraction(1, 2),
    ]
    weights = [Fraction(3), Fraction(-2), Fraction(5), Fraction(7)]
    coeffs = binomial_basis_to_monomials(weights)
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
        for par in (0, 1):
            assert white_rook_coeffs(k, par) == _interpolated(white_rooks, k, par), (k, par)
            assert black_rook_coeffs(k, par) == _interpolated(black_rooks, k, par), (k, par)


def test_rook_coeffs_leading_term():
    for k in range(6):
        lead = Fraction(1, 2**k * math.factorial(k))
        assert white_rook_coeffs(k, 0)[2 * k] == lead
        assert white_rook_coeffs(k, 1)[2 * k] == lead
        assert black_rook_coeffs(k, 1)[2 * k] == lead


def test_rook_coeffs_even_parity_colors_agree():
    for k in range(6):
        assert white_rook_coeffs(k, 0) == black_rook_coeffs(k, 0)


def test_rook_coeffs_validation():
    with pytest.raises(ValueError):
        white_rook_coeffs(-1, 0)
    with pytest.raises(ValueError):
        white_rook_coeffs(2, 2)


# --- bishop coefficients ---


def test_bishop_coeffs_frozen_vectors():
    assert bishop_coeffs(0, 0) == [Fraction(1)]
    assert bishop_coeffs(1, 0) == [Fraction(0), Fraction(0), Fraction(1)]
    assert bishop_coeffs(1, 1) == [Fraction(0), Fraction(0), Fraction(1)]


def test_bishop_two_piece_coeffs_equal_quartic_expansion():
    # Independent expansion of 12 C(m,4) + 14 C(m,3) + 4 C(m,2).
    weights = [Fraction(0), Fraction(0), Fraction(4), Fraction(14), Fraction(12)]
    want = binomial_basis_to_monomials(weights)
    assert want == [Fraction(0), Fraction(-1, 3), Fraction(1, 2), Fraction(-2, 3), Fraction(1, 2)]
    assert bishop_coeffs(2, 0) == want
    assert bishop_coeffs(2, 1) == want


def test_bishop_coeffs_match_interpolation():
    for k in (*range(13), 20):
        for par in (0, 1):
            assert bishop_coeffs(k, par) == _interpolated(bishops, k, par), (k, par)


def test_even_parity_convolves_each_pair_of_splits_once(monkeypatch):
    # At even m both colors have the same rook vectors, so split j and split
    # k - j give one product: k // 2 + 1 convolutions, against k + 1 at odd m.
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return kernel.convolve(a, b)

    monkeypatch.setattr(quasipoly, "convolve", counted)
    for k, par, want in ((40, 0, 21), (40, 1, 41), (5, 0, 3), (0, 0, 1)):
        calls.clear()
        bishop_coeffs(k, par)
        assert len(calls) == want, (k, par)


def test_one_constructor_gives_every_rook_and_bishop_vector():
    for k in range(9):
        white, black, bishop = rook_and_bishop_quasipolynomials(k)
        for par in (0, 1):
            assert list(white.coeffs[par]) == white_rook_coeffs(k, par), (k, par)
            assert list(black.coeffs[par]) == black_rook_coeffs(k, par), (k, par)
            assert list(bishop.coeffs[par]) == bishop_coeffs(k, par), (k, par)
        assert bishop == bishop_quasipolynomial(k)
        for qp in (white, black, bishop):
            assert (qp.degree, qp.period) == (2 * k, 2)


def test_one_constructor_rejects_negative_k():
    with pytest.raises(ValueError):
        rook_and_bishop_quasipolynomials(-1)


def test_bishop_coeffs_leading_term():
    for k in range(6):
        assert bishop_coeffs(k, 0)[2 * k] == Fraction(1, math.factorial(k))


def test_bishop_periods():
    for k, want in ((0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 2)):
        vectors = [bishop_coeffs(k, 0), bishop_coeffs(k, 1)]
        assert effective_period(vectors) == want, k


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
        assert anassa_quasipolynomial(k).period == 1


# --- quasipolynomial objects ---


def test_quasipolynomial_validation():
    with pytest.raises(ValueError):
        QuasiPolynomial(2, 2, ((Fraction(1),),))
    with pytest.raises(ValueError):
        QuasiPolynomial(1, 1, ((Fraction(1),),))
    qp = bishop_quasipolynomial(1)
    with pytest.raises(ValueError):
        qp.evaluate(-3)


def test_evaluation_integrality_guard():
    broken = QuasiPolynomial(0, 1, ((Fraction(1, 2),),))
    with pytest.raises(ArithmeticError, match="came out non-integral: 1/2$"):
        broken.evaluate(1)
    # 1/4 + 1/4 is summed over the denominator 4; the message shows it reduced.
    quarters = QuasiPolynomial(1, 1, ((Fraction(1, 4), Fraction(1, 4)),))
    with pytest.raises(ArithmeticError, match="came out non-integral: 1/2$"):
        quarters.evaluate(1)


def test_evaluate_matches_term_by_term_sum():
    # Integer-valued in m, with entries of both signs over the denominators
    # 1, 4, 6 and 24.
    even = binomial_basis_to_monomials([Fraction(n) for n in (3, -2, 5, -7, 4)])
    odd = binomial_basis_to_monomials([Fraction(n) for n in (-1, 6, 0, 9, -11)])
    assert {c.denominator for c in even + odd} == {1, 4, 6, 24}
    assert {c > 0 for c in even + odd} == {True, False}
    qp = QuasiPolynomial(4, 2, (tuple(even), tuple(odd)))
    for m in (*range(40), 10**12, 10**12 + 1):
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
    assert divide_by_falling_factorial(bishop_coeffs(2, 0), 2) == [
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
