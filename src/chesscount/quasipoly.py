"""Exact quasipolynomial coefficients for the placement counts.

For a fixed piece count k, each placement count is a degree-2k polynomial
in the board size m, with coefficients that may depend on the parity of m
(period 2 for bishops, period 1 for anassas).  This module computes those
coefficient vectors exactly, as Fractions in the monomial basis.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .kernel import assoc_stirling2, binomial, convolve, stirling1_unsigned


def _basis_change_row(p: int, q: int, z: int) -> list[int]:
    # 4^q * basis_change_coeff(p, q, z, i) for i = 0..p+q.
    row = [0] * (p + q + 1)
    for b in range(q + 1):
        scale = 2**b * binomial(2 * q - b, q)
        for a in range(b + 1):
            outer = scale * binomial(p + b - q - z, a) * binomial(q + z, b - a)
            if outer:
                for i in range(p + b + 1):
                    row[i] += outer * binomial(a - q, p + b - i)
    return row


def basis_change_coeff(p: int, q: int, z: int, i: int) -> Fraction:
    """Coefficient of C(2x+z, i) when expanding C(2x+z-q, p) * C(x, q).

    The product is a polynomial of degree p + q in x, so it has a unique
    expansion over the basis {C(2x+z, i)}; this returns the i-th weight.
    Zero outside 0 <= i <= p + q, and the denominator always divides 4^q.
    """
    if p < 0 or q < 0:
        raise ValueError("basis_change_coeff needs p, q >= 0")
    if i < 0 or i > p + q:
        return Fraction(0)
    return Fraction(_basis_change_row(p, q, z)[i], 4**q)


def binomial_basis_to_monomials(weights: Sequence[Fraction]) -> list[Fraction]:
    """Convert sum_i w_i * C(x, i) into monomial coefficients.

    Uses C(x, i) = sum_d ((-1)^(i-d) / i!) * c(i, d) * x^d with c the
    unsigned first-kind Stirling numbers, summed in integers over the common
    denominator of the w_i / i!, so each coefficient takes one division.
    """
    den = math.lcm(*(w.denominator * math.factorial(i) for i, w in enumerate(weights)))
    sums = [0] * len(weights)
    for i, w in enumerate(weights):
        if not w:
            continue
        num = w.numerator * (den // (w.denominator * math.factorial(i)))
        for d in range(i + 1):
            sums[d] += (-1) ** (i - d) * num * stirling1_unsigned(i, d)
    return [Fraction(t, den) for t in sums]


def _rook_vectors(k: int, z: int) -> list[list[Fraction]]:
    # Rook coefficient vectors for 0..k pieces at parity shift z: vector n sums
    # A(p, p-j) * 4^k * basis_change_coeff(p, q, z, .) over j + q = n, p/2 <= j <= p.
    sums = [[0] * (2 * n + 1) for n in range(k + 1)]
    for q in range(k + 1):
        for p in range(2 * (k - q) + 1):
            row = _basis_change_row(p, q, z)
            for j in range((p + 1) // 2, min(p, k - q) + 1):
                weight = assoc_stirling2(p, p - j) * 4 ** (k - q)
                target = sums[q + j]
                for i, r in enumerate(row):
                    target[i] += weight * r
    return [binomial_basis_to_monomials([Fraction(w, 4**k) for w in ws]) for ws in sums]


def _check_count_parity(k: int, m_parity: int) -> None:
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    if m_parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {m_parity}")


def white_rook_coeffs(k: int, m_parity: int) -> list[Fraction]:
    """Monomial coefficients of m -> white_rooks(m, k) on one parity class.

    Valid for every m >= 0 with m % 2 == m_parity; length 2k + 1.
    """
    _check_count_parity(k, m_parity)
    return _rook_vectors(k, -m_parity)[k]


def black_rook_coeffs(k: int, m_parity: int) -> list[Fraction]:
    """Monomial coefficients of m -> black_rooks(m, k) on one parity class."""
    _check_count_parity(k, m_parity)
    return _rook_vectors(k, m_parity)[k]


def bishop_coeffs(k: int, m_parity: int) -> list[Fraction]:
    """Monomial coefficients of m -> bishops(m, k) on one parity class.

    Sum over the splits of k of the products of the white and black rook
    coefficient vectors; the product of a degree-2j and a degree-2(k-j)
    vector lands exactly in degree 2k, so no truncation is involved.
    """
    _check_count_parity(k, m_parity)
    white = _rook_vectors(k, -m_parity)
    black = _rook_vectors(k, m_parity) if m_parity else white
    return [sum(column) for column in zip(*map(convolve, white, reversed(black)))]


def anassa_coeffs(k: int) -> list[Fraction]:
    """Monomial coefficients of m -> anassas(m, k); parity-independent.

    Weight of C(m, i) is sum over j of alpha(k, j) * sum over p of
    A(p+k-j, p) * sum over b of C(p,b) C(k, j-b) C(b, k+p-i), where
    alpha(k, j) = 2^(k-2j) * (C(k-j, j-1) + C(k-j+1, j)) * j!.
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    half = (k + 1) // 2
    weights = []
    for i in range(2 * k + 1):
        w = Fraction(0)
        for j in range(min(half, 2 * k - i) + 1):
            bracket = binomial(k - j, j - 1) + binomial(k - j + 1, j)
            if not bracket:
                continue
            alpha = Fraction(2) ** (k - 2 * j) * bracket * math.factorial(j)
            inner = 0
            for p in range(max(0, i - k), k - j + 1):
                block = assoc_stirling2(p + k - j, p)
                if not block:
                    continue
                inner += block * sum(
                    binomial(p, b) * binomial(k, j - b) * binomial(b, k + p - i)
                    for b in range(j + 1)
                )
            w += alpha * inner
        weights.append(w)
    return binomial_basis_to_monomials(weights)


class QuasiPolynomial(namedtuple("QuasiPolynomial", "degree period coeffs")):
    """Degree-``degree`` quasipolynomial with one coefficient vector per residue.

    ``coeffs[m % period]`` is the monomial coefficient vector that applies to
    board size m.  Coefficient vectors are stored per residue even when they
    coincide; :func:`effective_period` collapses the representation on demand.
    """

    __slots__ = ()

    def __new__(
        cls, degree: int, period: int, coeffs: tuple[tuple[Fraction, ...], ...]
    ) -> QuasiPolynomial:
        if period < 1 or len(coeffs) != period:
            raise ValueError("need one coefficient vector per residue class")
        for vec in coeffs:
            if len(vec) != degree + 1:
                raise ValueError("coefficient vectors must have length degree + 1")
        return super().__new__(cls, degree, period, coeffs)

    def evaluate(self, m: int) -> int:
        """Exact value at board size m >= 0 (must come out an integer)."""
        if m < 0:
            raise ValueError(f"board size must be >= 0, got {m}")
        vec = self.coeffs[m % self.period]
        total = sum((c * m**d for d, c in enumerate(vec)), Fraction(0))
        if total.denominator != 1:
            raise ArithmeticError(f"evaluation at m={m} came out non-integral: {total}")
        return int(total)


def bishop_quasipolynomial(k: int) -> QuasiPolynomial:
    """The bishop count for fixed k as a period-2 quasipolynomial in m."""
    return QuasiPolynomial(
        2 * k, 2, (tuple(bishop_coeffs(k, 0)), tuple(bishop_coeffs(k, 1)))
    )


def anassa_quasipolynomial(k: int) -> QuasiPolynomial:
    """The anassa count for fixed k as a plain polynomial in m."""
    return QuasiPolynomial(2 * k, 1, (tuple(anassa_coeffs(k)),))


def effective_period(residue_vectors: Sequence[Sequence[Fraction]]) -> int:
    """1 if all residue vectors coincide, else the number of residues."""
    if not residue_vectors:
        raise ValueError("need at least one residue vector")
    vecs = [tuple(v) for v in residue_vectors]
    return 1 if all(v == vecs[0] for v in vecs[1:]) else len(vecs)


def divide_by_falling_factorial(
    coeffs: Sequence[Fraction], k: int
) -> list[Fraction]:
    """Divide a polynomial (ascending coefficients) by m(m-1)...(m-k+1).

    Synthetic division root by root at m = 0, 1, ..., k-1.  A nonzero
    remainder at any root means the claimed divisibility fails; that is
    reported by raising, never dropped.
    """
    if k < 0:
        raise ValueError(f"falling factorial degree must be >= 0, got {k}")
    current = [Fraction(c) for c in coeffs]
    for root in range(k):
        if len(current) < 2:
            raise ArithmeticError(f"polynomial of degree {len(current) - 1} has no factor m - {root}")
        acc = Fraction(0)
        stages = []
        for c in reversed(current):
            acc = acc * root + c
            stages.append(acc)
        remainder = stages.pop()
        if remainder:
            raise ArithmeticError(f"nonzero remainder {remainder} dividing by m - {root}")
        current = list(reversed(stages))
    return current
