"""
Placement counts as quasipolynomials in the board size
======================================================

Fix the piece count k and let the board size m grow: the count becomes a
polynomial in m of degree 2k, except that for three or more bishops the
coefficients alternate with the parity of m.  All coefficients are exact
rationals.
"""

import math
from fractions import Fraction

from chesscount import (
    anassa_quasipolynomial,
    anassas,
    bishop_quasipolynomial,
    bishops,
    divide_by_falling_factorial,
    effective_period,
    falling_factorial,
)

# Two bishops: a single degree-4 polynomial covers every board size.
# Coefficients are stored per parity of m, one vector per residue, so the
# degree is one less than a vector's length.  For k <= 2 the two vectors
# coincide, so the effective period is 1.
qp = bishop_quasipolynomial(2)
print("bishops, k=2: degree", len(qp.coeffs[0]) - 1,
      " effective period", effective_period(qp.coeffs))
print("  coefficients:", [str(c) for c in qp.coeffs[0]])
for m in range(12):
    assert qp.evaluate(m) == bishops(m, 2)

# Three bishops: the even-m and odd-m coefficient vectors differ, so the
# count is a genuine quasipolynomial of period 2.
qp3 = bishop_quasipolynomial(3)
print("\nbishops, k=3: degree", len(qp3.coeffs[0]) - 1,
      " effective period", effective_period(qp3.coeffs))
even, odd = qp3.coeffs
diffs = [i for i, (a, b) in enumerate(zip(even, odd)) if a != b]
print("  coefficients differ at powers:", diffs)
for m in range(14):
    assert qp3.evaluate(m) == bishops(m, 3)

# The leading coefficient is 1/k! for both pieces: asymptotically the
# nonattacking constraint costs only the usual ordering factor.
for k in range(1, 5):
    assert bishop_quasipolynomial(k).coeffs[0][-1] == Fraction(1, math.factorial(k))
print("\nleading coefficient is 1/k! for k <= 4")

# Anassa counts stay ordinary polynomials (period 1) and are divisible by
# the falling factorial m(m-1)...(m-k+1) in the polynomial ring.
qa = anassa_quasipolynomial(3)
quotient = divide_by_falling_factorial(list(qa.coeffs[0]), 3)
print("\nanassas, k=3 coefficients:", [str(c) for c in qa.coeffs[0]])
print("after dividing out (m)_3:  ", [str(c) for c in quotient])
for m in range(10):
    value = sum(c * m**i for i, c in enumerate(quotient)) * falling_factorial(m, 3)
    assert value == anassas(m, 3)
print("quotient times (m)_3 reproduces the counts")
