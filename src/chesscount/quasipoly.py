"""Exact quasipolynomial coefficients for the placement counts.

For a fixed piece count k, each placement count is a degree-2k polynomial
in the board size m, with coefficients that may depend on the parity of m
(period 2 for bishops, period 1 for anassas).  This module computes those
coefficient vectors exactly in the monomial basis.  They are built in
integers, as numerators over one known denominator per vector, and each
coefficient becomes a Fraction only in the last step, when it is returned.
The rook and bishop vectors of both parity classes come from one
constructor, the only place that picks each color's parity shift.  The
``coeffs`` handler sits here too, beside the routes it runs.
"""

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from .kernel import _basis_change_rows, assoc_stirling2, binomial
from .poly import convolve


def _monomial_numerators(weights: Sequence[int]) -> list[int]:
    # Monomial numerators over L = (len(weights) - 1)! of sum_i weights[i] * C(x, i),
    # by C(x, i) = x(x-1)...(x-i+1) / i!; L / i! is an integer.
    top = len(weights) - 1
    sums = [0] * len(weights)
    falling = [1]  # ascending coefficients of x(x-1)...(x-i+1)
    for i, w in enumerate(weights):
        if w:
            num = w * math.perm(top, top - i)
            for d, c in enumerate(falling):
                sums[d] += num * c
        falling = [lower - i * same for lower, same in zip([0, *falling], [*falling, 0])]
    return sums


def _rook_vectors(k: int, z: int) -> list[list[int]]:
    # Rook coefficient vectors for 0..k pieces at parity shift z, as monomial
    # numerators: vector n is over 4^k * (2n)!.  Over the basis C(m, i) it sums
    # A(p, p-j) * 4^(k-q) times the basis-change row (q, z, p) of the kernel over
    # j + q = n, p/2 <= j <= p.
    sums = [[0] * (2 * n + 1) for n in range(k + 1)]
    for q in range(k + 1):
        for p, row in enumerate(_basis_change_rows(q, z, 2 * (k - q))):
            for j in range((p + 1) // 2, min(p, k - q) + 1):
                weight = assoc_stirling2(p, p - j) * 4 ** (k - q)
                target = sums[q + j]
                for i, r in enumerate(row):
                    target[i] += weight * r
    return [_monomial_numerators(ws) for ws in sums]


def _bishop_from_rooks(
    k: int, white: Sequence[Sequence[int]], black: Sequence[Sequence[int]]
) -> list[Fraction]:
    # Bishop coefficients from the white and black _rook_vectors(k, .) of one
    # parity class.  Split j pairs white vector j, over 4^k (2j)!, with black
    # vector k - j, over 4^k (2k-2j)!; scaled by C(2k, 2j), every product lies
    # over 16^k (2k)!.
    products = [
        convolve([math.comb(2 * k, 2 * j) * c for c in white[j]], black[k - j])
        for j in range(k + 1)
    ]
    den = 16**k * math.factorial(2 * k)
    return [Fraction(sum(column), den) for column in zip(*products)]


def anassa_coeffs(k: int) -> list[Fraction]:
    """Monomial coefficients of m -> anassas(m, k); parity-independent.

    Weight of C(m, i) is sum over j of alpha(k, j) * sum over p of
    A(p+k-j, p) * sum over b of C(p,b) C(k, j-b) C(b, k+p-i), where
    alpha(k, j) = 2^(k-2j) * (C(k-j, j-1) + C(k-j+1, j)) * j! is an integer
    (2^(-1) arises only at odd k and j = (k+1)/2, where the bracket is 2).
    With c = k+p-i, Vandermonde's identity folds the sum over b into
    C(p, c) * C(p-c+k, j-c), so each (j, p) term is added once into every
    i it reaches, for c = 0..min(p, j).
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    weights = [0] * (2 * k + 1)
    for j in range((k + 1) // 2 + 1):
        bracket = binomial(k - j, j - 1) + binomial(k - j + 1, j)
        alpha = ((bracket << (k - 2 * j + 1)) >> 1) * math.factorial(j)
        for p in range(k - j + 1):
            block = alpha * assoc_stirling2(p + k - j, p)
            for c in range(min(p, j) + 1):
                weights[k + p - c] += block * math.comb(p, c) * math.comb(p - c + k, j - c)
    den = math.factorial(2 * k)
    return [Fraction(t, den) for t in _monomial_numerators(weights)]


class QuasiPolynomial(namedtuple("QuasiPolynomial", "coeffs")):
    """A quasipolynomial with one monomial coefficient vector per residue.

    ``coeffs[m % len(coeffs)]`` is the vector that applies to board size m;
    the period is ``len(coeffs)`` and the degree one less than the vectors'
    common length.  Vectors are stored per residue even when they coincide;
    :func:`effective_period` collapses the representation on demand.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[tuple[Fraction, ...], ...]) -> "QuasiPolynomial":
        if len({len(vec) for vec in coeffs}) != 1:  # also refuses no vectors
            raise ValueError("need one coefficient vector per residue class, all of one length")
        return super().__new__(cls, coeffs)

    def evaluate(self, m: int) -> int:
        """Exact value at any integer board size m, negative m too (must come out an integer)."""
        vec = self.coeffs[m % len(self.coeffs)]
        # Summed in integers over the coefficients' common denominator, so
        # the only Fraction is the total.
        den = math.lcm(*(c.denominator for c in vec))
        total = Fraction(
            sum(c.numerator * (den // c.denominator) * m**d for d, c in enumerate(vec)), den
        )
        if total.denominator != 1:
            raise ArithmeticError(f"evaluation at m={m} came out non-integral: {total}")
        return int(total)


def rook_and_bishop_quasipolynomials(k: int) -> tuple[QuasiPolynomial, ...]:
    """White-rook, black-rook and bishop counts for fixed k as period-2 quasipolynomials.

    This is the one place that picks each color's parity shift: at m parity p
    white reads the rook vectors at z = -p and black at z = +p, so at even m
    the two colors share one set.  The bishop vector of a class sums the
    products of the two colors' vectors over the splits of k; a degree-2j
    times a degree-2(k-j) vector lands exactly in degree 2k, so nothing is
    truncated.  ValueError if k < 0.
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    den = 4**k * math.factorial(2 * k)
    classes = []
    for p in (0, 1):
        white = _rook_vectors(k, -p)
        black = _rook_vectors(k, p) if p else white
        rooks = ([Fraction(c, den) for c in vectors[k]] for vectors in (white, black))
        classes.append((*rooks, _bishop_from_rooks(k, white, black)))
    return tuple(QuasiPolynomial(tuple(map(tuple, pair))) for pair in zip(*classes))


def bishop_quasipolynomial(k: int) -> QuasiPolynomial:
    """The bishop count for fixed k as a period-2 quasipolynomial in m."""
    return rook_and_bishop_quasipolynomials(k)[2]


def anassa_quasipolynomial(k: int) -> QuasiPolynomial:
    """The anassa count for fixed k as a plain polynomial in m."""
    return QuasiPolynomial((tuple(anassa_coeffs(k)),))


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


def _cmd_coeffs(args: SimpleNamespace) -> tuple[list[str], int]:
    """The ``coeffs`` handler, found through ``cli.GRAMMAR``: the text to print, and status 0."""
    from .cli import _SEPARATORS, _json, _UsageError

    if args.k < 0:
        raise _UsageError(f"k must be >= 0, got {args.k}")
    route = bishop_quasipolynomial if args.piece == "bishop" else anassa_quasipolynomial
    qp = route(args.k)
    period = effective_period(qp.coeffs)
    vectors = qp.coeffs[:period]
    if args.format == "json":
        payload = {
            "piece": args.piece,
            "k": args.k,
            "period": period,
            "coeffs": [[f"{c.numerator}/{c.denominator}" for c in vec] for vec in vectors],
        }
        return [_json(payload) + "\n"], 0
    sep = _SEPARATORS[args.format]
    return [sep.join(map(str, vec)) + "\n" for vec in vectors], 0
