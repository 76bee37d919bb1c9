"""The ``coeffs`` suite: quasipolynomial coefficient vectors against the closed forms."""

import math
from fractions import Fraction

from . import formulas, quasipoly
from .verify import CheckResult


def suite_coeffs(k_max: int = 4) -> list[CheckResult]:
    """Quasipolynomial coefficient vectors against the closed-form counts."""
    # One constructor call per k builds each rook vector set once per parity
    # shift and serves the bishop and both one-color rook families.
    ks = range(k_max + 1)
    white, black, bishop = zip(*map(quasipoly.rook_and_bishop_quasipolynomials, ks))
    anassa = [quasipoly.anassa_quasipolynomial(k) for k in ks]
    results = []

    round_trips = [
        ("bishop quasipolynomial round trip", [("bishop", bishop, formulas.bishops)]),
        ("anassa polynomial round trip", [("anassa", anassa, formulas.anassas)]),
        (
            "one-color rook coefficient round trip",
            [("white", white, formulas.white_rooks), ("black", black, formulas.black_rooks)],
        ),
    ]
    for name, families in round_trips:
        r = CheckResult(name)
        for label, qps, closed in families:
            for k, qp in enumerate(qps):
                for m in range(2 * k + 7):
                    r.compare(f"{label} k={k} m={m}", qp.evaluate(m), closed(m, k))
        results.append(r)

    r = CheckResult("coefficient structure: periods, divisibility, denominators")
    expected_period = {0: 1, 1: 1, 2: 1, 3: 2}
    for k in range(min(k_max, 3) + 1):
        r.compare(
            f"bishop period k={k}", quasipoly.effective_period(bishop[k].coeffs), expected_period[k]
        )
    for k in ks:
        vec = anassa[k].coeffs[0]
        r.checks += 1
        try:
            quasipoly.divide_by_falling_factorial(vec, k)
        except ArithmeticError as exc:
            r.failures.append(f"anassa k={k} not divisible by the falling factorial: {exc}")
        bound = math.factorial(2 * k) * 4**k
        for vec2 in (vec, *bishop[k].coeffs, *white[k].coeffs):
            r.checks += 1
            bad = [c for c in vec2 if bound % c.denominator]
            if bad:
                r.failures.append(f"k={k}: denominators {bad} exceed (2k)! * 4^k")
        r.compare(f"anassa lead k={k}", vec[2 * k], Fraction(1, math.factorial(k)))
        lead = Fraction(1, 2**k * math.factorial(k))
        r.compare(f"white rook lead k={k}", white[k].coeffs[0][2 * k], lead)
    results.append(r)

    return results
