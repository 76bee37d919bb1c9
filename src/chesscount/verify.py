"""Self-check suites: formulas against the brute-force oracle and identities.

Each suite returns a list of :class:`CheckResult`; a check fails by listing
the offending argument tuples with both values.  The CLI ``verify`` command
is a thin reporting layer over this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import formulas, quasipoly
from .board import (
    ANASSA_MOVES,
    BISHOP_MOVES,
    PIECES,
    bishop_color_board,
    count_nonattacking,
    count_nonattacking_below_diag,
    square_board,
    verify_collapse,
)
from .kernel import (
    assoc_stirling2,
    binomial,
    stirling1_unsigned,
    stirling2,
)


def _at(row: tuple[int, ...], k: int) -> int:
    """Entry k of a recurrence row, 0 past its end."""
    return row[k] if k < len(row) else 0


class CheckResult:
    """One check group: how many points it compared, and the ones that differed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return self.checks > 0 and not self.failures

    def compare(self, label: str, got: object, want: object) -> None:
        self.checks += 1
        if got != want:
            self.failures.append(f"{label}: got {got}, want {want}")


def suite_oracle(m_max: int = 5, k_pad: int = 2) -> list[CheckResult]:
    """All closed-form counts against exhaustive search on small boards."""
    results = []

    r = CheckResult("bishop closed form vs brute force")
    for m in range(m_max + 1):
        board = square_board(m)
        for k in range(formulas.max_pieces("bishop", m) + k_pad + 1):
            r.compare(
                f"bishop m={m} k={k}",
                formulas.bishops(m, k),
                count_nonattacking(board, BISHOP_MOVES, k),
            )
    results.append(r)

    r = CheckResult("anassa closed form vs brute force")
    for m in range(m_max + 1):
        board = square_board(m)
        for k in range(m + k_pad + 1):
            r.compare(
                f"anassa m={m} k={k}",
                formulas.anassas(m, k),
                count_nonattacking(board, ANASSA_MOVES, k),
            )
    results.append(r)

    r = CheckResult("anassa diagonal split vs brute force")
    for m in range(m_max + 1):
        for k in range(m + 1):
            for p in range(k + 2):
                r.compare(
                    f"anassa m={m} k={k} p={p}",
                    formulas.anassas_split(m, k, p),
                    count_nonattacking_below_diag(m, k, p),
                )
    results.append(r)

    r = CheckResult("bishop counts factor over the two colors")
    for m in range(m_max + 1):
        white = bishop_color_board(m, "white")
        black = bishop_color_board(m, "black")
        board = square_board(m)
        for k in range(formulas.max_pieces("bishop", m) + 1):
            split = sum(
                count_nonattacking(white, BISHOP_MOVES, j)
                * count_nonattacking(black, BISHOP_MOVES, k - j)
                for j in range(k + 1)
            )
            r.compare(
                f"color split m={m} k={k}",
                split,
                count_nonattacking(board, BISHOP_MOVES, k),
            )
    results.append(r)

    return results


def suite_collapse(m_max: int = 6) -> list[CheckResult]:
    """Removing the inductive subset collapses counts one board size down."""
    r = CheckResult("inductive subset collapse")
    for piece in PIECES:
        for m in range(1, m_max + 1):
            r.checks += 1
            if not verify_collapse(m, piece, formulas.max_pieces(piece, m)):
                r.failures.append(f"{piece} m={m}: reduced board does not match size {m - 1}")
    return [r]


def suite_identities(m_max: int = 20, k_max: int = 8) -> list[CheckResult]:
    """Cross-formula and special-value identities at desk scale.

    "bishop counts: three routes agree" and "anassa split" stop at
    m = min(m_max, 12), whatever m_max is: their check counts are pinned.
    """
    results = []

    r = CheckResult("extended binomials: Pascal rule and symmetry")
    for n in range(-10, 11):
        for k in range(-10, 11):
            if (n, k) != (0, 0):
                r.compare(
                    f"Pascal n={n} k={k}",
                    binomial(n, k),
                    binomial(n - 1, k) + binomial(n - 1, k - 1),
                )
            r.compare(f"symmetry n={n} k={k}", binomial(n, k), binomial(n, n - k))
    results.append(r)

    r = CheckResult("extended Stirling: first/second kind duality")
    for n in range(13):
        for k in range(13):
            r.compare(
                f"duality n={n} k={k}",
                stirling2(-n, -k),
                stirling1_unsigned(k, n) if k >= 0 else 0,
            )
    results.append(r)

    r = CheckResult("first-kind alternating row sums vanish")
    for j in range(13):
        total = sum((-1) ** (i & 1) * stirling1_unsigned(j + 1, i + 1) for i in range(j + 1))
        r.compare(f"row j={j}", total, 1 if j == 0 else 0)
    results.append(r)

    r = CheckResult("central binomial alternating sum")
    for k in range(21):
        total = sum(
            Fraction((-1) ** (j & 1) * binomial(k - j, k - 2 * j)) * Fraction(2) ** (k - 2 * j)
            for j in range((k + 1) // 2 + 1)
        )
        r.compare(f"k={k}", total, k + 1)
    results.append(r)

    r = CheckResult("second-kind Stirling via block-size expansion")
    for k in range(k_max + 1):
        for m in range(m_max + 1):
            expansion = sum(
                assoc_stirling2(k + p, p) * binomial(m, k + p) for p in range(k + 1)
            )
            r.compare(f"m={m} k={k}", expansion, stirling2(m, m - k))
    results.append(r)

    r = CheckResult("one-color rook counts: three routes agree")
    colors = [formulas.rook_rows(m_max, c) for c in ("white", "black")]
    for m, (white, black) in enumerate(zip(*colors)):
        for k in range(11):
            closed = formulas.white_rooks(m, k)
            r.compare(f"white rec m={m} k={k}", _at(white, k), closed)
            r.compare(f"white alt m={m} k={k}", formulas.white_rooks_alt(m, k), closed)
            r.compare(f"black rec m={m} k={k}", _at(black, k), formulas.black_rooks(m, k))
    results.append(r)

    r = CheckResult("even boards: the two colors agree")
    for m in range(0, m_max + 1, 2):
        for k in range(11):
            r.compare(
                f"m={m} k={k}", formulas.white_rooks(m, k), formulas.black_rooks(m, k)
            )
    results.append(r)

    small = min(m_max, 12)
    r = CheckResult("bishop counts: three routes agree")
    # Table rows convolve the black and white rook_rows of each size.
    bishop_rows = formulas.count_table("bishop", small).rows
    for m, row in enumerate(bishop_rows):
        for k in range(11):
            closed = formulas.bishops(m, k)
            r.compare(f"convolution m={m} k={k}", _at(row, k), closed)
            r.compare(f"classic m={m} k={k}", formulas.bishops_classic(m, k), closed)
    results.append(r)

    r = CheckResult("anassa split: recurrence, closed form, and total agree")
    for m, tri in enumerate(formulas.anassa_split_rows(small)):
        for k in range(k_max + 1):
            split = tri[k] if k <= m else ()
            for p in range(k + 1):
                r.compare(
                    f"rec m={m} k={k} p={p}", _at(split, p), formulas.anassas_split(m, k, p)
                )
            r.compare(
                f"sum m={m} k={k}",
                formulas.anassas_by_split_sum(m, k),
                formulas.anassas(m, k),
            )
            r.compare(
                f"telescoped m={m} k={k}",
                formulas.anassas_split(m, k, k),
                stirling2(m, m - k),
            )
    results.append(r)

    r = CheckResult("two bishops: explicit quartic")
    for m in range(m_max + 1):
        quartic = 12 * binomial(m, 4) + 14 * binomial(m, 3) + 4 * binomial(m, 2)
        r.compare(f"m={m}", formulas.bishops(m, 2), quartic)
    results.append(r)

    r = CheckResult("size -1 evaluates to k! for both pieces")
    for k in range(k_max + 1):
        r.compare(f"bishop k={k}", formulas.bishops(-1, k), math.factorial(k))
        r.compare(f"anassa k={k}", formulas.anassas(-1, k), math.factorial(k))
    results.append(r)

    r = CheckResult("saturated anassa count: two summations and the closed form")
    for m in range(9):
        first, second = formulas.anassas_diagonal(m)
        r.compare(f"pair m={m}", first, second)
        r.compare(f"closed m={m}", formulas.anassas(m, m), first)
    results.append(r)

    r = CheckResult("binomial basis change identity")
    for p in range(5):
        for q in range(5):
            for z in (-1, 0, 1):
                weights = [quasipoly.basis_change_coeff(p, q, z, i) for i in range(p + q + 1)]
                for x in range(11):
                    lhs = binomial(2 * x + z - q, p) * binomial(x, q)
                    rhs = sum(w * binomial(2 * x + z, i) for i, w in enumerate(weights))
                    r.compare(f"p={p} q={q} z={z} x={x}", rhs, lhs)
    results.append(r)

    return results


def suite_coeffs(k_max: int = 4) -> list[CheckResult]:
    """Quasipolynomial coefficient vectors against the closed-form counts."""
    results = []

    r = CheckResult("bishop quasipolynomial round trip")
    for k in range(k_max + 1):
        qp = quasipoly.bishop_quasipolynomial(k)
        for m in range(2 * k + 7):
            r.compare(f"bishop k={k} m={m}", qp.evaluate(m), formulas.bishops(m, k))
    results.append(r)

    r = CheckResult("anassa polynomial round trip")
    for k in range(k_max + 1):
        qp = quasipoly.anassa_quasipolynomial(k)
        for m in range(2 * k + 7):
            r.compare(f"anassa k={k} m={m}", qp.evaluate(m), formulas.anassas(m, k))
    results.append(r)

    r = CheckResult("one-color rook coefficient round trip")
    for k in range(k_max + 1):
        for par in (0, 1):
            white = quasipoly.white_rook_coeffs(k, par)
            black = quasipoly.black_rook_coeffs(k, par)
            for m in range(par, 2 * k + 7, 2):
                val_w = sum(c * m**d for d, c in enumerate(white))
                val_b = sum(c * m**d for d, c in enumerate(black))
                r.compare(f"white k={k} m={m}", val_w, formulas.white_rooks(m, k))
                r.compare(f"black k={k} m={m}", val_b, formulas.black_rooks(m, k))
    results.append(r)

    r = CheckResult("coefficient structure: periods, divisibility, denominators")
    expected_period = {0: 1, 1: 1, 2: 1, 3: 2}
    for k in range(min(k_max, 3) + 1):
        vecs = [quasipoly.bishop_coeffs(k, 0), quasipoly.bishop_coeffs(k, 1)]
        r.compare(f"bishop period k={k}", quasipoly.effective_period(vecs), expected_period[k])
    for k in range(k_max + 1):
        vec = quasipoly.anassa_coeffs(k)
        r.checks += 1
        try:
            quasipoly.divide_by_falling_factorial(vec, k)
        except ArithmeticError as exc:
            r.failures.append(f"anassa k={k} not divisible by the falling factorial: {exc}")
        bound = math.factorial(2 * k) * 4**k
        white = quasipoly.white_rook_coeffs(k, 0)
        for vec2 in (
            vec,
            quasipoly.bishop_coeffs(k, 0),
            quasipoly.bishop_coeffs(k, 1),
            white,
            quasipoly.white_rook_coeffs(k, 1),
        ):
            r.checks += 1
            bad = [c for c in vec2 if bound % c.denominator]
            if bad:
                r.failures.append(f"k={k}: denominators {bad} exceed (2k)! * 4^k")
        r.compare(f"anassa lead k={k}", vec[2 * k], Fraction(1, math.factorial(k)))
        lead = Fraction(1, 2**k * math.factorial(k))
        r.compare(f"white rook lead k={k}", white[2 * k], lead)
    results.append(r)

    return results


SUITES = {
    "oracle": suite_oracle,
    "identities": suite_identities,
    "collapse": suite_collapse,
    "coeffs": suite_coeffs,
}

# The bounds each suite takes, read from its parameter names; ``all`` passes
# each bound to the suites that take it.
BOUNDS = {
    n: {"m_max", "k_max"} & set(f.__code__.co_varnames[: f.__code__.co_argcount])
    for n, f in SUITES.items()
}


def check_bounds(name: str, m_max: int | None = None, k_max: int | None = None) -> None:
    """Raise ValueError for an unknown suite, a negative bound, or a bound the suite ignores."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    for bound, value in (("m_max", m_max), ("k_max", k_max)):
        if value is not None and value < 0:
            raise ValueError(f"{bound} must be >= 0, got {value}")
        if value is not None and name != "all" and bound not in BOUNDS[name]:
            raise ValueError(f"suite {name!r} takes no {bound}")


def run_suite(name: str, m_max: int | None = None, k_max: int | None = None) -> list[CheckResult]:
    """Run one named suite (or ``all``) with optional bound overrides."""
    check_bounds(name, m_max, k_max)
    given = {"m_max": m_max, "k_max": k_max}
    results: list[CheckResult] = []
    for n in SUITES if name == "all" else [name]:
        kwargs = {bound: given[bound] for bound in BOUNDS[n] if given[bound] is not None}
        results.extend(SUITES[n](**kwargs))
    return results
