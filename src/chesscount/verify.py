"""Self-check suites: formulas against the brute-force oracle and identities.

Each suite returns a list of :class:`CheckResult`; a check fails by listing
the offending argument tuples with both values.  The CLI ``verify`` command
is a thin reporting layer over this module.
"""

import math

# ``board`` loads inside the suites that search boards, ``rows`` inside the
# two that read a recurrence or ``max_pieces``, and ``quasipoly`` and
# ``fractions`` inside ``suite_coeffs``, so a process imports only what its
# suites run.  The identities check the integer basis-change rows directly.
from . import formulas
from .kernel import (
    _basis_change_rows,
    assoc_stirling2,
    binomial,
    convolve,
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


_PAST_MAX = 2  # sizes checked past the largest feasible one, where both sides must read 0


def suite_oracle(m_max: int = 5) -> list[CheckResult]:
    """All closed-form counts against exhaustive search on small boards."""
    from . import rows
    from .board import (
        ANASSA_MOVES,
        BISHOP_MOVES,
        PIECES,
        bishop_color_board,
        placement_counts,
        placement_profile,
        square_board,
    )

    # Nothing caches a search, so each step searches each distinct board once
    # and keeps the result: at m <= 1 a color board equals the square board,
    # and the anassa totals are summed from the split profile.
    closed = {piece: CheckResult(f"{piece} closed form vs brute force") for piece in PIECES}
    split = CheckResult("anassa diagonal split vs brute force")
    colors = CheckResult("bishop counts factor over the two colors")
    for m in range(m_max + 1):
        board = square_board(m)
        white, black = (bishop_color_board(m, c) for c in ("white", "black"))
        boards = dict.fromkeys((board, white, black))
        bishop = {b: placement_counts(b, BISHOP_MOVES) for b in boards}
        below_diagonal = frozenset((c, r) for c, r in board if r < c)
        below = placement_profile(board, ANASSA_MOVES, below_diagonal)
        anassa = [0] * (m + 1)
        for (k, _), n in below.items():
            anassa[k] += n
        counts = {"bishop": bishop[board], "anassa": anassa}
        for piece, route in (("bishop", formulas.bishops), ("anassa", formulas.anassas)):
            for k in range(rows.max_pieces(piece, m) + _PAST_MAX + 1):
                closed[piece].compare(
                    f"{piece} m={m} k={k}", route(m, k), _at(counts[piece], k)
                )
        for k in range(m + 1):
            for p in range(k + 2):
                split.compare(
                    f"anassa m={m} k={k} p={p}",
                    formulas.anassas_split(m, k, p),
                    below.get((k, p), 0),
                )
        product = convolve(bishop[white], bishop[black])
        for k in range(rows.max_pieces("bishop", m) + 1):
            colors.compare(f"color split m={m} k={k}", _at(product, k), _at(counts["bishop"], k))
    return [*closed.values(), split, colors]


def suite_collapse(m_max: int = 6) -> list[CheckResult]:
    """Removing the inductive subset collapses counts one board size down."""
    from .board import PIECES, inductive_subset, placement_counts, square_board

    # Both count tuples stop at their largest feasible size, so equal tuples
    # mean equal counts for every number of pieces.
    r = CheckResult("inductive subset collapse")
    for piece, moves in PIECES.items():
        for m in range(1, m_max + 1):
            reduced = square_board(m) - inductive_subset(m, piece)
            r.compare(
                f"{piece} m={m}",
                placement_counts(reduced, moves),
                placement_counts(square_board(m - 1), moves),
            )
    return [r]


def suite_identities(m_max: int = 20, k_max: int = 8) -> list[CheckResult]:
    """Cross-formula and special-value identities at desk scale.

    "bishop counts: three routes agree" and "anassa split" stop at
    m = min(m_max, 12), whatever m_max is: their check counts are pinned.
    """
    from . import rows

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
    # Row k holds the coefficients of x(x+1)...(x+k-1), whose x^n term is
    # the unsigned first-kind number c(k, n), built without the kernel's table.
    rising = [(1,)]
    for k in range(12):
        rising.append(convolve(rising[-1], (k, 1)))
    for n in range(13):
        for k in range(13):
            r.compare(f"duality n={n} k={k}", stirling2(-n, -k), _at(rising[k], n))
    results.append(r)

    r = CheckResult("first-kind alternating row sums vanish")
    for j in range(13):
        total = sum((-1) ** (i & 1) * stirling1_unsigned(j + 1, i + 1) for i in range(j + 1))
        r.compare(f"row j={j}", total, 1 if j == 0 else 0)
    results.append(r)

    r = CheckResult("central binomial alternating sum")
    for k in range(21):
        # Twice each term; the one with 2^-1 meets C(k-j, -1) = 0.
        twice = sum(
            (-1) ** (j & 1) * binomial(k - j, k - 2 * j) * 2 ** (k - 2 * j + 1)
            for j in range((k + 1) // 2 + 1)
        )
        r.compare(f"k={k}", twice, 2 * (k + 1))
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
    # On even boards the two colors are mirror images that the two
    # recurrences reach by different steps.
    even = CheckResult("even boards: the two colors agree")
    colors = [rows.rook_rows(m_max, c) for c in ("white", "black")]
    for m, (white, black) in enumerate(zip(*colors)):
        for k in range(11):
            closed = formulas.white_rooks(m, k)
            r.compare(f"white rec m={m} k={k}", _at(white, k), closed)
            r.compare(f"white alt m={m} k={k}", rows.white_rooks_alt(m, k), closed)
            r.compare(f"black rec m={m} k={k}", _at(black, k), formulas.black_rooks(m, k))
            if m % 2 == 0:
                even.compare(f"m={m} k={k}", _at(white, k), _at(black, k))
    results += [r, even]

    small = min(m_max, 12)
    r = CheckResult("bishop counts: three routes agree")
    # Table rows convolve the black and white rook_rows of each size; the
    # alternating sums use no Stirling number and no recurrence.
    for m, row in enumerate(rows.count_table("bishop", small)):
        white = [rows.white_rooks_alt(m, j) for j in range(11)]
        black = [rows.black_rooks_alt(m, j) for j in range(11)]
        for k in range(11):
            closed = formulas.bishops(m, k)
            r.compare(f"convolution m={m} k={k}", _at(row, k), closed)
            alternating = sum(white[j] * black[k - j] for j in range(k + 1))
            r.compare(f"alternating m={m} k={k}", alternating, closed)
    results.append(r)

    r = CheckResult("anassa split: recurrence, closed form, and total agree")
    for m, tri in enumerate(rows.anassa_split_rows(small)):
        for k in range(k_max + 1):
            split = tri[k] if k <= m else ()
            closed = [formulas.anassas_split(m, k, p) for p in range(k + 1)]
            for p, value in enumerate(closed):
                r.compare(f"rec m={m} k={k} p={p}", _at(split, p), value)
            r.compare(f"sum m={m} k={k}", sum(closed), formulas.anassas(m, k))
            r.compare(f"telescoped m={m} k={k}", closed[k], stirling2(m, m - k))
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
        first, second = rows.anassas_diagonal(m)
        r.compare(f"pair m={m}", first, second)
        r.compare(f"closed m={m}", formulas.anassas(m, m), first)
    results.append(r)

    r = CheckResult("binomial basis change identity")
    for p in range(5):
        for q in range(5):
            for z in (-1, 0, 1):
                # The row holds the weights times 4^q, all integers.
                *_, row = _basis_change_rows(q, z, p)
                for x in range(11):
                    lhs = 4**q * binomial(2 * x + z - q, p) * binomial(x, q)
                    rhs = sum(w * binomial(2 * x + z, i) for i, w in enumerate(row))
                    r.compare(f"p={p} q={q} z={z} x={x}", rhs, lhs)
    results.append(r)

    return results


def suite_coeffs(k_max: int = 4) -> list[CheckResult]:
    """Quasipolynomial coefficient vectors against the closed-form counts."""
    from fractions import Fraction

    from . import quasipoly

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
