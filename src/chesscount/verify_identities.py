"""The ``identities`` suite; it checks the basis change on the kernel's integer rows."""

import math

from . import formulas, rows
from .kernel import (
    _basis_change_rows,
    assoc_stirling2,
    binomial,
    convolve,
    stirling1_unsigned,
    stirling2,
)
from .verify import CheckResult, _at


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
        # Stops at k // 2: at odd k, the term j = (k+1)/2 (weight 2^-1) is C(k-j, -1) = 0.
        total = sum(
            (-1) ** (j & 1) * binomial(k - j, k - 2 * j) * 2 ** (k - 2 * j)
            for j in range(k // 2 + 1)
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
