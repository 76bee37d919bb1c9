"""The ``identities`` suite, and the routes to the counts that only it reads.

Those routes are the paper's p-split anassa recurrence
(:func:`anassa_split_rows`), the classical alternating sums of the
one-color rook counts (:func:`white_rooks_alt`, :func:`black_rooks_alt`),
which use neither a Stirling number nor a recurrence, and the two sums of
the saturated anassa count (:func:`anassas_diagonal`).  The suite also
checks the basis change on the kernel's integer rows.
"""

import math
from collections.abc import Iterator

from . import formulas, rows
from .kernel import (
    _basis_change_rows,
    assoc_stirling2,
    binomial,
    stirling1_unsigned,
    stirling2,
)
from .poly import convolve
from .verify import CheckResult, _at


def anassa_split_rows(m_max: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Diagonal-split anassa counts by recurrence on the board size.

    Yields, for m = 0 .. m_max, the triangle whose row k (k <= m) holds
    A(m, k, p) for p = 0 .. k; entries outside it are 0.  A(0, 0, 0) = 1 and
    A(m,k,p) = A(m-1,k,p) + (m-k+1) A(m-1,k-1,p) + (m-p) A(m-1,k-1,p-1)
    + (m-p)(m-k+1) A(m-1,k-2,p-1): the two new-square choices are the new
    corner column below the diagonal and the new top row on or above it.
    Raises ValueError, when iterated, for m_max < 0.
    """
    if m_max < 0:
        raise ValueError(f"anassa_split_rows needs m_max >= 0, got {m_max}")
    tri = [[1]]
    yield ((1,),)
    for m in range(1, m_max + 1):
        tri.append([0] * (m + 1))
        # The corner column (m - p squares; its piece raises p), then the
        # top row (m - k + 1 squares).  Each pass runs k downward, so it
        # reads row k - 1 before changing it.
        for k in range(m, 0, -1):
            row, prev = tri[k], tri[k - 1]
            for p in range(1, k + 1):
                row[p] += (m - p) * prev[p - 1]
        for k in range(m, 0, -1):
            row, prev = tri[k], tri[k - 1]
            for p in range(k):
                row[p] += (m - k + 1) * prev[p]
        yield tuple(map(tuple, tri))


def _rooks_alt(m: int, k: int, half: int) -> int:
    if m < 0 or k < 0:
        raise ValueError(f"the alternating sum needs m, k >= 0, got m={m}, k={k}")
    t = m - k
    if t < 0:
        return 0
    total = sum(
        binomial(t, j) * (-1) ** ((t - j) & 1) * (j + 1) ** half * j ** (m - half)
        for j in range(t + 1)
    )
    q, r = divmod(total, math.factorial(t))
    if r:
        raise ArithmeticError(f"alternating sum for m={m}, k={k} not divisible by {t}!")
    return q


def white_rooks_alt(m: int, k: int) -> int:
    """White-square rook counts via the classical alternating sum; needs m, k >= 0.

    With t = m - k and h = ceil(m/2):  (1/t!) * sum over j of C(t, j)
    * (-1)^(t-j) * (j+1)^h * j^(m-h); zero when k > m.  The division is
    exact; a nonzero remainder would mean a bug.
    """
    return _rooks_alt(m, k, (m + 1) // 2)


def black_rooks_alt(m: int, k: int) -> int:
    """Companion to :func:`white_rooks_alt` for the black-square board: h = floor(m/2)."""
    return _rooks_alt(m, k, m // 2)


def anassas_diagonal(m: int) -> tuple[int, int]:
    """The saturated count (k = m anassas) computed two independent ways.

    Returns (sum over j of C(m+1,j) * S(m,j) * j! / 2^j,
             sum over j of C(m+1,j) * j^m, divided by 2^(m+1)).
    Both are exact; the pair is returned unmerged so callers can assert
    they agree.
    """
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    # 2^m times the first sum, and the second before its division.
    first = sum(
        (binomial(m + 1, j) * stirling2(m, j) * math.factorial(j)) << (m - j)
        for j in range(m + 1)
    )
    second = sum(binomial(m + 1, j) * j**m for j in range(m + 2))
    if first % 2**m or second % 2 ** (m + 1):
        raise ArithmeticError(f"saturated anassa count for m={m} came out non-integral")
    return first >> m, second >> (m + 1)


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
    for m, (white, black) in enumerate(rows.rook_rows(m_max)):
        for k in range(11):
            closed = formulas.white_rooks(m, k)
            r.compare(f"white rec m={m} k={k}", _at(white, k), closed)
            r.compare(f"white alt m={m} k={k}", white_rooks_alt(m, k), closed)
            r.compare(f"black rec m={m} k={k}", _at(black, k), formulas.black_rooks(m, k))
            if m % 2 == 0:
                even.compare(f"m={m} k={k}", _at(white, k), _at(black, k))
    results += [r, even]

    small = min(m_max, 12)
    r = CheckResult("bishop counts: three routes agree")
    # Table rows convolve the black and white rook_rows of each size; the
    # alternating sums use no Stirling number and no recurrence.
    for m, row in enumerate(rows.count_table("bishop", small)):
        white = [white_rooks_alt(m, j) for j in range(11)]
        black = [black_rooks_alt(m, j) for j in range(11)]
        for k in range(11):
            closed = formulas.bishops(m, k)
            got, want = _at(row, k), closed
            if not k:  # and the row's width, which ``table --rect`` pads to
                got, want = (got, len(row)), (want, rows.max_pieces("bishop", m) + 1)
            r.compare(f"convolution m={m} k={k}", got, want)
            alternating = sum(white[j] * black[k - j] for j in range(k + 1))
            r.compare(f"alternating m={m} k={k}", alternating, closed)
    results.append(r)

    r = CheckResult("anassa split: recurrence, closed form, and total agree")
    # The total is the row that ``table anassa`` prints.
    totals = rows.count_table("anassa", small)
    for m, (tri, row) in enumerate(zip(anassa_split_rows(small), totals)):
        for k in range(k_max + 1):
            split = tri[k] if k <= m else ()
            closed = [formulas.anassas_split(m, k, p) for p in range(k + 1)]
            for p, value in enumerate(closed):
                r.compare(f"rec m={m} k={k} p={p}", _at(split, p), value)
            got, want = sum(closed), _at(row, k)
            if not k:  # and the row's width, which ``table --rect`` pads to
                got, want = (got, rows.max_pieces("anassa", m) + 1), (want, len(row))
            r.compare(f"sum m={m} k={k}", got, want)
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
        first, second = anassas_diagonal(m)
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
