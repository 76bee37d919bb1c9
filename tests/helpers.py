"""Independent oracles used by the tests.

Nothing here imports the package under test: values produced by these
helpers come from separate routes (formal power series, set-partition
enumeration, exact interpolation, pairwise attack tests), so agreement is
meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence


def extended_pascal_grid(lo: int, hi: int) -> dict[tuple[int, int], int]:
    """Binomial table over [lo, hi]^2 assembled without closed-form shortcuts.

    Nonnegative rows come from the classic additive triangle.  Rows with
    n < 0 take their k >= 0 entries from the formal power series of
    (1+x)^n, obtained by inverting the polynomial (1+x)^(-n); the deep
    wedge k <= n uses the reflection C(n, k) = C(n, n-k), and the strip
    n < k < 0 is zero.
    """
    if not (lo < 0 <= hi):
        raise ValueError("grid must straddle zero")
    top = max(hi, -lo)
    rows = [[1]]
    for _ in range(top):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])

    grid: dict[tuple[int, int], int] = {}
    for n in range(hi + 1):
        for k in range(lo, hi + 1):
            grid[n, k] = rows[n][k] if 0 <= k <= n else 0

    order = hi - lo + 1
    for n in range(-1, lo - 1, -1):
        denom = rows[-n]
        series = [1]
        for i in range(1, order):
            series.append(
                -sum(denom[j] * series[i - j] for j in range(1, min(i, len(denom) - 1) + 1))
            )
        for k in range(lo, hi + 1):
            if k >= 0:
                grid[n, k] = series[k]
            elif k <= n:
                grid[n, k] = series[n - k]
            else:
                grid[n, k] = 0
    return grid


def set_partitions(elements: Sequence[int]) -> Iterator[list[list[int]]]:
    """All partitions of the given elements into nonempty blocks."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [first]] + partial[i + 1:]
        yield partial + [[first]]


def count_partitions(m: int, k: int, min_block: int = 1) -> int:
    """Partitions of an m-set into exactly k blocks of size >= min_block."""
    return sum(
        1
        for part in set_partitions(range(m))
        if len(part) == k and all(len(block) >= min_block for block in part)
    )


def interpolate(points: Iterable[tuple[int, int]]) -> list[Fraction]:
    """Exact polynomial through the points, ascending monomial coefficients.

    Newton divided differences over Fractions, then expansion of the Newton
    basis.  The points must have distinct x values; the result has one
    coefficient per point.
    """
    pts = list(points)
    xs = [Fraction(x) for x, _ in pts]
    diffs = [Fraction(y) for _, y in pts]
    newton = [diffs[0]]
    for level in range(1, len(pts)):
        diffs = [
            (diffs[i + 1] - diffs[i]) / (xs[i + level] - xs[i])
            for i in range(len(diffs) - 1)
        ]
        newton.append(diffs[0])

    poly = [Fraction(0)] * len(pts)
    basis = [Fraction(1)]
    for j, c in enumerate(newton):
        for d, b in enumerate(basis):
            poly[d] += c * b
        grown = [Fraction(0)] * (len(basis) + 1)
        for d, b in enumerate(basis):
            grown[d] -= xs[j] * b
            grown[d + 1] += b
        basis = grown
    return poly


def polyval(coeffs: Sequence[Fraction], x: int) -> Fraction:
    """Evaluate ascending coefficients at x, exactly."""
    return sum((c * Fraction(x) ** d for d, c in enumerate(coeffs)), Fraction(0))


def attacks(a: tuple[int, int], b: tuple[int, int], directions: Sequence[tuple[int, int]]) -> bool:
    """Whether riders on distinct squares a and b attack each other.

    Two squares attack when their difference is parallel to one of the move
    directions, given as plain (column, row) pairs; nothing blocks.
    """
    dc, dr = b[0] - a[0], b[1] - a[1]
    return any(dc * mr - dr * mc == 0 for mc, mr in directions)


def binomial_basis_to_monomials(weights: Sequence[Fraction | int]) -> list[Fraction]:
    """Ascending monomial coefficients of sum_i weights[i] * C(x, i).

    Builds each C(x, i + 1) = C(x, i) * (x - i) / (i + 1) as a Fraction
    polynomial and adds it in with its weight.
    """
    out = [Fraction(0)] * len(weights)
    basis = [Fraction(1)]  # ascending coefficients of C(x, i)
    for i, w in enumerate(weights):
        for d, c in enumerate(basis):
            out[d] += w * c
        basis = [(lower - i * same) / (i + 1) for lower, same in zip([0, *basis], [*basis, 0])]
    return out


def rook_rows_cut(m_max: int, width: int, white: bool) -> Iterator[list[int]]:
    """One-color rook counts R(m, 0 .. width-1) for m = 0 .. m_max, by recurrence.

    R(0, 0) = 1 and R(m, j) = R(m-1, j) + (m - j + s) R(m-1, j-1), with
    s = m mod 2 on the white board and 1 - m mod 2 on the black one.  Entry j
    reads only entries j and j - 1 of the row before, so the first ``width``
    entries are exact on their own and a row costs ``width`` products at any m.
    """
    row = [1] + [0] * (width - 1)
    yield row
    for m in range(1, m_max + 1):
        s = m % 2 if white else 1 - m % 2
        row = [1] + [row[j] + (m - j + s) * row[j - 1] for j in range(1, width)]
        yield row


def rook_rows_backward(m_min: int, width: int, white: bool) -> Iterator[list[int]]:
    """One-color rook counts R(m, 0 .. width-1) for m = 0, -1, .., m_min, by recurrence.

    The recurrence runs backward from R(0, .) = (1, 0, ...): each step solves
    the forward step of :func:`rook_rows_cut` for the row before, j ascending:
    R(m-1, j) = R(m, j) - (m - j + s) R(m-1, j-1), with s = m mod 2 on the
    white board and 1 - m mod 2 on the black one.  No Stirling number and no
    closed form enters.
    """
    row = [1] + [0] * (width - 1)
    yield row
    for m in range(0, m_min, -1):
        s = m % 2 if white else 1 - m % 2
        before = [row[0]]
        for j in range(1, width):
            before.append(row[j] - (m - j + s) * before[j - 1])
        row = before
        yield row


def anassa_rows_cut(m_max: int, width: int) -> Iterator[list[int]]:
    """Anassa counts A(m, 0 .. width-1) for m = 0 .. m_max, by recurrence.

    A(0, 0) = 1 and 2A(m,k) = 2A(m-1,k) + (4m-3k+1) A(m-1,k-1)
    + (2m-k+1)(m-k+1) A(m-1,k-2); entry k reads no entry past k, so the row
    is cut off at ``width`` entries as in :func:`rook_rows_cut`.
    """
    row = [1] + [0] * (width - 1)
    yield row
    for m in range(1, m_max + 1):
        left, corner = [0, *row], [0, 0, *row]
        twice = [
            2 * row[k] + (4 * m - 3 * k + 1) * left[k] + (2 * m - k + 1) * (m - k + 1) * corner[k]
            for k in range(width)
        ]
        assert not any(value & 1 for value in twice), m
        row = [value >> 1 for value in twice]
        yield row


def anassa_rows_backward(m_min: int, width: int) -> Iterator[list[int]]:
    """Anassa counts A(m, 0 .. width-1) for m = 0, -1, .., m_min, by recurrence.

    The three-term step of :func:`anassa_rows_cut` solved for the row before,
    k ascending: A(m-1, k) = A(m, k) - ((4m-3k+1) A(m-1,k-1)
    + (2m-k+1)(m-k+1) A(m-1,k-2)) / 2, from A(0, .) = (1, 0, ...).  The
    halving is asserted exact.
    """
    row = [1] + [0] * (width - 1)
    yield row
    for m in range(0, m_min, -1):
        before = [0, 0]  # two zeros ahead of k = 0 stand for A(m-1, -1) and A(m-1, -2)
        for k in range(width):
            twice = (4 * m - 3 * k + 1) * before[-1] + (2 * m - k + 1) * (m - k + 1) * before[-2]
            assert not twice & 1, (m, k)
            before.append(row[k] - (twice >> 1))
        row = before[2:]
        yield row


def read_bfile(text: str) -> tuple[int, list[int]]:
    """The first index and the values of ``index value`` lines; ``#`` lines are comments.

    Asserts that the indices run consecutively.
    """
    entries = [
        [int(field) for field in line.split()]
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    ]
    start = entries[0][0]
    assert [index for index, _ in entries] == list(range(start, start + len(entries)))
    return start, [value for _, value in entries]
