"""Closed forms and row recurrences for nonattacking placement counts.

Counts k nonattacking bishops or anassas (moves {(0,1), (1,1)}) on the
m x m board.  Bishop counts factor through rook counts on the two
one-color boards; anassa counts additionally split by how many pieces sit
strictly below the main diagonal.  The recurrences on the board size are
row generators that keep only the current row and build :func:`count_table`;
the closed forms, kept separate on purpose, cross-check them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .kernel import binomial, convolve, falling_factorial, parity, stirling2


def _rooks(m: int, k: int, half: int) -> int:
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    # C(half, j) vanishes past half, unless half < 0 (a negative board size).
    top = min(k, half) if half >= 0 else k
    return sum(binomial(half, j) * stirling2(m - j, m - k) for j in range(top + 1))


def white_rooks(m: int, k: int) -> int:
    """Nonattacking k-rook placements on the white-square board, closed form.

    The white squares of the m x m board (color of (1,1)) form a rook board
    once each diagonal is straightened into a row.  Sum over j of
    C(ceil(m/2), j) * S(m-j, m-k).  Defined for every integer m; negative m
    evaluates the same expression through the extended Stirling table.
    """
    return _rooks(m, k, (m + 1) // 2)


def black_rooks(m: int, k: int) -> int:
    """Companion to :func:`white_rooks` for the black-square board."""
    return _rooks(m, k, m // 2)


def rook_rows(m_max: int, color: str) -> Iterator[tuple[int, ...]]:
    """One-color rook counts by recurrence on the board size, row by row.

    Yields (R(m, 0), R(m, 1), ...) for m = 0 .. m_max, each row ending at
    its last nonzero entry.  R(0, 0) = 1 and R(m, k) = R(m-1, k)
    + (m - k + s) * R(m-1, k-1), with s = parity(m) on the white board and
    1 - parity(m) on the black one: the diagonal that step m adds to the
    board offers m - k + s squares free of the other k - 1 rooks.
    Raises ValueError, when iterated, for m_max < 0 or an unknown color.
    """
    if m_max < 0:
        raise ValueError(f"rook_rows needs m_max >= 0, got {m_max}")
    if color not in ("white", "black"):
        raise ValueError(f"color must be 'white' or 'black', got {color!r}")
    row = (1,)
    yield row
    for m in range(1, m_max + 1):
        s = parity(m) if color == "white" else 1 - parity(m)
        row = tuple(
            above + (m - k + s) * left
            for k, (above, left) in enumerate(zip(row + (0,), (0,) + row))
        )
        if not row[-1]:  # only the new top entry can vanish
            row = row[:-1]
        yield row


def white_rooks_alt(m: int, k: int) -> int:
    """White-square rook counts via the classical alternating sum.

    With t = m - k:  (1/t!) * sum over j of C(t, j) * (-1)^(t-j)
    * (j+1)^((m+parity(m))/2) * j^((m-parity(m))/2); zero when k > m.
    The division is exact; a nonzero remainder would mean a bug.
    """
    if m < 0 or k < 0:
        raise ValueError("white_rooks_alt needs m, k >= 0")
    t = m - k
    if t < 0:
        return 0
    e_hi = (m + parity(m)) // 2
    e_lo = (m - parity(m)) // 2
    total = sum(
        binomial(t, j) * (-1) ** ((t - j) & 1) * (j + 1) ** e_hi * j**e_lo
        for j in range(t + 1)
    )
    q, r = divmod(total, math.factorial(t))
    if r:
        raise ArithmeticError(f"alternating sum for m={m}, k={k} not divisible by {t}!")
    return q


def bishops(m: int, k: int) -> int:
    """Nonattacking k-bishop placements on the m x m board, closed form.

    Convolution of the two one-color rook counts over every split of the k
    bishops between the colors; defined for every integer m (negative m
    evaluates the same expression, e.g. m = -1 gives k!).
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    total = 0
    for j in range(k + 1):
        left = black_rooks(m, j)
        if not left:
            continue
        total += left * white_rooks(m, k - j)
    return total


def bishops_classic(m: int, k: int) -> int:
    """Bishop counts via the classical parity-split double sum; needs m >= 0.

    The arithmetic of :func:`bishops` with the split index reversed: its
    factors at j are white_rooks(m, j) and black_rooks(m, k - j), regrouped.
    """
    if m < 0 or k < 0:
        raise ValueError("bishops_classic needs m, k >= 0")
    half_lo, half_hi = m // 2, (m + 1) // 2
    total = 0
    for j in range(m + 1):
        left = sum(
            binomial(half_hi, i) * stirling2(i + half_lo, m - j) for i in range(half_hi + 1)
        )
        if not left:
            continue
        right = sum(
            binomial(half_lo, l) * stirling2(l + half_hi, m - k + j)
            for l in range(half_lo + 1)
        )
        total += left * right
    return total


def anassas_split(m: int, k: int, p: int) -> int:
    """Anassa placements with exactly p pieces strictly below the diagonal.

    Closed form: sum over j <= p of (m-k+j)_j * C(k-p-1, j) * C(k-j, k-p)
    * S(m+1, m-k+j+1).  At p = k the sum telescopes to S(m, m-k); p > k
    gives 0.  Defined for every integer m.
    """
    if k < 0 or p < 0:
        raise ValueError("anassas_split needs k, p >= 0")
    total = 0
    for j in range(p + 1):
        partitions = stirling2(m + 1, m - k + j + 1)
        if not partitions:  # most j when k is far past the board's capacity
            continue
        total += (
            falling_factorial(m - k + j, j)
            * binomial(k - p - 1, j)
            * binomial(k - j, k - p)
            * partitions
        )
    return total


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


def anassas(m: int, k: int) -> int:
    """Nonattacking k-anassa placements on the m x m board, closed form.

    Sum over j <= ceil(k/2) of (m-k+j)_j * S(m, m-k+j) * 2^(k-2j)
    * (C(k-j, j-1) + C(k-j+1, j)).  For odd k the top summand carries
    2^(-1) against an even cofactor, so the sum runs over twice each summand,
    in integers, with an evenness check at the end.  Defined for every
    integer m.
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    twice = 0
    for j in range((k + 1) // 2 + 1):
        partitions = stirling2(m, m - k + j)
        if not partitions:  # most j when k is far past the board's capacity
            continue
        weight = binomial(k - j, j - 1) + binomial(k - j + 1, j)
        body = falling_factorial(m - k + j, j) * partitions * weight
        twice += body << (k - 2 * j + 1)
    total, odd = divmod(twice, 2)
    if odd:
        raise ArithmeticError(f"anassa count for m={m}, k={k} came out non-integral: {twice}/2")
    return total


def anassas_by_split_sum(m: int, k: int) -> int:
    """Anassa counts as the sum of the diagonal-split counts over p."""
    if m < 0 or k < 0:
        raise ValueError("anassas_by_split_sum needs m, k >= 0")
    return sum(anassas_split(m, k, p) for p in range(k + 1))


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


def max_pieces(piece: str, m: int) -> int:
    """Largest k with a nonzero count on the m x m board."""
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    if piece == "bishop":
        return m if m <= 1 else 2 * m - 2
    if piece == "anassa":
        return m
    raise ValueError(f"unknown piece {piece!r}")


def count(piece: str, m: int, k: int) -> int:
    """Closed-form count for the named piece."""
    if piece == "bishop":
        return bishops(m, k)
    if piece == "anassa":
        return anassas(m, k)
    raise ValueError(f"unknown piece {piece!r}")


class CountTable(namedtuple("CountTable", "piece m_max rows")):
    """Feasibility-truncated triangle of placement counts.

    ``rows[m]`` holds the counts for k = 0 .. max_pieces(piece, m) on the
    m x m board (padded with zeros up to a common width when rectangular
    output was requested).
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"CountTable(piece={self.piece!r}, m_max={self.m_max})"

    def flatten(self) -> list[int]:
        """Row-major linearization (m ascending, k ascending)."""
        return [value for row in self.rows for value in row]


def count_table(piece: str, m_max: int, rect: bool = False) -> CountTable:
    """Build the count triangle for board sizes 0 .. m_max (ValueError if < 0).

    Bishop rows convolve the black and white rows of :func:`rook_rows`;
    anassa rows sum the triangles of :func:`anassa_split_rows` over p.
    """
    if piece == "bishop":
        rows = map(convolve, rook_rows(m_max, "black"), rook_rows(m_max, "white"))
    elif piece == "anassa":
        rows = (tuple(map(sum, tri)) for tri in anassa_split_rows(m_max))
    else:
        raise ValueError(f"unknown piece {piece!r}")
    # Each row already ends at max_pieces(piece, m); only rect pads it.
    width = max_pieces(piece, m_max) + 1 if rect else 0
    return CountTable(piece, m_max, tuple(row + (0,) * (width - len(row)) for row in rows))
