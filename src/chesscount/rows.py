"""Row recurrences on the board size, and the other routes beside the closed forms.

The routes here reach the counts of :mod:`chesscount.formulas` another
way, so that the self-checks can compare the two; ``table`` and ``verify``
import this module, and ``count`` does not.  The row recurrences on the
board size are generators that keep only the current row and feed
:func:`count_table`.  The classical alternating sums of the one-color rook
counts use neither a Stirling number nor a recurrence.  Anassa tables come
from a three-term recurrence on the totals (:func:`anassa_rows`); the
p-split rows (:func:`anassa_split_rows`) keep the paper's refined
recurrence, which the self-checks compare with the split closed form.
:func:`anassas_diagonal` sums the saturated anassa count two ways.
"""

import math
from collections.abc import Iterator

from .kernel import binomial, convolve, stirling2


def rook_rows(m_max: int, color: str) -> Iterator[tuple[int, ...]]:
    """One-color rook counts by recurrence on the board size, row by row.

    Yields (R(m, 0), R(m, 1), ...) for m = 0 .. m_max, each row ending at
    its last nonzero entry.  R(0, 0) = 1 and R(m, k) = R(m-1, k)
    + (m - k + s) * R(m-1, k-1), with s = m % 2 on the white board and
    1 - m % 2 on the black one: the diagonal that step m adds to the
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
        s = m % 2 if color == "white" else 1 - m % 2
        row = tuple(
            above + (m - k + s) * left
            for k, (above, left) in enumerate(zip(row + (0,), (0,) + row))
        )
        if not row[-1]:  # only the new top entry can vanish
            row = row[:-1]
        yield row


def anassa_rows(m_max: int) -> Iterator[tuple[int, ...]]:
    """Anassa counts by recurrence on the board size, row by row.

    Yields (A(m, 0), ..., A(m, m)) for m = 0 .. m_max.  A(0, 0) = 1 and
    2A(m,k) = 2A(m-1,k) + (4m-3k+1) A(m-1,k-1) + (2m-k+1)(m-k+1) A(m-1,k-2),
    so a row costs O(m) products, not the O(m^2) of a split triangle.

    Derivation: with B(m, k) = (m-k)! A(m, k), the closed form of
    :func:`chesscount.formulas.anassas` reads sum_k B(m,k) x^k
    = (1+x) sum_t u_m(t) (2x+x^2)^t, where u_m(t) = (m-t)! S(m, m-t)
    counts surjections.  Their step
    u_m(t) = (m-t) (u_{m-1}(t-1) + u_{m-1}(t)) gives B(m,k) = (m-k) F_k
    + ((2m-k+1)/2) F_{k-1}, with F = (1+x) B_{m-1}; dividing by (m-k)!
    gives the recurrence.  The halving is exact, and checked: an odd value
    raises ArithmeticError.  Raises ValueError, when iterated, for m_max < 0.
    """
    if m_max < 0:
        raise ValueError(f"anassa_rows needs m_max >= 0, got {m_max}")
    row = (1,)
    yield row
    for m in range(1, m_max + 1):
        twice = [
            2 * above + (4 * m - 3 * k + 1) * left + (2 * m - k + 1) * (m - k + 1) * corner
            for k, (above, left, corner) in enumerate(zip(row + (0,), (0,) + row, (0, 0) + row))
        ]
        if any(value & 1 for value in twice):
            raise ArithmeticError(f"anassa row m={m} came out non-integral")
        row = tuple(value >> 1 for value in twice)
        yield row


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


def max_pieces(piece: str, m: int) -> int:
    """Largest k with a nonzero count on the m x m board."""
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    if piece == "bishop":
        return m if m <= 1 else 2 * m - 2
    if piece == "anassa":
        return m
    raise ValueError(f"unknown piece {piece!r}")


def count_table(piece: str, m_max: int, rect: bool = False) -> Iterator[tuple[int, ...]]:
    """The count rows for board sizes 0 .. m_max, as an iterator that builds one at a time.

    Row m holds the counts for k = 0 .. max_pieces(piece, m), padded with
    zeros to a common width when ``rect`` is set.  Bishop rows convolve the
    black and white rows of :func:`rook_rows`; anassa rows come from
    :func:`anassa_rows`, which steps the totals without the p-split.
    Raises ValueError on the call, before any row, for an unknown piece or
    m_max < 0.
    """
    top = max_pieces(piece, m_max)  # checks both arguments now, not at the first row
    if piece == "bishop":
        rows = map(convolve, rook_rows(m_max, "black"), rook_rows(m_max, "white"))
    else:
        rows = anassa_rows(m_max)
    # Each row already ends at max_pieces(piece, m); only rect pads it.
    if not rect:
        return rows
    return (row + (0,) * (top + 1 - len(row)) for row in rows)


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
