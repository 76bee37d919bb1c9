"""Row recurrences on the board size, the count tables built from them, and ``table``.

The recurrences reach the counts of :mod:`chesscount.formulas` another
way, so that the self-checks can compare the two; ``table`` and the
``identities`` suite import this module, and ``count`` does not.  They are
generators that keep only the current row and feed :func:`count_table`;
the rook rows of both colors come from one call, as (white, black) pairs.
Anassa tables come from a three-term recurrence on the totals
(:func:`anassa_rows`).  The routes that only the self-checks read are in
:mod:`chesscount.verify_identities`, so a ``table`` request compiles none
of them, and no closed form.
"""

from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from .poly import convolve


def _rook_step(row: tuple[int, ...], m: int, s: int) -> tuple[int, ...]:
    # The diagonal that step m adds to the board offers the k-th rook
    # m - k + s squares free of the other k - 1 rooks.
    row = tuple(
        above + (m - k + s) * left
        for k, (above, left) in enumerate(zip(row + (0,), (0,) + row))
    )
    return row if row[-1] else row[:-1]  # only the new top entry can vanish


def rook_rows(m_max: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One-color rook counts by recurrence on the board size, as (white, black) rows.

    Yields, for m = 0 .. m_max, the pair of rows (R(m, 0), R(m, 1), ...) on
    the white and the black board, each ending at its last nonzero entry.
    R(0, 0) = 1 and R(m, k) = R(m-1, k) + (m - k + s) * R(m-1, k-1), with
    s = m % 2 on the white board and 1 - m % 2 on the black one.
    Raises ValueError, when iterated, for m_max < 0.
    """
    if m_max < 0:
        raise ValueError(f"rook_rows needs m_max >= 0, got {m_max}")
    white = black = (1,)
    yield white, black
    for m in range(1, m_max + 1):
        white, black = _rook_step(white, m, m % 2), _rook_step(black, m, 1 - m % 2)
        yield white, black


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


def max_pieces(piece: str, m: int) -> int:
    """Largest k with a nonzero count on the m x m board."""
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    if piece == "bishop":
        return m if m <= 1 else 2 * m - 2
    if piece == "anassa":
        return m
    raise ValueError(f"unknown piece {piece!r}")


def count_table(piece: str, m_max: int) -> Iterator[tuple[int, ...]]:
    """The count rows for board sizes 0 .. m_max, as an iterator that builds one at a time.

    Row m holds the counts for k = 0 .. max_pieces(piece, m), so it ends at
    its last nonzero count.  Bishop rows convolve the white and black rows
    of :func:`rook_rows`; anassa rows come from :func:`anassa_rows`, which
    steps the totals without the p-split.  Raises ValueError on the call,
    before any row, for an unknown piece or m_max < 0.
    """
    max_pieces(piece, m_max)  # checks both arguments now, not at the first row
    if piece == "bishop":
        return (convolve(white, black) for white, black in rook_rows(m_max))
    return anassa_rows(m_max)


def _table_bfile(args: SimpleNamespace, rows: Iterable[tuple[int, ...]]) -> Iterator[str]:
    offset = args.offset or 0
    bound = "padded to a common width" if args.rect else "truncated at the last nonzero count"
    yield (
        f"# nonattacking {args.piece} placements on m x m boards\n"
        f"# triangle rows m = 0..{args.m_max}, k ascending within each row ({bound})\n"
        f"# single running index in row-major order, starting at {offset}\n"
    )
    for row in rows:
        yield "".join(f"{offset + k} {v}\n" for k, v in enumerate(row))
        offset += len(row)


def _cmd_table(args: SimpleNamespace) -> tuple[dict | Iterator[str], int]:
    """The ``table`` handler, found through ``cli.GRAMMAR``: the payload or bfile text, and 0."""
    from .cli import _UsageError

    if args.m_max < 0:
        raise _UsageError(f"m_max must be >= 0, got {args.m_max}")
    if args.offset is not None and args.format != "bfile":
        raise _UsageError("--offset applies only to --format bfile")
    rows = count_table(args.piece, args.m_max)
    if args.rect:  # zeros up to the width of the last row
        top = max_pieces(args.piece, args.m_max)
        rows = (row + (0,) * (top - len(row) + 1) for row in rows)
    if args.format == "bfile":
        return _table_bfile(args, rows), 0
    return {"piece": args.piece, "m_max": args.m_max, "rect": args.rect, "rows": rows}, 0
