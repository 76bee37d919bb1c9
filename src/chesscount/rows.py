"""Row recurrences on the board size, the count tables built from them, and ``table``.

The recurrences reach the counts of :mod:`chesscount.formulas` another
way, so that the self-checks can compare the two; ``table`` and the
``identities`` suite import this module, and ``count`` does not.  They are
generators that keep only the current row and feed :func:`count_table`.
Anassa tables come from a three-term recurrence on the totals
(:func:`anassa_rows`).  The routes that only the self-checks read are in
:mod:`chesscount.verify_identities`, so a ``table`` request compiles none
of them, and no closed form.
"""

from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from .poly import convolve


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


def _table_json(args: SimpleNamespace, rows: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """``json.dumps`` of the table's payload and a newline, in one chunk per row."""
    from .cli import _json

    head = {"piece": args.piece, "m_max": args.m_max, "rect": args.rect, "rows": []}
    yield _json(head)[:-2]  # up to the open bracket of the rows
    separator = ""
    for row in rows:
        yield separator + _json(row)
        separator = ", "
    yield "]}\n"


def _cmd_table(args: SimpleNamespace) -> int:
    """The ``table`` handler, which ``cli.main`` finds through its ``cli.GRAMMAR`` entry."""
    from .cli import _SEPARATORS, _emit, _UsageError

    if args.m_max < 0:
        raise _UsageError(f"m_max must be >= 0, got {args.m_max}")
    if args.offset is not None and args.format != "bfile":
        raise _UsageError("--offset applies only to --format bfile")
    rows = count_table(args.piece, args.m_max, rect=args.rect)
    if args.format == "json":
        return _emit(_table_json(args, rows), args.out)
    if args.format == "bfile":
        return _emit(_table_bfile(args, rows), args.out)
    sep = _SEPARATORS[args.format]
    return _emit((sep.join(map(str, row)) + "\n" for row in rows), args.out)
