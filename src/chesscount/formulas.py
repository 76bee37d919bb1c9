"""Closed forms for nonattacking placement counts, and ``count``.

Counts k nonattacking bishops or anassas (moves {(0,1), (1,1)}) on the
m x m board by the Stirling closed forms, the route ``count`` runs.  Bishop
counts factor through rook counts on the two one-color boards; anassa
counts additionally split by how many pieces sit strictly below the main
diagonal.  The row recurrences on the board size and the tables built from
them are in :mod:`chesscount.rows`, and the routes only the self-checks
read in :mod:`chesscount.verify_identities`, so a count compiles none of
them.
"""

from types import SimpleNamespace

from .kernel import binomial, falling_factorial, stirling2


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


def bishops(m: int, k: int) -> int:
    """Nonattacking k-bishop placements on the m x m board, closed form.

    One sum, over every split of the k bishops between the colors, of the
    product of the two one-color rook counts; defined for every integer m
    (negative m evaluates the same expression, e.g. m = -1 gives k!).
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    # For m >= 0 each color holds at most m rooks, so splits past m vanish.
    splits = range(max(0, k - m), min(k, m) + 1) if m >= 0 else range(k + 1)
    return sum(black_rooks(m, j) * white_rooks(m, k - j) for j in splits)


def anassas_split(m: int, k: int, p: int) -> int:
    """Anassa placements with exactly p pieces strictly below the diagonal.

    Closed form: sum over j <= p of (m-k+j)_j * C(k-p-1, j) * C(k-j, k-p)
    * S(m+1, m-k+j+1).  At p = k the sum telescopes to S(m, m-k); p > k
    gives 0.  Defined for every integer m.
    """
    if k < 0 or p < 0:
        raise ValueError("anassas_split needs k, p >= 0")
    # S(m+1, m-k+j+1) vanishes for j > k, and for m >= 0 also for j < k - m.
    return sum(
        falling_factorial(m - k + j, j)
        * binomial(k - p - 1, j)
        * binomial(k - j, k - p)
        * stirling2(m + 1, m - k + j + 1)
        for j in range(max(0, k - m) if m >= 0 else 0, min(p, k) + 1)
    )


def anassas(m: int, k: int) -> int:
    """Nonattacking k-anassa placements on the m x m board, closed form.

    Sum over j <= ceil(k/2) of (m-k+j)_j * S(m, m-k+j) * w(k, j), with the
    weight w(k, j) = 2^(k-2j) * (C(k-j, j-1) + C(k-j+1, j)).  The weight is
    an integer: 2^(-1) arises only at odd k and j = (k+1)/2, where the
    bracket is 1 + 1.  Defined for every integer m.
    """
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    total = 0
    # For m >= 0, S(m, m-k+j) vanishes for j < k - m.
    for j in range(max(0, k - m) if m >= 0 else 0, (k + 1) // 2 + 1):
        bracket = binomial(k - j, j - 1) + binomial(k - j + 1, j)
        weight = (bracket << (k - 2 * j + 1)) >> 1
        total += falling_factorial(m - k + j, j) * stirling2(m, m - k + j) * weight
    return total


def count(piece: str, m: int, k: int) -> int:
    """Closed-form count for the named piece."""
    if piece == "bishop":
        return bishops(m, k)
    if piece == "anassa":
        return anassas(m, k)
    raise ValueError(f"unknown piece {piece!r}")


def _cmd_count(args: SimpleNamespace) -> tuple[list[str], int]:
    """The ``count`` handler, found through ``cli.GRAMMAR``: the text to print, and status 0."""
    from .cli import _json, _UsageError

    if args.k < 0:
        raise _UsageError(f"k must be >= 0, got {args.k}")
    if args.below is not None:
        if args.piece != "anassa":
            raise _UsageError("--below applies only to the anassa")
        if args.below < 0:
            raise _UsageError(f"--below must be >= 0, got {args.below}")
        value = anassas_split(args.m, args.k, args.below)
    else:
        value = count(args.piece, args.m, args.k)
    if args.format == "json":
        payload = {"piece": args.piece, "m": args.m, "k": args.k}
        if args.below is not None:
            payload["below"] = args.below
        payload["count"] = value
        return [_json(payload) + "\n"], 0
    return [f"{value}\n"], 0
