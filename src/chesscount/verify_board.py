"""The ``oracle`` and ``collapse`` suites, each importing the layers it reads when it runs.

``collapse`` loads ``board`` alone; ``oracle`` adds ``formulas``, ``kernel`` and
``poly``, not ``rows``.
"""

from .verify import CheckResult, _at

_PAST_MAX = 2  # sizes checked past the largest feasible one, where both sides must read 0


def suite_oracle(m_max: int = 5) -> list[CheckResult]:
    """All closed-form counts against exhaustive search on small boards."""
    from . import formulas
    from .board import (
        ANASSA_MOVES,
        BISHOP_MOVES,
        PIECES,
        bishop_color_board,
        placement_counts,
        placement_profile,
        square_board,
    )
    from .poly import convolve

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
            for k in range(len(counts[piece]) + _PAST_MAX):
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
        for k in range(len(counts["bishop"])):
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
