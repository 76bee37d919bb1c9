"""Boards, ride-style pieces, and an exact placement counter.

Squares are (column, row) pairs, both 1-based, row 1 at the bottom; a board
is a frozenset of squares.  A piece is a pair of move directions; it attacks
along the full line spanned by each direction, with no blocking (placements
are counted, so every other piece on a shared line is itself a mutual
attacker).  Bishops keep their color, so :func:`bishop_color_board` splits
a board into its two colors, as a (white, black) pair.  The counter here
uses no closed form: it matches the two families of lines, one line at a
time, so it serves as an independent check of the formulas.
"""

import math
from collections import defaultdict, namedtuple

Square = tuple[int, int]
Move = tuple[int, int]


class MoveSet(namedtuple("MoveSet", "moves")):
    """The two directions a piece rides along.

    Each direction must be a primitive vector (coprime coordinates, so not
    (0, 0)), and the two may not be parallel.
    """

    __slots__ = ()

    def __new__(cls, moves: tuple[Move, ...]) -> "MoveSet":
        if len(moves) != 2:
            raise ValueError(f"a piece needs two move directions, got {len(moves)}")
        for dc, dr in moves:
            if math.gcd(dc, dr) != 1:
                raise ValueError(f"move direction {(dc, dr)} is not primitive")
        (ac, ar), (bc, br) = moves
        if ac * br == ar * bc:
            raise ValueError(f"parallel move directions {(ac, ar)} and {(bc, br)}")
        return super().__new__(cls, moves)

    def line_keys(self, square: Square) -> tuple[int, ...]:
        """One id per direction; squares share an id iff they share that line."""
        c, r = square
        return tuple(dr * c - dc * r for dc, dr in self.moves)


BISHOP_MOVES = MoveSet(((1, 1), (-1, 1)))
ANASSA_MOVES = MoveSet(((0, 1), (1, 1)))

PIECES: dict[str, MoveSet] = {"bishop": BISHOP_MOVES, "anassa": ANASSA_MOVES}


def square_board(m: int) -> frozenset[Square]:
    """The full m x m board."""
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    return frozenset((c, r) for c in range(1, m + 1) for r in range(1, m + 1))


def placement_profile(
    board: frozenset[Square], moves: MoveSet, marked: frozenset[Square]
) -> dict[tuple[int, int], int]:
    """Nonattacking placement counts on ``board``, keyed by (size, pieces on ``marked``).

    A piece holds at most one piece on each line of either family, so a
    placement is a matching between the two families.  The search steps over
    the lines of the larger family, longest first; its state is the set of
    lines used in the other family, and a line leaves the state once no later
    step touches it.  Each partial count is keyed by one integer, size +
    (len(board) + 1) * (pieces on ``marked``), so an empty ``marked`` keys by size.
    Nothing is cached: a caller that reads a board twice keeps the result.
    """
    base = len(board) + 1
    keys = [(*moves.line_keys(sq), 1 + base * (sq in marked)) for sq in board]
    if len({b for _, b, _ in keys}) > len({a for a, _, _ in keys}):
        keys = [(b, a, gain) for a, b, gain in keys]
    lines: dict[int, list[tuple[int, int]]] = defaultdict(list)
    bits: dict[int, int] = {}
    for step, other, gain in keys:
        lines[step].append((bits.setdefault(other, 1 << len(bits)), gain))
    order = sorted(lines.values(), key=len, reverse=True)
    last = {b: i for i, line in enumerate(order) for b, _ in line}
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for i, line in enumerate(order):
        keep = sum(b for b, j in last.items() if j > i)
        grown: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for used, poly in states.items():
            for b, gain in [(0, 0)] + [(b, gain) for b, gain in line if not used & b]:
                target = grown[(used | b) & keep]
                for key, n in poly.items():
                    target[key + gain] += n
        states = grown
    return {(key % base, key // base): n for key, n in states[0].items()}


def placement_counts(board: frozenset[Square], moves: MoveSet) -> tuple[int, ...]:
    """Counts of nonattacking placements on ``board`` by size.

    Entry j is the number of j-piece placements; the tuple stops at the
    largest feasible size, and every smaller size is feasible too.
    """
    profile = placement_profile(board, moves, frozenset())
    return tuple(profile[size, 0] for size in range(len(profile)))


def bishop_color_board(board: frozenset[Square]) -> tuple[frozenset[Square], frozenset[Square]]:
    """The squares of ``board`` on each bishop color, as (white, black).

    White is the color of (1, 1): squares with column + row even.  Bishops
    never leave their color, so bishop placements factor over the two boards.
    """
    white = frozenset((c, r) for c, r in board if not (c + r) % 2)
    return white, board - white


def inductive_subset(m: int, piece: str) -> frozenset[Square]:
    """A 2m-1 square subset whose removal collapses the board one size down.

    For the bishop: the main diagonal plus the squares directly above it.
    For the anassa: the main diagonal plus the rest of the rightmost file.
    The reduced board ``square_board(m) - inductive_subset(m, piece)`` has
    the placement counts of the (m-1) x (m-1) board, for every piece count.
    """
    if m < 1:
        raise ValueError(f"inductive subset needs board size >= 1, got {m}")
    if piece == "bishop":
        squares = {(i, i) for i in range(1, m + 1)} | {(i, i + 1) for i in range(1, m)}
    elif piece == "anassa":
        squares = {(i, i) for i in range(1, m + 1)} | {(m, r) for r in range(1, m)}
    else:
        raise ValueError(f"unknown piece {piece!r}")
    return frozenset(squares)
