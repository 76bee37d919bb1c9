"""Boards, ride-style pieces, and an exact placement counter.

Squares are (column, row) pairs, both 1-based, row 1 at the bottom.  A piece
is a set of move directions; it attacks along the full line spanned by each
direction, with no blocking (placements are counted, so every other piece on
a shared line is itself a mutual attacker).  The counter here uses no closed
form: for a piece with two directions it matches the two families of lines,
one line at a time, so it serves as an independent check of the formulas.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from collections.abc import Iterable
from functools import lru_cache

Square = tuple[int, int]
Move = tuple[int, int]


class MoveSet(namedtuple("MoveSet", "moves")):
    """Directions a piece rides along.

    Each direction must be nonzero with coprime coordinates (a primitive
    vector), and no two directions may be parallel.
    """

    __slots__ = ()

    def __new__(cls, moves: tuple[Move, ...]) -> MoveSet:
        if not moves:
            raise ValueError("a piece needs at least one move direction")
        for dc, dr in moves:
            if (dc, dr) == (0, 0):
                raise ValueError("move directions must be nonzero")
            if math.gcd(dc, dr) != 1:
                raise ValueError(f"move direction {(dc, dr)} is not primitive")
        for i, (ac, ar) in enumerate(moves):
            for bc, br in moves[i + 1:]:
                if ac * br - ar * bc == 0:
                    raise ValueError(f"parallel move directions {(ac, ar)} and {(bc, br)}")
        return super().__new__(cls, moves)

    def line_keys(self, square: Square) -> tuple[int, ...]:
        """One id per direction; squares share an id iff they share that line."""
        c, r = square
        return tuple(dr * c - dc * r for dc, dr in self.moves)


BISHOP_MOVES = MoveSet(((1, 1), (-1, 1)))
ANASSA_MOVES = MoveSet(((0, 1), (1, 1)))

PIECES: dict[str, MoveSet] = {"bishop": BISHOP_MOVES, "anassa": ANASSA_MOVES}


class Board(namedtuple("Board", "size squares")):
    """A finite set of squares inside the size x size grid."""

    __slots__ = ()

    def __new__(cls, size: int, squares: frozenset[Square]) -> Board:
        if size < 0:
            raise ValueError(f"board size must be >= 0, got {size}")
        for c, r in squares:
            if not (1 <= c <= size and 1 <= r <= size):
                raise ValueError(f"square {(c, r)} outside the {size}x{size} grid")
        return super().__new__(cls, size, squares)


def square_board(m: int) -> Board:
    """The full m x m board."""
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    return Board(m, frozenset((c, r) for c in range(1, m + 1) for r in range(1, m + 1)))


def attacks(a: Square, b: Square, moves: MoveSet) -> bool:
    """Whether pieces on distinct squares a and b attack each other."""
    if a == b:
        raise ValueError("attack test needs two distinct squares")
    dc, dr = b[0] - a[0], b[1] - a[1]
    return any(dc * mr - dr * mc == 0 for mc, mr in moves.moves)


def is_nonattacking(squares: Iterable[Square], moves: MoveSet) -> bool:
    """Whether no two of the given squares attack each other."""
    per_line: list[set[int]] = [set() for _ in moves.moves]
    for sq in squares:
        for used, key in zip(per_line, moves.line_keys(sq)):
            if key in used:
                return False
            used.add(key)
    return True


class Placement(namedtuple("Placement", "board moves occupied")):
    """A pairwise nonattacking set of occupied squares on a board."""

    __slots__ = ()

    def __new__(cls, board: Board, moves: MoveSet, occupied: frozenset[Square]) -> Placement:
        if not occupied <= board.squares:
            raise ValueError("occupied squares must all lie on the board")
        if not is_nonattacking(occupied, moves):
            raise ValueError("occupied squares attack each other")
        return super().__new__(cls, board, moves, occupied)


# Eight covers every board one verify step holds at once: the square board
# for both pieces, its two bishop colors, and both reduced boards with the
# board one size down.
@lru_cache(maxsize=8)
def _profile(board: Board, moves: MoveSet) -> dict[tuple[int, int], int]:
    """Nonattacking placement counts on ``board``, keyed by (size, below).

    ``below`` is the number of occupied squares strictly below the main
    diagonal (row < column).  A piece with two directions holds at most one
    piece on each line of either family, so a placement is a matching between
    the two line families.  The search steps over the lines of the larger
    family, longest first; its state is the set of lines used in the other
    family, and a line leaves the state once no later step touches it.
    """
    if len(moves.moves) != 2:
        raise ValueError(f"the oracle needs two move directions, got {len(moves.moves)}")
    squares = list(board.squares)
    keys = [moves.line_keys(sq) for sq in squares]
    if len({b for _, b in keys}) > len({a for a, _ in keys}):
        keys = [(b, a) for a, b in keys]
    lines: dict[int, list[tuple[int, int]]] = defaultdict(list)
    bits: dict[int, int] = {}
    for (c, r), (step, other) in zip(squares, keys):
        lines[step].append((bits.setdefault(other, 1 << len(bits)), int(r < c)))
    order = sorted(lines.values(), key=len, reverse=True)
    last = {b: i for i, line in enumerate(order) for b, _ in line}
    states: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 1}}
    for i, line in enumerate(order):
        keep = sum(b for b, j in last.items() if j > i)
        grown: dict[int, dict[tuple[int, int], int]] = defaultdict(lambda: defaultdict(int))
        for used, poly in states.items():
            for b, ds, db in [(0, 0, 0)] + [(b, 1, under) for b, under in line if not used & b]:
                target = grown[(used | b) & keep]
                for (size, below), n in poly.items():
                    target[size + ds, below + db] += n
        states = grown
    return dict(states[0])


def placement_counts(board: Board, moves: MoveSet) -> tuple[int, ...]:
    """Counts of nonattacking placements on ``board`` by size.

    Entry j is the number of j-piece placements; the tuple stops at the
    largest feasible size.  Only pieces with two move directions are
    supported.
    """
    profile = _profile(board, moves)
    counts = [0] * (max(size for size, _ in profile) + 1)
    for (size, _), n in profile.items():
        counts[size] += n
    return tuple(counts)


def count_nonattacking(board: Board, moves: MoveSet, k: int) -> int:
    """Number of nonattacking k-piece placements on ``board``, by brute force."""
    if k < 0:
        raise ValueError(f"piece count must be >= 0, got {k}")
    profile = placement_counts(board, moves)
    return profile[k] if k < len(profile) else 0


def count_nonattacking_below_diag(m: int, k: int, p: int) -> int:
    """Anassa placements on the m x m board: k pieces, exactly p below the diagonal."""
    if m < 0:
        raise ValueError(f"board size must be >= 0, got {m}")
    if k < 0 or p < 0:
        raise ValueError("piece counts must be >= 0")
    return _profile(square_board(m), ANASSA_MOVES).get((k, p), 0)


def bishop_color_board(m: int, color: str) -> Board:
    """Squares of the m x m board on one bishop color.

    White is the color of (1, 1): squares with column + row even.  Bishops
    never leave their color, so bishop placements factor over the two boards.
    """
    if color not in ("white", "black"):
        raise ValueError(f"color must be 'white' or 'black', got {color!r}")
    want = 0 if color == "white" else 1
    full = square_board(m)
    return Board(m, frozenset(sq for sq in full.squares if (sq[0] + sq[1]) % 2 == want))


def inductive_subset(m: int, piece: str) -> Board:
    """A 2m-1 square subset whose removal collapses the board one size down.

    For the bishop: the main diagonal plus the squares directly above it.
    For the anassa: the main diagonal plus the rest of the rightmost file.
    Removing the subset from the m x m board leaves a board whose placement
    counts equal those of the (m-1) x (m-1) board, for every piece count.
    """
    if m < 1:
        raise ValueError(f"inductive subset needs board size >= 1, got {m}")
    if piece == "bishop":
        squares = {(i, i) for i in range(1, m + 1)} | {(i, i + 1) for i in range(1, m)}
    elif piece == "anassa":
        squares = {(i, i) for i in range(1, m + 1)} | {(m, r) for r in range(1, m)}
    else:
        raise ValueError(f"unknown piece {piece!r}")
    return Board(m, frozenset(squares))


def verify_collapse(m: int, piece: str, k_max: int) -> bool:
    """Check the one-size-down collapse for 0 <= k <= k_max."""
    moves = PIECES[piece]
    remainder = square_board(m).squares - inductive_subset(m, piece).squares
    reduced = Board(m, remainder)
    smaller = square_board(m - 1)
    return all(
        count_nonattacking(reduced, moves, k) == count_nonattacking(smaller, moves, k)
        for k in range(k_max + 1)
    )
