"""
Brute-force oracle and the inductive board collapse
===================================================

An exact counter takes nonattacking placements on any explicit set of
squares (a board is a frozenset of (column, row) pairs), for any piece with
two move directions.  Small boards cross-check the closed forms, and a
carefully chosen subset of S_m collapses onto S_{m-1}.
"""

from chesscount import (
    ANASSA_MOVES,
    BISHOP_MOVES,
    anassas,
    bishop_color_board,
    bishops,
    inductive_subset,
    max_pieces,
    placement_counts,
    square_board,
    white_rooks,
)

# Two squares attack each other when their difference is parallel to a
# move direction.  Pieces here are riders: range is unlimited.  line_keys
# names the line through a square in each direction, so two squares attack
# exactly when they share a key.
for a, b, name, moves in (
    ((1, 1), (4, 4), "bishop", BISHOP_MOVES),
    ((1, 1), (1, 5), "bishop", BISHOP_MOVES),
    ((1, 1), (1, 5), "anassa", ANASSA_MOVES),
):
    keys = moves.line_keys(a), moves.line_keys(b)
    attack = any(x == y for x, y in zip(*keys))
    print(f"{a} vs {b}, {name}: line keys {keys[0]} and {keys[1]}, attack: {attack}")

# A two-direction piece puts at most one piece on each of its lines, so a
# placement matches lines of one family to lines of the other.  The counter
# goes one line at a time, tracking which lines of the other family are
# taken.  placement_counts returns the whole profile (k = 0, 1, ...).
board = square_board(4)
print("\nbishop profile on S_4:", placement_counts(board, BISHOP_MOVES))
print("anassa profile on S_4:", placement_counts(board, ANASSA_MOVES))

# Every formula value at small sizes agrees with the oracle.
for m in range(6):
    b = square_board(m)
    for k in range(max_pieces("bishop", m) + 1):
        assert placement_counts(b, BISHOP_MOVES)[k] == bishops(m, k)
    for k in range(max_pieces("anassa", m) + 1):
        assert placement_counts(b, ANASSA_MOVES)[k] == anassas(m, k)
print("\nclosed forms match brute force for m <= 5")

# Bishops never leave their square color, so the count factors through
# the two color classes independently.
white, _ = bishop_color_board(square_board(5))
print("white squares on S_5:", len(white))
assert placement_counts(white, BISHOP_MOVES)[2] == white_rooks(5, 2)

# Removing the inductive subset (2m-1 squares: the main diagonal plus one
# extra line) from S_m leaves a board that counts exactly like S_{m-1}.
sub = inductive_subset(4, "anassa")
print("\nanassa subset removed from S_4 has", len(sub), "squares")
# Boards are sets, so the reduced board is a set difference.
for m in range(1, 6):
    for piece, moves in (("bishop", BISHOP_MOVES), ("anassa", ANASSA_MOVES)):
        reduced = square_board(m) - inductive_subset(m, piece)
        assert placement_counts(reduced, moves) == placement_counts(square_board(m - 1), moves)
print("collapse onto S_{m-1} verified for m <= 5, both pieces")
