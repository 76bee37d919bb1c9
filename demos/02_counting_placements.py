"""
Counting nonattacking bishops and anassas
=========================================

The bishop moves along both diagonals; the anassa along one file and one
diagonal.  Placement counts on an m x m board come from closed forms,
with recurrences and alternative summations agreeing on every value.
"""

from chesscount import (
    anassas,
    anassas_diagonal,
    anassas_split,
    bishops,
    black_rooks,
    count_table,
    max_pieces,
    rook_rows,
    white_rooks,
)

# How many ways to put k mutually nonattacking bishops on an 8x8 board?
for k in range(5):
    print(f"bishops(8, {k}) = {bishops(8, k)}")

# One bishop can land anywhere, so k=1 always gives m^2.
assert bishops(8, 1) == 64

# Bishop counts factor through rook placements on the two color classes:
# rotate the board 45 degrees and the diagonals become ranks and files.
k = 3
by_colors = sum(black_rooks(8, j) * white_rooks(8, k - j) for j in range(k + 1))
# The rook counts also follow a recurrence that adds one board size at a
# time; rook_rows yields each size's (white, black) rows of counts.
*_, (white_row, black_row) = rook_rows(8)
by_rows = sum(black_row[j] * white_row[k - j] for j in range(k + 1))
assert by_colors == bishops(8, k) == by_rows
print(f"\ncolor-class convolution reproduces bishops(8, {k}) = {by_colors}")

# Anassa counts refine by p, the number of pieces strictly below the
# main diagonal.  The refined counts sum back to the total.
m, k = 5, 3
parts = [anassas_split(m, k, p) for p in range(k + 1)]
print(f"\nanassas on S_{m} with k={k}, split by below-diagonal count:")
print("  parts:", parts, " sum:", sum(parts))
assert sum(parts) == anassas(m, k)

# Saturation: at most 2m-2 bishops fit on S_m (m >= 2), at most m anassas.
print("\nmax pieces on S_4: bishop", max_pieces("bishop", 4),
      " anassa", max_pieces("anassa", 4))
assert bishops(4, max_pieces("bishop", 4) + 1) == 0
assert anassas(4, max_pieces("anassa", 4) + 1) == 0

# A fully loaded anassa board (k = m) admits two equivalent summations.
a, b = anassas_diagonal(6)
assert a == b == anassas(6, 6)
print(f"anassas(6, 6) = {a} via either diagonal summation")

# Whole triangles, one row at a time: row m holds k = 0 .. max feasible.
print("\nanassa triangle up to m=4:")
for m, row in enumerate(count_table("anassa", 4)):
    print(f"  m={m}: {list(row)}")

# Counts extend below m=0: at size -1 both pieces count permutations.
print("\nsize -1 gives factorials:", [bishops(-1, k) for k in range(6)])
