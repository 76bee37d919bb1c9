"""Counting-formula tests: closed forms, recurrences, and cross-checks."""

import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chesscount import (
    anassa_split_rows,
    anassas,
    anassas_by_split_sum,
    anassas_diagonal,
    anassas_split,
    binomial,
    bishop_color_board,
    bishops,
    bishops_classic,
    black_rook_coeffs,
    black_rooks,
    count,
    count_table,
    max_pieces,
    rook_rows,
    stirling2,
    white_rook_coeffs,
    white_rooks,
    white_rooks_alt,
)

# --- one-color rook counts ---


def test_rook_frozen_values():
    assert white_rooks(2, 1) == 2
    assert white_rooks(3, 1) == 5
    assert black_rooks(3, 1) == 4
    assert black_rooks(1, 1) == 0


def test_rook_single_piece_counts_squares():
    # One rook anywhere: the count is just the number of squares of that color.
    for m in range(9):
        assert white_rooks(m, 1) == len(bishop_color_board(m, "white").squares)
        assert black_rooks(m, 1) == len(bishop_color_board(m, "black").squares)


def test_rook_edge_rows():
    for m in range(-1, 10):
        assert white_rooks(m, 0) == 1
        assert black_rooks(m, 0) == 1
    for k in range(1, 8):
        assert white_rooks(0, k) == 0
        assert black_rooks(0, k) == 0


def test_rook_rows_reach_deep_boards():
    # Far past the depth where a recursive recurrence overflows the stack.
    m = 1100
    for color, coeffs in (("white", white_rook_coeffs), ("black", black_rook_coeffs)):
        *_, last = rook_rows(m, color)
        for k in range(5):
            want = sum(c * m**d for d, c in enumerate(coeffs(k, m % 2)))
            assert last[k] == want, (color, k)


def test_alternating_route_saturated_boundary():
    for m in range(9):
        assert white_rooks_alt(m, m) == (1 if m <= 1 else 0)
    assert white_rooks_alt(4, 7) == 0


def test_rook_validation():
    with pytest.raises(ValueError):
        white_rooks(3, -1)
    with pytest.raises(ValueError):
        white_rooks_alt(-1, 0)
    for color in ("white", "black"):
        with pytest.raises(ValueError):
            next(rook_rows(-1, color))
    with pytest.raises(ValueError):
        next(rook_rows(3, "red"))


# --- bishops ---


def test_bishop_frozen_values():
    assert bishops(8, 1) == 64
    assert bishops(8, 2) == 1736
    assert bishops(2, 2) == 4
    assert bishops(1, 1) == 1
    assert bishops(0, 0) == 1


def test_bishop_one_piece_is_board_area():
    for m in range(13):
        assert bishops(m, 1) == m * m


def test_bishop_counts_vanish_beyond_feasibility():
    for m in range(2, 11):
        for k in range(2 * m - 1, 2 * m + 3):
            assert bishops(m, k) == 0


def test_bishop_negative_one_gives_factorials():
    for k in range(9):
        assert bishops(-1, k) == math.factorial(k)


def test_bishop_validation():
    with pytest.raises(ValueError):
        bishops(4, -2)
    with pytest.raises(ValueError):
        bishops_classic(-1, 2)


# --- anassas ---


def test_anassa_frozen_values():
    assert anassas(2, 2) == 3
    assert anassas(2, 1) == 4
    assert anassas_split(3, 1, 0) == 6
    assert anassas_split(3, 1, 1) == 3
    assert anassas_split(4, 2, 2) == 7


def test_anassa_one_piece_is_board_area():
    for m in range(13):
        assert anassas(m, 1) == m * m


def test_anassa_split_initial_conditions():
    for m in range(1, 13):
        for p in range(4):
            assert anassas_split(m, 0, p) == (1 if p == 0 else 0)
        assert anassas_split(m, 1, 0) == stirling2(m + 1, m)
        assert anassas_split(m, 1, 1) == stirling2(m, m - 1)
        assert anassas_split(m, 1, 2) == 0
    for k in range(4):
        for p in range(4):
            assert anassas_split(0, k, p) == (1 if k == p == 0 else 0)


def test_anassa_split_staircase_column():
    # No piece below the diagonal: the board is a one-step staircase.
    for m in range(13):
        for k in range(9):
            assert anassas_split(m, k, 0) == stirling2(m + 1, m - k + 1)


def test_anassa_split_telescopes_at_full_split():
    for m in range(11):
        for k in range(m + 1):
            assert anassas_split(m, k, k) == stirling2(m, m - k)


def test_anassa_split_vanishes_beyond_k():
    for m in range(9):
        for k in range(5):
            for p in range(k + 1, k + 4):
                assert anassas_split(m, k, p) == 0
    # The recurrence rows hold only p <= k <= m; every entry past them is 0.
    for m, tri in enumerate(anassa_split_rows(8)):
        assert [len(split) for split in tri] == list(range(1, m + 2))


def test_anassa_split_recurrence_matches_closed_form():
    # Listed first, so each triangle is checked after the engine moved on.
    for m, tri in enumerate(list(anassa_split_rows(12))):
        for k in range(9):
            for p in range(k + 1):
                got = tri[k][p] if k <= m else 0
                assert got == anassas_split(m, k, p), (m, k, p)


def test_anassa_split_sums_to_total():
    for m in range(13):
        for k in range(9):
            assert anassas_by_split_sum(m, k) == anassas(m, k), (m, k)


def test_anassa_counts_vanish_beyond_feasibility():
    for m in range(9):
        for k in range(m + 1, m + 4):
            assert anassas(m, k) == 0


def test_counts_far_past_capacity_are_zero():
    # Each sum evaluates only the summands a 3 x 3 board can hold: together
    # these take milliseconds, where a pass over every j <= k takes minutes.
    start = time.perf_counter()
    assert count("bishop", 3, 20_000) == 0
    assert count("anassa", 3, 20_000) == 0
    assert anassas_split(3, 20_000, 20_000) == 0
    assert time.perf_counter() - start < 10


def test_anassa_negative_one_gives_factorials():
    for k in range(9):
        assert anassas(-1, k) == math.factorial(k)


def test_anassa_diagonal_two_summations():
    assert anassas_diagonal(2) == (3, 3)
    assert anassas_diagonal(0) == (1, 1)


def test_anassa_validation():
    with pytest.raises(ValueError):
        anassas(3, -1)
    with pytest.raises(ValueError):
        anassas_split(3, 1, -1)
    with pytest.raises(ValueError):
        next(anassa_split_rows(-1))
    with pytest.raises(ValueError):
        anassas_diagonal(-1)


@given(st.integers(0, 10), st.integers(0, 10))
def test_anassa_never_exceeds_bishop_freedom(m, k):
    # The anassa's lines nest inside the rook+bishop union; spot sanity bound.
    assert 0 <= anassas(m, k) <= binomial(m * m, k)


# --- dispatch, feasibility, tables ---


def test_count_dispatch():
    assert count("bishop", 8, 2) == 1736
    assert count("anassa", 2, 2) == 3
    with pytest.raises(ValueError):
        count("queen", 3, 1)


def test_max_pieces():
    assert [max_pieces("bishop", m) for m in range(5)] == [0, 1, 2, 4, 6]
    assert [max_pieces("anassa", m) for m in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        max_pieces("bishop", -1)
    with pytest.raises(ValueError):
        max_pieces("queen", 3)


def test_count_table_rows():
    table = count_table("bishop", 2)
    assert table.rows == ((1,), (1, 1), (1, 4, 4))
    table = count_table("anassa", 2)
    assert table.rows == ((1,), (1, 1), (1, 4, 3))
    assert table.flatten() == [1, 1, 1, 1, 4, 3]


def test_count_table_rect_pads_with_zeros():
    table = count_table("anassa", 2, rect=True)
    assert table.rows == ((1, 0, 0), (1, 1, 0), (1, 4, 3))


def test_count_table_invariants():
    for piece in ("bishop", "anassa"):
        table = count_table(piece, 6)
        for m, row in enumerate(table.rows):
            assert row[0] == 1
            assert all(v >= 0 for v in row)
            assert len(row) == max_pieces(piece, m) + 1
    with pytest.raises(ValueError):
        count_table("bishop", -1)


def test_count_table_matches_closed_forms():
    # The tables come from the row recurrences; the closed forms check them.
    for piece, m_max in (("bishop", 30), ("anassa", 40)):
        rows = count_table(piece, m_max).rows
        padded = count_table(piece, m_max, rect=True).rows
        width = max_pieces(piece, m_max) + 1
        for m in range(m_max + 1):
            closed = tuple(count(piece, m, k) for k in range(max_pieces(piece, m) + 1))
            assert rows[m] == closed, (piece, m)
            assert padded[m] == closed + (0,) * (width - len(closed)), (piece, m)
    last = count_table("anassa", 120).rows[-1]
    assert last == tuple(count("anassa", 120, k) for k in range(121))
