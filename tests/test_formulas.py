"""Counting-formula tests: closed forms, recurrences, and cross-checks."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chesscount import (
    anassa_rows,
    anassa_split_rows,
    anassas,
    anassas_diagonal,
    anassas_split,
    binomial,
    bishop_color_board,
    bishops,
    black_rooks,
    black_rooks_alt,
    count,
    count_table,
    formulas,
    max_pieces,
    rook_and_bishop_quasipolynomials,
    rook_rows,
    square_board,
    stirling2,
    verify_identities,
    white_rooks,
    white_rooks_alt,
)
from helpers import anassa_rows_backward, newton_extrapolate, rook_rows_backward

# --- one-color rook counts ---


def test_rook_frozen_values():
    assert white_rooks(2, 1) == 2
    assert white_rooks(3, 1) == 5
    assert black_rooks(3, 1) == 4
    assert black_rooks(1, 1) == 0


def test_rook_single_piece_counts_squares():
    # One rook anywhere: the count is just the number of squares of that color.
    for m in range(9):
        white, black = bishop_color_board(square_board(m))
        assert white_rooks(m, 1) == len(white)
        assert black_rooks(m, 1) == len(black)


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
    rooks = [rook_and_bishop_quasipolynomials(k)[:2] for k in range(5)]
    *_, last = rook_rows(m)
    for i, color in enumerate(("white", "black")):
        for k in range(5):
            want = sum(c * m**d for d, c in enumerate(rooks[k][i].coeffs[m % 2]))
            assert last[i][k] == want, (color, k)


def test_rook_recurrence_run_backward_meets_the_closed_forms_at_negative_sizes():
    # The closed forms reach negative m through the extended Stirling table;
    # the backward recurrence shares no arithmetic with them.
    for white, closed in ((True, white_rooks), (False, black_rooks)):
        sizes = 0
        for i, row in enumerate(rook_rows_backward(-30, 13, white)):
            for k, value in enumerate(row):
                assert value == closed(-i, k), (closed.__name__, -i, k)
            sizes += 1
        assert sizes == 31


def test_alternating_routes_match_closed_forms():
    for m in range(41):
        for k in range(2 * m + 3):
            assert white_rooks_alt(m, k) == white_rooks(m, k), (m, k)
            assert black_rooks_alt(m, k) == black_rooks(m, k), (m, k)


def test_alternating_route_saturated_boundary():
    for m in range(9):
        assert white_rooks_alt(m, m) == (1 if m <= 1 else 0)
        # The black board of size 1 has no square.
        assert black_rooks_alt(m, m) == (1 if m == 0 else 0)
    assert white_rooks_alt(4, 7) == 0
    assert black_rooks_alt(4, 7) == 0


def test_rook_validation():
    with pytest.raises(ValueError):
        white_rooks(3, -1)
    with pytest.raises(ValueError):
        black_rooks(3, -1)
    for alt in (white_rooks_alt, black_rooks_alt):
        with pytest.raises(ValueError):
            alt(-1, 0)
        with pytest.raises(ValueError):
            alt(3, -1)
    with pytest.raises(ValueError):
        next(rook_rows(-1))


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


def test_bishop_validation():
    with pytest.raises(ValueError):
        bishops(4, -2)
    with pytest.raises(ValueError):
        black_rooks_alt(-1, 2)


# --- anassas ---


def test_anassa_frozen_values():
    assert anassas(2, 2) == 3
    assert anassas(2, 1) == 4
    assert anassas_split(3, 1, 0) == 6
    assert anassas_split(3, 1, 1) == 3
    assert anassas_split(4, 2, 2) == 7


def test_anassa_weight_is_an_integer():
    # anassas weighs term j by C(k-j, j) 2^max(k-2j, 0) + C(k-j, j-1) 2^(k-2j+1),
    # built from integers alone; by Pascal's rule it is the paper's
    # (C(k-j, j-1) + C(k-j+1, j)) * 2^(k-2j), whose power is 2^-1 at odd k
    # and j = (k+1)/2.  Both sides are doubled so that no side divides.
    for k in range(201):
        for j in range((k + 1) // 2 + 1):
            shift = k - 2 * j
            pascal = (binomial(k - j, j) << max(shift, 0)) + (binomial(k - j, j - 1) << (shift + 1))
            bracket = binomial(k - j, j - 1) + binomial(k - j + 1, j)
            assert 2 * pascal == bracket << (shift + 1), (k, j)


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


def test_anassa_split_at_negative_sizes_extends_the_recurrence_polynomial():
    # For fixed k and p the split count is a polynomial in m of degree at
    # most 2k, so the recurrence's values at m = 0 .. 2k fix it everywhere.
    triangles = list(anassa_split_rows(16))
    for k in range(9):
        splits = [tri[k] if k <= m else () for m, tri in enumerate(triangles[: 2 * k + 1])]
        for p in range(k + 2):
            samples = [split[p] if p < len(split) else 0 for split in splits]
            for m in range(-25, 0):
                assert anassas_split(m, k, p) == newton_extrapolate(samples, m), (m, k, p)


def test_anassa_rows_sum_the_split_triangles():
    for m, (row, tri) in enumerate(zip(anassa_rows(40), anassa_split_rows(40))):
        assert row == tuple(map(sum, tri)), m


def test_anassa_rows_match_closed_form():
    for m, row in enumerate(anassa_rows(60)):
        assert row == tuple(anassas(m, k) for k in range(m + 1)), m
    *_, last = anassa_rows(300)
    assert len(last) == 301
    for k in (0, 1, 2, 3, 50, 149, 150, 151, 298, 299, 300):
        assert last[k] == anassas(300, k), k


def test_anassa_recurrence_run_backward_meets_the_closed_form_at_negative_sizes():
    # The backward step halves, and the helper asserts that each halving is exact.
    sizes = 0
    for i, row in enumerate(anassa_rows_backward(-30, 13)):
        for k, value in enumerate(row):
            assert value == anassas(-i, k), (-i, k)
        sizes += 1
    assert sizes == 31


def test_anassa_counts_vanish_beyond_feasibility():
    for m in range(9):
        for k in range(m + 1, m + 4):
            assert anassas(m, k) == 0


def test_counts_far_past_capacity_are_zero():
    # Each sum evaluates only the summands a 3 x 3 board can hold: together
    # these take milliseconds, where a pass over every j <= k takes minutes.
    start = time.perf_counter()
    assert count("bishop", 3, 20_000) == 0
    assert count("bishop", 3, 10**7) == 0
    assert count("anassa", 3, 20_000) == 0
    assert anassas_split(3, 20_000, 20_000) == 0
    assert time.perf_counter() - start < 10


def test_anassa_validation():
    with pytest.raises(ValueError):
        anassas(3, -1)
    with pytest.raises(ValueError):
        anassas_split(3, 1, -1)
    with pytest.raises(ValueError):
        next(anassa_split_rows(-1))
    assert list(anassa_split_rows(0)) == [((1,),)]
    assert len(list(anassa_split_rows(40))) == 41
    with pytest.raises(ValueError):
        next(anassa_rows(-1))
    with pytest.raises(ValueError):
        anassas_diagonal(-1)


def test_exact_divisions_refuse_a_remainder(monkeypatch):
    # One wrong binomial, C(3, 1) = 4, leaves a remainder in the alternating
    # sum at m = 4, k = 1 (divided by 3!) and in the saturated sums at m = 2.
    right = verify_identities.binomial
    monkeypatch.setattr(
        verify_identities, "binomial", lambda n, k: right(n, k) + ((n, k) == (3, 1))
    )
    with pytest.raises(ArithmeticError, match="not divisible"):
        white_rooks_alt(4, 1)
    with pytest.raises(ArithmeticError, match="non-integral"):
        anassas_diagonal(2)
    # C(3, 1) = 7 leaves a remainder in the second sum only: at m = 2 the
    # first, 20, divides by 2^2, and the second, 28, by 2 but not by 2^3.
    monkeypatch.setattr(
        verify_identities, "binomial", lambda n, k: right(n, k) + 4 * ((n, k) == (3, 1))
    )
    with pytest.raises(ArithmeticError, match="non-integral"):
        anassas_diagonal(2)


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
    assert list(count_table("bishop", 2)) == [(1,), (1, 1), (1, 4, 4)]
    assert list(count_table("anassa", 2)) == [(1,), (1, 1), (1, 4, 3)]


def test_count_table_invariants():
    for piece in ("bishop", "anassa"):
        for m, row in enumerate(count_table(piece, 6)):
            assert row[0] == 1
            assert all(v >= 0 for v in row)
            assert len(row) == max_pieces(piece, m) + 1
    with pytest.raises(ValueError):
        count_table("bishop", -1)


def test_count_table_matches_closed_forms():
    # The tables come from the row recurrences; the closed forms check them.
    for piece, m_max in (("bishop", 30), ("anassa", 40)):
        rows = list(count_table(piece, m_max))
        for m in range(m_max + 1):
            closed = tuple(count(piece, m, k) for k in range(max_pieces(piece, m) + 1))
            assert rows[m] == closed, (piece, m)
    *_, last = count_table("anassa", 120)
    assert last == tuple(count("anassa", 120, k) for k in range(121))


def test_anassa_table_does_not_build_split_triangles(monkeypatch):
    def refuse(m_max):
        raise AssertionError("count_table summed the split triangles")

    monkeypatch.setattr("chesscount.verify_identities.anassa_split_rows", refuse)
    *_, last = count_table("anassa", 30)
    assert last == tuple(anassas(30, k) for k in range(31))


def test_anassa_sums_skip_the_terms_past_the_board(monkeypatch):
    # For m >= 0 the Stirling factor vanishes below j = k - m, and at every m
    # above j = k, so a count far past the board's capacity, or with far more
    # pieces below the diagonal than on the board, reads few Stirling numbers.
    # The stub stops at its budget, so a sum that walks the zero terms fails
    # at once rather than running for minutes.
    calls = []
    lookup = formulas.stirling2

    def counted(n, k):
        calls.append((n, k))
        assert len(calls) <= budget, "walked the vanishing terms"
        return lookup(n, k)

    monkeypatch.setattr(formulas, "stirling2", counted)
    m, k = 3, 10**6
    budget = m + 2
    for count in (lambda: anassas(m, k), lambda: anassas_split(m, k, k)):
        assert count() == 0
        calls.clear()
    k = 2
    budget = k + 1
    for m, below in ((10, 10**6), (10, k + 1), (-4, 10**6)):
        assert anassas_split(m, k, below) == 0
        calls.clear()
