"""Board model and brute-force oracle tests."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chesscount import (
    ANASSA_MOVES,
    BISHOP_MOVES,
    MoveSet,
    bishop_color_board,
    inductive_subset,
    placement_counts,
    placement_profile,
    square_board,
)
from chesscount import board as board_module
from chesscount.verify_board import suite_collapse
from helpers import attacks


def _at(counts, k):
    """Entry k of placement counts, 0 past the largest feasible size."""
    return counts[k] if k < len(counts) else 0


def _share_line(a, b, moves):
    """Whether squares a and b lie on one line of the move set: the package's attack relation."""
    return any(x == y for x, y in zip(moves.line_keys(a), moves.line_keys(b)))


# --- move sets ---


def test_moveset_rejects_zero_vector():
    with pytest.raises(ValueError, match="not primitive"):
        MoveSet(((0, 0), (1, 1)))


def test_moveset_rejects_non_primitive_vector():
    with pytest.raises(ValueError, match="not primitive"):
        MoveSet(((1, 1), (0, 2)))


def test_moveset_rejects_parallel_vectors():
    with pytest.raises(ValueError, match="parallel"):
        MoveSet(((1, 1), (-1, -1)))
    with pytest.raises(ValueError, match="parallel"):
        MoveSet(((0, 1), (0, -1)))


def test_moveset_rejects_empty():
    with pytest.raises(ValueError, match="two move directions"):
        MoveSet(())


# --- attack relation ---


def test_bishop_attacks_both_diagonals():
    assert _share_line((1, 1), (3, 3), BISHOP_MOVES)
    assert _share_line((3, 1), (1, 3), BISHOP_MOVES)
    assert not _share_line((1, 1), (1, 3), BISHOP_MOVES)
    assert not _share_line((1, 1), (2, 3), BISHOP_MOVES)


def test_anassa_attacks_file_and_one_diagonal():
    assert _share_line((2, 1), (2, 4), ANASSA_MOVES)
    assert _share_line((1, 1), (3, 3), ANASSA_MOVES)
    assert not _share_line((3, 1), (1, 3), ANASSA_MOVES)
    assert not _share_line((1, 1), (3, 2), ANASSA_MOVES)


def test_attacks_is_symmetric():
    # Shared line keys are the pairwise attack test of tests/helpers.py.
    for moves in (BISHOP_MOVES, ANASSA_MOVES):
        for a, b in itertools.combinations(sorted(square_board(4)), 2):
            assert _share_line(a, b, moves) == _share_line(b, a, moves)
            assert _share_line(a, b, moves) == attacks(a, b, moves.moves), (a, b)


def test_attack_ignores_blocking():
    # A piece between two attackers changes nothing: the relation is pairwise,
    # so no two of these three squares hold pieces together.
    assert _share_line((1, 1), (4, 4), BISHOP_MOVES)
    diagonal = frozenset({(1, 1), (2, 2), (4, 4)})
    assert placement_counts(diagonal, BISHOP_MOVES) == (1, 3)


# --- boards ---


def test_square_board_sizes():
    assert square_board(0) == frozenset()
    assert len(square_board(3)) == 9
    with pytest.raises(ValueError):
        square_board(-1)


# --- exhaustive counter ---


def _count_by_combinations(board, moves, k):
    # Independent route: raw subsets filtered by the pairwise attack test.
    return sum(
        1
        for combo in itertools.combinations(sorted(board), k)
        if all(not attacks(a, b, moves.moves) for a, b in itertools.combinations(combo, 2))
    )


def test_counter_matches_subset_filtering():
    for m in range(4):
        board = square_board(m)
        for moves in (BISHOP_MOVES, ANASSA_MOVES):
            counts = placement_counts(board, moves)
            for k in range(6):
                assert _at(counts, k) == _count_by_combinations(board, moves, k), (m, k)


def test_counter_basics():
    board = square_board(2)
    assert placement_counts(board, BISHOP_MOVES) == (1, 4, 4)
    assert placement_counts(board, ANASSA_MOVES)[2] == 3
    assert placement_counts(square_board(0), BISHOP_MOVES) == (1,)


def test_feasibility_bounds():
    # The counts stop at the largest feasible size, whose count is nonzero.
    for m in range(2, 6):
        board = square_board(m)
        bishop = placement_counts(board, BISHOP_MOVES)
        assert len(bishop) == 2 * m - 1 and bishop[-1] > 0
        anassa = placement_counts(board, ANASSA_MOVES)
        assert len(anassa) == m + 1 and anassa[-1] > 0


def test_placement_counts_profile():
    profile = placement_counts(square_board(2), ANASSA_MOVES)
    assert profile == (1, 4, 3)


def test_oracle_needs_two_directions():
    # A move set holds exactly two directions, so the oracle never sees another count.
    for moves in (((0, 1),), ((0, 1), (1, 0), (1, 1))):
        with pytest.raises(ValueError, match="two move directions"):
            MoveSet(moves)


@settings(deadline=None)
@given(st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 4))))
def test_counter_matches_subset_filtering_on_irregular_boards(board):
    for moves in (BISHOP_MOVES, ANASSA_MOVES):
        profile = placement_counts(board, moves)
        for k in range(len(profile) + 1):
            want = _count_by_combinations(board, moves, k)
            assert _at(profile, k) == want, (sorted(board), k)


@given(st.integers(0, 4), st.integers(0, 30))
def test_counts_are_nonnegative(m, k):
    assert _at(placement_counts(square_board(m), ANASSA_MOVES), k) >= 0


# --- color split ---


def test_color_boards_partition_the_board():
    for m in range(7):
        white = bishop_color_board(m, "white")
        black = bishop_color_board(m, "black")
        assert white | black == square_board(m)
        assert not white & black
        assert len(white) == (m * m + 1) // 2


def test_white_is_the_color_of_the_corner():
    assert bishop_color_board(1, "white") == frozenset({(1, 1)})
    assert bishop_color_board(1, "black") == frozenset()
    with pytest.raises(ValueError):
        bishop_color_board(2, "green")


def test_bishop_counts_factor_over_colors():
    for m in range(6):
        board = placement_counts(square_board(m), BISHOP_MOVES)
        white = placement_counts(bishop_color_board(m, "white"), BISHOP_MOVES)
        black = placement_counts(bishop_color_board(m, "black"), BISHOP_MOVES)
        for k in range(2 * m + 1):
            split = sum(_at(white, j) * _at(black, k - j) for j in range(k + 1))
            assert split == _at(board, k), (m, k)


# --- split on marked squares ---


def _below_split(m):
    """The anassa split of the m x m board: placements keyed by (size, pieces below the diagonal)."""
    board = square_board(m)
    return placement_profile(board, ANASSA_MOVES, frozenset((c, r) for c, r in board if r < c))


def test_below_diagonal_frozen_values():
    assert _below_split(3).get((1, 0), 0) == 6
    assert _below_split(3).get((1, 1), 0) == 3
    assert _below_split(4).get((2, 2), 0) == 7


def test_below_diagonal_sums_to_total():
    for m in range(6):
        profile = _below_split(m)
        counts = placement_counts(square_board(m), ANASSA_MOVES)
        for k in range(m + 1):
            total = sum(profile.get((k, p), 0) for p in range(k + 1))
            assert total == counts[k], (m, k)
            assert (k, k + 1) not in profile


def test_below_diagonal_matches_subset_filtering():
    for m in range(5):
        squares = sorted(square_board(m))
        profile = _below_split(m)
        for k in range(m + 2):
            split = [0] * (k + 2)
            for combo in itertools.combinations(squares, k):
                if all(
                    not attacks(a, b, ANASSA_MOVES.moves)
                    for a, b in itertools.combinations(combo, 2)
                ):
                    split[sum(r < c for c, r in combo)] += 1
            for p, want in enumerate(split):
                assert profile.get((k, p), 0) == want, (m, k, p)


@settings(deadline=None)
@given(st.data())
def test_split_on_any_marked_subset_matches_subset_filtering(data):
    # The search knows no rule about the squares it splits on: any subset of
    # an irregular board, read against raw subsets and the pairwise attack test.
    board = data.draw(st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 4))))
    marked = data.draw(st.frozensets(st.sampled_from(sorted(board)))) if board else frozenset()
    for moves in (BISHOP_MOVES, ANASSA_MOVES):
        want = {}
        for k in range(len(board) + 1):
            for combo in itertools.combinations(sorted(board), k):
                if all(not attacks(a, b, moves.moves) for a, b in itertools.combinations(combo, 2)):
                    key = (k, len(marked.intersection(combo)))
                    want[key] = want.get(key, 0) + 1
        assert placement_profile(board, moves, marked) == want, (sorted(board), sorted(marked))


def test_unmarked_search_keys_by_size_alone():
    for m in range(6):
        for moves in (BISHOP_MOVES, ANASSA_MOVES):
            profile = placement_profile(square_board(m), moves, frozenset())
            counts = placement_counts(square_board(m), moves)
            assert profile == {(k, 0): n for k, n in enumerate(counts)}, (m, moves)


# --- inductive subsets and board collapse ---


def test_inductive_subset_shapes():
    for m in range(1, 7):
        for piece in ("bishop", "anassa"):
            subset = inductive_subset(m, piece)
            assert len(subset) == 2 * m - 1
            remainder = square_board(m) - subset
            assert len(remainder) == (m - 1) ** 2
    assert inductive_subset(3, "bishop") == frozenset(
        {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}
    )
    assert inductive_subset(3, "anassa") == frozenset(
        {(1, 1), (2, 2), (3, 3), (3, 1), (3, 2)}
    )
    with pytest.raises(ValueError):
        inductive_subset(0, "bishop")
    with pytest.raises(ValueError):
        inductive_subset(3, "queen")


def test_collapse_fails_without_the_inductive_subset(monkeypatch):
    # The other piece's subset has as many squares, but removing it leaves a
    # board whose counts differ from the smaller board's from m = 3 on.
    subset = board_module.inductive_subset
    other = {"bishop": "anassa", "anassa": "bishop"}
    monkeypatch.setattr(board_module, "inductive_subset", lambda m, piece: subset(m, other[piece]))
    (r,) = suite_collapse(6)
    assert r.checks == 12
    failed = [failure.split(":")[0] for failure in r.failures]
    assert failed == [f"{piece} m={m}" for piece in ("bishop", "anassa") for m in range(3, 7)]
