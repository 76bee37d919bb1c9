"""Kernel tests: extended binomials, the Stirling family, falling factorials."""

import math
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chesscount import (
    assoc_stirling2,
    binomial,
    falling_factorial,
    kernel,
    stirling1_unsigned,
    stirling2,
)
from helpers import count_partitions, extended_pascal_grid

# --- binomial, extended to all integers ---


def test_binomial_standard_region():
    for n in range(13):
        for k in range(-2, n + 3):
            want = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == want


def test_binomial_negative_one_row_alternates():
    assert [binomial(-1, k) for k in range(6)] == [1, -1, 1, -1, 1, -1]


def test_binomial_matches_independent_grid():
    grid = extended_pascal_grid(-8, 8)
    for (n, k), want in grid.items():
        assert binomial(n, k) == want, (n, k)


def test_binomial_deep_wedge_frozen_value():
    # Drawn from the power-series grid via the reflection C(-3,-5) = C(-3, 2).
    assert extended_pascal_grid(-8, 8)[-3, -5] == 6
    assert binomial(-3, -5) == 6


def test_binomial_zero_strip():
    for n in range(-9, 0):
        for k in range(n + 1, 0):
            assert binomial(n, k) == 0


def test_pascal_fails_only_at_origin():
    assert binomial(0, 0) != binomial(-1, 0) + binomial(-1, -1)


@given(st.integers(-60, 60), st.integers(-60, 60))
def test_binomial_symmetry(n, k):
    assert binomial(n, k) == binomial(n, n - k)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_binomial_absorption(n, k):
    # k * C(n, k) = n * C(n-1, k-1) holds across the whole extension.
    assert k * binomial(n, k) == n * binomial(n - 1, k - 1)


# --- Stirling numbers of the second kind ---


def test_stirling2_frozen_values():
    assert stirling2(4, 2) == 7
    assert stirling2(-2, -3) == 3


def test_stirling2_against_partition_enumeration():
    for n in range(8):
        for k in range(n + 2):
            assert stirling2(n, k) == count_partitions(n, k), (n, k)


def test_stirling2_recurrence_region_edges():
    assert stirling2(0, 0) == 1
    for n in range(1, 10):
        assert stirling2(n, 0) == 0
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1
        assert stirling2(n, n + 1) == 0


def test_stirling2_mixed_signs_vanish():
    for a in range(1, 9):
        for b in range(0, 9):
            assert stirling2(-a, b) == 0
            assert stirling2(b, -a) == 0


# --- unsigned Stirling numbers of the first kind ---


def test_stirling1_frozen_values():
    assert stirling1_unsigned(3, 2) == 3
    assert [stirling1_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]


def test_stirling1_row_sums_are_factorials():
    for n in range(10):
        assert sum(stirling1_unsigned(n, k) for k in range(n + 1)) == math.factorial(n)


def test_stirling1_single_cycle_column():
    for n in range(1, 10):
        assert stirling1_unsigned(n, 1) == math.factorial(n - 1)


def test_stirling1_rejects_negative_n():
    with pytest.raises(ValueError):
        stirling1_unsigned(-1, 0)


# --- associated Stirling numbers (blocks of size >= 2) ---


def test_assoc_stirling2_frozen_value():
    assert assoc_stirling2(4, 2) == 3


def test_assoc_stirling2_against_partition_enumeration():
    for m in range(9):
        for k in range(m // 2 + 2):
            assert assoc_stirling2(m, k) == count_partitions(m, k, min_block=2), (m, k)


def test_assoc_stirling2_boundaries():
    assert assoc_stirling2(0, 0) == 1
    for k in range(1, 5):
        assert assoc_stirling2(0, k) == 0
        assert assoc_stirling2(1, k) == 0
    for m in range(1, 12):
        assert assoc_stirling2(m, 0) == 0
        assert assoc_stirling2(m, -1) == 0
        assert assoc_stirling2(m, m // 2 + 1) == 0


def test_assoc_stirling2_rejects_negative_m():
    with pytest.raises(ValueError):
        assoc_stirling2(-2, 1)


# --- the diagonal-indexed Stirling tables ---


def test_deep_entries_match_closed_forms():
    # Far from the diagonal or far along it: whole rows up to n would not fit.
    n = 5000
    assert stirling2(n, n - 1) == math.comb(n, 2)
    assert stirling2(n, n - 2) == math.comb(n, 3) + 3 * math.comb(n, 4)
    assert stirling2(n, 2) == 2 ** (n - 1) - 1
    assert stirling1_unsigned(n, n - 1) == math.comb(n, 2)
    assert stirling1_unsigned(n, 1) == math.factorial(n - 1)
    k = 20
    assert assoc_stirling2(2 * k, k) == math.prod(range(1, 2 * k, 2))


def test_tables_answer_zero_off_the_triangle_without_growing():
    # Negative indices must not wrap around to the table's last entries.
    table = kernel._Diagonals(lambda t, c: (c, 1))
    for t, c in ((-1, 0), (0, -1)):
        assert table.at(t, c) == 0, (t, c)
    assert table._diags == [[1]]
    table.at(3, 2)
    grown = [list(diag) for diag in table._diags]
    for t, c in ((-1, 1), (2, -1)):
        assert table.at(t, c) == 0, (t, c)
    assert table._diags == grown


def _rows_by_recurrence(n_max, step):
    rows = [[1]]
    for n in range(1, n_max + 1):
        rows.append([step(rows, n, k) for k in range(n + 1)])
    return rows


def _at(rows, n, k):
    return rows[n][k] if 0 <= n < len(rows) and 0 <= k < len(rows[n]) else 0


N_MAX = 30
REFERENCE = {
    "_STIRLING2": (
        stirling2,
        _rows_by_recurrence(N_MAX, lambda r, n, k: k * _at(r, n - 1, k) + _at(r, n - 1, k - 1)),
    ),
    "_STIRLING1": (
        stirling1_unsigned,
        _rows_by_recurrence(
            N_MAX, lambda r, n, k: (n - 1) * _at(r, n - 1, k) + _at(r, n - 1, k - 1)
        ),
    ),
    "_ASSOC": (
        assoc_stirling2,
        _rows_by_recurrence(
            N_MAX, lambda r, n, k: k * _at(r, n - 1, k) + (n - 1) * _at(r, n - 2, k - 1)
        ),
    ),
}
POINTS = [(n, k) for n in range(N_MAX + 1) for k in range(n + 1)]


@given(st.permutations(POINTS))
def test_tables_fill_in_any_order(order):
    for name, (lookup, rows) in REFERENCE.items():
        fresh = kernel._Diagonals(getattr(kernel, name)._coeffs)
        with mock.patch.object(kernel, name, fresh):
            for n, k in order:
                assert lookup(n, k) == rows[n][k], (name, n, k)


# --- falling factorial ---


def test_falling_factorial_values():
    assert falling_factorial(-2, 2) == 6
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(0, 3) == 0
    assert falling_factorial(-1, 3) == -6


def test_falling_factorial_matches_perm():
    # Against the explicit product, not math.perm, which the kernel calls.
    for x in range(-30, 30):
        for k in range(30):
            assert falling_factorial(x, k) == math.prod(x - i for i in range(k)), (x, k)


def test_falling_factorial_rejects_negative_k():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


@given(st.integers(-30, 30), st.integers(1, 10))
def test_falling_factorial_peels_one_step(x, k):
    assert falling_factorial(x, k) == x * falling_factorial(x - 1, k - 1)


# --- basis-change rows ---


def test_times_linear_refuses_a_division_that_is_not_exact():
    # 2 * (y - 0) * C(y, 0) / 2 is y = C(y, 1): exact.  Halving it once more is not.
    assert kernel._times_linear([1], 0, 2, 2) == [0, 1]
    with pytest.raises(ArithmeticError):
        kernel._times_linear([1], 0, 1, 2)
