"""Exact combinatorial primitives on plain Python integers.

Binomial coefficients and Stirling-family numbers, extended to negative
arguments where a consistent extension exists, and the integer
basis-change rows behind the quasipolynomial coefficients.  Each Stirling
family reads one grow-on-demand table that answers 0 off its triangle.
Polynomial products are in :mod:`chesscount.poly`.
Everything here is exact: no floats, no overflow, ``int`` in, ``int`` out.
"""

import math
from collections.abc import Callable, Iterator


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) extended to all integer pairs.

    For n >= 0 this is the standard coefficient (0 outside 0 <= k <= n).
    For n < 0 it takes the extension determined by upper negation:

      * k >= 0:      (-1)^k * C(-n+k-1, k)
      * k <= n:      (-1)^(n-k) * C(-k-1, n-k)
      * n < k < 0:   0

    With this choice the Pascal recurrence C(n,k) = C(n-1,k) + C(n-1,k-1)
    holds at every (n, k) except (0, 0), and C(n, k) = C(n, n-k) everywhere.
    """
    if n >= 0:
        return math.comb(n, k) if 0 <= k <= n else 0
    if k >= 0:
        return (-1) ** (k & 1) * math.comb(-n + k - 1, k)
    if k <= n:
        return (-1) ** ((n - k) & 1) * math.comb(-k - 1, n - k)
    return 0


def falling_factorial(x: int, k: int) -> int:
    """Falling factorial x(x-1)...(x-k+1) for integer x and k >= 0."""
    if k < 0:
        raise ValueError(f"falling factorial needs k >= 0, got {k}")
    if x >= 0:
        return math.perm(x, k)  # 0 when k > x
    # x(x-1)...(x-k+1) = (-1)^k * (-x)(-x+1)...(-x+k-1), a rising factorial.
    return (-1) ** (k & 1) * math.perm(k - x - 1, k)


def _times_linear(row: list[int], c: int, scale: int, den: int) -> list[int]:
    # Weights over C(y, i) of scale * (y - c) * sum_i row[i] C(y, i) / den, by
    # (y - c) C(y, i) = (i + 1) C(y, i + 1) + (i - c) C(y, i); den must divide.
    weights = []
    for i, (lower, same) in enumerate(zip([0, *row], [*row, 0])):
        w, r = divmod(scale * (i * lower + (i - c) * same), den)
        if r:
            raise ArithmeticError(f"weight {i} of the row times (y - {c}) is not a multiple of {den}")
        weights.append(w)
    return weights


def _basis_change_rows(q: int, z: int, p_max: int) -> Iterator[list[int]]:
    # Row p, for p = 0..p_max: the weights w_0..w_(p+q) of the expansion
    # C(2x+z-q, p) * C(x, q) = sum_i w_i C(2x+z, i), times 4^q.
    # In y = 2x + z, 4^(s+1) C(x, s+1) = 4^s C(x, s) * 2(y - z - 2s) / (s + 1)
    # and C(y - q, t + 1) = C(y - q, t) * (y - q - t) / (t + 1); every row is
    # integral, so each division is exact, as _times_linear checks.
    row = [1]
    for s in range(q):
        row = _times_linear(row, z + 2 * s, 2, s + 1)
    yield row
    for t in range(p_max):
        row = _times_linear(row, q + t, 1, t + 1)
        yield row


class _Diagonals:
    """Grow-on-demand table of G(t, c) = a(t, c)*G(t-1, c) + b(t, c)*G(t, c-1).

    G(0, 0) = 1, and G = 0 off the triangle (t < 0 or c < 0), which ``at``
    answers without growing the table; ``coeffs(t, c)`` returns the pair
    (a, b).  Diagonal t holds G(t, 0), G(t, 1), ...  A miss at (t, c)
    extends diagonals 0..t to column c, so a lookup builds O(t*c) entries.
    Entries are only appended.  The table takes no lock: nothing in the
    package reads it from more than one thread.
    """

    def __init__(self, coeffs: Callable[[int, int], tuple[int, int]]):
        self._diags: list[list[int]] = [[1]]
        self._coeffs = coeffs

    def at(self, t: int, c: int) -> int:
        if t < 0 or c < 0:
            return 0
        diags = self._diags
        if t >= len(diags) or c >= len(diags[t]):
            while len(diags) <= t:
                diags.append([])
            # Diagonal d-1 reaches column c before diagonal d grows.
            above = [0] * (c + 1)  # diagonal -1
            for d in range(t + 1):
                diag = diags[d]
                left = diag[-1] if diag else 0
                for col in range(len(diag), c + 1):
                    a, b = self._coeffs(d, col)
                    left = a * above[col] + b * left
                    diag.append(left)
                above = diag
        return diags[t][c]


# Each family indexes G by t (distance from the diagonal) and c (column).
_STIRLING2 = _Diagonals(lambda t, c: (c, 1))  # S(n, k) at t = n - k, c = k
_STIRLING1 = _Diagonals(lambda t, c: (t + c - 1, 1))  # c(n, k) at t = n - k, c = k
_ASSOC = _Diagonals(lambda t, c: (c, 2 * c + t - 1))  # A(m, k) at t = m - 2k, c = k


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, extended to negative arguments.

    For n, k >= 0 this counts partitions of an n-set into k nonempty blocks
    (recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1)).  For n < 0 and k < 0 the
    table continues as unsigned first-kind numbers, S(n,k) = c(-k, -n); mixed
    signs give 0.
    """
    if n < 0:
        return stirling1_unsigned(-k, -n) if k < 0 else 0
    return _STIRLING2.at(n - k, k)


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k), n >= 0 only.

    Counts permutations of n elements with exactly k cycles; recurrence
    c(n,k) = (n-1)*c(n-1,k) + c(n-1,k-1).  There is no negative-argument
    extension here, so n < 0 is an error rather than a silent 0.
    """
    if n < 0:
        raise ValueError(f"first-kind Stirling numbers need n >= 0, got {n}")
    return _STIRLING1.at(n - k, k)


def assoc_stirling2(m: int, k: int) -> int:
    """Associated Stirling number of the second kind (Ward-style).

    Counts partitions of an m-set into k blocks, every block of size >= 2.
    Recurrence A(m,k) = k*A(m-1,k) + (m-1)*A(m-2,k-1) with A(0,0) = 1,
    A(1,k) = 0 and A(m,0) = 0 for m >= 1.  Zero for k < 0 or 2k > m.
    """
    if m < 0:
        raise ValueError(f"associated Stirling numbers need m >= 0, got {m}")
    return _ASSOC.at(m - 2 * k, k)
