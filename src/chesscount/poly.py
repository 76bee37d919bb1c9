"""Polynomial products on coefficient lists.

Bishop table rows, coefficient vectors and the self-checks multiply
polynomials; this module holds that product alone, so a ``table`` request
compiles it without the rest of :mod:`chesscount.kernel`.
"""

from collections.abc import Sequence


def convolve(a: Sequence[object], b: Sequence[object]) -> tuple[object, ...]:
    """Ascending coefficients of the product of two nonempty coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)
