"""Exact enumeration of nonattacking bishop and anassa placements.

The bishop rides along both diagonal directions; the anassa along one
vertical and one diagonal direction ({(0,1), (1,1)}).  This package counts
their nonattacking placements on m x m boards exactly: closed forms,
recurrences, a brute-force oracle for small boards, and the quasipolynomial
coefficient vectors in the board size.

Importing the package loads no submodule: each public name below loads its
submodule on first access (PEP 562), so a caller pays only for the layers
it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed under the submodule that defines it.
_EXPORTS = {
    "board": """ANASSA_MOVES BISHOP_MOVES PIECES MoveSet bishop_color_board
        inductive_subset placement_counts placement_profile square_board""",
    "formulas": "anassas anassas_split bishops black_rooks count white_rooks",
    "kernel": """assoc_stirling2 binomial convolve falling_factorial stirling1_unsigned
        stirling2""",
    "quasipoly": """QuasiPolynomial anassa_coeffs anassa_quasipolynomial
        bishop_quasipolynomial divide_by_falling_factorial effective_period
        rook_and_bishop_quasipolynomials""",
    "rows": """anassa_rows anassa_split_rows anassas_diagonal black_rooks_alt count_table
        max_pieces rook_rows white_rooks_alt""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> object:
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
