"""Every ``verify`` group as its own test, at the bounds in conftest.py.

The groups are the only copy of the identity and cross-route batteries;
select one with ``pytest -k <group id>``.  A test fails when its group
failed, checked nothing, or its suite raised.
"""

import re

import pytest

from chesscount.verify import SUITES

GROUPS = [
    ("oracle", "bishop closed form vs brute force"),
    ("oracle", "anassa closed form vs brute force"),
    ("oracle", "anassa diagonal split vs brute force"),
    ("oracle", "bishop counts factor over the two colors"),
    ("identities", "extended binomials: Pascal rule and symmetry"),
    ("identities", "extended Stirling: first/second kind duality"),
    ("identities", "first-kind alternating row sums vanish"),
    ("identities", "central binomial alternating sum"),
    ("identities", "second-kind Stirling via block-size expansion"),
    ("identities", "one-color rook counts: three routes agree"),
    ("identities", "even boards: the two colors agree"),
    ("identities", "bishop counts: three routes agree"),
    ("identities", "anassa split: recurrence, closed form, and total agree"),
    ("identities", "two bishops: explicit quartic"),
    ("identities", "size -1 evaluates to k! for both pieces"),
    ("identities", "saturated anassa count: two summations and the closed form"),
    ("identities", "binomial basis change identity"),
    ("collapse", "inductive subset collapse"),
    ("coeffs", "bishop quasipolynomial round trip"),
    ("coeffs", "anassa polynomial round trip"),
    ("coeffs", "one-color rook coefficient round trip"),
    ("coeffs", "coefficient structure: periods, divisibility, denominators"),
]


def group_id(name: str) -> str:
    """The group name with each run of non-alphanumerics as '-', so ``-k`` takes it whole."""
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


@pytest.mark.parametrize("suite, group", GROUPS, ids=[group_id(g) for _, g in GROUPS])
def test_group(verify_suite, suite, group):
    result = verify_suite(suite)[group]
    assert result.ok, f"{result.checks} checks, failures {result.failures[:5]}"


def test_groups_are_the_engines_groups(verify_suite):
    engine = [(suite, name) for suite in SUITES for name in verify_suite(suite)]
    assert engine == GROUPS
    assert len({group_id(g) for _, g in GROUPS}) == len(GROUPS)
