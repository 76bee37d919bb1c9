"""Shared fixtures: the ``verify`` suites, run once per session."""

import pytest

from chesscount.verify import check_bounds, run_suite

# Bounds at which the tests run each verify suite.  Each is at least as wide
# as the tests that once repeated its groups, so every point they checked is
# still checked.
SUITE_BOUNDS = {
    "oracle": {"m_max": 11},
    "collapse": {"m_max": 11},
    "identities": {"m_max": 20, "k_max": 10},
    "coeffs": {"k_max": 5},
}


@pytest.fixture(scope="session")
def verify_suite():
    """Look up one suite's results by group name; each suite runs once, at SUITE_BOUNDS.

    A suite that raises is not remembered, so the exception fails every test
    that reads one of its groups.
    """
    done = {}

    def results(suite):
        if suite not in done:
            done[suite] = {r.name: r for r in run_suite(check_bounds(suite, **SUITE_BOUNDS[suite]))}
        return done[suite]

    return results
