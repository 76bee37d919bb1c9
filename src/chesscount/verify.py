"""Self-check runner: the ``verify`` handler, its suite registry and its check groups.

Each suite returns a list of :class:`CheckResult`; a check fails by listing
the offending argument tuples with both values.  The suites live in the
sibling modules that ``SUITES`` names, and a request loads only the ones it
runs, so it compiles no other suite and no layer that only they read.
"""

import importlib
from collections.abc import Callable
from types import SimpleNamespace


def _at(row: tuple[int, ...], k: int) -> int:
    """Entry k of a recurrence row, 0 past its end."""
    return row[k] if k < len(row) else 0


class CheckResult:
    """One check group: how many points it compared, and the ones that differed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return self.checks > 0 and not self.failures

    def compare(self, label: str, got: object, want: object) -> None:
        self.checks += 1
        if got != want:
            self.failures.append(f"{label}: got {got}, want {want}")


# Where each suite lives: ``suite_<name>`` in the sibling module named here.
# ``all`` runs them in this order.
SUITES = {
    "oracle": "verify_board",
    "identities": "verify_identities",
    "collapse": "verify_board",
    "coeffs": "verify_coeffs",
}


_Plan = list[tuple[Callable[..., list[CheckResult]], dict[str, int]]]


def check_bounds(name: str, m_max: int | None = None, k_max: int | None = None) -> _Plan:
    """The plan of a request: each suite it runs, in order, as a (suite, kwargs) step.

    A suite takes the bounds its parameters name.  Raises ValueError for an
    unknown suite, a negative bound, or a bound the suite ignores.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    given = {"m_max": m_max, "k_max": k_max}  # ``all`` passes each to the suites that take it
    plan = []
    for n in SUITES if name == "all" else [name]:
        suite = getattr(importlib.import_module(f"{__package__}.{SUITES[n]}"), f"suite_{n}")
        takes = suite.__code__.co_varnames[: suite.__code__.co_argcount]
        plan.append((suite, {b: v for b, v in given.items() if b in takes and v is not None}))
    for bound, value in given.items():
        if value is not None and value < 0:
            raise ValueError(f"{bound} must be >= 0, got {value}")
        if value is not None and name != "all" and bound not in plan[0][1]:
            raise ValueError(f"suite {name!r} takes no {bound}")
    return plan


def run_suite(plan: _Plan) -> list[CheckResult]:
    """Run the steps of a plan from :func:`check_bounds`, in order."""
    return [result for suite, kwargs in plan for result in suite(**kwargs)]


def _cmd_verify(args: SimpleNamespace) -> tuple[list[str], int]:
    """The ``verify`` handler, found through ``cli.GRAMMAR``: its report, 1 if a group is not ok."""
    from .cli import _UsageError

    try:
        plan = check_bounds(args.suite, args.m_max, args.k_max)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    results = run_suite(plan)
    lines = []
    for r in results:
        if r.ok:
            lines.append(f"ok    {r.name} ({r.checks} checks)")
        else:
            lines.append(f"FAIL  {r.name} ({r.checks} checks, {len(r.failures)} failed)")
            lines.extend(f"      {failure}" for failure in r.failures or ["no checks"])
    checks, failures = sum(r.checks for r in results), sum(len(r.failures) for r in results)
    lines.append(f"summary: {len(results)} check groups, {checks} checks, {failures} failures")
    return ["\n".join(lines) + "\n"], 0 if all(r.ok for r in results) else 1
