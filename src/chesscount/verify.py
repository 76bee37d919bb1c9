"""Self-check runner: the ``verify`` handler, its suite registry and its check groups.

Each suite returns a list of :class:`CheckResult`; a check fails by listing
the offending argument tuples with both values.  The suites live in the
sibling modules that ``SUITES`` names, and a request loads only the ones it
runs, so it compiles no other suite and no layer that only they read.
"""

import importlib
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


def _suite(name: str):
    """The suite function ``name``, its module loaded on first use."""
    return getattr(importlib.import_module(f"{__package__}.{SUITES[name]}"), f"suite_{name}")


def _bounds(suite) -> set[str]:
    """The bounds a suite takes, read from its parameter names."""
    code = suite.__code__
    return {"m_max", "k_max"} & set(code.co_varnames[: code.co_argcount])


def check_bounds(name: str, m_max: int | None = None, k_max: int | None = None) -> None:
    """Raise ValueError for an unknown suite, a negative bound, or a bound the suite ignores."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    for bound, value in (("m_max", m_max), ("k_max", k_max)):
        if value is not None and value < 0:
            raise ValueError(f"{bound} must be >= 0, got {value}")
        if value is not None and name != "all" and bound not in _bounds(_suite(name)):
            raise ValueError(f"suite {name!r} takes no {bound}")


def run_suite(name: str, m_max: int | None = None, k_max: int | None = None) -> list[CheckResult]:
    """Run one named suite (or ``all``) with optional bound overrides."""
    check_bounds(name, m_max, k_max)
    given = {"m_max": m_max, "k_max": k_max}  # ``all`` passes each to the suites that take it
    results: list[CheckResult] = []
    for n in SUITES if name == "all" else [name]:
        suite = _suite(n)
        kwargs = {bound: given[bound] for bound in _bounds(suite) if given[bound] is not None}
        results.extend(suite(**kwargs))
    return results


def _cmd_verify(args: SimpleNamespace) -> int:
    """The ``verify`` handler, which ``cli.main`` finds through its ``cli.GRAMMAR`` entry."""
    from .cli import _emit, _UsageError

    try:
        check_bounds(args.suite, args.m_max, args.k_max)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    results = run_suite(args.suite, m_max=args.m_max, k_max=args.k_max)
    lines = []
    total_checks = sum(r.checks for r in results)
    total_failures = sum(len(r.failures) for r in results)
    for r in results:
        if r.ok:
            lines.append(f"ok    {r.name} ({r.checks} checks)")
        else:
            lines.append(f"FAIL  {r.name} ({r.checks} checks, {len(r.failures)} failed)")
            lines.extend(f"      {failure}" for failure in r.failures or ["no checks"])
    lines.append(
        f"summary: {len(results)} check groups, {total_checks} checks, {total_failures} failures"
    )
    status = _emit(["\n".join(lines) + "\n"], args.out)
    if status:
        return status
    return 0 if all(r.ok for r in results) else 1
