"""Seeded request mixes for the three benchmark workloads.

A workload is a list of *slots*.  Each slot is a finite list of CLI argv
lists of about the same cost; one pass over the workload draws one argv from
every slot and shuffles the result.  Slots fix how much work a pass holds, so
passes, runs and seeds stay comparable, while the seed picks the piece, the
piece count, the output format and the exact sizes inside each slot.  The
union of all slots is the request pool whose outputs are pinned in
``pins.json``, so any seed can be checked.
"""

from __future__ import annotations

import math
import random

COUNT_FORMATS = ([], ["--format", "json"])
TEXT_FORMATS = ([], ["--format", "tsv"], ["--format", "json"])
TABLE_FORMATS = ([], ["--format", "bfile"], ["--format", "json"])
PIECES = ("bishop", "anassa")


def _log_grid(lo: int, hi: int, n: int) -> list[int]:
    """n sizes spaced evenly in log m from lo to hi, both ends included."""
    step = math.log(hi / lo) / (n - 1)
    return [round(lo * math.exp(i * step)) for i in range(n)]


def _near(m: int) -> list[int]:
    """m and its neighbours 5 % either side, so a slot's cost stays close to m's."""
    return sorted({round(m * f) for f in (0.95, 1.0, 1.05)})


def _max_pieces(piece: str, m: int) -> int:
    return (2 * m - 2 if m > 1 else m) if piece == "bishop" else m


def _count_slot(sizes: list[int]) -> list[list[str]]:
    return [
        ["count", piece, str(m), str(k), *fmt]
        for piece in PIECES
        for m in sizes
        for k in range(1, 9)
        for fmt in COUNT_FORMATS
    ]


def _queries() -> list[list[list[str]]]:
    grid = _log_grid(8, 1500, 10)
    # Counts at large m with small k.  The top size is drawn five times per
    # pass, so that the tail percentile (see ``run.py``) and the peak RSS are
    # read from requests at m = 1500 on every seed.
    slots = [_count_slot(_near(m)) for m in grid[:-1]]
    slots += [_count_slot([grid[-1]]) for _ in range(5)]
    # Diagonal-split anassa counts.
    for m in _log_grid(8, 600, 4):
        slots.append([
            ["count", "anassa", str(m), str(k), "--below", str(p)]
            for k in range(1, 9)
            for p in range(k + 1)
        ])
    # Deep counts: k within 8 of max_pieces.
    for m in (50, 100, 200):
        slots.append([
            ["count", piece, str(m), str(_max_pieces(piece, m) - d)]
            for piece in PIECES
            for d in range(9)
        ])
    # Quasipolynomial coefficients.
    for piece, ks in (("bishop", range(1, 7)), ("bishop", range(7, 13)),
                      ("anassa", range(1, 11)), ("anassa", range(11, 21))):
        slots.append([["coeffs", piece, str(k), *fmt] for k in ks for fmt in TEXT_FORMATS])
    return slots


def _table_slot(piece: str, sizes: range, rect: bool) -> list[list[str]]:
    flag = ["--rect"] if rect else []
    return [["table", piece, str(m), *flag, *fmt] for m in sizes for fmt in TABLE_FORMATS]


def _tables() -> list[list[list[str]]]:
    # The bishop table to m_max = 42, with the anassa table near 100 the
    # costliest request, is drawn five times per pass, for the same reason as
    # the top size of ``queries``.  Small tables make up two thirds of each
    # pass, so the median falls among them.
    return [
        *(_table_slot("bishop", range(42, 43), False) for _ in range(5)),
        _table_slot("anassa", range(96, 105), False),
        _table_slot("bishop", range(26, 31), True),
        _table_slot("anassa", range(56, 65), True),
        *(_table_slot("bishop", range(10, 21), False) for _ in range(9)),
        *(_table_slot("anassa", range(20, 41), False) for _ in range(9)),
    ]


def _oracle() -> list[list[list[str]]]:
    # Every brute-force board size in every pass.  ``oracle --m-max 6`` is
    # drawn three times per pass, so that with ``collapse --m-max 7`` the
    # tail percentile falls among those requests.  Quick ``identities`` and
    # ``coeffs`` suites with seeded bounds make up most of each pass, so the
    # median falls among them.
    slots = [[["verify", "oracle", "--m-max", str(m)]] for m in (4, 5, 6, 6, 6)]
    slots += [[["verify", "collapse", "--m-max", str(m)]] for m in (4, 5, 6, 7)]
    identities = [
        ["verify", "identities", "--m-max", str(m), "--k-max", str(k)]
        for m in (12, 16, 20, 24, 28)
        for k in range(4, 11)
    ]
    coeffs = [["verify", "coeffs", "--k-max", str(k)] for k in range(1, 7)]
    every = [["verify", "all"]] + [["verify", "all", "--k-max", str(k)] for k in range(3, 8)]
    return slots + [identities] * 4 + [coeffs] * 4 + [every]


SLOTS = {"queries": _queries(), "tables": _tables(), "oracle": _oracle()}


def plan_pass(workload: str, seed: int, index: int) -> list[list[str]]:
    """The argv lists of pass ``index`` of a run; a function of its arguments only."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    requests = [list(rng.choice(slot)) for slot in SLOTS[workload]]
    rng.shuffle(requests)
    return requests


def pool(workload: str) -> list[list[str]]:
    """Every argv that :func:`plan_pass` can issue for the workload, without repeats."""
    seen: dict[str, list[str]] = {}
    for slot in SLOTS[workload]:
        for argv in slot:
            seen.setdefault(" ".join(argv), argv)
    return list(seen.values())
