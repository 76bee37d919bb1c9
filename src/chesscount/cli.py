"""Command-line interface.

Subcommands: ``count`` (one closed-form count), ``table`` (count triangle),
``coeffs`` (quasipolynomial coefficients), ``verify`` (self-check suites).
Output formats: csv, tsv and json; ``table`` also writes bfile (``index
value`` lines with ``#`` headers).  Exit codes: 0 success, 1 verification or
I/O failure, 2 usage error.
All output is deterministic: the same invocation produces the same bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

# Only the layer every subcommand but ``verify`` needs: the others load
# where they are used, so each process imports what its subcommand runs.
from . import formulas

_SEPARATORS = {"csv": ",", "tsv": "\t"}
_TEXT_FORMATS = ("csv", "tsv", "json")
_TABLE_FORMATS = ("csv", "tsv", "bfile", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chesscount",
        description="Exact counts of nonattacking bishop and anassa placements on m x m boards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, summary, formats=()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, parser=p)
        if formats:
            p.add_argument(
                "--format", choices=formats, default="csv", help="output format (default: csv)"
            )
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        return p

    p = subcommand("count", cmd_count, "one closed-form count", _TEXT_FORMATS)
    p.add_argument("piece", choices=["bishop", "anassa"])
    p.add_argument("m", type=int, help="board size (any integer)")
    p.add_argument("k", type=int, help="number of pieces")
    p.add_argument(
        "--below", type=int, metavar="P", default=None,
        help="anassa only: count placements with exactly P pieces below the main diagonal",
    )

    p = subcommand("table", cmd_table, "triangle of counts for m = 0..M", _TABLE_FORMATS)
    p.add_argument("piece", choices=["bishop", "anassa"])
    p.add_argument("m_max", type=int, help="largest board size")
    p.add_argument(
        "--rect", action="store_true",
        help="pad every row with zeros to a common width instead of truncating at feasibility",
    )
    p.add_argument(
        "--offset", type=int, default=None,
        help="starting index for bfile output (default: 0; only with --format bfile)",
    )

    p = subcommand("coeffs", cmd_coeffs, "quasipolynomial coefficients for fixed k", _TEXT_FORMATS)
    p.add_argument("piece", choices=["bishop", "anassa"])
    p.add_argument("k", type=int, help="number of pieces")

    p = subcommand("verify", cmd_verify, "run self-check suites")
    p.add_argument("suite", choices=["oracle", "identities", "collapse", "coeffs", "all"])
    p.add_argument("--m-max", type=int, default=None, help="override board-size bound")
    p.add_argument("--k-max", type=int, default=None, help="override piece-count bound")

    return parser


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def _emit_json(payload: dict, out: str | None) -> int:
    import json  # only for --format json

    return _emit(json.dumps(payload) + "\n", out)


def cmd_count(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.k < 0:
        parser.error(f"k must be >= 0, got {args.k}")
    if args.below is not None:
        if args.piece != "anassa":
            parser.error("--below applies only to the anassa")
        if args.below < 0:
            parser.error(f"--below must be >= 0, got {args.below}")
        value = formulas.anassas_split(args.m, args.k, args.below)
    else:
        value = formulas.count(args.piece, args.m, args.k)
    if args.format == "json":
        payload = {"piece": args.piece, "m": args.m, "k": args.k}
        if args.below is not None:
            payload["below"] = args.below
        payload["count"] = value
        return _emit_json(payload, args.out)
    return _emit(f"{value}\n", args.out)


def _table_bfile(table: formulas.CountTable, rect: bool, offset: int) -> str:
    bound = "padded to a common width" if rect else "truncated at the last nonzero count"
    lines = [
        f"# nonattacking {table.piece} placements on m x m boards",
        f"# triangle rows m = 0..{table.m_max}, k ascending within each row ({bound})",
        f"# single running index in row-major order, starting at {offset}",
    ]
    lines.extend(f"{offset + i} {v}" for i, v in enumerate(table.flatten()))
    return "\n".join(lines) + "\n"


def parse_bfile(text: str) -> tuple[int, list[int]]:
    """Read ``index value`` lines back; returns (start index, values).

    Comment lines start with ``#``; indices must be consecutive.  This is the
    inverse of ``table --format bfile``.
    """
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        index_text, value_text = line.split()
        entries.append((int(index_text), int(value_text)))
    if not entries:
        return 0, []
    start = entries[0][0]
    for pos, (index, _) in enumerate(entries):
        if index != start + pos:
            raise ValueError(f"non-consecutive index {index} (expected {start + pos})")
    return start, [value for _, value in entries]


def cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.m_max < 0:
        parser.error(f"m_max must be >= 0, got {args.m_max}")
    if args.offset is not None and args.format != "bfile":
        parser.error("--offset applies only to --format bfile")
    table = formulas.count_table(args.piece, args.m_max, rect=args.rect)
    if args.format == "json":
        payload = {
            "piece": table.piece,
            "m_max": table.m_max,
            "rect": args.rect,
            "rows": [list(row) for row in table.rows],
        }
        return _emit_json(payload, args.out)
    if args.format == "bfile":
        return _emit(_table_bfile(table, args.rect, args.offset or 0), args.out)
    sep = _SEPARATORS[args.format]
    text = "".join(sep.join(str(v) for v in row) + "\n" for row in table.rows)
    return _emit(text, args.out)


def cmd_coeffs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import quasipoly

    if args.k < 0:
        parser.error(f"k must be >= 0, got {args.k}")
    if args.piece == "bishop":
        vectors = [quasipoly.bishop_coeffs(args.k, 0), quasipoly.bishop_coeffs(args.k, 1)]
    else:
        vectors = [quasipoly.anassa_coeffs(args.k)]
    period = quasipoly.effective_period(vectors)
    vectors = vectors[:period]
    if args.format == "json":
        payload = {
            "piece": args.piece,
            "k": args.k,
            "period": period,
            "coeffs": [[f"{c.numerator}/{c.denominator}" for c in vec] for vec in vectors],
        }
        return _emit_json(payload, args.out)
    sep = _SEPARATORS[args.format]
    text = "".join(sep.join(str(c) for c in vec) + "\n" for vec in vectors)
    return _emit(text, args.out)


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import verify

    try:
        verify.check_bounds(args.suite, args.m_max, args.k_max)
    except ValueError as exc:
        parser.error(str(exc))
    results = verify.run_suite(args.suite, m_max=args.m_max, k_max=args.k_max)
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
    status = _emit("\n".join(lines) + "\n", args.out)
    if status:
        return status
    return 0 if all(r.ok for r in results) else 1


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    # Each subcommand's parser, so a usage error prints that subcommand's usage.
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.handler(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
