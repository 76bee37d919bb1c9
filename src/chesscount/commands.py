"""The ``table`` and ``coeffs`` subcommands, and the argparse parser.

:mod:`chesscount.cli` imports this module only for ``table`` and
``coeffs``, and for every argv it does not read itself: help, usage errors,
and the refusals it reports with a subcommand's usage.  So a ``count`` or a
``verify`` compiles none of it; ``verify``'s handler is in
:mod:`chesscount.verify`.
"""

from collections.abc import Iterable, Iterator, Sequence
from types import SimpleNamespace

from .cli import GRAMMAR, _emit, _emit_json, _json, _UsageError

_SEPARATORS = {"csv": ",", "tsv": "\t"}


def build_parser():
    """The argparse parser for GRAMMAR, with each subcommand's parser as its ``parser`` default."""
    import argparse  # only for help and usage errors

    parser = argparse.ArgumentParser(
        prog="chesscount",
        description="Exact counts of nonattacking bishop and anassa placements on m x m boards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments) in GRAMMAR.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
    return parser


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` with argparse; help and usage errors print and exit there."""
    args, extra = build_parser().parse_known_args(argv, SimpleNamespace())
    # Each subcommand's parser, so a usage error prints that subcommand's usage.
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _table_bfile(args: SimpleNamespace, rows: Iterable[tuple[int, ...]]) -> Iterator[str]:
    offset = args.offset or 0
    bound = "padded to a common width" if args.rect else "truncated at the last nonzero count"
    yield (
        f"# nonattacking {args.piece} placements on m x m boards\n"
        f"# triangle rows m = 0..{args.m_max}, k ascending within each row ({bound})\n"
        f"# single running index in row-major order, starting at {offset}\n"
    )
    for row in rows:
        yield "".join(f"{offset + k} {v}\n" for k, v in enumerate(row))
        offset += len(row)


def _table_json(args: SimpleNamespace, rows: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """``json.dumps`` of the table's payload and a newline, in one chunk per row."""
    head = {"piece": args.piece, "m_max": args.m_max, "rect": args.rect, "rows": []}
    yield _json(head)[:-2]  # up to the open bracket of the rows
    separator = ""
    for row in rows:
        yield separator + _json(row)
        separator = ", "
    yield "]}\n"


def cmd_table(args: SimpleNamespace) -> int:
    from .rows import count_table

    if args.m_max < 0:
        raise _UsageError(f"m_max must be >= 0, got {args.m_max}")
    if args.offset is not None and args.format != "bfile":
        raise _UsageError("--offset applies only to --format bfile")
    rows = count_table(args.piece, args.m_max, rect=args.rect)
    if args.format == "json":
        return _emit(_table_json(args, rows), args.out)
    if args.format == "bfile":
        return _emit(_table_bfile(args, rows), args.out)
    sep = _SEPARATORS[args.format]
    return _emit((sep.join(map(str, row)) + "\n" for row in rows), args.out)


def cmd_coeffs(args: SimpleNamespace) -> int:
    from . import quasipoly

    if args.k < 0:
        raise _UsageError(f"k must be >= 0, got {args.k}")
    if args.piece == "bishop":
        qp = quasipoly.bishop_quasipolynomial(args.k)
    else:
        qp = quasipoly.anassa_quasipolynomial(args.k)
    period = quasipoly.effective_period(qp.coeffs)
    vectors = qp.coeffs[:period]
    if args.format == "json":
        payload = {
            "piece": args.piece,
            "k": args.k,
            "period": period,
            "coeffs": [[f"{c.numerator}/{c.denominator}" for c in vec] for vec in vectors],
        }
        return _emit_json(payload, args.out)
    sep = _SEPARATORS[args.format]
    return _emit((sep.join(map(str, vec)) + "\n" for vec in vectors), args.out)


HANDLERS = {"table": cmd_table, "coeffs": cmd_coeffs}
