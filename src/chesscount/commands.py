"""The argparse parser: the fallback for every argv that ``cli`` does not read itself.

:mod:`chesscount.cli` imports this module only for help, usage errors, argv
that is not in plain form, and the refusals it reports with a subcommand's
usage.  So a request in plain form compiles none of it, and loads no
argparse; ``cli.GRAMMAR`` names the module of every handler.
"""

from collections.abc import Sequence
from types import SimpleNamespace

from .cli import GRAMMAR


def build_parser():
    """The argparse parser for GRAMMAR, with each subcommand's parser as its ``parser`` default."""
    import argparse  # only for help and usage errors

    parser = argparse.ArgumentParser(
        prog="chesscount",
        description="Exact counts of nonattacking bishop and anassa placements on m x m boards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, arguments) in GRAMMAR.items():
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
