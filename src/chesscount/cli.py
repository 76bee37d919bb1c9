"""Command-line interface: the grammar, its reader, dispatch and the process entry.

Subcommands: ``count`` (one closed-form count), ``table`` (count triangle),
``coeffs`` (quasipolynomial coefficients), ``verify`` (self-check suites).
Output formats: csv, tsv and json; ``table`` also writes bfile (``index
value`` lines with ``#`` headers).  ``table`` writes each row as it is
formatted, in every format, json included.  Exit codes: 0 success, 1
verification or I/O failure (stdout included), 2 usage error.
All output is deterministic: the same invocation produces the same bytes.

The grammar is declared once, in ``GRAMMAR``.  ``main`` reads a request in
plain form from it directly, and builds the argparse parser from it only
for every other argv, so argparse loads only for help, usage errors and
refusals.  Each handler sits in the module that its ``GRAMMAR`` entry
names, beside the routes it runs, and ``main`` loads only that module, so
a request compiles no other handler.  A handler refuses by raising
``_UsageError`` or returns its exit status and either text or a payload,
a dict that ``_render``, the one place that knows how csv, tsv and json
look, turns into text; ``main`` alone writes.
``run`` is the process entry: ``python -m chesscount`` and the installed
``chesscount`` script, the only two entries, both call it.
"""

import gc
import importlib
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from types import SimpleNamespace

_PIECE = ("piece", {"choices": ("bishop", "anassa")})
_OUT = ("--out", {"metavar": "PATH", "help": "write output to PATH instead of stdout"})


def _format(*choices: str) -> tuple[str, dict]:
    return "--format", {"choices": choices, "default": "csv", "help": "output format (default: csv)"}


# Each subcommand's home, the sibling module that defines its handler
# ``_cmd_<name>``; its summary; and its arguments: a name and the keywords
# argparse takes for it, options in the order ``--help`` lists them.  ``_read``
# knows the keywords used here: choices, type, default and action="store_true".
GRAMMAR = {
    "count": ("formulas", "one closed-form count", [
        _format("csv", "tsv", "json"),
        _OUT,
        _PIECE,
        ("m", {"type": int, "help": "board size (any integer)"}),
        ("k", {"type": int, "help": "number of pieces"}),
        ("--below", {
            "type": int, "metavar": "P", "default": None,
            "help": "anassa only: count placements with exactly P pieces below the main diagonal",
        }),
    ]),
    "table": ("rows", "triangle of counts for m = 0..M", [
        _format("csv", "tsv", "bfile", "json"),
        _OUT,
        _PIECE,
        ("m_max", {"type": int, "help": "largest board size"}),
        ("--rect", {
            "action": "store_true", "default": False,
            "help": "pad every row with zeros to a common width instead of truncating at feasibility",
        }),
        ("--offset", {
            "type": int, "default": None,
            "help": "starting index for bfile output (default: 0; only with --format bfile)",
        }),
    ]),
    "coeffs": ("quasipoly", "quasipolynomial coefficients for fixed k", [
        _format("csv", "tsv", "json"),
        _OUT,
        _PIECE,
        ("k", {"type": int, "help": "number of pieces"}),
    ]),
    "verify": ("verify", "run self-check suites", [
        _OUT,
        ("suite", {"choices": ("oracle", "identities", "collapse", "coeffs", "all")}),
        ("--m-max", {"type": int, "default": None, "help": "override board-size bound"}),
        ("--k-max", {"type": int, "default": None, "help": "override piece-count bound"}),
    ]),
}


class _UsageError(Exception):
    """A request the grammar admits but its subcommand refuses; ``main`` exits 2 with it."""


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The request ``argv`` spells in plain form, read by GRAMMAR; None for any other argv.

    Plain form is a subcommand, then its positionals and options in any
    order: each option spelled in full, given at most once and followed by
    its value, no value that starts with ``-``, and every value of its type
    and among its choices.  Help requests, abbreviations, ``--opt=value``,
    negative numbers and every malformed argv are left to argparse, which
    reads the same plain argv into the same fields.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    fields: dict[str, object] = {"command": argv[0]}
    positionals, options = [], {}
    for name, keywords in GRAMMAR[argv[0]][2]:
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, keywords
            fields[dest] = keywords.get("default")
        else:
            positionals.append((name, keywords))
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            name, keywords = options.pop(token)  # so a repeat is declined
            if keywords.get("action") == "store_true":
                fields[name] = True
                continue
            token = next(tokens, "-")  # a missing value is declined as a dash
        elif positionals and not token.startswith("-"):
            name, keywords = positionals.pop(0)
        else:
            return None
        if token.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        fields[name] = value
    return None if positionals else SimpleNamespace(**fields)


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


_SEPARATORS = {"csv": ",", "tsv": "\t"}  # of each row's values, in the delimited formats


def _emit(chunks: Iterable[str], out: str | None) -> int:
    """Write chunks in order, each as it comes, to stdout or to ``out``: 1 if that fails, else 0.

    One loop writes to either target.  A failed write prints ``cannot write
    stdout: reason`` or ``cannot write PATH: reason``, except a closed pipe on
    stdout, which needs no message: the reader is gone.
    """
    try:
        with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
    except OSError as exc:
        if out is None:
            # Python flushes stdout again at exit, so its descriptor goes to
            # the null device to keep that flush quiet.
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 1
        reason = exc.strerror or exc
        print(f"cannot write {'stdout' if out is None else out}: {reason}", file=sys.stderr)
        return 1
    return 0


def _json(value: object) -> str:
    """``json.dumps(value)`` for the values this CLI writes, without loading ``json``.

    Those are ints, bools, lists, tuples, dicts, strings that need no escape
    (the keys and the piece names), and fractions, written ``"n/d"``: any
    value with a ``denominator`` that is not an int or a bool, which have one too.
    """
    if type(value) is int:  # first, as table rows hold thousands; a bool is not one
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{key}": {_json(item)}' for key, item in value.items()) + "}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if hasattr(value, "denominator"):
        return f'"{value.numerator}/{value.denominator}"'
    return f'"{value}"'


def _render(fmt: str, payload: dict) -> Iterator[str]:
    """A handler's payload as csv, tsv or json text, in chunks.

    Its last value is the data: an int, one line, or rows of values, one
    line or json chunk each, so rows are made as they are written.
    """
    last, data = next(reversed(payload.items()))
    if type(data) is int:
        yield (_json(payload) if fmt == "json" else str(data)) + "\n"
    elif fmt == "json":
        yield _json({**payload, last: ()})[:-2]  # up to the open bracket of the data
        separator = ""
        for row in data:
            yield separator + _json(row)
            separator = ", "
        yield "]}\n"
    else:
        for row in data:
            yield _SEPARATORS[fmt].join(map(str, row)) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _parse(argv)  # argparse, for help, usage errors and any other argv
    # The handlers are private because bench/tracer.py wraps each layer's
    # public names and opens a span only where a call crosses layers: a public
    # handler would turn the calls it makes into its own layer into calls
    # inside that layer, and their spans would vanish.
    home = importlib.import_module(f"{__package__}.{GRAMMAR[args.command][0]}")
    handler = getattr(home, f"_cmd_{args.command}")
    # Counts may pass the default cap on printing long integers.  It is lifted
    # only to run the handler and write its text, so argv, in later calls too, keeps it.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        result, status = handler(args)  # a refusal raises here, before any write
        chunks = _render(args.format, result) if isinstance(result, dict) else result
        return _emit(chunks, args.out) or status
    except _UsageError as exc:
        # argparse reads the argv again only to report the refusal with the
        # subcommand's usage, as it reports its own errors.
        _parse(argv).parser.error(str(exc))
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def run() -> int:
    """The process entry: ``main`` on the process's argv, then ``gc.freeze()`` however it ends.

    The collections at interpreter shutdown skip frozen objects, so a run
    exits without walking all it holds; ``atexit`` handlers, the flush of
    stdout and stderr and every exit status are kept.  ``main`` never
    freezes, because tests call it many times in one process.
    """
    try:
        return main()
    finally:
        gc.freeze()

