"""Command-line front end for the price-to-braid-to-invariant pipeline.

Subcommands:

* ``braid CSV``: detect crossings and print the braid word; optionally
  write the crossing audit log as JSON first, so the word is printed
  only once the log is complete.
* ``invariant WORD|CSV``: diagram statistics plus the bracket and Jones
  polynomials of the chosen closure, JSON on stdout.
* ``prob WORD|CSV``: build the interference braid against a test-strand
  word, free-reduce it, plat-close it, and evaluate the outcome
  probability at A = e^(i pi/10) only; or probe the bare formula with
  ``--stats``.
* ``render WORD``: ASCII or SVG diagram of a braid word.

``invariant`` and ``prob`` print one strict-JSON document: the bytes of
``json.dumps(doc, indent=2)``, ASCII with ``\\uXXXX`` escapes, and a final
newline.  Exit codes: 0 success, 1 input error (or a closed stdout, with
nothing on stderr), 2 exact-path crossing cap exceeded or usage error.
Identical invocations produce byte-identical output; nothing here depends
on clocks, locales, or iteration order of unordered sets.

The ingest, crossing and render modules are imported inside the commands
that read a CSV or draw a word, so a braid-word ``invariant`` or ``prob``
starts without loading them.  A word command on a plain argv (below)
loads none of ``typing``, ``re``, ``argparse`` and ``json``: the package
takes its annotation names from ``collections.abc``, and ``_is_word``
tells word text from a CSV path without a regex.

One table, ``_COMMANDS``, declares every subcommand's arguments.  An argv
of the plain form (a subcommand, each of its positionals, then options
spelled in full, every value in its own token) is read from it by
``_read_plain``.  Every other argv, ``--name=value`` forms and ``prob
--stats`` without a source included, goes to the argparse parser
``build_parser()`` makes from the same table, and so do help,
``--version`` and every usage error: argparse is imported, and a parser
built, only by a call that needs one.  The module keeps no state between
calls.
"""

from __future__ import annotations

import os
import sys
from math import isfinite
from types import SimpleNamespace

from . import __version__
from .braid import BraidWord, _ascii_int, _quote, format_word, free_reduce, parse_word
from .bracket import (
    CrossingCapExceeded,
    _writhe_corrected_value,
    bracket_eval,
    bracket_poly,
    writhe_corrected,
)
from .closure import ClosedBraid, diagram_stats
from .laurent import poly_to_json
from .outcome import _complex_json, interference_braid, outcome_from_stats, outcome_probability


def _is_word(source: str) -> bool:
    """Whether a source is braid word text rather than a CSV path: the text
    before its first ":" is one or more decimal digits with any whitespace
    around them.  That is what the regex ^\\s*\\d+\\s*: matches, whose \\s
    and \\d are str.isspace and str.isdecimal; the test takes no regex, so
    that the CLI does not load re.
    """
    head, colon, _ = source.partition(":")
    return bool(colon) and head.strip().isdecimal()


# complex() and int() also read non-ASCII digits and underscores; an option's
# numbers, like word text, take neither.
def _parse_complex(text: str, field: str) -> complex:
    if text.isascii() and "_" not in text:
        try:
            return complex(text.replace(" ", ""))
        except ValueError:
            pass
    raise ValueError(f"{field} {text!r} is not a complex number")


def _parse_int(text: str, field: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError:
        raise ValueError(f"{field} {text!r} is not an integer") from None


def _load_series(path: str, start: str | None, end: str | None):
    from .market import WindowError, parse_csv, parse_price_date, window_bounds

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if start is None and end is None:
        return parse_csv(text)

    def window(dates):
        # Called only once the whole document has validated, so a CSV error
        # is reported before anything about the window.
        if not dates:
            raise WindowError(f"{path} has no dates to window")
        lo = dates[0] if start is None else parse_price_date(start)
        hi = dates[-1] if end is None else parse_price_date(end)
        return window_bounds(dates, lo, hi)

    return parse_csv(text, window=window)


def _load_word(source: str, start: str | None, end: str | None) -> BraidWord:
    if _is_word(source):
        return parse_word(source)
    from .crossings import build_braid

    return build_braid(_load_series(source, start, end))


def _scalar_json(value) -> str:
    # Every other scalar (an infinity, a NaN) goes through json's own indent-2
    # encoder, so its text and the non-finite refusal are json's.  No
    # successful command reaches it, so json is imported only here.
    import json

    return json.JSONEncoder(indent=2, allow_nan=False).encode(value)


def _json_text(value, newline: str = "\n") -> str:
    """The text json.dumps(value, indent=2, allow_nan=False) writes for a
    value nested where `newline` (a newline plus its indent) starts a line.

    Containers must be dicts with str keys and lists.  Strings are quoted
    by json's ASCII escaper, ints and finite floats are their repr, None
    and bools are json's literals, and a list of [int, int] rows, such as
    a polynomial's terms, fills one template per row.  A command prints
    the whole text at once, so a non-finite value is an error with nothing
    on stdout.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or (kind is float and isfinite(value)):
        # json writes both with their type's repr.
        return repr(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_quote(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        if all(type(row) is list and len(row) == 2 and type(row[0]) is int
               and type(row[1]) is int for row in value):
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            items = [pair % (e, c) for e, c in value]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _scalar_json(value)


def _cmd_braid(args: SimpleNamespace) -> int:
    from .crossings import braid_with_events, write_audit

    series = _load_series(args.csv, args.window_from, args.window_to)
    word, events = braid_with_events(series)
    if args.audit:
        if os.path.exists(args.audit) and os.path.samefile(args.csv, args.audit):
            raise ValueError(f"audit path {args.audit} is the input CSV")
        # Written before the word, so an unwritable path leaves stdout empty.
        try:
            with open(args.audit, "w", encoding="utf-8") as fh:
                write_audit(fh, events, word)
        except BrokenPipeError as exc:
            # The audit path is a pipe whose reader has gone, not a closed stdout.
            _report(str(exc))
            return 1
    print(format_word(word))
    return 0


def _cmd_invariant(args: SimpleNamespace) -> int:
    word = _load_word(args.source, args.window_from, args.window_to)
    k = ClosedBraid(word, args.closure)
    stats = diagram_stats(k)
    doc: dict = {"word": format_word(word), "stats": stats.to_json()}
    if args.bracket or args.jones:
        bracket = bracket_poly(k)
    if args.bracket:
        doc["bracket"] = poly_to_json(bracket, variable="A")
    if args.jones:
        conventions = [args.convention] if args.convention else ["paper", "standard"]
        doc["jones"] = [
            poly_to_json(writhe_corrected(bracket, k, conv), variable="t^{1/4}", convention=conv)
            for conv in conventions
        ]
    if args.eval_point is not None:
        a = _parse_complex(args.eval_point, "--eval")
        value = bracket_eval(k, a)
        doc["eval"] = {"point_a": _complex_json(a), "bracket_value": _complex_json(value)}
        if args.jones:
            v = _writhe_corrected_value(value, a, stats.writhe)
            doc["eval"]["jones_value_at_a4"] = _complex_json(v)
    print(_json_text(doc))
    return 0


def _cmd_prob(args: SimpleNamespace) -> int:
    if args.stats:
        fields = args.stats.split(",")
        if len(fields) != 4:
            raise ValueError("--stats expects V,components,minima,writhe")
        report = outcome_from_stats(
            jones_value=_parse_complex(fields[0], "--stats V"),
            components=_parse_int(fields[1], "--stats components"),
            minima=_parse_int(fields[2], "--stats minima"),
            writhe_value=_parse_int(fields[3], "--stats writhe"),
        )
        print(_json_text(report.to_json()))
        return 0
    sigma = _load_word(args.source, args.window_from, args.window_to)
    if args.gamma:
        gamma = parse_word(args.gamma)
    else:
        gamma = BraidWord(sigma.n_strands + 1)
    braid = free_reduce(interference_braid(sigma, gamma))
    report = outcome_probability(ClosedBraid(braid, "plat"))
    doc = {"interference_word": format_word(braid)}
    doc.update(report.to_json())
    print(_json_text(doc))
    return 0


def _cmd_render(args: SimpleNamespace) -> int:
    from .render import render_ascii, render_svg

    word = parse_word(args.word)
    text = render_ascii(word) if args.format == "ascii" else render_svg(word)
    sys.stdout.write(text)
    return 0


# The command-line grammar, read both by build_parser() and by _read_plain():
# each subcommand's help, command function, positionals and options, in the
# order --help lists them.  An argument is its name and the keyword arguments
# of its add_argument call.
_WINDOW = (
    ("--from", {"dest": "window_from", "metavar": "DATE",
                "help": "window start, inclusive (ISO or M/D/YYYY)"}),
    ("--to", {"dest": "window_to", "metavar": "DATE", "help": "window end, inclusive"}),
)
_COMMANDS = {
    "braid": (
        "braid word of a price CSV", _cmd_braid,
        [("csv", {"help": "price CSV path"})],
        [*_WINDOW, ("--audit", {"metavar": "PATH", "help": "write the crossing audit log here"})],
    ),
    "invariant": (
        "diagram stats and polynomials of a closure", _cmd_invariant,
        [("source", {"help": "braid word ('n: g1 g2 ...') or price CSV path"})],
        [
            *_WINDOW,
            ("--closure", {"choices": ("plat", "trace"), "default": "plat"}),
            ("--bracket", {"action": "store_true", "help": "include the bracket polynomial"}),
            ("--jones", {"action": "store_true", "help": "include the Jones polynomial"}),
            ("--convention", {"choices": ("paper", "standard"),
                              "help": "Jones variable convention (default: both)"}),
            ("--eval", {"dest": "eval_point", "metavar": "COMPLEX",
                        "help": "also evaluate numerically at this point A; "
                                "a value with a leading minus needs the = form, --eval=-0.5+1j"}),
        ],
    ),
    "prob": (
        "outcome probability of the interference closure", _cmd_prob,
        [("source", {"nargs": "?",
                     "help": "system braid word or price CSV path (omit with --stats)"})],
        [
            *_WINDOW,
            ("--gamma", {"metavar": "WORD",
                         "help": "test-strand word on n+1 strands (default: empty)"}),
            ("--stats", {"metavar": "V,C,M,WR",
                         "help": "probe the formula on raw values instead of a braid; "
                                 "a value with a leading minus needs the = form, "
                                 "--stats=-2+3j,1,1,0"}),
        ],
    ),
    "render": (
        "draw a braid word", _cmd_render,
        [("word", {"help": "braid word text 'n: g1 g2 ...'"})],
        [("--format", {"choices": ("ascii", "svg"), "default": "ascii"})],
    ),
}


# argparse is imported here, not at the top, so a plain command line never
# loads it; the annotations that name it are never evaluated.
def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="stockbraid",
        description="Braid words from price crossings and knot invariants of their closures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in (*positionals, *options):
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    return parser


def _plain_grammar(name, func, positionals, options):
    """What _read_plain needs of one subcommand: its positionals' dests,
    its options by name as (dest, is_flag, choices), and the namespace
    argparse starts from."""
    defaults = {"command": name, "func": func}
    plain_options = {}
    for flag, kwargs in options:
        dest = kwargs.get("dest", flag[2:])
        is_flag = kwargs.get("action") == "store_true"
        plain_options[flag] = (dest, is_flag, kwargs.get("choices"))
        defaults[dest] = False if is_flag else kwargs.get("default")
    return [dest for dest, _ in positionals], plain_options, defaults


_PLAIN = {name: _plain_grammar(name, func, positionals, options)
          for name, (_, func, positionals, options) in _COMMANDS.items()}


def _read_plain(argv) -> SimpleNamespace | None:
    """The namespace argparse would give a plain argv, or None for any other.

    Plain is a subcommand name; then each of its positionals, none starting
    with "-"; then its options spelled in full, a flag bare and any other
    as ``--name value``, where the value does not start with "-" and a
    choices value is one of its choices.  A repeated option keeps its last
    value, as argparse's store actions do.  Everything else, ``=`` values,
    prob without a source, help, --version and every usage error included,
    is left to argparse: this reader never prints, raises or exits.
    """
    if not argv or not all(type(token) is str for token in argv):
        return None
    grammar = _PLAIN.get(argv[0])
    if grammar is None:
        return None
    positionals, options, defaults = grammar
    values = dict(defaults)
    tokens = iter(argv[1:])
    # A missing token reads as "-", which no positional or value may start with.
    for dest in positionals:
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        values[dest] = value
    for name in tokens:
        option = options.get(name)
        if option is None:
            return None
        dest, is_flag, choices = option
        if is_flag:
            value = True
        else:
            value = next(tokens, "-")
            if value.startswith("-") or (choices is not None and value not in choices):
                return None
        values[dest] = value
    return SimpleNamespace(**values)


def _usage_problem(args: SimpleNamespace) -> str | None:
    """The usage error argparse cannot see in a parsed argv, if any."""
    if args.command == "prob" and not args.stats and not args.source:
        return "prob needs a braid word, a CSV path, or --stats"
    if args.command == "prob" and args.stats and (args.source or args.gamma or args.window_from is not None
                                                  or args.window_to is not None):
        return "prob --stats takes no braid word, CSV path, --gamma or --from/--to"
    if (args.command in ("invariant", "prob") and args.source and _is_word(args.source)
            and (args.window_from is not None or args.window_to is not None)):
        return "--from/--to window a price CSV, not a braid word"
    return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    parser = None
    if args is None:
        parser = build_parser()
        args = SimpleNamespace(**vars(parser.parse_args(argv)))
    problem = _usage_problem(args)
    if problem is not None:
        (parser or build_parser()).error(problem)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter shutdown
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`| head`): exit 1 and say nothing;
        # stdout goes to devnull so the flush at shutdown cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CrossingCapExceeded as exc:
        _report(str(exc))
        return 2
    except OverflowError as exc:
        # Float arithmetic at an extreme evaluation point or statistic.
        _report(f"numeric overflow: {exc}")
        return 1
    except MemoryError:
        # A word on hundreds of millions of strands, say.
        _report("out of memory")
        return 1
    except (ValueError, OSError) as exc:
        _report(str(exc))
        return 1


def _report(message: str) -> None:
    # One line on stderr even when the message quotes a ticker with a line break.
    print("error: " + message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
